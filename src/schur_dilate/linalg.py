"""Dense complex matrix kernel.

All operators in this package are plain ``numpy`` arrays of ``complex128``.
Tensor products put the ancilla on the FIRST (slow) factor throughout:
``kron(P, rho)`` lays out ``P``-indexed blocks each holding a copy of
``rho``, and ``ptrace_first`` undoes exactly that layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian, NotPSD, NotUnitary


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances shared across the library.

    psd_tol    relative eigenvalue tolerance for positivity, symmetry, unitarity
               and rank decisions on inputs; contractive factor solves also
               drop singular values below it, capped so the drop stays within
               their residual slack
    rank_tol   relative singular-value cutoff for pseudoinverses; ``None``
               selects ``max(rows, cols) * machine epsilon``
    recon_tol  Frobenius tolerance for parametrization round-trips
    """

    psd_tol: float = 1e-10
    rank_tol: float | None = None
    recon_tol: float = 1e-8

    def __post_init__(self):
        # written so that nan fails too: nan <= 0 is False
        if not (0 < self.psd_tol < np.inf and 0 < self.recon_tol < np.inf):
            raise ValueError("tolerances must be finite and strictly positive")
        if self.rank_tol is not None and not 0 < self.rank_tol < np.inf:
            raise ValueError("rank_tol must be finite and strictly positive or None")


DEFAULT_TOL = Tolerances()


@dataclass(frozen=True)
class PsdResult:
    """Outcome of a positivity test; truthy iff the matrix is PSD."""

    ok: bool
    min_eigenvalue: float

    def __bool__(self) -> bool:
        return self.ok


def _as_size(value, name: str = "size") -> int:
    """An integral number (``2``, ``2.0``, a numpy int) as an int; booleans,
    fractions and non-numbers raise ``ValueError``, not truncated by ``int``."""
    try:
        if not isinstance(value, (bool, np.bool_)) and int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D complex array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _as_stack(a, name: str = "matrix") -> np.ndarray:
    """``as_matrix``, or a finite 3-D complex array: a stack of matrices."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 3:
        return as_matrix(m, name)
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError(f"{name} stack contains non-finite entries")
    return m


def _check_square(a: np.ndarray) -> None:
    if a.shape[-2] != a.shape[-1]:
        raise DimensionMismatch(f"square matrix required, got {a.shape}")


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def hermitian_part(a: np.ndarray) -> np.ndarray:
    return (a + dagger(a)) / 2


def frob(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def unitarity_deviation(u: np.ndarray) -> float:
    """Frobenius norm of U*U - I; zero exactly for an isometry U."""
    return frob(dagger(u) @ u - np.eye(u.shape[1]))


def check_unitary(u: np.ndarray, bound: float, name: str = "matrix") -> float:
    """``unitarity_deviation(u)``, raising ``NotUnitary`` above ``bound * max(1, cols)``."""
    deviation = unitarity_deviation(u)
    if deviation > bound * max(1.0, u.shape[1]):
        raise NotUnitary(f"{name} is not unitary: deviation {deviation:.3e}")
    return deviation


def opnorm(a: np.ndarray) -> float:
    """Operator 2-norm (largest singular value)."""
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def _frobs(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, from one float dot per matrix."""
    v = np.ascontiguousarray(a).view(float).reshape(len(a), 2 * a.shape[-2] * a.shape[-1])
    return np.sqrt(np.einsum("ti,ti->t", v, v))


def _hermitian_part_checked(a: np.ndarray, tol: Tolerances) -> np.ndarray:
    """``hermitian_part(a)``, after checking that ``a`` (each matrix of a
    stack) is Hermitian within ``psd_tol`` relative to its Frobenius norm."""
    adj = dagger(a)
    if a.ndim == 2:
        dev = frob(a - adj)
        bad = dev > tol.psd_tol * max(1.0, frob(a))
    else:
        devs = _frobs(a - adj)
        dev = devs.max(initial=0.0)
        bad = bool((devs > tol.psd_tol * np.maximum(1.0, _frobs(a))).any())
    if bad:
        raise NotHermitian(f"symmetry deviation {dev:.3e} exceeds tolerance")
    return (a + adj) / 2


def herm_eig(a, tol: Tolerances = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues real and sorted
    in descending order, eigenvectors unitary columnwise, and
    ``a = V diag(w) V*``.  ``a`` may be a stack ``(T, N, N)``: one stacked
    ``eigh`` then gives stacked results, each bit-identical to the call on
    its matrix alone.
    """
    a = _as_stack(a)
    _check_square(a)
    h = _hermitian_part_checked(a, tol)
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc
    return w[..., ::-1].copy(), v[..., ::-1].copy()


def zero_level(scale: float, tol: Tolerances = DEFAULT_TOL) -> float:
    """The one rank rule: in a Hermitian matrix of scale ``scale``, an
    eigenvalue within ``psd_tol * scale`` of 0 is rounding noise.  ``is_psd``
    and ``sqrt_psd`` fail below its negative, ``defects`` zeroes ``1 - s^2``
    up to ``zero_level(1)``, and ``from_effects`` and ``psd_parametrize`` cut at it."""
    return tol.psd_tol * scale


def sqrt_psd(a, tol: Tolerances = DEFAULT_TOL, cut: float = 0.0) -> np.ndarray:
    """Unique positive square root of a Hermitian PSD matrix.

    Eigenvalues in ``[-zero_level(||a||), 0)`` are rounding noise and clamp
    to zero, as do positive ones up to ``cut`` (default none: a matrix's own
    scale cannot tell a small eigenvalue from noise); anything more
    negative raises ``NotPSD``.  ``a`` may be a stack ``(T, N, N)``, rooted
    through one stacked ``herm_eig``; each root is bit-identical to the
    root of its matrix alone.
    """
    w, v = herm_eig(a, tol)
    if w.shape[-1]:
        floor = -zero_level(np.maximum(1.0, np.abs(w).max(axis=-1)), tol)
        low = w[..., -1]
        bad = np.flatnonzero(low < floor)
        if bad.size:
            i = np.unravel_index(bad[0], low.shape)
            raise NotPSD(f"eigenvalue {low[i]:.3e} below tolerance {floor[i]:.3e}")
    w = np.where(w <= cut, 0.0, w)
    return hermitian_part((v * np.sqrt(w)[..., np.newaxis, :]) @ dagger(v))


def rank_rcond(a: np.ndarray, tol: Tolerances = DEFAULT_TOL, atol: float = 0.0) -> float:
    """Relative singular-value cutoff of ``a``: singular values at or below
    ``rank_rcond * sigma_max`` count as zero.

    The cutoff is ``tol.rank_tol`` and, when ``atol > 0``, at least
    ``atol / ||a||_F``.  Since ``sigma_max <= ||a||_F``, no singular value
    above ``atol`` is cut by that floor.
    """
    return float(_rank_rconds(max(a.shape), np.array(frob(a)), tol, atol))


def _rank_rconds(side, scale: np.ndarray, tol: Tolerances, atol=0.0) -> np.ndarray:
    """``rank_rcond`` of each matrix of a stack, given their largest sides
    ``side`` and Frobenius norms ``scale`` (``side`` and ``atol`` may be
    arrays or scalars)."""
    rcond = np.multiply(side, np.finfo(float).eps) if tol.rank_tol is None else tol.rank_tol
    floor = np.divide(atol, scale, out=np.zeros_like(scale), where=scale > 0)
    return np.maximum(rcond, floor)


def _pinv_rank(a: np.ndarray, rcond: float) -> tuple[np.ndarray, int]:
    """``np.linalg.pinv(a, rcond)`` and the number of singular values it keeps.

    ``a`` must be a finite 2-D complex array.
    """
    if a.size == 0:
        return np.zeros((a.shape[1], a.shape[0]), dtype=complex), 0
    inv, rank = _pinv_stack(a[np.newaxis], np.array([rcond]))
    return inv[0], int(rank[0])


def _pinv_stack(a: np.ndarray, rcond: np.ndarray,
                floor: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.pinv`` of each matrix of a nonempty stack ``(T, m, n)``,
    the i-th with relative cutoff ``rcond[i]``, and the number of singular
    values each keeps.  Singular values at or below ``floor[i]`` are cut too.

    One stacked SVD, in ``np.linalg.pinv``'s own arithmetic, so without a
    floor each pseudoinverse is bit-identical to numpy's of its matrix alone.
    """
    try:
        u, s, vh = np.linalg.svd(a.conjugate(), full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc
    cutoff = rcond[:, np.newaxis] * s[:, :1]  # s is sorted in descending order
    if floor is not None:
        cutoff = np.maximum(cutoff, floor[:, np.newaxis])
    large = s > cutoff
    s = np.divide(1, s, where=large, out=s)
    s[~large] = 0
    inv = vh.swapaxes(-1, -2) @ (s[..., np.newaxis] * u.swapaxes(-1, -2))
    return inv, large.sum(axis=-1)


def pinv(a, tol: Tolerances = DEFAULT_TOL, atol: float = 0.0) -> np.ndarray:
    """Moore-Penrose pseudoinverse with the rank cutoff of ``rank_rcond``."""
    a = as_matrix(a)
    return _pinv_rank(a, rank_rcond(a, tol, atol))[0]


def is_psd(a, tol: Tolerances = DEFAULT_TOL):
    """Positivity test; reports the minimum eigenvalue either way.

    ``a`` may be a stack ``(T, N, N)``: one stacked ``eigvalsh`` then gives
    a list of ``T`` results, each equal to the result for its matrix alone.
    """
    a = _as_stack(a)
    _check_square(a)
    w = np.linalg.eigvalsh(_hermitian_part_checked(a, tol))
    if not w.shape[-1]:
        w = np.zeros(w.shape[:-1] + (1,))
    min_eig = np.atleast_1d(w[..., 0])
    ok = min_eig >= -zero_level(np.maximum(np.abs(w).max(axis=-1), 1.0), tol)
    results = [PsdResult(ok=o, min_eigenvalue=m) for o, m in zip(ok.tolist(), min_eig.tolist())]
    return results if a.ndim == 3 else results[0]


def kron(a, b) -> np.ndarray:
    """Tensor product with the first factor as the slow (ancilla) index."""
    return np.kron(as_matrix(a), as_matrix(b))


def ptrace_first(x, k: int, n: int) -> np.ndarray:
    """Trace out the first (ancilla) factor of an operator on C^k (x) C^n."""
    x = as_matrix(x)
    if x.shape != (k * n, k * n):
        raise DimensionMismatch(f"expected shape {(k * n, k * n)}, got {x.shape}")
    return np.einsum("aiaj->ij", x.reshape(k, n, k, n))
