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


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D complex array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


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


def _check_hermitian(a: np.ndarray, tol: Tolerances) -> None:
    dev = frob(a - dagger(a))
    if dev > tol.psd_tol * max(1.0, frob(a)):
        raise NotHermitian(f"symmetry deviation {dev:.3e} exceeds tolerance")


def herm_eig(a, tol: Tolerances = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues real and sorted
    in descending order, eigenvectors unitary columnwise, and
    ``a = V diag(w) V*``.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"square matrix required, got {a.shape}")
    _check_hermitian(a, tol)
    try:
        w, v = np.linalg.eigh(hermitian_part(a))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc
    return w[::-1].copy(), v[:, ::-1].copy()


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
    negative raises ``NotPSD``.
    """
    a = as_matrix(a)
    w, v = herm_eig(a, tol)
    floor = -zero_level(max(1.0, np.abs(w).max(initial=0.0)), tol)
    if w.size and w.min() < floor:
        raise NotPSD(f"eigenvalue {w.min():.3e} below tolerance {floor:.3e}")
    w = np.where(w <= cut, 0.0, w)
    return hermitian_part((v * np.sqrt(w)) @ dagger(v))


def rank_rcond(a: np.ndarray, tol: Tolerances = DEFAULT_TOL, atol: float = 0.0) -> float:
    """Relative singular-value cutoff of ``a``: singular values at or below
    ``rank_rcond * sigma_max`` count as zero.

    The cutoff is ``tol.rank_tol`` and, when ``atol > 0``, at least
    ``atol / ||a||_F``.  Since ``sigma_max <= ||a||_F``, no singular value
    above ``atol`` is cut by that floor.
    """
    rcond = tol.rank_tol if tol.rank_tol is not None else max(a.shape) * np.finfo(float).eps
    if atol > 0:
        scale = frob(a)
        if scale > 0:
            rcond = max(rcond, atol / scale)
    return rcond


def _pinv_rank(a: np.ndarray, rcond: float) -> tuple[np.ndarray, int]:
    """``np.linalg.pinv(a, rcond)`` and the number of singular values it keeps.

    One SVD, in ``np.linalg.pinv``'s own arithmetic, so the pseudoinverse is
    bit-identical to numpy's.  ``a`` must be a finite 2-D complex array.
    """
    if a.size == 0:
        return np.zeros((a.shape[1], a.shape[0]), dtype=complex), 0
    try:
        u, s, vh = np.linalg.svd(a.conjugate(), full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc
    large = s > rcond * np.amax(s, axis=-1, keepdims=True)
    s = np.divide(1, s, where=large, out=s)
    s[~large] = 0
    return vh.T @ (s[:, np.newaxis] * u.T), int(large.sum())


def pinv(a, tol: Tolerances = DEFAULT_TOL, atol: float = 0.0) -> np.ndarray:
    """Moore-Penrose pseudoinverse with the rank cutoff of ``rank_rcond``."""
    a = as_matrix(a)
    return _pinv_rank(a, rank_rcond(a, tol, atol))[0]


def is_psd(a, tol: Tolerances = DEFAULT_TOL) -> PsdResult:
    """Positivity test; reports the minimum eigenvalue either way."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"square matrix required, got {a.shape}")
    _check_hermitian(a, tol)
    w = np.linalg.eigvalsh(hermitian_part(a))
    min_eig = float(w[0]) if w.size else 0.0
    scale = max(float(np.abs(w).max()) if w.size else 0.0, 1.0)
    return PsdResult(ok=min_eig >= -zero_level(scale, tol), min_eigenvalue=min_eig)


def kron(a, b) -> np.ndarray:
    """Tensor product with the first factor as the slow (ancilla) index."""
    return np.kron(as_matrix(a), as_matrix(b))


def ptrace_first(x, k: int, n: int) -> np.ndarray:
    """Trace out the first (ancilla) factor of an operator on C^k (x) C^n."""
    x = as_matrix(x)
    if x.shape != (k * n, k * n):
        raise DimensionMismatch(f"expected shape {(k * n, k * n)}, got {x.shape}")
    return np.einsum("aiaj->ij", x.reshape(k, n, k, n))
