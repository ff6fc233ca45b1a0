"""Defect operators, the Julia unitary completion, and contractive factor solves.

For a contraction ``T`` the defect operators are

    D_T  = (I - T*T)^(1/2)        square on the domain,
    D_T* = (I - TT*)^(1/2)        square on the codomain,

and ``[[T, D_T*], [D_T, -T*]]`` is unitary (``julia_block``; ``with_freedom``
applies its freedom ``diag(I, U1) . U . diag(I, U2)``).  Both defects come
from one SVD (``defects``), which also takes a stack of same-shaped
matrices.  The two solve operations realize the closed-form factorizations
``Gamma = Y X^+`` that every parametrization in this package is built from:
the pseudoinverse extends the factor by zero off the closed range, which is
also the normalization making Gamma unique.

An extracted gamma costs one SVD of Gamma itself, which gives its norm
test, its clip, both its defects and, for a carried solve, where ``1 -
s^2`` is clear of zero, their inverses (``_gamma_steps``, stacked over the
gammas solved at once), and one for the pseudoinverse of its solve unless
a carried inverse stands in (``_solve_stack``); a rebuild takes the
defects of all its gammas from one stacked SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NoFactor, NotContraction, NotEquinormed
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    dagger,
    frob,
    hermitian_part,
    opnorm,
    _as_stack,
    _frobs,
    _pinv_rank,
    _pinv_stack,
    _rank_rconds,
    rank_rcond,
    zero_level,
)

# Slack allowed on extracted factors before clipping; beyond it the solve
# is declared infeasible.  Computed results (dilation unitaries, simulated
# channel outputs, dilated PVMs) are held to the same slack.
CLIP_SLACK = 1e-9


@dataclass(frozen=True)
class DefectPair:
    """Both defect operators of one contraction."""

    d_t: np.ndarray
    d_t_star: np.ndarray


@dataclass(frozen=True)
class PartialIsometryFactor:
    """Partial isometry V with V X = Y, vanishing off the initial space."""

    v: np.ndarray
    initial_rank: int


def _contraction_norm(t: np.ndarray, tol: Tolerances) -> float:
    """Operator norm of ``t``; ``NotContraction`` beyond ``1 + psd_tol``."""
    norm = opnorm(t)
    if norm > 1.0 + tol.psd_tol:
        raise NotContraction(f"operator norm {norm:.12f} exceeds 1")
    return norm


def clip_to_contraction(g: np.ndarray) -> np.ndarray:
    """Clip singular values in (1, 1 + CLIP_SLACK] to exactly 1.

    Values beyond the slack are a real violation and raise ``NotContraction``.
    """
    if g.size == 0:
        return g
    norm = opnorm(g)
    if norm <= 1.0:
        return g
    if norm > 1.0 + CLIP_SLACK:
        raise NotContraction(f"operator norm {norm:.12e} exceeds 1 + {CLIP_SLACK:.1e}")
    u, s, vh = np.linalg.svd(g, full_matrices=False)
    return (u * np.minimum(s, 1.0)) @ vh


def _pad_ones(root: np.ndarray, n: int) -> np.ndarray:
    """``root`` extended by ones along its last axis to length ``n``."""
    if root.shape[-1] == n:
        return root
    return np.concatenate((root, np.ones(root.shape[:-1] + (n - root.shape[-1],))), axis=-1)


def _spectral_pair(u: np.ndarray, vh: np.ndarray, root: np.ndarray):
    """``V diag(root) V*`` and ``U diag(root) U*`` from a full SVD ``U S V*``,
    ``root`` extended by ones on each side's excess dimensions."""
    d_t = (dagger(vh) * _pad_ones(root, vh.shape[-1])[..., np.newaxis, :]) @ vh
    d_t_star = (u * _pad_ones(root, u.shape[-1])[..., np.newaxis, :]) @ dagger(u)
    return d_t, d_t_star


def _defect_pair(u: np.ndarray, s: np.ndarray, vh: np.ndarray, tol: Tolerances,
                 inverse: bool = False):
    """Both defects from the full SVD ``T = U S V*`` of a matrix or a stack,
    and with ``inverse`` also ``D_T^-1`` and ``D_T*^-1`` of each matrix of
    the stack and whether it has them (else None and None): no ``1 - s^2``
    at or below ``zero_level(1)``, which the defects zero.  Where not, its
    inverses are meaningless (their roots are set to 1).  The inverses
    take the same products as the defects, stacked with them."""
    w = (1.0 - s) * (1.0 + s)
    clear = w > zero_level(1.0, tol)
    root = np.sqrt(np.where(clear, w, 0.0))
    if not inverse:
        d_t, d_t_star = _spectral_pair(u, vh, root)
        return DefectPair(hermitian_part(d_t), hermitian_part(d_t_star)), None, None
    d_t, d_t_star = _spectral_pair(u, vh, np.stack((root, 1.0 / np.sqrt(np.where(clear, w, 1.0)))))
    return (DefectPair(hermitian_part(d_t[0]), hermitian_part(d_t_star[0])),
            DefectPair(d_t[1], d_t_star[1]), clear.all(axis=-1))


def defects(t, tol: Tolerances = DEFAULT_TOL) -> DefectPair:
    """Both defect operators from one SVD ``T = U S V*``.

    ``D_T = V sqrt(1 - S^2) V*`` and ``D_T* = U sqrt(1 - S^2) U*``, the
    identity on the kernel complements.  Values of ``1 - s^2`` at or below
    ``zero_level(1)`` count as 0, so singular values that are 1 up to
    rounding leave exact kernels instead of sqrt(eps) noise.  ``t`` may be
    a stack ``(k, m, n)`` of matrices: one stacked SVD then gives stacked
    defects, each bit-identical to the defects of its matrix alone.
    """
    t = _as_stack(t)
    try:
        u, s, vh = np.linalg.svd(t)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    norm = s.max(initial=0.0)
    if norm > 1.0 + tol.psd_tol:
        raise NotContraction(f"operator norm {norm:.12f} exceeds 1")
    return _defect_pair(u, s, vh, tol)[0]


def defect(t, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """D_T, square of side cols(T); of each matrix, for a stack."""
    return defects(t, tol).d_t


def defect_star(t, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """D_T*, square of side rows(T); of each matrix, for a stack."""
    return defects(t, tol).d_t_star


def julia_block(t: np.ndarray, pair: DefectPair) -> np.ndarray:
    """The Julia unitary [[T, D_T*], [D_T, -T*]] from T and its defects."""
    return np.block([[t, pair.d_t_star], [pair.d_t, -dagger(t)]])


def with_freedom(u: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """diag(I, left) . U . diag(I, right), computed in place on U's trailing
    rows and columns instead of as two full block-diagonal products."""
    p, q = left.shape[0], right.shape[0]
    u[len(u) - p:] = left @ u[len(u) - p:]
    u[:, u.shape[1] - q:] = u[:, u.shape[1] - q:] @ right
    return u


def julia(t, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Unitary completion [[T, D_T*], [D_T, -T*]] of a contraction."""
    t = as_matrix(t)
    return julia_block(t, defects(t, tol))


def _solve_atol(side, tol: Tolerances):
    """Singular values of X at or below this are dropped by the factor solves;
    ``side`` is the shorter side of X (elementwise, for an array of them).

    With Gamma contractive, Y = Gamma X carries at most sigma_i along the
    i-th singular direction of X.  Dropping the (at most ``side``) directions
    below the cutoff therefore moves the solve residual by at most
    sqrt(side) * cutoff <= CLIP_SLACK, the slack the residual check
    allows, while keeping them would amplify the rounding noise of Y by
    1 / sigma_i; products of defects with exact kernels leave such noise.
    Within that bound the cutoff is ``zero_level(1)``, the level below which
    ``defects`` counts 1 - s^2 as zero.
    """
    return np.minimum(zero_level(1.0, tol), CLIP_SLACK / np.sqrt(np.maximum(1, side)))


def _solve(x: np.ndarray, y: np.ndarray, tol: Tolerances) -> np.ndarray:
    """``Y X^+`` from one SVD of X, raising ``NoFactor`` if it leaves a residual."""
    g = y @ _pinv_rank(x, rank_rcond(x, tol, _solve_atol(min(x.shape), tol)))[0]
    residual = frob(g @ x - y)
    if residual > CLIP_SLACK * max(1.0, frob(y)):
        raise NoFactor(f"Y*Y <= X*X fails: solve residual {residual:.3e}")
    return g


def _damped_solve(x: np.ndarray, y: np.ndarray, tol: Tolerances,
                  checked: bool = True) -> np.ndarray:
    """Contraction ``Y X* (X X* + lam I)^+`` for a solve ``Y X^+`` that
    overshoots norm one beyond the clip slack.

    Along a direction where X has a small singular value sigma, ``Y X^+``
    divides the rounding of X and Y by sigma; chained products of defects
    near zero (parameters with singular values near 1) turn rounding-level
    errors into a norm overshoot far beyond the slack, though a contraction
    reproduces Y to rounding.  Damping by ``lam`` scales the component of
    direction i by ``sigma_i^2 / (sigma_i^2 + lam)``, so it shrinks the weak
    directions first, where a change costs little residual.  The norm falls
    monotonically in ``lam``; bisection finds the least ``lam`` with norm at
    most 1.  Raises ``NoFactor`` unless that factor reproduces Y within
    ``CLIP_SLACK`` relative to ``||Y||_F``, so an overshoot that only the
    strong directions of X could absorb still fails; without ``checked``
    the factor is returned whatever its residual.
    """
    try:
        u, s, vh = np.linalg.svd(x, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc
    keep = int((s > rank_rcond(x, tol, _solve_atol(min(x.shape), tol)) * s[0]).sum())
    u, s, b = u[:, :keep], s[:keep], y @ dagger(vh[:keep])
    lo, hi = 0.0, frob(y) ** 2 / 4  # sigma / (sigma^2 + lam) <= 1 / (2 sqrt(lam))
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if opnorm(b * (s / (s * s + mid))) > 1.0:
            lo = mid
        else:
            hi = mid
    g = (b * (s / (s * s + hi))) @ dagger(u)
    residual = frob(g @ x - y)
    if checked and residual > CLIP_SLACK * frob(y):
        raise NoFactor(f"Y*Y <= X*X fails: no contraction within slack, residual {residual:.3e}")
    return g


def solve_contraction_factor(x, y, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Contraction Gamma with Gamma X = Y, given Y*Y <= X*X.

    Gamma = Y X^+ vanishes on the orthogonal complement of the range of X.
    A norm beyond the clip slack falls back to ``_damped_solve``.  Raises
    ``NoFactor`` when no contractive factor exists (the solve leaves a
    residual, or no contraction reproduces Y within slack).
    """
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"column counts differ: {x.shape} vs {y.shape}")
    g = _solve(x, y, tol)
    try:
        return clip_to_contraction(g)
    except NotContraction:
        return clip_to_contraction(_damped_solve(x, y, tol))


def _full_svd(g: np.ndarray):
    try:
        return np.linalg.svd(g)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def _corner_mask(rows: np.ndarray, cols: np.ndarray, side: int) -> np.ndarray:
    """Mask of the leading ``rows[i] x cols[i]`` corner of each ``side x side`` matrix."""
    line = np.arange(side)
    return (line < rows[:, np.newaxis])[:, :, np.newaxis] & (line < cols[:, np.newaxis])[:, np.newaxis]


class _Overshoot(NoFactor):
    """Solves of ``_gamma_steps`` that overshoot norm one beyond the clip slack."""

    def __init__(self, indices: np.ndarray):
        super().__init__(f"solves {indices.tolist()} overshoot norm one beyond the clip slack")
        self.indices = indices


def _solve_stack(rhs: np.ndarray, a: np.ndarray, inverse, fallback):
    """``rhs_i A_i^-1`` for a stack, and the residual ``sol_i A_i - rhs_i``
    of that solve before any refinement, for a caller to check.

    With ``inverse = (inv, known)``, the rows with ``known_i`` solve through
    the carried inverse ``inv_i``; as it matches the rounded ``A_i`` only to
    its own rounding, they take one step of refinement against ``A_i`` from
    that residual.  The other rows, all of them without ``inverse``, solve
    through ``fallback(rest)``, the pseudoinverses of the rows ``rest`` from
    one stacked SVD: their cutoffs and floors are worked out only here.
    """
    if inverse is None:
        ainv = fallback(slice(None))
    else:
        ainv, known = inverse
        if not known.all():
            rest = np.flatnonzero(~known)
            ainv = ainv.copy(order="K")
            ainv[rest] = fallback(rest)
    sol = rhs @ ainv
    res = sol @ a - rhs
    if inverse is not None:
        sol -= (res * known[:, np.newaxis, np.newaxis]) @ ainv
    return sol, res


def _gamma_steps(dacc: np.ndarray, blk: np.ndarray, tol: Tolerances, rows: np.ndarray,
                 cols: np.ndarray, damp: bool = True, checked: bool = True,
                 inverse: tuple[np.ndarray, np.ndarray] | None = None):
    """Gamma_i with ``dacc_i Gamma_i = blk_i`` for a stack of problems, both
    defects of each and, with ``inverse``, their inverses and whether it has
    them (else None and None).

    The i-th problem is the leading ``rows[i] x rows[i]`` corner of
    ``dacc_i`` and ``rows[i] x cols[i]`` corner of ``blk_i``, zero-padded;
    the results come back padded with exact zeros.  The arithmetic is that
    of ``solve_contraction_factor(dacc_i*, blk_i*)*`` and ``defects``,
    without their input checks: the solve (``_solve_stack``, ``inverse =
    (dinv, known)`` carrying ``dacc_i^-1`` where ``known_i``) must leave no
    residual beyond the slack, and one full SVD of Gamma_i gives the norm
    test, the clip of singular values in ``(1, 1 + CLIP_SLACK]`` to 1, and
    both defects of the clipped Gamma_i and, for a carried solve, their
    inverses (``_defect_pair``), which only a carried solve's caller
    reads.  A norm beyond the slack falls back to ``_damped_solve``;
    without ``damp``, ``_Overshoot`` names all such solves instead.
    Without ``checked``, neither the solve's residual nor the damped
    fallback's is checked.
    """
    x, y = dagger(dacc), dagger(blk)
    side = x.shape[-1]

    def pinvs(rest):
        sub = x[rest]
        return _pinv_stack(sub, _rank_rconds(rows[rest], _frobs(sub), tol,
                                             _solve_atol(rows[rest], tol)))[0]

    gs, res = _solve_stack(y, x, inverse and (dagger(inverse[0]), inverse[1]), pinvs)
    if checked:
        residual = _frobs(res)
        if residual.max() > CLIP_SLACK:  # the bounds below are at least CLIP_SLACK
            bad = residual > CLIP_SLACK * np.maximum(1.0, _frobs(y))
            if bad.any():
                raise NoFactor(f"Y*Y <= X*X fails: solve residual {residual[bad][0]:.3e}")
    g = dagger(gs)
    u, s, vh = _full_svd(g)
    norms = s[:, 0]  # a view: follows the damped rows' updates below
    if norms.max() > 1.0:  # some gamma is clipped, or beyond the slack
        beyond = np.flatnonzero(norms > 1.0 + CLIP_SLACK)
        if beyond.size and not damp:
            raise _Overshoot(beyond)
        for i in beyond:
            p, q = rows[i], cols[i]
            g[i] = 0.0
            g[i, :p, :q] = dagger(_damped_solve(x[i, :p, :p], y[i, :q, :p], tol, checked))
            u[i], s[i], vh[i] = _full_svd(g[i])
        over = norms > 1.0
        if over.any():
            s = np.minimum(s, 1.0)
            k = s.shape[-1]
            g[over] = (u[over][..., :k] * s[over][:, np.newaxis]) @ vh[over][:, :k]
    pair, inverse_pair, invertible = _defect_pair(u, s, vh, tol, inverse is not None)
    if rows.min() < side or cols.min() < g.shape[-1]:
        g = g * _corner_mask(rows, cols, side)
        col_mask, row_mask = _corner_mask(cols, cols, side), _corner_mask(rows, rows, side)
        pair, inverse_pair = (None if p is None else DefectPair(p.d_t * col_mask,
                                                                p.d_t_star * row_mask)
                              for p in (pair, inverse_pair))
    return g, pair, inverse_pair, invertible


def solve_partial_isometry(x, y, tol: Tolerances = DEFAULT_TOL) -> PartialIsometryFactor:
    """Partial isometry V with V X = Y, given X*X = Y*Y.

    The initial space is the closed range of X; ``initial_rank`` is its
    numerical dimension, the number of singular values the pseudoinverse
    keeps.
    """
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    gx = dagger(x) @ x
    gy = dagger(y) @ y
    dev = frob(gx - gy)
    if dev > tol.psd_tol * max(1.0, frob(gx)):
        raise NotEquinormed(f"X*X and Y*Y differ by {dev:.3e}")
    x_pinv, rank = _pinv_rank(x, rank_rcond(x, tol, _solve_atol(min(x.shape), tol)))
    return PartialIsometryFactor(v=y @ x_pinv, initial_rank=rank)
