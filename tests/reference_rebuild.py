"""A second rebuild of block contractions: one row walk per block column.

Each block column of T is a column contraction, whose adjoint is a row
contraction.  ``row_walk`` builds a row contraction and its natural defect
factors from its gammas, one gamma at a time, and ``matrix_rebuild`` chains
the walks of the block columns through the lower factors.  The library
rebuilds through a different walk (``scparams._grid_walk``), which agrees
with this one up to rounding.

The seeded generators of the parametrization tests build their inputs
through ``matrix_rebuild``, so their data does not move in the last bits
when the library's rebuild changes: some of those inputs sit right at a
norm or residual bound.

``solve_left_factor`` is the mirror image of the library's factor solve,
which the tests' references solve block columns with.

``column_walk`` is the library's walk of a stack of rows of padded gammas
at two products per step, as it was before each gamma carried its walk
operators, and ``inverse_defects`` the inverse defects from one SVD at one
product each: the bitwise references of ``scparams._column_walk`` and of
the inverses of ``contraction._gamma_steps``.
"""

import numpy as np

from schur_dilate.contraction import DefectPair, defects, solve_contraction_factor
from schur_dilate.linalg import DEFAULT_TOL, Tolerances, as_matrix, dagger, zero_level


def solve_left_factor(x, y, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Contraction Gamma with X Gamma = Y, the mirror-image solve."""
    return dagger(solve_contraction_factor(dagger(as_matrix(x)), dagger(as_matrix(y)), tol))


def row_walk(gammas, pairs, h: int):
    """Row contraction T and its natural defect factors (F, M), one pass.

    ``F`` is block lower-triangular with F F* = I - T*T: D_{G_i} on the
    diagonal, -G_i* D_{G_{i-1}*} ... D_{G_{j+1}*} G_j below it; and
    ``M = D_{G_1*} ... D_{G_n*}`` has M M* = I - T T*.  The walk keeps the
    running row ``w = [D_{G_{i-1}*} ... D_{G_{j+1}*} G_j]_{j<i}`` and ``M``
    so far, so each gamma costs four products: ``T_i = M G_i``,
    ``F_{i,<i} = -G_i* w``, ``w <- [D_{G_i*} w, G_i]`` and
    ``M <- M D_{G_i*}``.  ``pairs[i]`` holds the defects of ``G_i``.
    """
    off = np.cumsum([0] + [g.shape[1] for g in gammas])
    t = np.empty((h, off[-1]), dtype=complex)
    f = np.zeros((off[-1], off[-1]), dtype=complex)
    w = np.empty((h, off[-1]), dtype=complex)
    m = np.eye(h, dtype=complex)
    for i, (g, pair) in enumerate(zip(gammas, pairs)):
        a, b = off[i], off[i + 1]
        t[:, a:b] = m @ g
        f[a:b, :a] = -dagger(g) @ w[:, :a]
        f[a:b, a:b] = pair.d_t
        w[:, :a] = pair.d_t_star @ w[:, :a]
        w[:, a:b] = g
        m = m @ pair.d_t_star
    return t, f, m


def matrix_rebuild(params) -> np.ndarray:
    """T of a ``MatrixContractionParams``: block column j is ``F_0 ... F_{j-1}
    C_j``, ``C_j*`` the row walk of the column's adjoint gammas and ``F_j``
    its lower factor."""
    shape = params.shape
    dacc = np.eye(shape.rows, dtype=complex)
    cols = []
    for j, d in enumerate(shape.col_dims):
        gammas = [dagger(g) for g in params.column(j)]
        t, f, _ = row_walk(gammas, [defects(g) for g in gammas], d)
        cols.append(dacc @ dagger(t))
        dacc = dacc @ f
    return np.hstack(cols)


def column_walk(g, d_t, d_t_star, x, lead: int = 0):
    """``T x`` and ``F* x`` for a stack of rows of zero-padded gammas ``g``
    with defects ``d_t`` and ``d_t_star``, ``[k, m]`` the m-th of row k:
    walking m down from the last gamma, ``(F* x)_m = D_{G_m} x_m - G_m* u``
    and ``u <- G_m x_m + D_{G_m*} u``, two products per step.  Row k's first
    ``lead - k`` gammas are skipped."""
    gx = g @ x
    lower = d_t @ x
    adj = dagger(g)
    last = x.shape[1] - 1
    u = gx[:, last]
    for m in range(last - 1, -1, -1):
        k = max(0, lead - m)
        lower[k:, m] -= adj[k:, m] @ u[k:]
        u[k:] = gx[k:, m] + d_t_star[k:, m] @ u[k:]
    return u, lower


def inverse_defects(g, tol: Tolerances = DEFAULT_TOL):
    """``D_G^-1`` and ``D_G*^-1`` of each matrix of a square stack, from its
    full SVD at one product each, and whether each has them: no ``1 - s^2``
    at or below ``zero_level(1)``."""
    u, s, vh = np.linalg.svd(g)
    w = (1.0 - s) * (1.0 + s)
    clear = w > zero_level(1.0, tol)
    root = 1.0 / np.sqrt(np.where(clear, w, 1.0))
    return (DefectPair((dagger(vh) * root[..., np.newaxis, :]) @ vh,
                       (u * root[..., np.newaxis, :]) @ dagger(u)),
            clear.all(axis=-1))
