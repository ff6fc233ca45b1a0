"""Extraction and reconstruction of contraction parameters.

A row contraction ``T = [T_1 ... T_n]`` is encoded by contractions
``Gamma_k`` through

    T_k = D_{Gamma_1*} ... D_{Gamma_{k-1}*} Gamma_k,

a column contraction by the mirror image ``T_k = Gamma_k D_{Gamma_{k-1}}
... D_{Gamma_1}``, and an n x m block contraction by nesting the two: each
block column is a column contraction, and consecutive block columns are
chained through the *triangular* factors of the accumulated defects rather
than their positive roots.  The triangular convention is what makes the
2 x 2 case collapse to the closed form

    [[G1,      D_{G1*} G2                      ],
     [G3 D_G1, -G3 G1* G2 + D_{G3*} G4 D_{G2}  ]].

Column parameters are the adjoints of the row parameters of ``T*``
(``D_{(Gamma*)*} = D_Gamma``), so the column side is the row code applied
to adjoints.

Positive block matrices use the same machinery: diagonal blocks carry
positive roots ``L_ii``, the strictly upper triangle carries contractions
``Gamma_ij``, and the natural square root assembled from them is a block
Cholesky factor.

One SVD of each gamma gives ``D_Gamma`` and ``D_Gamma*``, so the
parametrizations pay two SVDs per extracted gamma, one stacked SVD per
rebuild: extraction takes one SVD for the pseudoinverse solve and one of the
gamma, which also decides its clip; a rebuild knows all its gammas up front
and takes their defects from one stacked SVD (one per distinct gamma
shape).  One walk over a row of gammas and their defect pairs gives the
row contraction ``T`` and both its natural defect factors, the block
lower-triangular ``F`` (F F* = I - T*T) and ``M = D_{G_1*} ... D_{G_n*}``
(M M* = I - T T*), at four products per gamma.  The unitary split
reassembles through ``julia_block`` and ``with_freedom``.

Extraction is total on (numerical) contractions: every solve is a
pseudoinverse solve, which picks the unique parameter vanishing off the
relevant range, and extracted factors with norm in ``(1, 1 + CLIP_SLACK]``
are clipped back to the unit ball.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contraction import (
    DefectPair,
    _gamma_step,
    check_contraction,
    clip_to_contraction,
    defect,
    defects,
    julia_block,
    solve_left_factor,
    with_freedom,
)
from .errors import (
    DimensionMismatch,
    NoFactor,
    NotContraction,
    NotPSD,
    ShapeUnsupported,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    check_unitary,
    dagger,
    frob,
    hermitian_part,
    is_psd,
    pinv,
    sqrt_psd,
    zero_level,
)


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


def _freeze_grid(rows) -> tuple[tuple[np.ndarray, ...], ...]:
    return tuple(tuple(_freeze(g) for g in row) for row in rows)


def _offsets(dims) -> list[int]:
    out = [0]
    for d in dims:
        out.append(out[-1] + d)
    return out


@dataclass(frozen=True)
class BlockShape:
    """Partition of the row and column index ranges into blocks."""

    row_dims: tuple[int, ...]
    col_dims: tuple[int, ...]

    def __post_init__(self):
        rd = tuple(int(d) for d in self.row_dims)
        cd = tuple(int(d) for d in self.col_dims)
        if not rd or not cd or min(rd) <= 0 or min(cd) <= 0:
            raise ValueError("block dimensions must be nonempty and positive")
        object.__setattr__(self, "row_dims", rd)
        object.__setattr__(self, "col_dims", cd)

    @property
    def rows(self) -> int:
        return sum(self.row_dims)

    @property
    def cols(self) -> int:
        return sum(self.col_dims)

    def check(self, a: np.ndarray) -> None:
        if a.shape != (self.rows, self.cols):
            raise DimensionMismatch(
                f"matrix shape {a.shape} does not match block shape "
                f"{self.row_dims} x {self.col_dims}"
            )


@dataclass(frozen=True)
class RowColParams:
    """Parameters of a row or column contraction."""

    orientation: str  # "row" | "column"
    gammas: tuple[np.ndarray, ...]
    shape: BlockShape

    def __post_init__(self):
        if self.orientation not in ("row", "column"):
            raise ValueError(f"unknown orientation {self.orientation!r}")
        object.__setattr__(self, "gammas", tuple(_freeze(g) for g in self.gammas))


@dataclass(frozen=True)
class MatrixContractionParams:
    """Grid of parameters for an n x m block contraction.

    ``gammas[i][j]`` has shape ``(row_dims[i], col_dims[j])`` and is the
    i-th column-parameter of the j-th block column.
    """

    gammas: tuple[tuple[np.ndarray, ...], ...]
    shape: BlockShape

    def __post_init__(self):
        object.__setattr__(self, "gammas", _freeze_grid(self.gammas))

    def column(self, j: int) -> tuple[np.ndarray, ...]:
        return tuple(self.gammas[i][j] for i in range(len(self.shape.row_dims)))


@dataclass(frozen=True)
class PositiveSCParams:
    """Diagonal positive roots plus the strictly upper triangle of contractions.

    ``diag_roots[i]`` is the positive square root of the i-th diagonal
    block; ``gamma(i, j)`` for ``i < j`` is the contraction coupling blocks
    i and j.
    """

    diag_roots: tuple[np.ndarray, ...]
    gammas: tuple[tuple[np.ndarray, ...], ...]  # gammas[i] = (G_{i,i+1}, ..., G_{i,n-1})
    shape: BlockShape

    def __post_init__(self):
        if self.shape.row_dims != self.shape.col_dims:
            raise ShapeUnsupported("positive block matrices need square blocks")
        object.__setattr__(self, "diag_roots", tuple(_freeze(r) for r in self.diag_roots))
        object.__setattr__(self, "gammas", _freeze_grid(self.gammas))

    @property
    def dims(self) -> tuple[int, ...]:
        return self.shape.row_dims

    def gamma(self, i: int, j: int) -> np.ndarray:
        if not 0 <= i < j < len(self.dims):
            raise IndexError(f"need 0 <= i < j < {len(self.dims)}, got ({i}, {j})")
        return self.gammas[i][j - i - 1]

    def row_contraction(self, k: int, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
        """Row contraction R_k rebuilt from the parameters right of block k."""
        if not 0 <= k < len(self.dims) - 1:
            raise IndexError(f"need 0 <= k < {len(self.dims) - 1}, got {k}")
        return row_reconstruct(
            RowColParams(
                "row",
                self.gammas[k],
                BlockShape((self.dims[k],), self.dims[k + 1:]),
            ),
            tol,
        )


# ---------------------------------------------------------------------------
# row / column contractions


def _split_cols(t: np.ndarray, dims) -> list[np.ndarray]:
    off = _offsets(dims)
    return [t[:, off[k]:off[k + 1]] for k in range(len(dims))]


def _row_extract(t: np.ndarray, dims, tol: Tolerances):
    """Row gammas of ``t`` and their defect pairs, two SVDs each."""
    dacc = np.eye(t.shape[0], dtype=complex)
    gammas, pairs = [], []
    for blk in _split_cols(t, dims):
        g, pair = _gamma_step(dacc, blk, tol)
        gammas.append(g)
        pairs.append(pair)
        dacc = dacc @ pair.d_t_star
    return gammas, pairs


def _defect_grid(rows, tol: Tolerances) -> list[list[DefectPair]]:
    """Defect pairs of rows of gammas, shaped like ``rows``.

    One stacked SVD per distinct gamma shape, bit-identical to a
    ``defects`` call per gamma.
    """
    flat = [g for row in rows for g in row]
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, g in enumerate(flat):
        groups.setdefault(g.shape, []).append(i)
    pairs: list = [None] * len(flat)
    for idx in groups.values():
        stack = defects(np.stack([flat[i] for i in idx]), tol)
        for j, i in enumerate(idx):
            pairs[i] = DefectPair(stack.d_t[j], stack.d_t_star[j])
    it = iter(pairs)
    return [[next(it) for _ in row] for row in rows]


def _row_walk(gammas, pairs, h: int):
    """Row contraction T and its natural defect factors (F, M), one pass.

    ``F`` is block lower-triangular with F F* = I - T*T: D_{G_i} on the
    diagonal, -G_i* D_{G_{i-1}*} ... D_{G_{j+1}*} G_j below it; and
    ``M = D_{G_1*} ... D_{G_n*}`` has M M* = I - T T*.  The walk keeps the
    running row ``w = [D_{G_{i-1}*} ... D_{G_{j+1}*} G_j]_{j<i}`` and ``M``
    so far, so each gamma costs four products and no factorization:
    ``T_i = M G_i``, ``F_{i,<i} = -G_i* w``, ``w <- [D_{G_i*} w, G_i]`` and
    ``M <- M D_{G_i*}``.  ``pairs[i]`` holds the defects of ``G_i``.  For a
    column contraction C, the walk of its row adjoint C* gives F F* = I - C C*.
    """
    off = _offsets([g.shape[1] for g in gammas])
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


def row_parametrize(t, shape: BlockShape, tol: Tolerances = DEFAULT_TOL) -> RowColParams:
    """Extract the parameters of a row contraction, one block column at a time."""
    t = check_contraction(as_matrix(t), tol)
    shape.check(t)
    if len(shape.row_dims) != 1:
        raise ShapeUnsupported("row contractions have a single block row")
    gammas, _ = _row_extract(t, shape.col_dims, tol)
    return RowColParams("row", tuple(gammas), shape)


def row_reconstruct(params: RowColParams, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    if params.orientation != "row":
        raise ValueError("row_reconstruct needs row-oriented parameters")
    gammas = params.gammas
    return _row_walk(gammas, _defect_grid([gammas], tol)[0], params.shape.rows)[0]


def _adjoints(gammas) -> list[np.ndarray]:
    return [dagger(g) for g in gammas]


def col_parametrize(t, shape: BlockShape, tol: Tolerances = DEFAULT_TOL) -> RowColParams:
    """Column parameters T_k = Gamma_k D_{G_{k-1}} ... D_{G_1}.

    They are the adjoints of the row parameters of T*, because
    ``D_{(G*)*} = D_G``.
    """
    t = check_contraction(as_matrix(t), tol)
    shape.check(t)
    if len(shape.col_dims) != 1:
        raise ShapeUnsupported("column contractions have a single block column")
    gammas, _ = _row_extract(dagger(t), shape.row_dims, tol)
    return RowColParams("column", tuple(_adjoints(gammas)), shape)


def col_reconstruct(params: RowColParams, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    if params.orientation != "column":
        raise ValueError("col_reconstruct needs column-oriented parameters")
    gammas = _adjoints(params.gammas)
    return dagger(_row_walk(gammas, _defect_grid([gammas], tol)[0], params.shape.cols)[0])


def row_defect_factors(params: RowColParams, tol: Tolerances = DEFAULT_TOL):
    """Natural factors (F, M) with F F* = I - T*T and M M* = I - T T*.

    For row parameters F is block lower-triangular and M = D_{G_1*} ...
    D_{G_n*} is the plain product of codomain defects; one walk over the
    gammas gives T, F and M at four products per gamma.  Column parameters
    are the row parameters of T*, so the two factors swap roles.
    """
    row = params.orientation == "row"
    gs = params.gammas if row else _adjoints(params.gammas)
    _, lower, product = _row_walk(gs, _defect_grid([gs], tol)[0], gs[0].shape[0])
    return (lower, product) if row else (product, lower)


# ---------------------------------------------------------------------------
# n x m block contractions


def matrix_parametrize(t, shape: BlockShape, tol: Tolerances = DEFAULT_TOL) -> MatrixContractionParams:
    """Extract the parameter grid of an n x m block contraction.

    Block column k is solved against the product of the triangular defect
    factors of the previous column parameters, then parametrized as a
    column contraction.
    """
    t = check_contraction(as_matrix(t), tol)
    shape.check(t)
    ncols = len(shape.col_dims)
    per_column = []
    dacc = np.eye(shape.rows, dtype=complex)
    for k, colblk in enumerate(_split_cols(t, shape.col_dims)):
        ck = solve_left_factor(dacc, colblk, tol)
        gammas, pairs = _row_extract(dagger(ck), shape.row_dims, tol)
        per_column.append(_adjoints(gammas))
        if k + 1 < ncols:  # no block column left to solve
            dacc = dacc @ _row_walk(gammas, pairs, shape.col_dims[k])[1]
    grid = tuple(
        tuple(per_column[j][i] for j in range(ncols))
        for i in range(len(shape.row_dims))
    )
    return MatrixContractionParams(grid, shape)


def matrix_reconstruct(params: MatrixContractionParams, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    shape = params.shape
    ncols = len(shape.col_dims)
    columns = [_adjoints(params.column(j)) for j in range(ncols)]
    column_pairs = _defect_grid(columns, tol)
    dacc = np.eye(shape.rows, dtype=complex)
    cols = []
    for j, d in enumerate(shape.col_dims):
        t, f, _ = _row_walk(columns[j], column_pairs[j], d)
        cols.append(dacc @ dagger(t))
        if j + 1 < ncols:  # no block column left to build
            dacc = dacc @ f
    return np.hstack(cols)


def matrix_defects_2x2(params: MatrixContractionParams, tol: Tolerances = DEFAULT_TOL):
    """Upper-triangular factors (G, H) with G*G = I - T*T and H*H = I - T T*.

    Only defined for 2 x 2 block parameters, where both factors have the
    closed forms built from single defects.
    """
    shape = params.shape
    if len(shape.row_dims) != 2 or len(shape.col_dims) != 2:
        raise ShapeUnsupported("2 x 2 block parameters required")
    (g1, g2), (g3, g4) = params.gammas
    (p1, p2), (p3, p4) = _defect_grid(params.gammas, tol)
    factor_t = np.block([
        [p3.d_t @ p1.d_t, -p3.d_t @ dagger(g1) @ g2 - dagger(g3) @ g4 @ p2.d_t],
        [np.zeros(shape.col_dims[::-1]), p4.d_t @ p2.d_t],
    ])
    factor_t_star = np.block([
        [p2.d_t_star @ p1.d_t_star,
         -p2.d_t_star @ g1 @ dagger(g3) - g2 @ dagger(g4) @ p3.d_t_star],
        [np.zeros(shape.row_dims[::-1]), p4.d_t_star @ p3.d_t_star],
    ])
    return factor_t, factor_t_star


# ---------------------------------------------------------------------------
# unitary matrices


def unitary_factorize(u, shape: BlockShape, tol: Tolerances = DEFAULT_TOL):
    """Split a block unitary as diag(I, G3) . julia(G1) . diag(I, G2).

    Requires square off-diagonal blocks.  G2 is recovered as the unitary
    polar factor of the (1,2) block; G3 = C D_{G1} - D G2* G1 is then
    automatically unitary because ``[D_{G1}, G1* G2]`` is a co-isometry.
    This closed form involves no rank decisions, so boundary cases
    (isometric corners, exact Julia operators) factor exactly.
    """
    u = as_matrix(u)
    shape.check(u)
    if len(shape.row_dims) != 2 or len(shape.col_dims) != 2:
        raise ShapeUnsupported("2 x 2 block shape required")
    k1, k2 = shape.row_dims
    h1, h2 = shape.col_dims
    if h2 != k1 or h1 != k2:
        raise ShapeUnsupported(
            f"off-diagonal blocks must be square, got {(k1, h2)} and {(k2, h1)}"
        )
    check_unitary(u, tol.psd_tol, "u")
    a = u[:k1, :h1]
    b = u[:k1, h1:]
    c = u[k1:, :h1]
    d = u[k1:, h1:]
    g1 = a
    uu, _, vh = np.linalg.svd(b)
    g2 = uu @ vh
    g3 = c @ defect(a, tol) - d @ dagger(g2) @ a
    return g1, g2, g3


def unitary_reassemble(g1, g2, g3, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Inverse of ``unitary_factorize``: diag(I, G3) . julia(G1) . diag(I, G2)."""
    g1, g2, g3 = as_matrix(g1), as_matrix(g2), as_matrix(g3)
    return with_freedom(julia_block(g1, defects(g1, tol)), g3, g2)


# ---------------------------------------------------------------------------
# positive block matrices


def _chol_step(root, rk, f, chol) -> np.ndarray:
    """Extend the Cholesky factor of a trailing corner by one block row above,
    given the row contraction ``rk`` and its lower defect factor ``f``."""
    return np.block([
        [root, rk @ chol],
        [np.zeros((chol.shape[0], root.shape[1])), dagger(f) @ chol],
    ])


def _recon_bound(a: np.ndarray, tol: Tolerances, psd: bool = False) -> float:
    """Frobenius bound on ``rebuild - a`` for a round-trip within recon_tol.

    The psd gate admits eigenvalues down to ``-zero_level(scale)`` and a
    psd rebuild is PSD, so it may also differ by that clamped part.
    """
    scale = max(1.0, frob(a))
    bound = tol.recon_tol * scale
    if psd:
        bound += np.sqrt(a.shape[0]) * zero_level(scale, tol)
    return bound


def _psd_extract(a, shape: BlockShape, cut: float, tol: Tolerances) -> PositiveSCParams:
    """Parameters of ``a``, root eigenvalues up to ``cut`` and root and Cholesky
    singular values up to ``sqrt(cut)`` counting as zero; a cut can drop a real
    coupling, so then the result must rebuild ``a`` within ``_recon_bound``."""
    dims = shape.row_dims
    n = len(dims)
    off = _offsets(dims)
    roots = [sqrt_psd(hermitian_part(a[off[i]:off[i + 1], off[i]:off[i + 1]]), tol, cut)
             for i in range(n)]
    atol = np.sqrt(cut)
    gamma_rows: list[tuple[np.ndarray, ...]] = [()] * n
    chol = roots[n - 1]
    for k in range(n - 2, -1, -1):
        row = a[off[k]:off[k + 1], off[k + 1]:]
        try:
            rk = clip_to_contraction(pinv(roots[k], tol, atol) @ row @ pinv(chol, tol, atol))
            gammas, pairs = _row_extract(rk, dims[k + 1:], tol)
        except NotContraction as exc:
            raise NoFactor(str(exc)) from exc
        gamma_rows[k] = tuple(gammas)
        if k:  # the factor of the whole matrix is not needed
            chol = _chol_step(roots[k], rk, _row_walk(gammas, pairs, dims[k])[1], chol)
    params = PositiveSCParams(tuple(roots), tuple(gamma_rows), shape)
    if cut and frob(psd_reconstruct(params, tol) - a) > _recon_bound(a, tol, psd=True):
        raise NoFactor("round-trip error above recon_tol after the rank cut")
    return params


def psd_parametrize(a, shape: BlockShape, tol: Tolerances = DEFAULT_TOL) -> PositiveSCParams:
    """Parametrize a positive block matrix, bottom-up over trailing corners.

    Maintains the block Cholesky factor of the trailing principal
    submatrix; each step above solves one row contraction against it.
    Besides one root per diagonal block, the extraction costs two SVDs per
    gamma.  The uncut pass is exact on full-rank inputs; on rank-deficient
    ones rounding-level singular values can cost it sqrt(eps) or push a
    solve past norm 1.  The pass cut at ``zero_level(max|a|)`` goes first
    when the least eigenvalue of ``a`` is that low; the other runs only if
    the first fails.
    """
    a = as_matrix(a)
    if shape.row_dims != shape.col_dims:
        raise ShapeUnsupported("positive block matrices need square blocks")
    shape.check(a)
    check = is_psd(a, tol)
    if not check:
        raise NotPSD(f"minimum eigenvalue {check.min_eigenvalue:.3e}")
    cut = zero_level(np.abs(a).max(initial=0.0), tol)
    cuts = (cut, 0.0) if check.min_eigenvalue <= cut else (0.0, cut)
    try:
        return _psd_extract(a, shape, cuts[0], tol)
    except NoFactor:
        return _psd_extract(a, shape, cuts[1], tol)


def psd_cholesky(params: PositiveSCParams, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Block upper-triangular L with L*L equal to the reconstructed matrix."""
    dims = params.dims
    n = len(dims)
    row_pairs = _defect_grid(params.gammas, tol)
    chol = np.array(params.diag_roots[n - 1])
    for k in range(n - 2, -1, -1):
        rk, f, _ = _row_walk(params.gammas[k], row_pairs[k], dims[k])
        chol = _chol_step(params.diag_roots[k], rk, f, chol)
    return chol


def psd_reconstruct(params: PositiveSCParams, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    l = psd_cholesky(params, tol)
    return dagger(l) @ l


def tensor_sc(params_scalar: PositiveSCParams, b, tol: Tolerances = DEFAULT_TOL) -> PositiveSCParams:
    """Lift scalar-block parameters of M to parameters of M (x) B*B.

    Diagonal roots become sqrt(m_ii) (B*B)^(1/2) and every scalar gamma
    becomes gamma times the identity, so the lifted parameters reconstruct
    the tensor product exactly.
    """
    if any(d != 1 for d in params_scalar.dims):
        raise ShapeUnsupported("tensor lift needs scalar (1 x 1) blocks")
    b = as_matrix(b)
    p = b.shape[1]
    root_b = sqrt_psd(dagger(b) @ b, tol)
    eye = np.eye(p, dtype=complex)
    roots = tuple(float(r[0, 0].real) * root_b for r in params_scalar.diag_roots)
    gammas = tuple(
        tuple(complex(g[0, 0]) * eye for g in row) for row in params_scalar.gammas
    )
    n = len(params_scalar.dims)
    return PositiveSCParams(roots, gammas, BlockShape((p,) * n, (p,) * n))


def dominated_factor(
    a_params: PositiveSCParams,
    gamma_params: MatrixContractionParams,
    tol: Tolerances = DEFAULT_TOL,
) -> np.ndarray:
    """B = Gamma . L with L the Cholesky factor of the positive matrix.

    By construction B*B = L* Gamma* Gamma L <= L*L, so B is dominated by
    the reconstructed positive matrix.
    """
    l = psd_cholesky(a_params, tol)
    g = matrix_reconstruct(gamma_params, tol)
    if g.shape[1] != l.shape[0]:
        raise DimensionMismatch(
            f"contraction columns {g.shape[1]} vs factor rows {l.shape[0]}")
    return g @ l
