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

One SVD of each gamma gives ``D_Gamma`` and ``D_Gamma*``, and on a carried
pass, where ``1 - s^2`` is clear of zero, their inverses too.  Every
extraction runs the lag stages ``_psd_stages``: ``Gamma_ij`` of a positive
matrix depends only on the principal block ``a[i..j]``, so one stage per
lag ``j - i`` serves every row at once, after one stacked ``eigh`` for the
roots and one stacked SVD for their pseudoinverses.  An interior lag of a carried pass
takes one stacked SVD, the gammas': the pivots and the solves go through
inverses carried from lag to lag as products of those defect inverses
(``_psd_pass``), and other rows through pseudoinverses (``_solve_stack``);
``_first_pass`` decides which pass carries.  ``T`` is a contraction iff
``[[I, T], [T*, I]] >= 0``, and with the row blocks of ``T`` reversed its
grid is the corner of that matrix's psd parameters coupling row blocks to
column blocks, one anti-diagonal per lag; the other couplings are zero by
structure, pinned and never solved.  A row contraction is a 1 x m grid and
a column contraction the adjoint of the 1 x n grid of ``T*``, at one SVD
per interior gamma.  A rebuild knows all its gammas up front and takes
their defects from one stacked SVD (one per distinct gamma shape).  Every
rebuild, a column contraction's as an n x 1 grid, is one walk over a grid
(``_grid_walk``): block row j of ``T*`` is the row contraction of block
column j's adjoint gammas applied to ``x = F_{j-1}* ... F_0*``, ``F_i`` the
lower defect factor of that row, and ``_column_walk`` gives it and the next
``x`` at one product per gamma, through the walk operators ``[D_G; G]``
and ``[G*; D_G*]`` that each gamma carries (``_padded_gammas``; the lag
stages build them as each lag's gammas land).  The last ``x`` is the block
upper-triangular ``H`` with H*H = I - T T*, and ``G`` with G*G = I - T*T is
``H`` of the adjoint-transposed grid, which rebuilds ``T*`` from the same
defect pairs, swapped.  Positive matrices walk their block columns the
same way, every row of a lag at once (``psd_cholesky``).  The unitary
split reassembles through ``julia_block`` and ``with_freedom``.

Extraction is total on (numerical) contractions: every solve is a
pseudoinverse solve, which picks the unique parameter vanishing off the
relevant range (a carried inverse stands in only where the pseudoinverse
would cut nothing), and extracted factors with norm in ``(1, 1 +
CLIP_SLACK]`` are clipped back to the unit ball, to norm 1 up to rounding:
the clipped factor is rebuilt from its SVD, so its norm can read a few eps
above 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contraction import (
    _Overshoot,
    _contraction_norm,
    _corner_mask,
    _gamma_steps,
    _solve_stack,
    DefectPair,
    clip_to_contraction,
    defect,
    defects,
    julia_block,
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
    _as_size,
    _frobs,
    _pinv_stack,
    _rank_rconds,
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


def _check_shapes(kind: str, rows, shapes) -> None:
    """ValueError unless row i of ``rows`` holds one matrix of each shape in
    ``shapes[i]``."""
    counts, expected = [len(row) for row in rows], [len(row) for row in shapes]
    if counts != expected:
        raise ValueError(f"{kind} parameters need {expected} gammas per row, got {counts}")
    for row, want in zip(rows, shapes):
        for g, s in zip(row, want):
            if g.shape != s:
                raise ValueError(f"{kind} parameter of shape {g.shape} where {s} is needed")


@dataclass(frozen=True)
class BlockShape:
    """Partition of the row and column index ranges into blocks."""

    row_dims: tuple[int, ...]
    col_dims: tuple[int, ...]

    def __post_init__(self):
        rd = tuple(_as_size(d, "block dimension") for d in self.row_dims)
        cd = tuple(_as_size(d, "block dimension") for d in self.col_dims)
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
        _check_shapes(self.orientation, _as_grid(self),
                      [[(r, c) for c in self.shape.col_dims] for r in self.shape.row_dims])


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
        _check_shapes("matrix", self.gammas,
                      [[(r, c) for c in self.shape.col_dims] for r in self.shape.row_dims])

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
        dims = self.dims
        _check_shapes("psd", (self.diag_roots,), ([(d, d) for d in dims],))
        # row i couples block i to the blocks after it, so the last row is empty
        _check_shapes("psd", self.gammas,
                      [[(d, e) for e in dims[i + 1:]] for i, d in enumerate(dims)])

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


def _row_extract(t: np.ndarray, dims, tol: Tolerances, tail: bool = False):
    """Row gammas of ``t`` and their defect pairs, two SVDs each.

    Block k is solved against ``M = D_{G_1*} ... D_{G_{k-1}*}``.  Next to a
    gamma with a singular value 1 - delta, the product knows that defect
    only to about eps / delta, relative.  With ``tail``, M is rebuilt
    before each solve as ``(M M*)^(1/2)`` times the polar factor of the
    product, with ``M M* = I - sum_{i<k} T_i T_i*`` taken without
    cancellation as ``D_{T*}^2 + sum_{i>=k} T_i T_i*`` from one SVD of
    ``[D_{T*}, T_k, ..., T_n]``: equal in exact arithmetic, and accurate to
    the rounding of ``t``.  This costs two more SVDs per block.
    """
    dacc = np.eye(t.shape[0], dtype=complex)
    gammas, pairs = [], []
    off = _offsets(dims)
    d_star = defects(t, tol).d_t_star if tail else None
    for k, blk in enumerate(np.hsplit(t, off[1:-1])):
        if tail and k:
            u, s, _ = np.linalg.svd(np.hstack((d_star, t[:, off[k]:])), full_matrices=False)
            pu, _, pvh = np.linalg.svd(dacc)
            dacc = (u * s) @ dagger(u) @ pu @ pvh
        g, pair, _, _ = _gamma_steps(dacc[np.newaxis], blk[np.newaxis], tol, *np.vstack(blk.shape))
        gammas.append(g[0])
        pairs.append(DefectPair(pair.d_t[0], pair.d_t_star[0]))
        dacc = dacc @ pairs[-1].d_t_star
    return gammas, pairs


def _as_grid(params: RowColParams):
    """Row parameters as a 1 x m grid, column parameters as an n x 1 grid."""
    return (params.gammas,) if params.orientation == "row" else tuple((g,) for g in params.gammas)


def row_parametrize(t, shape: BlockShape, tol: Tolerances = DEFAULT_TOL) -> RowColParams:
    """Extract the parameters of a row contraction: its 1 x m grid."""
    if len(shape.row_dims) != 1:
        raise ShapeUnsupported("row contractions have a single block row")
    return RowColParams("row", matrix_parametrize(t, shape, tol).gammas[0], shape)


def row_reconstruct(params: RowColParams, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    if params.orientation != "row":
        raise ValueError("row_reconstruct needs row-oriented parameters")
    return _grid_rebuild(_as_grid(params), params.shape, tol)


def col_parametrize(t, shape: BlockShape, tol: Tolerances = DEFAULT_TOL) -> RowColParams:
    """Column parameters T_k = Gamma_k D_{G_{k-1}} ... D_{G_1}.

    They are the adjoints of the row parameters of T*, because
    ``D_{(G*)*} = D_G``: the adjoints of the 1 x n grid of T*.
    """
    t = as_matrix(t)
    shape.check(t)
    if len(shape.col_dims) != 1:
        raise ShapeUnsupported("column contractions have a single block column")
    row = matrix_parametrize(dagger(t), BlockShape(shape.col_dims, shape.row_dims), tol).gammas[0]
    return RowColParams("column", tuple(dagger(g) for g in row), shape)


def col_reconstruct(params: RowColParams, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    if params.orientation != "column":
        raise ValueError("col_reconstruct needs column-oriented parameters")
    return _grid_rebuild(_as_grid(params), params.shape, tol)


def row_defect_factors(params: RowColParams, tol: Tolerances = DEFAULT_TOL):
    """Natural factors (F, M) with F F* = I - T*T and M M* = I - T T*: the
    adjoints ``(G*, H*)`` of the parameters' grid (``_grid_rebuild``).

    For row parameters F is block lower-triangular and M = D_{G_1*} ...
    D_{G_n*}; column parameters are the row parameters of T*, so the two
    swap roles.
    """
    g, h = _grid_rebuild(_as_grid(params), params.shape, tol, factors=True)
    return dagger(g), dagger(h)


# ---------------------------------------------------------------------------
# n x m block contractions


def matrix_parametrize(t, shape: BlockShape, tol: Tolerances = DEFAULT_TOL) -> MatrixContractionParams:
    """Extract the parameter grid of an n x m block contraction.

    ``gammas[i][j]`` is the psd parameter coupling row block i to column
    block j of ``[[I, T~], [T~*, I]]``, where ``T~`` is ``T`` with its row
    blocks in reverse order: the blocks run ``R_{n-1}, ..., R_0, C_0, ...,
    C_{m-1}``, so that coupling has lag ``i + j + 1``.  The embedding has
    identity roots and is positive iff ``T`` is a contraction, and
    ``_psd_stages`` extracts it one lag, that is one anti-diagonal of the
    grid, at a time, pinning its row-row and column-column couplings, which
    are zero by structure.

    The uncut stages go first, then the stages cut at ``zero_level(1)``
    (``_first_pass``).  A unit singular value of ``T`` makes the embedding
    singular (its least eigenvalue is ``1 - ||T||``), and then, as for a
    singular psd input, every result must rebuild ``T`` within ``recon_tol``.
    """
    t = as_matrix(t)
    norm = _contraction_norm(t, tol)
    shape.check(t)
    rd, cd = shape.row_dims, shape.col_dims
    n = len(rd)
    flipped = np.vstack(np.split(t, _offsets(rd)[1:-1])[::-1])
    emb = np.eye(shape.rows + shape.cols, dtype=complex)
    emb[:shape.rows, shape.rows:] = flipped
    emb[shape.rows:, :shape.rows] = dagger(flipped)
    dims = rd[::-1] + cd
    side = max(dims)
    sizes = np.array(dims)
    roots = (np.eye(side) * _corner_mask(sizes, sizes, side)).astype(complex)
    blocks = _padded_blocks(emb, dims, side)
    cut = zero_level(1.0, tol)
    singular = norm >= 1.0 - cut

    def grid(level, carry):
        g = _psd_stages(blocks, roots, dims, level, tol, carry, split=n)
        return MatrixContractionParams(((g[n - 1 - i, i + j, :d, :c] for j, c in enumerate(cd))
                                        for i, d in enumerate(rd)), shape)

    return _first_pass(t, (0.0, cut), singular, grid,
                       lambda params: matrix_reconstruct(params, tol), _recon_bound(t, tol))


def matrix_reconstruct(params: MatrixContractionParams, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    return _grid_rebuild(params.gammas, params.shape, tol)


def matrix_defects_2x2(params: MatrixContractionParams, tol: Tolerances = DEFAULT_TOL):
    """Upper-triangular factors (G, H) with G*G = I - T*T and H*H = I - T T*.

    Only defined for 2 x 2 block parameters; ``_grid_rebuild`` walks any grid.
    """
    shape = params.shape
    if len(shape.row_dims) != 2 or len(shape.col_dims) != 2:
        raise ShapeUnsupported("2 x 2 block parameters required")
    return _grid_rebuild(params.gammas, shape, tol, factors=True)


def _grid_walk(fwd, back, dims, out_dims):
    """``(T*, H)`` of the block contraction T whose block column j has the
    adjoint gammas with walk operators ``fwd[j]`` and ``back[j]``, as
    ``_padded_gammas`` makes them, over row blocks ``dims`` and column
    blocks ``out_dims``.

    Block row j of T* is ``C_j* x``, ``C_j`` the column contraction of block
    column j and ``x = F_{j-1}* ... F_0*``, ``F_i`` the lower defect factor
    of ``C_i*``; one ``_column_walk`` gives it and the next x.  The last x
    is the block upper-triangular H, H*H = I - T T*.
    """
    side = fwd.shape[-1]
    idx = _pad_index(dims, side)
    x = np.zeros((len(dims) * side, len(idx)), dtype=complex)
    x[idx, np.arange(len(idx))] = 1
    x = x.reshape(1, len(dims), side, len(idx))
    rows = []
    for j, d in enumerate(out_dims):
        top, x = _column_walk(fwd[j:j + 1], back[j:j + 1], x)
        rows.append(top[0, :d])
    return np.vstack(rows), x.reshape(-1, len(idx))[idx]


def _grid_rebuild(grid, shape: BlockShape, tol: Tolerances, factors: bool = False):
    """T from its grid of gammas, or with ``factors`` its block
    upper-triangular defect factors (G, H), G*G = I - T*T and H*H = I - T T*.

    The walk of the grid gives T* and H (``_grid_walk``).  The
    adjoint-transposed grid ``gammas[i][j]*`` rebuilds T*: its block column
    i has the adjoint gammas ``gammas[i][j]`` and the defect pairs swapped,
    so its walk gives T and G from the same defects.
    """
    rd, cd = shape.row_dims, shape.col_dims
    side = max(rd + cd)
    fwd, back = _padded_gammas([[dagger(row[j]) for row in grid] for j in range(len(cd))],
                               side, tol)
    t_star, h = _grid_walk(fwd, back, rd, cd)
    if not factors:
        return dagger(t_star)
    # the walk operators of the adjoint gammas G*, whose D_{(G*)*} is D_G
    g, d_t, d_t_star = (a.swapaxes(0, 1) for a in (fwd[..., side:, :], fwd[..., :side, :],
                                                    back[..., side:, :]))
    return _grid_walk(np.concatenate((d_t_star, dagger(g)), axis=-2),
                      np.concatenate((g, d_t), axis=-2), cd, rd)[1], h


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


def _pad_index(dims, side: int) -> np.ndarray:
    """Positions of the entries of blocks ``dims`` among blocks padded to ``side``."""
    return np.concatenate([i * side + np.arange(d) for i, d in enumerate(dims)])


def _padded_blocks(a: np.ndarray, dims, side: int) -> np.ndarray:
    """``a`` as an ``(n, n, side, side)`` grid of zero-padded blocks (a view
    of ``a`` when every block has size ``side``)."""
    n = len(dims)
    if min(dims) < side:
        idx = _pad_index(dims, side)
        padded = np.zeros((n * side, n * side), dtype=complex)
        padded[np.ix_(idx, idx)] = a
        a = padded
    return a.reshape(n, side, n, side).swapaxes(1, 2)


def _padded_roots(diag_blocks, dims, side: int, tol: Tolerances, cut: float) -> np.ndarray:
    """Positive roots of the diagonal blocks, one stacked ``sqrt_psd`` per
    block size, as an ``(n, side, side)`` zero-padded stack."""
    roots = np.zeros((len(dims), side, side), dtype=complex)
    for d in sorted(set(dims)):
        idx = [i for i, di in enumerate(dims) if di == d]
        roots[idx, :d, :d] = sqrt_psd(hermitian_part(diag_blocks[idx, :d, :d]), tol, cut)
    return roots


def _padded_gammas(rows, side: int, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """Rows of gammas, of any lengths, as the walk operators of
    ``_column_walk``: ``[k, m]`` holds ``[D_G; G]`` and ``[G*; D_G*]`` of the
    m-th gamma G of row k, each block zero-padded to ``side x side``, in two
    arrays of shape ``(len(rows), longest row, 2 side, side)``.

    One stacked SVD per distinct gamma shape, bit-identical to a
    ``defects`` call per gamma.
    """
    fwd, back = np.zeros((2, len(rows), max(map(len, rows), default=0), 2 * side, side),
                         dtype=complex)
    flat = [g for row in rows for g in row]
    lengths = [len(row) for row in rows]
    k = np.repeat(np.arange(len(rows)), lengths)  # flat[i] is gamma m[i] of row k[i]
    m = np.arange(len(flat)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    shapes = [g.shape for g in flat]
    for p, q in set(shapes):
        at = [i for i, shape in enumerate(shapes) if shape == (p, q)]
        stack = np.stack([flat[i] for i in at])
        pair = defects(stack, tol)
        fwd[k[at], m[at], :q, :q] = pair.d_t
        fwd[k[at], m[at], side:side + p, :q] = stack
        back[k[at], m[at], side:side + p, :p] = pair.d_t_star
    back[..., :side, :] = dagger(fwd[..., side:, :])
    return fwd, back


def _column_walk(fwd, back, x, lead: int = 0):
    """``T x`` and ``F* x`` for a stack of rows of gammas, without forming F.

    ``fwd[k, m]`` and ``back[k, m]`` are the walk operators ``[D_G; G]``
    and ``[G*; D_G*]`` of the m-th gamma G of row k, built once per gamma
    (``_padded_gammas``, ``_psd_pass``); ``T`` is the row's contraction and
    ``F`` its block lower-triangular defect factor (F F* = I - T*T): D_{G_i}
    on the diagonal, -G_i* D_{G_{i-1}*} ... D_{G_{j+1}*} G_j below it.
    ``x[k, m]`` is the m-th block of a block column per row, of any width.
    Walking m from the last gamma to the first, with ``u = 0``: ``(F* x)_m
    = D_{G_m} x_m - G_m* u`` and ``u <- G_m x_m + D_{G_m*} u``; the final
    ``u`` is ``T x``.  The products with x are one product for all m at
    once, so each step costs one product, ``[G_m*; D_{G_m*}] u``, stacked
    over the rows, and the ``G_m* u`` are subtracted after the walk.  Row
    k's first ``lead - k`` gammas are pinned zeros, which pass x and u
    through unwalked.
    """
    side = x.shape[-2]
    fx = fwd @ x
    lower, gx = fx[..., :side, :], fx[..., side:, :]
    last = x.shape[1] - 1
    steps = np.zeros((len(x), last) + fx.shape[2:], dtype=complex)  # [G_m* u; D_{G_m*} u]
    u = gx[:, last]
    for m in range(last - 1, -1, -1):
        k = max(0, lead - m)
        np.matmul(back[k:, m], u[k:], out=steps[k:, m])
        np.add(gx[k:, m], steps[k:, m, side:], out=u[k:])
    lower[:, :last] -= steps[..., :side, :]
    return u, lower


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


def _psd_extract(a, shape: BlockShape, cut: float, tol: Tolerances,
                 carry: bool) -> PositiveSCParams:
    """Parameters of ``a``, root eigenvalues up to ``cut`` and root and Cholesky
    singular values up to ``sqrt(cut)`` counting as zero.  A cut can drop a
    real coupling; ``_first_pass`` checks what a cut costs and sets ``carry``."""
    dims = shape.row_dims
    n = len(dims)
    side = max(dims)
    blocks = _padded_blocks(a, dims, side)
    diag = np.arange(n)
    roots = _padded_roots(blocks[diag, diag], dims, side, tol, cut)
    gammas = _psd_stages(blocks, roots, dims, cut, tol, carry)
    return PositiveSCParams(
        tuple(roots[i, :d, :d] for i, d in enumerate(dims)),
        # views, each frozen (copied) in turn, so they are never all alive at once
        ((gammas[k, m, :dims[k], :dims[k + 1 + m]] for m in range(n - 1 - k))
         for k in range(n)),
        shape)


def _first_pass(a, levels, singular: bool, extract, rebuild, bound: float):
    """The first kept result of the passes ``extract(level, carry)``.

    A nonsingular input runs the uncut pass with carried inverses, then, if
    that raises ``NoFactor``, without them (next to a near-unit parameter a
    solve can turn on the last bits of a defect), then the cut pass.  A
    singular input runs ``levels`` in order, neither carrying: a carried
    result that missed the round-trip bound would skip the pseudoinverse
    pass that might meet it.  A result must rebuild ``a`` within ``bound``
    if its level cuts, which can drop a real coupling, or if ``a`` is
    ``singular``; an uncut pass on a nonsingular input has checked solves."""
    passes = [(level, False) for level in levels]
    if not singular:  # levels[0] is the uncut level
        passes.insert(0, (levels[0], True))
    for i, (level, carry) in enumerate(passes, 1):
        try:
            params = extract(level, carry)
        except NoFactor:
            if i == len(passes):
                raise
            continue
        if not (level or singular) or frob(rebuild(params) - a) <= bound:
            return params
    raise NoFactor("round-trip error above recon_tol" + (" after the rank cut" if level else ""))


def _psd_stages(blocks, roots, dims, cut: float, tol: Tolerances, carry: bool,
                split: int | None = None):
    """Gammas of the padded block grid ``blocks``, ``[k, m]`` coupling block k
    to block k + 1 + m.

    ``Gamma_kj`` depends only on the principal block ``a[k..j]``, so the
    gammas of one lag ``l = j - k`` are extracted together, every row at
    once.  Row k carries ``X_k = L_k^+ a[k, >k]``, its solved row
    contraction blocks ``(r_k)_m``, ``M_k = D_{G_k,k+1*} ... D_{G_k,j-1*}``
    and its gammas so far; ``C^(k)[., j]`` is block column j of the natural
    (Cholesky) factor of ``a[k..j]``, of which only the previous lag's
    columns are kept.  Per lag, for all rows:

    1. ``(r_k)_j = (X_kj - sum_{k<m<j} (r_k)_m C^(k+1)[m, j]) C^(k+1)[j, j]^+``,
       block back-substitution against the trailing factor, with rank
       decisions at that factor's scale ``sqrt(trace a[k+1..j])``;
    2. ``Gamma_kj`` from ``M_k Gamma = (r_k)_j`` (``_gamma_steps``), then
       ``M_k <- M_k D_{Gamma_kj*}``;
    3. the new column: ``C^(k)[k, j] = sum_{k<m<=j} (r_k)_m C^(k+1)[m, j]``
       and below it ``F_k* C^(k+1)[>k, j]`` (``_column_walk``).

    Blocks of mixed sizes are zero-padded to the largest one.  With
    ``split``, ``blocks`` is the embedding ``[[I, T], [T*, I]]``, its
    ``split`` row blocks first, and ``roots`` are identities.  Couplings
    within one side are zero by structure, pinned as zero gammas with
    identity defects: not solved, not SVD'd and not walked.  A trailing
    corner within one side is an identity, so row ``split - 1`` needs no
    pivot pseudoinverse.

    Next to a parameter of norm one, a new gamma can overshoot norm one far
    beyond the clip slack although the row is a contraction up to rounding:
    the defects of the row's earlier gammas are known only to about eps
    over their square, and two small pivots can make a singular value of
    the trailing factor that no single pivot shows.  Such a row is solved
    again as a whole, against the factor of ``a[k+1..j]`` rebuilt from the
    gammas below, clipped to the unit ball and re-extracted block by block
    (``_rescue_row``); its earlier gammas move, but rows above have used
    them, so the stages rerun with the row's gammas pinned.  If the whole
    row overshoots beyond the slack too, the gamma is damped
    (``_damped_solve``).  The cut pass checks neither solve residuals nor
    damped factors: along a direction the cut drops the data need not be
    consistent, and its round-trip check bounds what both cost.

    With ``carry``, steps 1 and 2 go through carried inverses where they
    are well conditioned (``_psd_pass``), so such a lag takes one stacked
    SVD, the gammas'.
    """
    pinned: dict[int, tuple] = {}
    while True:
        gammas, clipped = _psd_pass(blocks, roots, dims, cut, tol, pinned, split, carry)
        if not clipped:
            return gammas
        pinned.update(clipped)


def _rescue_row(blocks, roots, root_pinv, g, dims, k: int, j: int, atol: float,
                tol: Tolerances):
    """Gammas of row k up to block j and their defect pairs, from its row
    contraction solved against the whole factor of ``a[k+1..j]``, rebuilt
    from the gammas of the rows below, and clipped to the unit ball.  Its
    blocks are solved against the products of defects, whose kernels are
    exact, or if that fails, against products rebuilt from the row's tail,
    whose moduli are accurate next to a near-unit parameter (``_row_extract``)."""
    h, sub = dims[k], dims[k + 1:j + 1]
    below = PositiveSCParams(
        tuple(roots[i, :d, :d] for i, d in enumerate(sub, k + 1)),
        tuple(tuple(g[i, m, :dims[i], :dims[i + 1 + m]] for m in range(j - i))
              for i in range(k + 1, j + 1)),
        BlockShape(sub, sub))
    x = root_pinv[k, :h, :h] @ np.hstack([blocks[k, i, :h, :dims[i]] for i in range(k + 1, j + 1)])
    row = clip_to_contraction(x @ pinv(psd_cholesky(below, tol), tol, atol))
    try:
        return _row_extract(row, sub, tol)
    except NoFactor:
        return _row_extract(row, sub, tol, tail=True)


def _inverse_bound(tol: Tolerances, size: int) -> float:
    """Bound on the Frobenius norm of a carried inverse ``A^-1``, for ``A``
    of norm at most 1 (a pivot is scaled by the Frobenius norm of its
    trailing factor), under which it stands in for a pseudoinverse.

    Below it the least singular value sigma of A exceeds ``sqrt(eps /
    zero_level(1))``.  A defect of a gamma with a singular value near 1 is
    known only to about ``eps / sigma^2``, relative, and so are the
    products and inverses made of it; the bound keeps that under
    ``zero_level(1)``, so that rows next to near-unit parameters, whose
    solves overshoot norm one or are rescued by rounding-level margins,
    stay on the pseudoinverse path.  The pseudoinverses it replaces would
    cut nothing below it either: their cutoffs are at most the larger of
    ``zero_level(1)`` (the solves' ``_solve_atol``) and the relative rank
    cutoff of a matrix of side ``size`` (the pivots' floor).
    """
    level = zero_level(1.0, tol)
    rcond = float(_rank_rconds(size, np.ones(1), tol)[0])
    return 1.0 / max(np.sqrt(np.finfo(float).eps / level), level, rcond)


def _extend_chain(product: np.ndarray, ok: np.ndarray, bound: float, scale=1.0):
    """Carried inverses extended by one factor, ``product``, zeroed where
    ``ok`` is false (a chain once broken stays at zero), and whether each
    stays in use: its Frobenius norm times the ``scale`` of what it
    inverts within ``bound`` (``_inverse_bound``)."""
    if not ok.all():
        product *= ok[:, np.newaxis, np.newaxis]
    return product, ok & (_frobs(product) * scale < bound)


def _psd_pass(blocks, roots, dims, cut: float, tol: Tolerances, pinned: dict,
              split: int | None, carry: bool):
    """One pass of ``_psd_stages``: the gammas, or None and the rows to pin.

    ``pinned[k]`` holds the leading gammas of row k and their defect pairs,
    which are used instead of solving for them.

    With ``carry``, inverses stand in for the pseudoinverses of the pivots
    and the solves.  Row k's solve operator grows as ``M_k <- M_k
    D_{Gamma*}``, so ``M_k^-1 <- D_{Gamma*}^-1 M_k^-1``: one stacked product
    per lag.  Its pivot is ``C^(k+1)[j, j] = D_{Gamma_{k+1,j}} C^(k+2)[j,
    j]``, the row below's previous pivot times a defect, so its inverse is
    that row's previous pivot inverse times ``D_{Gamma_{k+1,j}}^-1``: one
    shifted stacked product per lag.  At lag 1 the pivots are the roots,
    whose pseudoinverses are taken up front, and a carried pivot inverse
    starts only from a root of full rank.  The inverses of both defects
    come from each gamma's SVD (``_gamma_steps``), so a lag on this path
    takes that SVD alone.  Both chains grow by ``_extend_chain``; rows off
    them and pinned rows solve through pseudoinverses (``_solve_stack``).

    The gammas and their defects live in their walk operators
    (``_column_walk``); a lag completes ``[G*; D_G*]`` for the rows that
    have a coupling at that lag, once its gammas and pins have landed.
    """
    n = len(dims)
    side = roots.shape[-1]
    sizes = np.array(dims)
    off = np.array(_offsets(dims))
    diag = np.arange(n + 1)
    root_norms = _frobs(roots)
    # ||factor of a[k+1..j]||_F^2 = trace a[k+1..j] = sum_{k<i<=j} ||L_i||_F^2
    sq_norms = np.concatenate(([0.0], np.cumsum(root_norms ** 2)))
    atol = np.sqrt(cut)
    m_acc = (np.eye(side) * _corner_mask(sizes[:-1], sizes[:-1], side)).astype(complex)
    # [k, m]: row k's gamma into block k + 1 + m and its defects, as views of
    # its walk operators [D_G; G] and [G*; D_G*] (_column_walk), and its solved r block
    fwd, back = (np.zeros((n - 1, n - 1, 2 * side, side), dtype=complex) for _ in range(2))
    d_t, g, d_t_star = fwd[..., :side, :], fwd[..., side:, :], back[..., side:, :]
    r = np.zeros((n - 1, n - 1, side, side), dtype=complex)
    if split is None:
        root_pinv, root_rank = _pinv_stack(roots, _rank_rconds(sizes, root_norms, tol, atol))
    else:  # identity roots; the walks pass x through the pinned zeros' D_Gamma = I
        root_pinv, root_rank = roots, sizes
        d_t[1:split] = roots[np.minimum(np.add.outer(diag[2:split + 1], diag[:n - 1]), n - 1)]
    # the inverse path: by row, M_k^-1 while solve_ok, the pivot's inverse
    # while pivot_ok, and D_Gamma^-1 of the last gamma if inv_ok
    bound = _inverse_bound(tol, off[-1])
    m_inv = m_acc.copy()
    solve_ok = np.full(n - 1, carry)
    solve_ok[list(pinned)] = False
    pivot_inv, pivot_ok = root_pinv[1:].copy(), (root_rank == sizes)[1:] & carry
    d_t_inv, inv_ok = np.zeros_like(m_acc), np.zeros(n - 1, dtype=bool)
    cols, c0 = roots[1:, np.newaxis], 0  # cols[k - c0, p] = C^(k+1)[k+1+p, k+lag], at lag 1
    for lag in range(1, n):
        rows = n - lag
        # rows [lo, hi) have a real coupling, those before `real` a pivot to invert
        lo, hi, real = ((0, rows, rows) if split is None else
                        (max(0, split - lag), min(split, rows), min(split - 1, rows)))
        rj = blocks.diagonal(lag)[..., lo:hi].transpose(2, 0, 1)  # a[k, k + lag], lo <= k < hi
        rj = root_pinv[:rows] @ rj if split is None else rj.copy()
        p = real - lo
        if p:
            span = cols[lo - c0:real - c0]
            known = (r[lo:real, :lag - 1] @ span[:, :lag - 1]).sum(axis=1)
            pivot = span[:, -1]
            rhs = rj[:p] - known
            if lag == 1:
                rj[:p] = rhs @ root_pinv[lo + 1:real + 1]
            else:
                first, last = diag[lo + 1:real + 1], diag[lo + lag + 1:real + lag + 1]
                scale = np.sqrt(sq_norms[last] - sq_norms[first])
                if carry:
                    if split is not None and real == split - 1:
                        pivot_inv[real] = roots[real + lag - 1]  # row split - 1's last pivot
                    below = slice(lo + 1, real + 1)
                    pivot_inv[lo:real], pivot_ok[lo:real] = _extend_chain(
                        pivot_inv[below] @ d_t_inv[below], pivot_ok[below] & inv_ok[below],
                        bound, scale)

                def pinvs(rest):  # floored at the trailing factor's scale
                    f, sc, sub = first[rest], scale[rest], pivot[rest]
                    floor = _rank_rconds(off[last[rest]] - off[f], sc, tol, atol) * sc
                    rcond = _rank_rconds(sizes[f + lag - 1], _frobs(sub), tol, atol)
                    return _pinv_stack(sub, rcond, floor)[0]

                inverse = (pivot_inv[lo:real], pivot_ok[lo:real]) if carry else None
                rj[:p] = _solve_stack(rhs, pivot, inverse, pinvs)[0]
        if min(dims) < side:
            rj *= _corner_mask(sizes[lo:hi], sizes[lo + lag:hi + lag], side)
        r[lo:real, lag - 1] = rj[:p]  # only rows with a pivot read r
        fixed = [k for k, (gammas, _) in pinned.items() if lo <= k < hi and len(gammas) >= lag]
        for k in fixed:
            inv_ok[k] = False
            gk, pk = pinned[k][0][lag - 1], pinned[k][1][lag - 1]
            g[k, lag - 1, :gk.shape[0], :gk.shape[1]] = gk
            d_t[k, lag - 1, :gk.shape[1], :gk.shape[1]] = pk.d_t
            d_t_star[k, lag - 1, :gk.shape[0], :gk.shape[0]] = pk.d_t_star
        at = np.setdiff1d(diag[lo:hi], fixed) if fixed else slice(lo, hi)  # rows solved for
        free = at - lo if fixed else slice(None)  # their places in rj
        if len(fixed) < hi - lo:
            problem = m_acc[at], rj[free], tol, sizes[at], sizes[lag:][at]
            inverse = (m_inv[at], solve_ok[at]) if carry else None
            try:
                out = _gamma_steps(*problem, damp=False, checked=not cut, inverse=inverse)
            except _Overshoot as exc:
                rescued = {}
                for k in diag[at][exc.indices]:
                    try:
                        rescued[k] = _rescue_row(blocks, roots, root_pinv, g, dims, k, k + lag,
                                                 atol, tol)
                    except (NotContraction, NoFactor):
                        pass
                if rescued:
                    return None, rescued
                out = _gamma_steps(*problem, checked=not cut, inverse=inverse)
            gj, pair, inverse_pair, invertible = out
            g[at, lag - 1], d_t[at, lag - 1], d_t_star[at, lag - 1] = gj, pair.d_t, pair.d_t_star
            if carry:
                d_t_inv[at], inv_ok[at] = inverse_pair.d_t, invertible
                m_inv[at], solve_ok[at] = _extend_chain(inverse_pair.d_t_star @ m_inv[at],
                                                        solve_ok[at] & invertible, bound)
        if lag == n - 1:
            break
        back[lo:hi, lag - 1, :side] = dagger(g[lo:hi, lag - 1])
        step = slice(lo, min(hi, rows - 1))
        m_acc[step] = m_acc[step] @ d_t_star[step, lag - 1]
        start = max(1, lo)  # row 0's new column would only serve a row above it
        if start >= hi:
            continue
        w = start - lo
        x, top = cols[start - c0:real - c0], rj[w:]
        if real > start:
            top = np.concatenate((known[w:] + rj[w:p] @ pivot[w:], rj[p:]))
        if real < hi:  # row split - 1, whose trailing corner and its factor are identities
            x = np.concatenate((x, np.zeros((1, lag, side, side), dtype=complex)))
            x[-1, -1] = roots[real + lag]
        _, lower = _column_walk(fwd[start:hi, :lag], back[start:hi, :lag], x,
                                0 if split is None else split - 1 - start)
        cols, c0 = np.concatenate((top[:, np.newaxis], lower), axis=1), start - 1
    return g, {}


def psd_parametrize(a, shape: BlockShape, tol: Tolerances = DEFAULT_TOL) -> PositiveSCParams:
    """Parametrize a positive block matrix, one lag ``j - i`` at a time.

    ``Gamma_ij`` depends only on the principal block ``a[i..j]``, so each
    stage extracts the gammas of one lag for every row at once, solving
    against the columns of the previous stage's Cholesky factors
    (``_psd_stages``): one stacked root per block size, one stacked SVD for
    the roots' pseudoinverses and, on the carried path, one stacked SVD per
    interior lag, the gammas'.  The uncut pass is exact on full-rank
    inputs; on rank-deficient ones rounding-level singular values can cost
    it sqrt(eps) or push a solve past norm 1, so the pass cut at
    ``zero_level(max|a|)`` goes first when the least eigenvalue of ``a`` is
    that low (``_first_pass`` orders the passes).
    """
    a = as_matrix(a)
    if shape.row_dims != shape.col_dims:
        raise ShapeUnsupported("positive block matrices need square blocks")
    shape.check(a)
    check = is_psd(a, tol)
    if not check:
        raise NotPSD(f"minimum eigenvalue {check.min_eigenvalue:.3e}")
    cut = zero_level(np.abs(a).max(initial=0.0), tol)
    singular = check.min_eigenvalue <= cut
    return _first_pass(a, (cut, 0.0) if singular else (0.0, cut), singular,
                       lambda level, carry: _psd_extract(a, shape, level, tol, carry),
                       lambda params: psd_reconstruct(params, tol), _recon_bound(a, tol, psd=True))


def psd_cholesky(params: PositiveSCParams, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Block upper-triangular L with L*L equal to the reconstructed matrix.

    Block column j of L is the last column of the natural factor of
    ``a[0..j]``.  It is built one lag at a time, as ``_psd_stages`` does:
    every row k extends its column ``x = C^(k+1)[., j]`` by ``T_k x`` on top
    and ``F_k* x`` below (``_column_walk``).  The defects of all gammas come
    from one stacked SVD per gamma shape.
    """
    dims = params.dims
    n = len(dims)
    side = max(dims)
    full = np.zeros((n, side, n, side), dtype=complex)
    for i, root in enumerate(params.diag_roots):
        full[i, :dims[i], i, :dims[i]] = root
    fwd, back = _padded_gammas(params.gammas[:-1], side, tol)
    cols = full[1:, :, 1:].diagonal(axis1=0, axis2=2).transpose(2, 0, 1)[:, np.newaxis]
    for lag in range(1, n):
        rows = n - lag
        top, lower = _column_walk(fwd[:rows, :lag], back[:rows, :lag], cols)
        full[0, :, lag] = top[0]
        full[1:lag + 1, :, lag] = lower[0]
        cols = np.concatenate((top[1:, np.newaxis], lower[1:]), axis=1)
    full = full.reshape(n * side, n * side)
    if min(dims) < side:
        full = full[np.ix_(_pad_index(dims, side), _pad_index(dims, side))]
    return full


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
