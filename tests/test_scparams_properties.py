"""Property tests of the parametrizations over random block shapes.

Gammas are drawn with singular values exactly 0, exactly 1 or in the
interior, so rank-deficient and norm-one parameters are as common as
interior ones.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_rebuild import column_walk, matrix_rebuild, row_walk, solve_left_factor

from schur_dilate import contraction, scparams
from schur_dilate.contraction import DefectPair, clip_to_contraction, defects
from schur_dilate.errors import NoFactor, NotContraction
from schur_dilate.linalg import (
    DEFAULT_TOL,
    dagger,
    frob,
    hermitian_part,
    is_psd,
    pinv,
    sqrt_psd,
    zero_level,
)
from schur_dilate.sampling import (
    complex_gaussian,
    random_contraction,
    random_unitary,
    rng_from_seed,
)
from schur_dilate.scparams import (
    BlockShape,
    MatrixContractionParams,
    PositiveSCParams,
    RowColParams,
    col_parametrize,
    col_reconstruct,
    matrix_defects_2x2,
    matrix_parametrize,
    matrix_reconstruct,
    psd_parametrize,
    psd_reconstruct,
    row_defect_factors,
    row_parametrize,
    row_reconstruct,
)

FACTOR_TOL = 1e-10
NATURAL_TOL = 1e-12
ADJOINT_TOL = 1e-12
WALK_TOL = 1e-14
RECON_TOL = DEFAULT_TOL.recon_tol

block = st.integers(1, 4)
blocks = st.lists(block, min_size=1, max_size=8).map(tuple)
# Interior singular values keep 1e-3 away from 0 and 1.  Closer in, a
# defect below sqrt(psd_tol) reads as 0 (test_small_defect_next_to_unit_parameter),
# and a solve against a product of defects with singular values near 1e-4
# can overshoot norm one beyond the clip slack, so round-trips can fail.
singular_value = st.one_of(st.just(0.0), st.just(1.0), st.floats(1e-3, 1 - 1e-3))
# Away from 1 the matrix parameters are well conditioned.  Next to a unit
# parameter, a direction whose defect is a rounding error can be kept or
# dropped, and two extractions that both round-trip have differed by 2.5e-6.
interior_value = st.one_of(st.just(0.0), st.floats(0.0, 0.9))
seed = st.integers(0, 2**32 - 1)

examples = settings(max_examples=40, deadline=None)


@st.composite
def gammas_of(draw, shapes, values=singular_value):
    """One contraction per (rows, cols) with singular values drawn from ``values``."""
    rng = rng_from_seed(draw(seed))
    out = []
    for p, q in shapes:
        s = draw(st.lists(values, min_size=min(p, q), max_size=min(p, q)))
        u = random_unitary(rng, p)[:, :len(s)]
        v = random_unitary(rng, q)[:, :len(s)]
        out.append((u * np.array(s)) @ dagger(v))
    return out


@st.composite
def row_params(draw, orientation="row"):
    h, dims = draw(block), draw(blocks)
    if orientation == "row":
        gammas = draw(gammas_of([(h, d) for d in dims]))
        return RowColParams("row", gammas, BlockShape((h,), dims))
    gammas = draw(gammas_of([(d, h) for d in dims]))
    return RowColParams("column", gammas, BlockShape(dims, (h,)))


def assert_block_lower(f, dims):
    off = np.cumsum((0,) + tuple(dims))
    for j in range(len(dims)):
        assert not f[off[j]:off[j + 1], off[j + 1]:].any()


def assert_close(a, b, tol):
    assert frob(a - b) <= tol, frob(a - b)


@examples
@given(row_params("row"))
def test_row_lower_factor(params):
    t = row_reconstruct(params)
    lower, star = row_defect_factors(params)
    dims = params.shape.col_dims
    assert_block_lower(lower, dims)
    assert_close(lower @ dagger(lower), np.eye(sum(dims)) - dagger(t) @ t, FACTOR_TOL)
    assert_close(star @ dagger(star), np.eye(t.shape[0]) - t @ dagger(t), FACTOR_TOL)


@examples
@given(row_params("column"))
def test_col_lower_factor(params):
    c = col_reconstruct(params)
    product, lower = row_defect_factors(params)
    dims = params.shape.row_dims
    assert_block_lower(lower, dims)
    assert_close(lower @ dagger(lower), np.eye(sum(dims)) - c @ dagger(c), FACTOR_TOL)
    assert_close(product @ dagger(product), np.eye(c.shape[1]) - dagger(c) @ c, FACTOR_TOL)


def natural_factors(gammas):
    """F and M of a row of gammas, every block from its formula.

    D_{G_i} on the diagonal of F, -G_i* D_{G_{i-1}*} ... D_{G_{j+1}*} G_j
    below it, and M = D_{G_1*} ... D_{G_n*}; one ``defects`` call per gamma.
    """
    pairs = [defects(g) for g in gammas]
    off = np.cumsum([0] + [g.shape[1] for g in gammas])
    f = np.zeros((off[-1], off[-1]), dtype=complex)
    for i, gi in enumerate(gammas):
        f[off[i]:off[i + 1], off[i]:off[i + 1]] = pairs[i].d_t
        for j in range(i):
            chain = [-dagger(gi)] + [pairs[k].d_t_star for k in range(i - 1, j, -1)]
            f[off[i]:off[i + 1], off[j]:off[j + 1]] = functools.reduce(
                np.matmul, chain + [gammas[j]])
    return f, functools.reduce(np.matmul, [p.d_t_star for p in pairs])


@pytest.mark.parametrize("orientation", ["row", "column"])
@examples
@given(data=st.data())
def test_defect_factors_are_the_natural_factors(orientation, data):
    # the Gram identities hold for F times any block-diagonal unitary too;
    # pin F itself, since matrix parameters are solved against it
    params = data.draw(row_params(orientation))
    row = orientation == "row"
    gammas = params.gammas if row else [dagger(g) for g in params.gammas]
    f, m = natural_factors(gammas)
    lower, product = row_defect_factors(params)
    if not row:
        lower, product = product, lower
    assert_close(lower, f, NATURAL_TOL)
    assert_close(product, m, NATURAL_TOL)


@examples
@given(row_params("column"))
def test_col_params_are_adjoint_row_params(params):
    c = col_reconstruct(params)
    shape = params.shape
    col = col_parametrize(c, shape)
    row = row_parametrize(dagger(c), BlockShape(shape.col_dims, shape.row_dims))
    for g, r in zip(col.gammas, row.gammas):
        assert_close(g, dagger(r), ADJOINT_TOL)


@examples
@given(row_params("row"))
def test_row_roundtrip(params):
    t = row_reconstruct(params)
    assert_close(row_reconstruct(row_parametrize(t, params.shape)), t, RECON_TOL)


@examples
@given(row_params("column"))
def test_col_roundtrip(params):
    c = col_reconstruct(params)
    assert_close(col_reconstruct(col_parametrize(c, params.shape)), c, RECON_TOL)


@st.composite
def matrix_params(draw, n=None, m=None, values=singular_value):
    """A grid of drawn gammas over n x m blocks of sizes 1-4, n and m drawn
    from 1-4 where not given."""
    rows = draw(st.lists(block, min_size=n or 1, max_size=n or 4).map(tuple))
    cols = draw(st.lists(block, min_size=m or 1, max_size=m or 4).map(tuple))
    flat = draw(gammas_of([(r, c) for r in rows for c in cols], values))
    grid = tuple(tuple(flat[i * len(cols):(i + 1) * len(cols)]) for i in range(len(rows)))
    return MatrixContractionParams(grid, BlockShape(rows, cols))


@examples
@given(matrix_params())
def test_matrix_roundtrip(params):
    t = matrix_reconstruct(params)
    assert_close(matrix_reconstruct(matrix_parametrize(t, params.shape)), t, RECON_TOL)


def column_by_column(t, shape):
    """The grid of ``t`` one block column at a time, independent of the
    staged extraction.

    Block column k is solved against the product of the triangular defect
    factors of the block columns before it, then parametrized as a column
    contraction, that is through the row parameters of its adjoint, taken
    by the per-block loop (``scparams._row_extract``).
    """
    rd, cd = shape.row_dims, shape.col_dims
    off = np.cumsum((0,) + cd)
    dacc = np.eye(shape.rows, dtype=complex)
    columns = []
    for k, d in enumerate(cd):
        ck = solve_left_factor(dacc, t[:, off[k]:off[k + 1]])
        gammas, _ = scparams._row_extract(dagger(ck), rd, DEFAULT_TOL)
        row = RowColParams("row", gammas, BlockShape((d,), rd))
        columns.append([dagger(g) for g in row.gammas])
        dacc = dacc @ row_defect_factors(row)[0]
    return [[column[i] for column in columns] for i in range(len(rd))]


@pytest.mark.parametrize("n, m", [(1, None), (None, 1), (None, None)])
@examples
@given(data=st.data())
def test_staged_matrix_extraction_matches_the_column_loop(n, m, data):
    # 1 x m, n x 1 and any grid, mixed block sizes and n != m included
    params = data.draw(matrix_params(n, m, interior_value))
    t = matrix_reconstruct(params)
    staged = matrix_parametrize(t, params.shape).gammas
    for row, ref in zip(staged, column_by_column(t, params.shape)):
        for g, r in zip(row, ref):
            assert_close(g, r, ADJOINT_TOL)


@examples
@given(matrix_params(values=interior_value))
def test_matrix_params_of_the_adjoint_are_the_adjoint_transposed_grid(params):
    t = matrix_reconstruct(params)
    shape = params.shape
    grid = matrix_parametrize(t, shape).gammas
    adjoint = matrix_parametrize(dagger(t), BlockShape(shape.col_dims, shape.row_dims)).gammas
    for i, row in enumerate(grid):
        for j, g in enumerate(row):
            assert_close(adjoint[j][i], dagger(g), ADJOINT_TOL)


def assert_block_upper(f, dims):
    off = np.cumsum((0,) + tuple(dims))
    for j in range(len(dims)):
        assert not f[off[j + 1]:, off[j]:off[j + 1]].any()


def blocks_of(a, rows, cols):
    """The blocks of ``a`` over row block sizes ``rows`` and column block sizes ``cols``."""
    r, c = np.cumsum((0,) + tuple(rows)), np.cumsum((0,) + tuple(cols))
    return [a[r[i]:r[i + 1], c[j]:c[j + 1]] for i in range(len(rows)) for j in range(len(cols))]


@examples
@given(matrix_params())
def test_grid_defect_factors(params):
    # G from the walk of the adjoint-transposed grid, H from the grid's own
    t = matrix_reconstruct(params)
    shape = params.shape
    g, h = scparams._grid_rebuild(params.gammas, shape, DEFAULT_TOL, factors=True)
    assert_block_upper(g, shape.col_dims)
    assert_block_upper(h, shape.row_dims)
    assert_close(dagger(g) @ g, np.eye(shape.cols) - dagger(t) @ t, FACTOR_TOL)
    assert_close(dagger(h) @ h, np.eye(shape.rows) - t @ dagger(t), FACTOR_TOL)


def swapped(pair):
    """The defect pair of G from that of G*."""
    return DefectPair(pair.d_t_star, pair.d_t)


def closed_form_defect_factors_2x2(params):
    """(G, H) of a 2 x 2 grid, every block from its closed form.

    The defects come from the SVDs of the adjoint gammas, as the rebuild
    takes them: D_G from that of G* differs from D_G from that of G by up
    to 1e-14 next to singular values near 1, which this comparison of the
    products is not about.
    """
    (g1, g2), (g3, g4) = params.gammas
    (p1, p2), (p3, p4) = ([swapped(defects(dagger(g))) for g in row] for row in params.gammas)
    rd, cd = params.shape.row_dims, params.shape.col_dims
    g = np.block([
        [p3.d_t @ p1.d_t, -p3.d_t @ dagger(g1) @ g2 - dagger(g3) @ g4 @ p2.d_t],
        [np.zeros(cd[::-1]), p4.d_t @ p2.d_t],
    ])
    h = np.block([
        [p2.d_t_star @ p1.d_t_star, -p2.d_t_star @ g1 @ dagger(g3) - g2 @ dagger(g4) @ p3.d_t_star],
        [np.zeros(rd[::-1]), p4.d_t_star @ p3.d_t_star],
    ])
    return g, h


@examples
@given(matrix_params(2, 2))
def test_2x2_defect_factors_are_the_closed_forms(params):
    rd, cd = params.shape.row_dims, params.shape.col_dims
    for got, want, dims in zip(matrix_defects_2x2(params),
                               closed_form_defect_factors_2x2(params), (cd, rd)):
        for block, ref in zip(blocks_of(got, dims, dims), blocks_of(want, dims, dims)):
            assert_close(block, ref, WALK_TOL)


@pytest.mark.parametrize("n, m", [(1, None), (None, 1), (None, None)])
@examples
@given(data=st.data())
def test_rebuilds_match_the_reference_walk(n, m, data):
    # the row walk per block column that the seeded generators build with
    params = data.draw(matrix_params(n, m))
    shape = params.shape
    ref = matrix_rebuild(params)
    rebuilds = [matrix_reconstruct(params)]
    if n == 1:
        rebuilds.append(row_reconstruct(RowColParams("row", params.gammas[0], shape)))
    if m == 1:
        rebuilds.append(col_reconstruct(RowColParams("column", params.column(0), shape)))
    for t in rebuilds:
        for block, r in zip(blocks_of(t, shape.row_dims, shape.col_dims),
                            blocks_of(ref, shape.row_dims, shape.col_dims)):
            assert_close(block, r, WALK_TOL)


@settings(max_examples=80, deadline=None)
@given(seed, st.sampled_from(("psd_cholesky", "_grid_walk", "stages")), blocks, st.booleans())
def test_walk_operators_walk_as_the_two_product_walk_bitwise(rng_seed, caller, dims, lead):
    # padded stacks of the shapes each caller walks: rows of a lag's gammas
    # over a block column (psd_cholesky), one block column of a grid over
    # its whole width (_grid_walk), and a lag's rows whose first lead - k
    # gammas are pinned zeros (the stages of a block contraction)
    rng = rng_from_seed(rng_seed)
    side, n = max(dims), len(dims)
    count, width = (1, n * side) if caller == "_grid_walk" else (int(rng.integers(1, 6)), side)
    lead = int(rng.integers(1, count + n)) if lead and caller == "stages" else 0
    heights = [dims[k % n] for k in range(count)]  # each row's block, as its gammas' rows
    rows = [[random_contraction(rng, p, q) if m >= lead - k else np.zeros((p, q))
             for m, q in enumerate(dims)] for k, p in enumerate(heights)]
    fwd, back = scparams._padded_gammas(rows, side, DEFAULT_TOL)
    x = complex_gaussian(rng, count * n * side, width).reshape(count, n, side, width)
    want = column_walk(fwd[..., side:, :].copy(), fwd[..., :side, :].copy(),
                       back[..., side:, :].copy(), x.copy(), lead)
    for got, ref in zip(scparams._column_walk(fwd, back, x, lead), want):
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


@examples
@given(st.data())
def test_psd_roundtrip(data):
    dims = data.draw(blocks)
    n = len(dims)
    rng = rng_from_seed(data.draw(seed))
    roots = []
    for d in dims:
        b = complex_gaussian(rng, d, d)
        roots.append(dagger(b) @ b + np.eye(d))
    gammas = [data.draw(gammas_of([(dims[i], dims[j]) for j in range(i + 1, n)]))
              for i in range(n)]
    shape = BlockShape(dims, dims)
    a = psd_reconstruct(PositiveSCParams(roots, gammas, shape))
    again = psd_reconstruct(psd_parametrize(a, shape))
    assert_close(again, a, RECON_TOL * max(1.0, frob(a)))


@st.composite
def rank_deficient_psd(draw):
    """``G*G`` for an r x N Gaussian ``G`` whose i-th block column has rank
    at most ``r_i``: every rank profile of the diagonal blocks, zero blocks
    and rank-deficient wholes included."""
    dims = draw(blocks)
    rank = draw(st.integers(0, sum(dims)))
    rng = rng_from_seed(draw(seed))
    cols = []
    for d in dims:
        r_i = draw(st.integers(0, d))
        cols.append(complex_gaussian(rng, rank, r_i) @ complex_gaussian(rng, r_i, d))
    g = np.hstack(cols)
    return dagger(g) @ g, BlockShape(dims, dims)


@examples
@given(rank_deficient_psd())
def test_psd_roundtrip_rank_deficient(case):
    a, shape = case
    again = psd_reconstruct(psd_parametrize(a, shape))
    assert_close(again, a, RECON_TOL * max(1.0, frob(a)))


def psd_with_gammas(rng, dims, singular):
    """Full-rank roots ``B*B + I`` and gammas ``U diag(s) V*`` with ``s =
    singular(min(p, q))`` for a p x q gamma, as a matrix and its block shape."""
    roots = []
    for d in dims:
        b = complex_gaussian(rng, d, d)
        roots.append(dagger(b) @ b + np.eye(d))
    gammas = []
    for i, p in enumerate(dims):
        row = []
        for q in dims[i + 1:]:
            s = np.array(singular(min(p, q)), dtype=float)
            u = random_unitary(rng, p)[:, :len(s)]
            v = random_unitary(rng, q)[:, :len(s)]
            row.append((u * s) @ dagger(v))
        gammas.append(row)
    shape = BlockShape(dims, dims)
    return psd_reconstruct(PositiveSCParams(roots, gammas, shape)), shape


def near_unit_five_blocks(seed):
    """Five blocks with full-rank roots and gammas of singular values 0, 1
    and 1 - 2.3e-9, as a matrix and its block shape."""
    near_one = 10 ** -1e-9
    singular = iter([(0, 0), (0, 0), (1, 0), (0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
                     (0, 1, near_one), (0, 1, 1, 1), (0, 0, 0)])
    return psd_with_gammas(rng_from_seed(seed), (2, 3, 4, 3, 4), lambda _: next(singular))


def boundary_value(rng, lo):
    """Exactly 0, exactly 1, x or 1 - x, with x log-uniform in [lo, 1]."""
    kind = rng.integers(4)
    if kind < 2:
        return float(kind)
    x = float(np.exp(rng.uniform(np.log(lo), 0.0)))
    return x if kind == 2 else 1.0 - x


def boundary_psd(seed, lo):
    """2-5 blocks of size 1-4 with gamma singular values from
    ``boundary_value``, as a matrix and its block shape: the psd inputs of
    the boundary scan."""
    rng = rng_from_seed(seed)
    dims = tuple(int(d) for d in rng.integers(1, 5, int(rng.integers(2, 6))))
    return psd_with_gammas(rng, dims, lambda count: [boundary_value(rng, lo) for _ in range(count)])


def boundary_matrix(seed, lo, kind="matrix"):
    """2-5 block rows of size 1-4, a block column of size 1-4 and 1-3 more of
    size 1-3, with gamma singular values from ``boundary_value``, as a
    contraction and its block shape: the matrix inputs of the boundary scan.
    The "column" kind keeps the first block column only, and the "row" kind
    is one block row of that size over the block rows' sizes as columns."""
    rng = rng_from_seed(seed)
    rows = tuple(int(d) for d in rng.integers(1, 5, int(rng.integers(2, 6))))
    cols = (int(rng.integers(1, 5)),) + tuple(
        int(d) for d in rng.integers(1, 4, int(rng.integers(1, 4))))
    if kind == "row":
        rows, cols = cols[:1], rows
    elif kind == "column":
        cols = cols[:1]
    grid = []
    for p in rows:
        grid.append([])
        for q in cols:
            s = np.array([boundary_value(rng, lo) for _ in range(min(p, q))])
            u = random_unitary(rng, p)[:, :len(s)]
            v = random_unitary(rng, q)[:, :len(s)]
            grid[-1].append((u * s) @ dagger(v))
    shape = BlockShape(rows, cols)
    return matrix_rebuild(MatrixContractionParams(grid, shape)), shape


def test_psd_roundtrip_trailing_factor_with_rounding_direction():
    # Five blocks with full-rank roots and gammas of singular values 0, 1
    # and 1 - 2.3e-9 leave the trailing Cholesky factor with rounding-level
    # singular values; a relative-only pinv cutoff kept one of them and the
    # row solve reached operator norm 11 (NoFactor).
    a, shape = near_unit_five_blocks(0)
    again = psd_reconstruct(psd_parametrize(a, shape))
    assert_close(again, a, RECON_TOL * max(1.0, frob(a)))


@pytest.mark.parametrize("seed", range(1, 13))
def test_psd_roundtrip_next_to_a_unit_parameter(seed):
    # Other draws of the same generator.  The defect of the gamma with
    # singular value 1 - 2.3e-9 is known only to about eps / 4.6e-9, so
    # the next gamma of its row overshoots norm one by up to 1e-6 though
    # the row is a contraction up to rounding, and the rows above it need
    # that defect.  The row is re-solved against the factor of its
    # trailing block, clipped and re-extracted, and the lag stages rerun
    # with its gammas pinned.  Damping the gamma alone instead failed
    # seeds 1, 2, 5, 6, 7, 8, 9 and 12.
    a, shape = near_unit_five_blocks(seed)
    again = psd_reconstruct(psd_parametrize(a, shape))
    assert_close(again, a, RECON_TOL * max(1.0, frob(a)))


def test_psd_rescued_row_extracted_against_its_tail():
    # Next to gammas of singular value 1 - 1e-10, both rows rescued in the
    # cut pass leave solve residuals of 3.9e-6 and 1.1e-8 when extracted
    # against products of defects, beyond the clip slack.  Against products
    # whose moduli come from the rows' tails they extract, and the cut pass
    # rebuilds the input within 2.1e-7 (the bound here is 2.1e-6).
    a, shape = boundary_psd(10167, 1e-10)
    again = psd_reconstruct(psd_parametrize(a, shape))
    assert_close(again, a, RECON_TOL * max(1.0, frob(a)))


@pytest.mark.parametrize("seed, lo", [(10228, 1e-6), (10167, 1e-8), (10315, 1e-8),
                                      (10332, 1e-8)])
def test_psd_cut_pass_leaves_solve_residuals_to_its_round_trip_check(seed, lo):
    # Rank-deficient inputs (least eigenvalue about 1e-14) next to unit
    # parameters.  A gamma solve leaves a residual of 1.4e-9 to 3.3e-9,
    # beyond the clip slack, in both passes; in the cut pass it lies along
    # directions the cut drops.  The cut pass checks no solve residual, and
    # its round-trip check passes at an error of 2.1e-9 or less against a
    # bound of 8.7e-7 or more.  Neither pass carries inverses, as in
    # psd_parametrize on a singular input.
    a, shape = boundary_psd(seed, lo)
    cut, uncut = passes(a)
    assert cut > 0 == uncut
    with pytest.raises(NoFactor, match="solve residual"):
        scparams._psd_extract(a, shape, uncut, DEFAULT_TOL, carry=False)
    params = scparams._psd_extract(a, shape, cut, DEFAULT_TOL, carry=False)
    assert frob(psd_reconstruct(params) - a) <= scparams._recon_bound(a, DEFAULT_TOL, psd=True)


def bottom_up_extract(a, dims, cut, tol=DEFAULT_TOL):
    """Roots and gammas of ``a`` from the bottom-up row loop: the row
    contraction of block k is ``L_k^+ a[k, >k] chol^+``, solved against the
    whole Cholesky factor of the trailing corner, which then grows by one
    block row.  A cut pass must round-trip, as in ``psd_parametrize``'s
    ``_first_pass``."""
    n = len(dims)
    off = np.cumsum((0,) + tuple(dims))
    roots = [sqrt_psd(hermitian_part(a[off[i]:off[i + 1], off[i]:off[i + 1]]), tol, cut)
             for i in range(n)]
    atol = np.sqrt(cut)
    gammas = [()] * n
    chol = roots[-1]
    for k in range(n - 2, -1, -1):
        row = a[off[k]:off[k + 1], off[k + 1]:]
        try:
            rk = clip_to_contraction(pinv(roots[k], tol, atol) @ row @ pinv(chol, tol, atol))
        except NotContraction as exc:
            raise NoFactor(str(exc)) from exc
        gammas[k], pairs = scparams._row_extract(rk, dims[k + 1:], tol)
        lower = row_walk(gammas[k], pairs, dims[k])[1]
        chol = np.block([[roots[k], rk @ chol],
                         [np.zeros((len(chol), dims[k])), dagger(lower) @ chol]])
    shape = BlockShape(dims, dims)
    rebuild = psd_reconstruct(PositiveSCParams(roots, gammas, shape))
    if cut and frob(rebuild - a) > scparams._recon_bound(a, tol, psd=True):
        raise NoFactor("round-trip error above recon_tol after the rank cut")
    return roots, gammas


def gram(seed, rank, dims):
    g = complex_gaussian(rng_from_seed(seed), rank, sum(dims))
    return dagger(g) @ g


def passes(a):
    """The cuts of ``psd_parametrize``'s two passes, in the order it tries them."""
    cut = zero_level(np.abs(a).max())
    return (cut, 0.0) if is_psd(a).min_eigenvalue <= cut else (0.0, cut)


@st.composite
def gram_psd(draw):
    """``G*G`` over uniform or mixed block sizes, of full rank or rank < N."""
    n = draw(st.integers(1, 8))
    dims = (draw(block),) * n if draw(st.booleans()) else draw(st.lists(block, min_size=n,
                                                                         max_size=n).map(tuple))
    size = sum(dims)
    rank = draw(st.sampled_from([2 * size, draw(st.integers(1, max(1, size - 1)))]))
    return gram(draw(seed), rank, dims), dims


@examples
@given(gram_psd())
def test_staged_extraction_matches_the_bottom_up_loop(case):
    # on the first pass the bottom-up loop gets through, in psd_parametrize's
    # order, carrying inverses where it does: on the uncut pass of a
    # nonsingular input, which goes first
    a, dims = case
    order = passes(a)
    for cut in order:
        try:
            roots, gammas = bottom_up_extract(a, dims, cut)
        except NoFactor:
            continue
        params = scparams._psd_extract(a, BlockShape(dims, dims), cut, DEFAULT_TOL,
                                       carry=cut == 0.0 == order[0])
        assert all(r.tobytes() == ref.tobytes() for r, ref in zip(params.diag_roots, roots))
        bound = 1e-10 * max(1.0, frob(a))
        for row, ref in zip(params.gammas, gammas):
            for g, r in zip(row, ref):
                assert_close(g, r, bound)
        return


def test_psd_roundtrip_where_the_bottom_up_loop_fails():
    # G*G for a Gaussian 16 x 32 G, 8 blocks of 4: every diagonal block has
    # full rank, the whole has rank 16.  Solved against the whole trailing
    # factor, a row contraction leaves a solve residual of 1.2e-7 (cut pass)
    # and 4e-9 (uncut pass), beyond the clip slack; solved lag by lag, both
    # passes round-trip.
    dims = (4,) * 8
    a = gram(12121, 16, dims)
    for cut in passes(a):
        with pytest.raises(NoFactor, match="solve residual"):
            bottom_up_extract(a, dims, cut)
    again = psd_reconstruct(psd_parametrize(a, BlockShape(dims, dims)))
    assert_close(again, a, RECON_TOL * max(1.0, frob(a)))


NEAR_UNIT = 1 - 1e-9


def gamma_of(rng, p, q, value):
    """A p x q gamma whose singular values all equal ``value``."""
    s = np.full(min(p, q), value)
    return (random_unitary(rng, p)[:, :len(s)] * s) @ dagger(random_unitary(rng, q)[:, :len(s)])


def psd_near_unit_coupling(seed, at=(0, 2)):
    """Blocks 2+3+4+3+4 with identity roots and gammas of singular values
    1/2, except gamma ``at``, whose singular values are ``NEAR_UNIT``."""
    rng = rng_from_seed(seed)
    dims = (2, 3, 4, 3, 4)
    gammas = [[gamma_of(rng, p, q, NEAR_UNIT if (i, j) == at else 0.5)
               for j, q in enumerate(dims) if j > i] for i, p in enumerate(dims)]
    shape = BlockShape(dims, dims)
    return psd_reconstruct(PositiveSCParams([np.eye(d) for d in dims], gammas, shape)), shape


def grid_near_unit_coupling(seed):
    """A (2, 1, 3) x (1, 2, 2, 1) contraction from gammas of singular values
    1/2, except gamma(2, 1), whose singular values are ``NEAR_UNIT``."""
    rng = rng_from_seed(seed)
    rows, cols = (2, 1, 3), (1, 2, 2, 1)
    grid = [[gamma_of(rng, p, q, NEAR_UNIT if (i, j) == (2, 1) else 0.5) for j, q in enumerate(cols)]
            for i, p in enumerate(rows)]
    shape = BlockShape(rows, cols)
    return matrix_rebuild(MatrixContractionParams(grid, shape)), shape


@pytest.fixture
def pinv_stacks(monkeypatch):
    """Stack sizes of the pseudoinverse SVDs of the lag stages: the roots'
    and pivots' (``scparams``) and the solves' (``contraction``)."""
    seen = {"pivots": [], "solves": []}
    for module, key in ((scparams, "pivots"), (contraction, "solves")):
        def recording(a, *args, _pinv=module._pinv_stack, _key=key, **kwargs):
            seen[_key].append(len(a))
            return _pinv(a, *args, **kwargs)
        monkeypatch.setattr(module, "_pinv_stack", recording)
    return seen


# A gamma right of a coupling with singular value 1 - delta in its row is
# known only to about eps / delta, on either path: the reference solves
# differ from the pseudoinverse path there by up to 1.1e-6 too.
NEAR_UNIT_TOL = 100 * np.finfo(float).eps / (1 - NEAR_UNIT)


NEAR_UNIT_CASES = [((0, 2), {"pivots": [5], "solves": [1, 1]}, {(0, 3), (0, 4)}),
                   ((2, 4), {"pivots": [5, 1, 1], "solves": []}, {(0, 4), (1, 4)})]


@pytest.mark.parametrize("seed, at, stacks, near",
                         [(seed, *case) for case in NEAR_UNIT_CASES for seed in range(3)],
                         ids=["0", "1", "2", "low-0", "low-1", "low-2"])
def test_psd_row_leaves_the_inverse_path_after_a_near_unit_coupling(pinv_stacks, seed, at,
                                                                   stacks, near):
    # The defects of the near-unit gamma have a singular value 4.5e-5.
    # Gamma(0, 2): the carried inverse of row 0's product of defects exceeds
    # _inverse_bound after lag 2, so in the one uncut pass row 0 solves lags
    # 3 and 4 through pseudoinverses, one SVD of a stack of one each.
    # Gamma(2, 4), at the end of row 2 ("low"): the pivots of block 4 for
    # rows 1 and 0 (lags 3 and 4) carry the inverse of its defect, so they
    # leave the carried path for pseudoinverses with floors, one SVD of a
    # stack of one each; the round trip is then within 7.2e-15.  Every other
    # pivot after the roots and every other solve goes through carried
    # inverses.  The gammas right of or above the near-unit one are known
    # only to NEAR_UNIT_TOL (they are within 7e-7 here), the others to 1e-13.
    a, shape = psd_near_unit_coupling(seed, at)
    assert passes(a)[0] == 0.0  # nonsingular: the uncut pass goes first
    params = psd_parametrize(a, shape)
    assert pinv_stacks == stacks
    assert frob(psd_reconstruct(params) - a) <= scparams._recon_bound(a, DEFAULT_TOL, psd=True)
    _, ref = bottom_up_extract(a, shape.row_dims, 0.0)
    for k, (row, ref_row) in enumerate(zip(params.gammas, ref)):
        for j, (g, r) in enumerate(zip(row, ref_row), k + 1):
            assert_close(g, r, NEAR_UNIT_TOL if (k, j) in near else 1e-13)


@pytest.mark.parametrize("seed", range(3))
def test_grid_row_leaves_the_inverse_path_after_a_near_unit_coupling(pinv_stacks, seed):
    # Grid row 2 is the embedding's row 0; past gamma(2, 1) its carried
    # inverse exceeds the bound, so its last two gammas are solved through
    # pseudoinverses of stacks of one.  The pivots are carried throughout.
    t, shape = grid_near_unit_coupling(seed)
    assert np.linalg.norm(t, 2) < 1 - zero_level(1.0)  # nonsingular embedding
    params = matrix_parametrize(t, shape)
    assert pinv_stacks == {"pivots": [], "solves": [1, 1]}
    assert frob(matrix_reconstruct(params) - t) <= scparams._recon_bound(t, DEFAULT_TOL)
    for i, (row, ref_row) in enumerate(zip(params.gammas, column_by_column(t, shape))):
        for j, (g, r) in enumerate(zip(row, ref_row)):
            assert_close(g, r, NEAR_UNIT_TOL if i == 2 and j > 1 else ADJOINT_TOL)


def unit_parameter_grid(seed):
    """A (2, 2, 1, 2) x (1, 2, 2, 2) contraction whose parameters have
    singular values 1, 0 and 1/128: three of its singular values are 1, so
    its embedding [[I, T], [T*, I]] is singular."""
    singular = [[[1], [1 / 128, 0], [0, 0], [1, 0]],
                [[0], [1, 0], [0, 0], [0, 0]],
                [[0], [0], [0], [0]],
                [[0], [1, 1], [0, 0], [0, 0]]]
    rows, cols = (2, 2, 1, 2), (1, 2, 2, 2)
    rng = rng_from_seed(seed)
    grid = []
    for p, values in zip(rows, singular):
        grid.append([])
        for q, s in zip(cols, values):
            u = random_unitary(rng, p)[:, :len(s)]
            v = random_unitary(rng, q)[:, :len(s)]
            grid[-1].append((u * np.array(s, dtype=float)) @ dagger(v))
    shape = BlockShape(rows, cols)
    return matrix_rebuild(MatrixContractionParams(grid, shape)), shape


@pytest.mark.parametrize("seed", [5, 13, 26])
def test_matrix_roundtrip_through_the_cut_pass(seed):
    # A unit parameter extracted as 1 - 6e-11 leaves a pivot singular value
    # of 1.1e-5 that should be 0, and the uncut stages end in a solve
    # residual of 9e-8 to 1.4e-7 (NoFactor) along it.  The stages cut at
    # zero_level(1) round-trip within 3e-12.
    t, shape = unit_parameter_grid(seed)
    assert_close(matrix_reconstruct(matrix_parametrize(t, shape)), t, RECON_TOL)


@pytest.mark.parametrize("seed", [10159, 10268])
def test_matrix_extraction_of_a_singular_embedding_rebuilds_or_raises(seed):
    # T has unit singular values next to gammas of singular value 1 - 1e-6.
    # The uncut stages pass every solve check, yet their grid rebuilds T
    # only within 6e-7, and so does the cut pass's: this must raise, not
    # return that grid.
    t, shape = boundary_matrix(seed, 1e-6)
    try:
        params = matrix_parametrize(t, shape)
    except NoFactor:
        return
    assert frob(matrix_reconstruct(params) - t) <= scparams._recon_bound(t, DEFAULT_TOL)


@pytest.mark.parametrize("kind, seed, lo", [
    ("row", 10008, 1e-10), ("row", 10017, 1e-10), ("row", 10230, 1e-10),
    ("column", 10094, 1e-10), ("column", 10133, 1e-10),
    ("column", 10150, 1e-8), ("column", 10230, 1e-8)])
def test_row_and_column_roundtrip_next_to_unit_parameters(kind, seed, lo):
    # 1 x m and n x 1 boundary inputs.  Solved block by block against the
    # running product of defects alone, each raised NoFactor: a solve
    # residual of 1.5e-9 to 1.4e-7, or no damped contraction within the
    # slack.  As grids they round-trip: rows 10008 and 10230 through the cut
    # pass, rows 10017 and 10230 and both columns at 1e-8 with a row rescued
    # in its tail form.  The columns at 1e-10 get through the uncut stages,
    # whose solves, zero-padded to the largest block, round differently.
    t, shape = boundary_matrix(seed, lo, kind)
    if kind == "row":
        again = row_reconstruct(row_parametrize(t, shape))
    else:
        again = col_reconstruct(col_parametrize(t, shape))
    assert_close(again, t, scparams._recon_bound(t, DEFAULT_TOL))


def grid_roundtrip(rows):
    """Round-trip of the 2 x 3 grid of scalar parameters ``rows``."""
    grid = tuple(tuple(np.array([[z]], dtype=complex) for z in row) for row in rows)
    shape = BlockShape((1, 1), (1, 1, 1))
    t = matrix_reconstruct(MatrixContractionParams(grid, shape))
    assert_close(matrix_reconstruct(matrix_parametrize(t, shape)), t, RECON_TOL)


@pytest.mark.xfail(raises=NoFactor, strict=True,
                   reason="defects below sqrt(psd_tol) are clamped to 0")
def test_small_defect_next_to_unit_parameter():
    # T = [[1, 0, 0], [0, sqrt(1 - s^2), -s]] extracts a parameter of norm
    # sqrt(1 - s^2) whose defect s is clamped, so the last block column,
    # which carries -s, has no solve left.
    s = 1e-6
    grid_roundtrip(((1.0, s, 1.0), (0.0, 1.0, 0.0)))


@pytest.mark.parametrize("s", [1e-5, 3e-5, 1e-4])
def test_defect_error_next_to_unit_modulus_parameter(s):
    # Like test_small_defect_next_to_unit_parameter with a defect above the
    # clamp.  A defect taken from an eigenvalue of I - Gamma*Gamma is off by
    # about eps / s, enough to push the extracted parameter beyond norm one
    # at all three sizes; defects from the SVD of Gamma are not.
    z = -0.16698734480088645 + 0.985959039045918j
    grid_roundtrip(((1.0, s, 1.0), (0.0, z, 0.0)))
