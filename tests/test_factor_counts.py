"""Factorization counts of the parametrizations, the dilations and the
inequality suite, a deterministic cost gate.

Every extraction runs the lag stages, all rows of a lag at once.  An
interior lag takes one stacked SVD, the gammas', which gives their clips,
both D_Gamma and D_Gamma* and both their inverses: the uncut pass solves
through carried inverses of the pivots and of the products of defects, and
takes the pseudoinverses (one stacked SVD each for the pivots and the
solves) only for rows whose carried inverses leave their bound.  "matrices"
sums the stack sizes of the SVDs, "gammas" the problems solved.  A block
contraction T is extracted as the positive matrix [[I, T], [T*, I]], whose
roots are identities: one norm-2 for the contraction test of T, then only
the couplings of a row block to a column block are solved, the others
being pinned zeros.  A row contraction is its 1 x m grid, and a column
contraction the adjoint of the 1 x n grid of T*; their pivots are
identities, so an interior gamma costs its own SVD alone.  Every
rebuild, of a row, column, block or positive matrix, is one walk over its
grid of gammas at products only, with the defects of all its same-shaped
gammas from one stacked SVD; the two defect factors of a grid walk the grid
and its adjoint-transposed grid on the same defects.  An extraction rebuilds
its input only to check a pass that cuts or runs on a singular input: a
rank-deficient psd matrix, or a contraction of norm one.  ``eigh`` is left to
the positive roots of diagonal blocks, one stacked call per block size.
The pseudoinverses are SVDs of their own, so extraction gates count
``svd``, ``pinv`` and ``norm2`` together.  The counts below are ceilings on
the benchmark self-test's inputs; the inequality suite runs ten trials of
the transpose witness.  The witness harness generates and checks its trials
as a stack: one stacked factorization per generation stage, one matmul per
sample for I_k (x) phi and one stacked ``eigvalsh`` for the check; arrow
samples are built once, without ``np.block``.  Both dilations complete an
isometry, whose Julia unitary needs no factorization at all.
"""

import collections

import numpy as np
import pytest

from schur_dilate import contraction, dilation, families, maps, scparams


@pytest.fixture
def counts(monkeypatch):
    seen = collections.Counter()
    eigh, svd, pinv, norm = np.linalg.eigh, np.linalg.svd, np.linalg.pinv, np.linalg.norm
    eigvalsh, block, apply = np.linalg.eigvalsh, np.block, maps.MatrixLinearMap.apply
    gamma_steps, stages = scparams._gamma_steps, scparams._psd_stages

    def counting_eigh(*args, **kwargs):
        seen["eigh"] += 1
        return eigh(*args, **kwargs)

    def counting_svd(a, *args, **kwargs):
        # "matrices" sums the stack sizes of the SVD calls; those outside
        # the lag stages are a parametrization's rebuilds
        seen["svd"] += 1
        seen["matrices"] += int(np.prod(np.shape(a)[:-2]))
        seen["rebuild svd"] += not seen["in stages"]
        return svd(a, *args, **kwargs)

    def counting_stages(blocks, roots, dims, cut, *args, **kwargs):
        seen["cut passes" if cut else "uncut passes"] += 1
        seen["in stages"] += 1
        try:
            return stages(blocks, roots, dims, cut, *args, **kwargs)
        finally:
            seen["in stages"] -= 1

    def counting_gamma_steps(dacc, *args, **kwargs):
        seen["gammas"] += len(dacc)
        return gamma_steps(dacc, *args, **kwargs)

    def counting_pinv(*args, **kwargs):
        seen["pinv"] += 1
        return pinv(*args, **kwargs)

    def counting_norm(x, ord=None, *args, **kwargs):
        if ord == 2:
            seen["norm2"] += 1
        return norm(x, ord, *args, **kwargs)

    def counting_eigvalsh(*args, **kwargs):
        seen["eigvalsh"] += 1
        return eigvalsh(*args, **kwargs)

    def counting_block(*args, **kwargs):
        seen["block"] += 1
        return block(*args, **kwargs)

    def counting_apply(*args, **kwargs):
        seen["apply"] += 1
        return apply(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(np, "block", counting_block)
    monkeypatch.setattr(maps.MatrixLinearMap, "apply", counting_apply)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "pinv", counting_pinv)
    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    monkeypatch.setattr(scparams, "_gamma_steps", counting_gamma_steps)
    monkeypatch.setattr(scparams, "_psd_stages", counting_stages)
    return seen


def inputs():
    rng = np.random.default_rng(0)
    g = rng.standard_normal((128, 64)) + 1j * rng.standard_normal((128, 64))
    psd = g.conj().T @ g / 64
    t = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    t *= 0.9 / np.linalg.norm(t, 2)
    q, _ = np.linalg.qr(rng.standard_normal((256, 16)) + 1j * rng.standard_normal((256, 16)))
    channel = dilation.KrausChannel(16, 16, tuple(q[16 * i:16 * (i + 1)] for i in range(16)))
    return psd, t, channel


def test_psd_counts(counts):
    psd, _, _ = inputs()
    counts.clear()
    params = scparams.psd_parametrize(psd, scparams.BlockShape((4,) * 16, (4,) * 16))
    # the 16 roots from one stacked eigh and their pseudoinverses from one
    # stacked SVD, the pivots at lag 1; then for each of the 15 lags one
    # stacked SVD for the gammas, whose pivots and solves go through carried
    # inverses
    assert counts["eigh"] == 1
    assert counts["svd"] + counts["pinv"] + counts["norm2"] == 1 + 15
    assert counts["norm2"] == 0
    # every coupling is solved; the SVDs take the 16 roots and the 120 gammas
    assert counts["gammas"] == 120
    assert counts["matrices"] == 16 + 120
    counts.clear()
    scparams.psd_reconstruct(params)
    # the defects of all 120 gammas from one stacked SVD
    assert counts["eigh"] == 0
    assert counts["svd"] == 1
    assert counts["pinv"] + counts["norm2"] == 0


def test_matrix_counts(counts):
    _, t, _ = inputs()
    grid = scparams.BlockShape((2,) * 8, (2,) * 8)
    counts.clear()
    params = scparams.matrix_parametrize(t, grid)
    # the norm test of T; the embedding has 16 blocks, so 15 lags of one
    # stacked SVD each, the gammas': pivots and solves go through carried
    # inverses.  Only the 64 couplings of a row block to a column block are
    # solved; the 56 within one side are pinned zeros, and the 8 pivots of
    # the row next to the split are identities
    assert counts["eigh"] == 0
    assert counts["norm2"] == 1
    assert counts["svd"] + counts["pinv"] + counts["norm2"] == 1 + 15
    assert counts["gammas"] == 64
    assert counts["matrices"] == 64
    counts.clear()
    scparams.matrix_reconstruct(params)
    # the defects of the whole grid from one stacked SVD
    assert counts["eigh"] == 0
    assert counts["svd"] == 1
    assert counts["pinv"] + counts["norm2"] == 0


@pytest.mark.parametrize("kind", ["row", "column"])
def test_row_and_column_counts(counts, kind):
    rng = np.random.default_rng(5)
    t = rng.standard_normal((4, 64)) + 1j * rng.standard_normal((4, 64))
    t *= 0.9 / np.linalg.norm(t, 2)
    if kind == "row":
        extract, shape = scparams.row_parametrize, scparams.BlockShape((4,), (4,) * 16)
    else:
        extract, shape = scparams.col_parametrize, scparams.BlockShape((4,) * 16, (4,))
        t = t.conj().T
    counts.clear()
    extract(t, shape)
    # the norm test, then the 1 x 16 grid one gamma per lag: its pivots are
    # identities and its solves go through the carried inverse of the
    # product of defects, so each gamma costs its own SVD alone
    assert counts["eigh"] + counts["pinv"] == 0
    assert counts["norm2"] == 1
    assert counts["gammas"] == 16
    assert counts["svd"] == 16
    assert counts["matrices"] == 16


def test_rank_deficient_psd_takes_one_checked_cut_pass(counts):
    rng = np.random.default_rng(6)
    g = rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16))
    counts.clear()
    scparams.psd_parametrize(g.conj().T @ g, scparams.BlockShape((4,) * 4, (4,) * 4))
    # rank 3 of 16: the cut pass goes first, and its one rebuild (the
    # defects of its six 4 x 4 gammas from one stacked SVD) passes
    assert (counts["cut passes"], counts["uncut passes"]) == (1, 0)
    assert counts["rebuild svd"] == 1


def test_norm_one_grid_takes_one_checked_uncut_pass(counts):
    rng = np.random.default_rng(6)
    u, s, vh = np.linalg.svd(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    s = 0.9 * s / s[0]
    s[0] = 1.0
    counts.clear()
    scparams.matrix_parametrize((u * s) @ vh, scparams.BlockShape((2,) * 4, (2,) * 4))
    # the embedding [[I, T], [T*, I]] is singular, so the uncut pass, which
    # goes first, must rebuild T, and does
    assert (counts["cut passes"], counts["uncut passes"]) == (0, 1)
    assert counts["rebuild svd"] == 1


def rebuild_inputs():
    """Row, column and 2 x 2 grid parameters with two gamma shapes each."""
    rng = np.random.default_rng(4)

    def gamma(p, q):
        g = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
        return 0.9 * g / np.linalg.norm(g, 2)

    dims = (2, 3, 2, 3)
    row = scparams.RowColParams("row", [gamma(4, d) for d in dims],
                                scparams.BlockShape((4,), dims))
    column = scparams.RowColParams("column", [gamma(d, 4) for d in dims],
                                   scparams.BlockShape(dims, (4,)))
    grid = scparams.MatrixContractionParams(
        [[gamma(2, 2), gamma(2, 2)], [gamma(3, 2), gamma(3, 2)]],
        scparams.BlockShape((2, 3), (2, 2)))
    return row, column, grid


@pytest.mark.parametrize("rebuild, kind", [
    (scparams.row_reconstruct, "row"),
    (scparams.col_reconstruct, "column"),
    (scparams.row_defect_factors, "row"),
    (scparams.row_defect_factors, "column"),
    (scparams.matrix_defects_2x2, "grid"),
])
def test_rebuild_counts(counts, rebuild, kind):
    params = dict(zip(("row", "column", "grid"), rebuild_inputs()))[kind]
    counts.clear()
    rebuild(params)
    # one stacked SVD per gamma shape; both defect factors share it
    assert counts["eigh"] == 0
    assert counts["svd"] == 2
    assert counts["pinv"] + counts["norm2"] == 0


def test_partial_isometry_counts(counts):
    rng = np.random.default_rng(2)
    b = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    counts.clear()
    res = contraction.solve_partial_isometry(b, q @ b)
    # V and its initial rank from the same SVD
    assert counts["svd"] == 1
    assert counts["pinv"] + counts["norm2"] == 0
    assert res.initial_rank == 4


def test_channel_dilate_counts(counts):
    _, _, channel = inputs()
    counts.clear()
    dilation.channel_dilate(channel)
    # the Kraus stack is an isometry: D_T = 0 and D_T* = I - TT*, no SVD
    assert counts["eigh"] == 0
    assert counts["svd"] == 0
    assert counts["block"] == 0


def test_povm_dilate_counts(counts):
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.standard_normal((64, 8)) + 1j * rng.standard_normal((64, 8)))
    povm = dilation.Povm.from_vectors(q.conj())  # rows of Q*: 64 vectors in C^8
    counts.clear()
    dilation.povm_dilate(povm)
    assert counts["eigh"] == 0
    assert counts["svd"] == 0
    assert counts["block"] == 0


def test_povm_check_counts(counts):
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.standard_normal((64, 8)) + 1j * rng.standard_normal((64, 8)))
    vectors = q.conj()
    counts.clear()
    dilation.Povm.from_vectors(vectors)
    # the 64 effects checked by one stacked eigvalsh
    assert counts["eigvalsh"] == 1
    assert counts["eigh"] + counts["svd"] == 0


def test_channel_simulate_counts(counts):
    _, _, channel = inputs()
    result = dilation.channel_dilate(channel)
    rng = np.random.default_rng(3)
    g = rng.standard_normal((20, 16, 16)) + 1j * rng.standard_normal((20, 16, 16))
    states = g @ g.conj().swapaxes(1, 2)
    states /= np.trace(states, axis1=1, axis2=2).real[:, None, None]
    counts.clear()
    dilation.channel_simulate(result, states)
    # the 20 states checked by one stacked eigvalsh
    assert counts["eigvalsh"] == 1
    assert counts["eigh"] + counts["svd"] == 0


def test_inequality_suite_counts(counts):
    phi = maps.builtin_witness("transpose", dim=3)
    counts.clear()
    maps.positivity_inequality_suite(phi, trials=10, seed=0)
    # per trial, one SVD for the norm of the random contraction and one
    # for both defects of the normal contraction
    assert counts["svd"] == 20


ARROW_SEEDS = range(1, 21)


def test_witness_check_counts(counts):
    phi = maps.builtin_witness("choi3", dim=3)
    samples = families._gen_samples("arrow_first", 3, ARROW_SEEDS, block_count=8)
    counts.clear()
    checks = families.witness_check(phi, samples)
    # the whole 20-stack: one matmul per sample, one stacked eigvalsh
    assert len(checks) == 20
    assert counts["apply"] == 0
    assert counts["eigvalsh"] == 1


@pytest.mark.parametrize("family", ["arrow_first", "arrow_second"])
def test_arrow_generation_counts(counts, family):
    counts.clear()
    families._gen_samples(family, 3, ARROW_SEEDS, block_count=8)
    # one stacked eigvalsh per rejection round; seed 1, rejected three
    # times, is the last one accepted
    assert counts["eigvalsh"] == 4
    # the roots of T and R from one stacked eigh, the norms of all 140
    # couplings from one stacked SVD
    assert counts["eigh"] <= 2
    assert counts["svd"] <= 1
    assert counts["norm2"] == 0
    assert counts["block"] == 0
