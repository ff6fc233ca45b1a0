import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_rebuild import inverse_defects, solve_left_factor

from schur_dilate.contraction import (
    CLIP_SLACK,
    DefectPair,
    _Overshoot,
    _gamma_steps,
    _solve,
    defects,
    julia,
    solve_contraction_factor,
    solve_partial_isometry,
    with_freedom,
)
from schur_dilate.errors import NoConvergence, NoFactor, NotContraction, NotEquinormed
from schur_dilate.linalg import Tolerances, _pinv_rank, dagger, opnorm, rank_rcond, sqrt_psd
from schur_dilate.sampling import (
    complex_gaussian,
    random_contraction,
    random_unitary,
    rng_from_seed,
)


def test_defects_zero_contraction():
    pair = defects(np.zeros((3, 2)))
    np.testing.assert_allclose(pair.d_t, np.eye(2))
    np.testing.assert_allclose(pair.d_t_star, np.eye(3))


def test_defects_scalar():
    pair = defects(np.array([[0.6]]))
    np.testing.assert_allclose(pair.d_t, [[0.8]], atol=1e-14)
    np.testing.assert_allclose(pair.d_t_star, [[0.8]], atol=1e-14)


def test_defects_definition_oracle():
    rng = rng_from_seed(21)
    for _ in range(20):
        t = random_contraction(rng, 3, 4, spectral_norm=0.9)
        pair = defects(t)
        assert np.linalg.norm(pair.d_t @ pair.d_t + dagger(t) @ t - np.eye(4)) <= 1e-10
        assert np.linalg.norm(pair.d_t_star @ pair.d_t_star + t @ dagger(t)
                              - np.eye(3)) <= 1e-10


def test_defects_rejects_expansion():
    with pytest.raises(NotContraction):
        defects(np.array([[1.5]]))


def test_defect_intertwining():
    rng = rng_from_seed(22)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        t = random_contraction(rng, n, n)
        pair = defects(t)
        assert np.linalg.norm(t @ pair.d_t - pair.d_t_star @ t) <= 1e-10


def test_defects_of_isometries_vanish_exactly():
    # channel_dilate relies on D_T = 0 exactly for an isometric Kraus stack
    rng = rng_from_seed(27)
    for rows, cols in ((6, 3), (16, 4)):
        isometry = random_unitary(rng, rows)[:, :cols]
        assert not defects(isometry).d_t.any()
        assert not defects(dagger(isometry)).d_t_star.any()


def test_defects_svd_failure_is_no_convergence(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(NoConvergence):
        defects(0.5 * np.eye(2))


def test_julia_trivial():
    np.testing.assert_allclose(julia(np.zeros((2, 2))),
                               np.block([[np.zeros((2, 2)), np.eye(2)],
                                         [np.eye(2), np.zeros((2, 2))]]))
    np.testing.assert_allclose(julia(np.array([[0.6]])),
                               [[0.6, 0.8], [0.8, -0.6]], atol=1e-14)


def test_julia_unitary_on_rectangular():
    rng = rng_from_seed(23)
    for _ in range(30):
        t = random_contraction(rng, 3, 2)
        j = julia(t)
        assert j.shape == (5, 5)
        assert np.linalg.norm(dagger(j) @ j - np.eye(5)) <= 1e-10


def test_with_freedom_matches_block_diagonal_products():
    rng = rng_from_seed(28)

    def padded(k, a):
        out = np.eye(k, dtype=complex)
        out[k - len(a):, k - len(a):] = a
        return out

    for k, p, q in ((5, 2, 3), (5, 4, 1), (3, 1, 2)):
        u = complex_gaussian(rng, k, k)
        a, b = random_unitary(rng, p), random_unitary(rng, q)
        want = padded(k, a) @ u @ padded(k, b)
        assert np.linalg.norm(with_freedom(u.copy(), a, b) - want) <= 1e-13


def test_solve_factor_identity_and_projection():
    rng = rng_from_seed(24)
    y = random_contraction(rng, 3, 3)
    np.testing.assert_allclose(solve_contraction_factor(np.eye(3), y), y, atol=1e-12)
    x = complex_gaussian(rng, 3, 2)
    g = solve_contraction_factor(x, x)
    # Gamma = X X^+ is the orthogonal projection onto ran X
    np.testing.assert_allclose(g, x @ np.linalg.pinv(x), atol=1e-10)
    np.testing.assert_allclose(g @ g, g, atol=1e-10)


def test_solve_factor_construction_oracle():
    rng = rng_from_seed(25)
    for _ in range(25):
        x = complex_gaussian(rng, 3, int(rng.integers(1, 5)))
        c = random_contraction(rng, 4, 3)
        y = c @ x
        g = solve_contraction_factor(x, y)
        assert np.linalg.norm(g @ x - y) <= 1e-9 * max(1.0, np.linalg.norm(y))
        assert opnorm(g) <= 1.0 + 1e-9
        # uniqueness normalization: vanish off ran X
        proj = np.eye(3) - x @ np.linalg.pinv(x)
        assert np.linalg.norm(g @ proj) <= 1e-9


def test_solve_factor_infeasible():
    with pytest.raises(NoFactor):
        solve_contraction_factor(np.array([[0.1]]), np.array([[1.0]]))
    # Y outside the range of X leaves a residual
    with pytest.raises(NoFactor):
        solve_contraction_factor(np.array([[1.0], [0.0]]).T,
                                 np.array([[0.0], [1.0]]).T)


def test_solve_factor_drops_noise_directions():
    # Y carries 1e-11 along a direction where X has 1e-12: rounding noise,
    # which a kept direction would amplify to a factor of norm 10.
    g = solve_contraction_factor(np.diag([1.0, 1e-12]), np.diag([0.5, 1e-11]))
    np.testing.assert_allclose(g, np.diag([0.5, 0.0]), atol=1e-12)


def test_solve_factor_damps_overshoot_along_weak_direction():
    # Y X^+ = [0.8, 0.6 (1 + 1.3e-7)] overshoots norm one by 4.7e-8, beyond
    # the clip slack, but only along the 5e-5 direction of X: damping it
    # gives a contraction that reproduces Y to 4e-12.
    x = np.diag([1.0, 5e-5]).astype(complex)
    y = np.array([[0.8, 5e-5 * 0.6 * (1 + 1.3e-7)]], dtype=complex)
    assert opnorm(y @ np.linalg.pinv(x)) > 1.0 + 10 * CLIP_SLACK
    g = solve_contraction_factor(x, y)
    assert opnorm(g) <= 1.0
    assert np.linalg.norm(g @ x - y) <= 1e-11
    np.testing.assert_allclose(g, [[0.8, 0.6]], atol=1e-6)
    assert same_bits(one_step(dagger(x), dagger(y))[0], dagger(g))
    # an overshoot that only the unit direction can absorb moves Y beyond the slack
    with pytest.raises(NoFactor):
        solve_contraction_factor(x, np.array([[1.0 + 1e-7, 0.0]]))


def test_solves_keep_small_directions_under_loose_tolerance():
    # Dropping a direction costs up to its singular value in residual, so a
    # loose psd_tol must not drop what the residual check cannot absorb.
    tol = Tolerances(psd_tol=1e-4)
    x = np.diag([1.0, 1e-6])
    np.testing.assert_allclose(solve_contraction_factor(x, 0.5 * x, tol), 0.5 * np.eye(2),
                               atol=1e-12)
    assert solve_partial_isometry(x, x, tol).initial_rank == 2


def test_partial_isometry_trivial():
    res = solve_partial_isometry(np.eye(2), np.eye(2))
    np.testing.assert_allclose(res.v, np.eye(2), atol=1e-12)
    assert res.initial_rank == 2


def test_partial_isometry_rank_one_rotation():
    x = np.array([[1.0], [0.0]])
    y = np.array([[0.0], [1.0]])
    res = solve_partial_isometry(x, y)
    np.testing.assert_allclose(res.v, [[0.0, 0.0], [1.0, 0.0]], atol=1e-12)
    assert res.initial_rank == 1


def test_partial_isometry_square_root_freedom():
    rng = rng_from_seed(26)
    for _ in range(20):
        b = complex_gaussian(rng, 4, 4)
        x = sqrt_psd(dagger(b) @ b)
        res = solve_partial_isometry(x, b)
        v = res.v
        assert np.linalg.norm(v @ x - b) <= 1e-9 * max(1.0, np.linalg.norm(b))
        assert np.linalg.norm(v @ dagger(v) @ v - v) <= 1e-9


def test_partial_isometry_requires_equal_grams():
    with pytest.raises(NotEquinormed):
        solve_partial_isometry(np.eye(2), 2.0 * np.eye(2))


# -- batched and fused kernels ------------------------------------------------

side = st.integers(1, 5)
# exactly 0 and 1 beside interior values, so exact kernels and the zero
# clamp of 1 - s^2 are exercised
kernel_singular_value = st.one_of(st.just(0.0), st.just(1.0), st.floats(1e-3, 1 - 1e-3))


@st.composite
def contraction_stacks(draw):
    """k same-shaped contractions (tall, wide or square) with drawn singular values."""
    p, q, k = draw(side), draw(side), draw(st.integers(1, 6))
    rng = rng_from_seed(draw(st.integers(0, 2**32 - 1)))
    out = []
    for _ in range(k):
        s = draw(st.lists(kernel_singular_value, min_size=min(p, q), max_size=min(p, q)))
        u = random_unitary(rng, p)[:, :len(s)]
        v = random_unitary(rng, q)[:, :len(s)]
        out.append((u * np.array(s)) @ dagger(v))
    return out


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def one_step(dacc, blk, tol=Tolerances()):
    """Gamma with ``dacc Gamma = blk`` and its defects: ``_gamma_steps`` on a
    stack of one."""
    g, pair, _, _ = _gamma_steps(dacc[np.newaxis], blk[np.newaxis], tol, *np.vstack(blk.shape))
    return g[0], DefectPair(pair.d_t[0], pair.d_t_star[0])


@settings(max_examples=60, deadline=None)
@given(contraction_stacks())
def test_stacked_defects_equal_per_matrix_defects_bitwise(ts):
    stack = defects(np.stack(ts))
    for i, t in enumerate(ts):
        pair = defects(t)
        assert same_bits(stack.d_t[i], pair.d_t)
        assert same_bits(stack.d_t_star[i], pair.d_t_star)


def test_stacked_defects_check_every_matrix():
    with pytest.raises(NotContraction):
        defects(np.stack([0.5 * np.eye(2), 1.5 * np.eye(2)]))
    with pytest.raises(ValueError):
        defects(np.stack([np.eye(2), np.full((2, 2), np.nan)]))


def test_pinv_rank_is_numpy_pinv_bitwise():
    rng = rng_from_seed(28)
    for rows, cols in ((3, 5), (5, 3), (4, 4)):
        a = complex_gaussian(rng, rows, 2) @ complex_gaussian(rng, 2, cols)  # rank 2
        rcond = rank_rcond(a, Tolerances(), 1e-10)
        inverse, rank = _pinv_rank(a, rcond)
        assert same_bits(inverse, np.linalg.pinv(a, rcond=rcond))
        assert rank == 2


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_gamma_step_is_solve_then_defects_bitwise(h, d, seed):
    rng = rng_from_seed(seed)
    # a product of two codomain defects, as the row extraction accumulates
    dacc = (defects(random_contraction(rng, h, h, spectral_norm=0.9)).d_t_star
            @ defects(random_contraction(rng, h, 2)).d_t_star)
    blk = dacc @ random_contraction(rng, h, d, spectral_norm=0.9)
    g, pair = one_step(dacc, blk)
    want = solve_left_factor(dacc, blk)
    assert opnorm(want) <= 1.0   # nothing clipped
    assert same_bits(g, want)
    want_pair = defects(want)
    assert same_bits(pair.d_t, want_pair.d_t)
    assert same_bits(pair.d_t_star, want_pair.d_t_star)


def gamma_problem(rng, h, d, kind):
    """``(dacc, blk)`` for one gamma step: interior, clipped within the slack,
    or overshooting through a small singular value of dacc (damped)."""
    dacc = (defects(random_contraction(rng, h, h, spectral_norm=0.9)).d_t_star
            @ defects(random_contraction(rng, h, 2)).d_t_star)
    norm = (0.9, 1.0 + CLIP_SLACK / 2, 1.0)[kind]
    if kind == 2:
        u, s, vh = np.linalg.svd(dacc)
        s[-1] = 1e-7
        dacc = (u * s) @ vh
    blk = dacc @ random_contraction(rng, h, d, spectral_norm=norm)
    if kind == 2:
        blk = blk + 1e-14 * complex_gaussian(rng, h, d)
    return dacc, blk


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 4), st.integers(1, 4))
def test_gamma_steps_equal_the_2d_step_bitwise(seed, count, h, d):
    rng = rng_from_seed(seed)
    problems = [gamma_problem(rng, h, d, i % 3) for i in range(count)]
    dacc, blk = (np.stack(p) for p in zip(*problems))
    sizes = np.full(count, h), np.full(count, d)
    try:
        singles = [one_step(x, y) for x, y in problems]
    except NoFactor:
        with pytest.raises(NoFactor):
            _gamma_steps(dacc, blk, Tolerances(), *sizes)
        return
    g, pair, _, _ = _gamma_steps(dacc, blk, Tolerances(), *sizes)
    for i, (gi, pi) in enumerate(singles):
        assert same_bits(g[i], gi)
        assert same_bits(pair.d_t[i], pi.d_t)
        assert same_bits(pair.d_t_star[i], pi.d_t_star)


def test_gamma_steps_without_damping_name_every_overshoot():
    # the solves beyond the clip slack are named together, before any of
    # them is damped; with damping, each is the 2-D step's damped gamma
    rng = rng_from_seed(31)
    problems = [gamma_problem(rng, 3, 2, kind) for kind in (0, 2, 1, 2)]
    dacc, blk = (np.stack(p) for p in zip(*problems))
    beyond = [i for i, (x, y) in enumerate(problems)
              if opnorm(_solve(dagger(x), dagger(y), Tolerances())) > 1.0 + CLIP_SLACK]
    assert beyond == [1, 3]
    sizes = np.full(4, 3), np.full(4, 2)
    with pytest.raises(_Overshoot) as info:
        _gamma_steps(dacc, blk, Tolerances(), *sizes, damp=False)
    assert info.value.indices.tolist() == beyond
    g = _gamma_steps(dacc, blk, Tolerances(), *sizes)[0]
    for i in beyond:
        assert same_bits(g[i], one_step(*problems[i])[0])
        assert opnorm(g[i]) <= 1.0


def test_gamma_steps_on_padded_stacks():
    # mixed shapes zero-padded to 4 x 4: the corners agree with the 2-D
    # step to rounding, and the padding stays exactly zero
    rng = rng_from_seed(31)
    shapes = [(1, 4), (3, 2), (4, 4), (2, 1), (2, 3)]
    problems = [gamma_problem(rng, h, d, 0) for h, d in shapes]
    dacc = np.zeros((len(shapes), 4, 4), dtype=complex)
    blk = np.zeros_like(dacc)
    for i, (x, y) in enumerate(problems):
        dacc[i, :x.shape[0], :x.shape[0]], blk[i, :y.shape[0], :y.shape[1]] = x, y
    rows, cols = (np.array(v) for v in zip(*shapes))
    g, pair, _, _ = _gamma_steps(dacc, blk, Tolerances(), rows, cols)
    for i, ((h, d), (x, y)) in enumerate(zip(shapes, problems)):
        gi, pi = one_step(x, y)
        for got, want, (p, q) in ((g[i], gi, (h, d)), (pair.d_t[i], pi.d_t, (d, d)),
                                  (pair.d_t_star[i], pi.d_t_star, (h, h))):
            np.testing.assert_allclose(got[:p, :q], want, atol=1e-13)
            assert not got[p:].any() and not got[:, q:].any()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 4))
def test_only_carried_gamma_steps_make_inverse_defects(seed, count, h):
    # an uncarried call returns no inverses; a carried one returns those of
    # the SVD of its gammas, one product each, and whether each has them
    rng = rng_from_seed(seed)
    dacc = np.stack([defects(random_contraction(rng, h, h, spectral_norm=0.9)).d_t_star
                     for _ in range(count)])
    blk = dacc @ np.stack([random_contraction(rng, h, h, spectral_norm=0.9)
                           for _ in range(count)])
    sizes = np.full(count, h), np.full(count, h)
    assert _gamma_steps(dacc, blk, Tolerances(), *sizes)[2:] == (None, None)
    known = np.arange(count) % 2 == 0  # the other rows solve through pseudoinverses
    g, _, inverse_pair, invertible = _gamma_steps(dacc, blk, Tolerances(), *sizes,
                                                  inverse=(np.linalg.inv(dacc), known))
    assert max(map(opnorm, g)) <= 1.0  # nothing clipped: g is the matrix its SVD took
    want, clear = inverse_defects(g)
    assert same_bits(inverse_pair.d_t, want.d_t)
    assert same_bits(inverse_pair.d_t_star, want.d_t_star)
    assert invertible.tolist() == clear.tolist() == [True] * count


def test_gamma_step_clips_within_slack_and_fails_beyond():
    rng = rng_from_seed(29)
    u, v = random_unitary(rng, 3), random_unitary(rng, 2)[:, :2]
    dacc = np.eye(3, dtype=complex)
    over = (u[:, :2] * np.array([1.0 + CLIP_SLACK / 2, 0.5])) @ dagger(v)
    g, pair = one_step(dacc, over)
    # singular values are clipped to exactly 1; the rebuilt G rounds
    assert opnorm(g) <= 1.0 + 4 * np.finfo(float).eps < opnorm(over)
    # the defects belong to the clipped gamma: D_G*^2 + G G* = I
    assert np.linalg.norm(pair.d_t_star @ pair.d_t_star + g @ dagger(g) - np.eye(3)) <= 1e-12
    assert np.linalg.norm(pair.d_t @ pair.d_t + dagger(g) @ g - np.eye(2)) <= 1e-12
    beyond = (u[:, :2] * np.array([1.0 + 10 * CLIP_SLACK, 0.5])) @ dagger(v)
    with pytest.raises(NoFactor):
        one_step(dacc, beyond)
