import numpy as np
import pytest

from schur_dilate import families
from schur_dilate.errors import UnsupportedCombination
from schur_dilate.families import (
    FAMILY_NAMES,
    SPAN_FRAMES,
    bell_control_sample,
    build_arrow,
    build_span3,
    build_subnormal3,
    build_toeplitz2,
    choi_control_sample,
    choi_detected_state,
    gen_family,
    witness_check,
)
from schur_dilate.linalg import dagger, hermitian_part, is_psd, kron, sqrt_psd
from schur_dilate.maps import builtin_witness, map_from_kraus_pairs
from schur_dilate.sampling import (
    complex_gaussian,
    random_contraction,
    random_psd,
    rng_from_seed,
)


def blocks_of(a, k, n):
    return {(i, j): a[i * n:(i + 1) * n, j * n:(j + 1) * n]
            for i in range(k) for j in range(k)}


def entrywise_partial_transpose(a, k, n):
    out = np.zeros_like(a)
    for i in range(k):
        for j in range(k):
            out[i * n:(i + 1) * n, j * n:(j + 1) * n] = \
                a[i * n:(i + 1) * n, j * n:(j + 1) * n].T
    return out


def test_build_toeplitz2_zero_coupling():
    rng = rng_from_seed(81)
    t = random_psd(rng, 2)
    a = build_toeplitz2(t, np.zeros((2, 2)))
    b = blocks_of(a, 2, 2)
    np.testing.assert_allclose(b[(0, 0)], t)
    np.testing.assert_allclose(b[(1, 1)], t)
    assert np.abs(b[(0, 1)]).max() == 0.0


def test_build_subnormal3_zero_contraction():
    # G = 0 turns the defect coupling into T itself
    rng = rng_from_seed(82)
    t = random_psd(rng, 2)
    a = build_subnormal3(t, np.zeros((2, 2)), coupling_first=True)
    b = blocks_of(a, 3, 2)
    for pos in [(0, 0), (1, 1), (2, 2), (0, 2), (2, 0)]:
        np.testing.assert_allclose(b[pos], t, atol=1e-10)
    for pos in [(0, 1), (1, 0), (1, 2), (2, 1)]:
        assert np.abs(b[pos]).max() <= 1e-12


def test_generated_samples_structure():
    for family in FAMILY_NAMES:
        sample = gen_family(family, 3, seed=5, block_count=3)
        a = sample.matrix
        k, n = sample.block_count, sample.block_dim
        assert a.shape == (k * n, k * n)
        assert is_psd(a).ok
        b = blocks_of(a, k, n)
        if family == "toeplitz2":
            assert np.array_equal(b[(0, 0)], b[(1, 1)])
        if family.startswith("subnormal3"):
            assert np.array_equal(b[(0, 0)], b[(1, 1)])
            assert np.array_equal(b[(0, 0)], b[(2, 2)])
            zero_pos = (1, 2) if family.endswith("_i") else (0, 1)
            assert np.abs(b[zero_pos]).max() == 0.0
            assert np.array_equal(b[(0, 2)], b[(2, 0)])  # Hermitian coupling block
        if family == "arrow_first":
            assert np.array_equal(b[(0, 0)], b[(1, 1)])
            assert np.abs(b[(0, 1)]).max() == 0.0  # interior off-block is zero
            assert np.array_equal(b[(0, 2)], b[(2, 0)])
            np.testing.assert_allclose(b[(0, 2)], dagger(b[(0, 2)]), atol=0)
        if family == "arrow_second":
            assert np.array_equal(b[(1, 1)], b[(2, 2)])
            assert np.abs(b[(1, 2)]).max() == 0.0
            assert np.array_equal(b[(0, 1)], b[(1, 0)])


def test_generated_span_pattern_entry_equalities():
    sample = gen_family("span3_1", 3, seed=9, block_count=2)
    b = blocks_of(sample.matrix, 2, 3)
    for blk in b.values():
        # pattern [[a, a, b], [a, a, b], [b, b, c]] holds exactly
        assert blk[0, 0] == blk[0, 1] == blk[1, 0] == blk[1, 1]
        assert blk[0, 2] == blk[1, 2]
        assert blk[2, 0] == blk[2, 1]


def test_span_rank_one_sample_is_tensor_with_pattern_vector():
    # rank-one coefficients with a real ratio give A (x) x x*, x = alpha*u + beta*w
    rng = rng_from_seed(83)
    g = (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    coeff = np.outer(g, g.conj())
    alpha, beta = 0.8, 0.5
    a = build_span3(alpha * alpha * coeff, alpha * beta * coeff,
                    beta * beta * coeff, "span3_1")
    u, w = SPAN_FRAMES["span3_1"]
    x = alpha * u + beta * w   # = (alpha, alpha, beta)
    np.testing.assert_allclose(a, kron(coeff, np.outer(x, x)), atol=1e-12)
    assert is_psd(a).ok


def span3_by_kron(a, b, c, pattern):
    u, w = SPAN_FRAMES[pattern]
    return (kron(a, np.outer(u, u))
            + kron(b, np.outer(u, w) + np.outer(w, u))
            + kron(c, np.outer(w, w)))


@pytest.mark.parametrize("family", sorted(SPAN_FRAMES))
def test_span3_samples_equal_kron_sum_bitwise(monkeypatch, family):
    drawn = []

    def recording(a, b, c, pattern):
        drawn.append((a, b, c, pattern))
        return build_span3(a, b, c, pattern)

    monkeypatch.setattr(families, "build_span3", recording)
    for seed in range(60):
        sample = gen_family(family, 3, seed, block_count=1 + seed % 6)
        a, b, c, pattern = drawn[-1]  # stacks of one: the sample's terms
        assert sample.matrix.tobytes() == span3_by_kron(a[0], b[0], c[0], pattern).tobytes()


@pytest.mark.parametrize("pattern", sorted(SPAN_FRAMES))
def test_build_span3_keeps_signed_zeros(pattern):
    # every combination of signed zeros and nonzeros in both parts
    parts = np.array([0.0, -0.0, 1.5, -2.5])
    re, im = np.meshgrid(parts, parts)
    z = np.empty((4, 4), dtype=complex)
    z.real, z.imag = re, im
    for a, b, c in ((z, z[::-1], z[:, ::-1]), (z.T, z, z[::-1]), (z[:, ::-1], z.T, z)):
        assert build_span3(a, b, c, pattern).tobytes() == span3_by_kron(a, b, c, pattern).tobytes()


def test_arrow_builder_keeps_placement():
    rng = rng_from_seed(84)
    t, r = random_psd(rng, 2), random_psd(rng, 2)
    s = [np.eye(2) * 0.1, np.eye(2) * 0.2]
    a = build_arrow(t, r, s, first=False)
    b = blocks_of(a, 3, 2)
    np.testing.assert_allclose(b[(0, 0)], t)
    np.testing.assert_allclose(b[(1, 1)], r)
    np.testing.assert_allclose(b[(0, 1)], s[0])
    np.testing.assert_allclose(b[(2, 0)], s[1])


def arrow_by_np_block(t, r, couplings, first):
    """The arrow pattern assembled from k x k block lists."""
    k, n = len(couplings) + 1, t.shape[0]
    z = np.zeros((n, n), dtype=complex)
    rows = [[z] * k for _ in range(k)]
    if first:
        for i in range(k - 1):
            rows[i][i] = t
        rows[k - 1][k - 1] = r
        for i, s in enumerate(couplings):
            rows[i][k - 1] = rows[k - 1][i] = s
    else:
        rows[0][0] = t
        for i in range(1, k):
            rows[i][i] = r
        for i, s in enumerate(couplings):
            rows[0][i + 1] = rows[i + 1][0] = s
    return np.block(rows)


@pytest.mark.parametrize("first", [True, False])
@pytest.mark.parametrize("k", [2, 5])
def test_build_arrow_equals_np_block(first, k):
    rng = rng_from_seed(85)
    t, r = random_psd(rng, 3), random_psd(rng, 3)
    s = [complex_gaussian(rng, 3, 3) for _ in range(k - 1)]
    assert np.array_equal(build_arrow(t, r, s, first), arrow_by_np_block(t, r, s, first))


def arrow_by_rebuild(block_dim, k, seed, first):
    """Arrow sample rebuilt from the halved coupling lists on every rejection;
    returns the sample and its number of rejections."""
    n, rng = block_dim, rng_from_seed(seed)
    t, r = random_psd(rng, n), random_psd(rng, n)
    rt, rr = sqrt_psd(t), sqrt_psd(r)
    couplings = [hermitian_part(rt @ random_contraction(rng, n, n) @ rr) / np.sqrt(k - 1)
                 for _ in range(k - 1)]
    for rejections in range(80):
        a = arrow_by_np_block(t, r, couplings, first)
        if is_psd(a):
            return a, rejections
        couplings = [s / 2 for s in couplings]
    raise AssertionError("reference arrow sample never accepted")


@pytest.mark.parametrize("family", ["arrow_first", "arrow_second"])
@pytest.mark.parametrize("block_dim,k,seed", [(3, 8, 1), (3, 8, 27), (2, 3, 25), (3, 3, 28)])
def test_arrow_halving_in_place_equals_rebuild(family, block_dim, k, seed):
    reference, rejections = arrow_by_rebuild(block_dim, k, seed, family == "arrow_first")
    assert rejections >= 2
    sample = gen_family(family, block_dim, seed, block_count=k)
    assert np.array_equal(sample.matrix, reference)


def test_gen_family_determinism():
    for family in FAMILY_NAMES:
        a = gen_family(family, 3, seed=17, block_count=4)
        b = gen_family(family, 3, seed=17, block_count=4)
        assert np.array_equal(a.matrix, b.matrix)


def test_gen_family_bad_combinations():
    with pytest.raises(UnsupportedCombination):
        gen_family("span3_1", 2, seed=0)
    with pytest.raises(UnsupportedCombination):
        gen_family("arrow_first", 2, seed=0, block_count=1)
    with pytest.raises(UnsupportedCombination):
        gen_family("unknown", 2, seed=0)


@pytest.mark.parametrize("family", FAMILY_NAMES)
@pytest.mark.parametrize("block_count", [0, -2])
def test_gen_family_rejects_non_positive_block_count(family, block_count):
    # only None selects the default size; 0 must not fall back to it
    with pytest.raises(UnsupportedCombination):
        gen_family(family, 3, seed=0, block_count=block_count)


def test_witness_check_identity_map_passes():
    ident = map_from_kraus_pairs([(np.eye(3), np.eye(3))])
    sample = gen_family("toeplitz2", 3, seed=3)
    res = witness_check(ident, sample)
    assert res.passed


@pytest.mark.parametrize("family", FAMILY_NAMES)
@pytest.mark.parametrize("witness", ["transpose", "reduction", "choi3"])
def test_families_pass_witnesses(family, witness):
    phi = builtin_witness(witness, dim=3)
    for seed in range(25):
        sample = gen_family(family, 3, seed=seed, block_count=3)
        res = witness_check(phi, sample)
        scale = max(1.0, np.linalg.norm(sample.matrix))
        assert res.min_eig >= -1e-8 * scale, (family, witness, seed, res.min_eig)


@pytest.mark.parametrize("family", [f for f in FAMILY_NAMES if not f.startswith("span")])
@pytest.mark.parametrize("witness", ["transpose", "reduction"])
def test_families_pass_witnesses_at_block_dim_two(family, witness):
    phi = builtin_witness(witness, dim=2)
    for seed in range(25):
        sample = gen_family(family, 2, seed=seed, block_count=4)
        res = witness_check(phi, sample)
        scale = max(1.0, np.linalg.norm(sample.matrix))
        assert res.min_eig >= -1e-8 * scale, (family, witness, seed, res.min_eig)


def test_bell_control_fails_transpose_and_reduction():
    sample = bell_control_sample()
    for name in ("transpose", "reduction"):
        phi = builtin_witness(name, dim=2)
        res = witness_check(phi, sample)
        assert not res.passed
        assert res.min_eig == pytest.approx(-0.5, abs=1e-12)


def test_choi_control_is_ppt_but_detected():
    rho = choi_detected_state()
    assert abs(np.trace(rho).real - 1.0) <= 1e-12
    assert is_psd(rho).ok
    pt = entrywise_partial_transpose(rho, 3, 3)
    assert np.linalg.eigvalsh(hermitian_part(pt))[0] >= -1e-10
    res = witness_check(builtin_witness("choi3"), choi_control_sample())
    assert not res.passed
    assert res.min_eig < -0.03
