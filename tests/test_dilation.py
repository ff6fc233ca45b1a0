import numpy as np
import pytest

from schur_dilate.dilation import (
    DilationResult,
    KrausChannel,
    Povm,
    channel_dilate,
    channel_simulate,
    povm_dilate,
    povm_projectors,
    povm_verify,
)
from schur_dilate.errors import (
    DimensionMismatch,
    EffectsNotRankOne,
    NotContraction,
    NotResolution,
    NotState,
    NotTracePreserving,
    NotUnitary,
    PaddingTooSmall,
)
from schur_dilate.contraction import defects, julia_block, with_freedom
from schur_dilate.linalg import Tolerances, dagger, frob, sqrt_psd, unitarity_deviation
from schur_dilate.sampling import (
    complex_gaussian,
    random_coisometry,
    random_density,
    random_kraus_family,
    random_unitary,
    rng_from_seed,
)


def trine_vectors():
    return [np.sqrt(2 / 3) * np.array([np.cos(2 * np.pi * k / 3),
                                       np.sin(2 * np.pi * k / 3)], dtype=complex)
            for k in range(3)]


def amplitude_damping():
    e0 = np.array([[1.0, 0.0], [0.0, 0.8]], dtype=complex)
    e1 = np.array([[0.0, 0.6], [0.0, 0.0]], dtype=complex)
    return KrausChannel(in_dim=2, out_dim=2, kraus=(e0, e1))


# ---------------------------------------------------------------------------
# POVM types


def test_povm_requires_resolution_of_identity():
    with pytest.raises(NotResolution):
        Povm.from_vectors([np.array([1.0, 0.0])])
    with pytest.raises(NotResolution):
        Povm(dim=2, effects=(np.diag([1.0, -0.5]), np.diag([0.0, 1.5])))


def test_empty_povm_is_rejected():
    with pytest.raises(ValueError, match="at least one effect required"):
        Povm.from_vectors([])
    with pytest.raises(ValueError, match="at least one effect required"):
        Povm.from_effects([])


def test_povm_from_effects_extracts_rank_one_vectors():
    vs = trine_vectors()
    effects = [np.outer(v, v.conj()) for v in vs]
    povm = Povm.from_effects(effects)
    assert povm.vectors is not None
    for v, ref in zip(povm.vectors, vs):
        np.testing.assert_allclose(np.outer(v, v.conj()), np.outer(ref, ref.conj()),
                                   atol=1e-12)


def test_povm_from_effects_rank_rule_reads_tolerance():
    # second eigenvalue 3e-9: noise under psd_tol = 1e-8, a second rank at 1e-10
    effects = [np.diag([1 - 3e-9, 3e-9]), np.diag([3e-9, 1 - 3e-9])]
    assert Povm.from_effects(effects).vectors is None
    loose = Tolerances(psd_tol=1e-8)
    povm = Povm.from_effects(effects, loose)
    np.testing.assert_allclose(np.abs(povm.vectors[0]), [np.sqrt(1 - 3e-9), 0.0], atol=1e-15)
    with pytest.raises(NotResolution):
        povm_dilate(povm)


@pytest.mark.parametrize("second, rank_one", [(0.9e-10, True), (1.1e-10, False)])
def test_povm_from_effects_rank_cut_edges(second, rank_one):
    # rank one iff the second eigenvalue is at most zero_level(largest), about 1e-10
    effects = [np.diag([1 - second, second]), np.diag([second, 1 - second])]
    assert (Povm.from_effects(effects).vectors is not None) == rank_one


def test_povm_dilate_rejects_rank_two_effects():
    povm = Povm.from_effects([np.eye(2) / 2, np.eye(2) / 2])
    assert povm.vectors is None
    with pytest.raises(EffectsNotRankOne):
        povm_dilate(povm)


# ---------------------------------------------------------------------------
# POVM dilation


def test_basis_povm_dilates_block_diagonally():
    povm = Povm.from_vectors([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    result = povm_dilate(povm)
    assert result.total_dim == 4
    # orthonormal-basis case: both defects vanish, U = M (+) (-M*)
    np.testing.assert_allclose(result.unitary[:2, 2:], np.zeros((2, 2)), atol=0)
    np.testing.assert_allclose(result.unitary[2:, :2], np.zeros((2, 2)), atol=1e-12)
    verification = povm_verify(result, povm)
    assert verification.passed
    assert verification.compression <= 1e-12
    assert verification.completeness <= 1e-12


def test_trine_povm_dilation():
    povm = Povm.from_vectors(trine_vectors())
    result = povm_dilate(povm)
    assert result.unitary.shape == (5, 5)
    u = result.unitary
    assert frob(dagger(u) @ u - np.eye(5)) <= 1e-10
    verification = povm_verify(result, povm)
    assert verification.passed
    assert verification.compression <= 1e-10
    assert verification.orthogonality <= 1e-9


def test_random_rank_one_povms():
    rng = rng_from_seed(91)
    for _ in range(20):
        m = int(rng.integers(2, 4))
        n = int(rng.integers(m, 7))
        mm = random_coisometry(rng, m, n)
        povm = Povm.from_vectors([mm[:, j] for j in range(n)])
        result = povm_dilate(povm)
        verification = povm_verify(result, povm)
        assert verification.compression <= 1e-10
        assert verification.orthogonality <= 1e-9
        assert verification.extra_compression <= 1e-10


def test_povm_verify_flags_corrupted_unitary():
    povm = Povm.from_vectors(trine_vectors())
    result = povm_dilate(povm)
    corrupted = np.array(result.unitary)
    corrupted[:, 0] += 1e-3
    verification = povm_verify(corrupted, povm)
    assert not verification.passed
    assert verification.orthogonality > 1e-9


def test_povm_freedom_inert_on_compressions():
    rng = rng_from_seed(92)
    povm = Povm.from_vectors(trine_vectors())
    base = povm_dilate(povm)
    base_proj = povm_projectors(base)
    for _ in range(10):
        u1 = random_unitary(rng, 3)
        u2 = random_unitary(rng, 2)
        result = povm_dilate(povm, freedom=(u1, u2))
        assert povm_verify(result, povm).passed
        proj = povm_projectors(result)
        for i in range(3):
            np.testing.assert_allclose(proj[i][:2, :2], base_proj[i][:2, :2],
                                       atol=1e-10)


def test_povm_freedom_validation():
    povm = Povm.from_vectors(trine_vectors())
    with pytest.raises(NotUnitary):
        povm_dilate(povm, freedom=(np.eye(3) * 0.5, np.eye(2)))
    with pytest.raises(DimensionMismatch):
        povm_dilate(povm, freedom=(np.eye(2), np.eye(2)))


def test_povm_freedom_check_reads_caller_tolerance():
    # psd_tol moves the freedom check up to CLIP_SLACK, the bound the
    # dilation result is held to, so a rejection always names the input
    povm = Povm.from_vectors(trine_vectors())
    eye2 = np.eye(2)
    bumped = np.diag([1 + 5e-10, 1, 1])  # deviation 1e-9: over 3e-10, under 3e-9
    with pytest.raises(NotUnitary, match="U1"):
        povm_dilate(povm, freedom=(bumped, eye2))
    assert povm_dilate(povm, freedom=(bumped, eye2), tol=Tolerances(psd_tol=1e-9)).unitarity < 2e-9
    far = np.eye(3) + 1e-7 * complex_gaussian(rng_from_seed(95), 3, 3)
    with pytest.raises(NotUnitary, match="U1"):
        povm_dilate(povm, freedom=(far, eye2), tol=Tolerances(psd_tol=1e-4))
    slight = np.diag([1 + 5e-12, 1, 1])
    assert povm_dilate(povm, freedom=(slight, eye2)).unitarity < 2e-11
    with pytest.raises(NotUnitary, match="U1"):
        povm_dilate(povm, freedom=(slight, eye2), tol=Tolerances(psd_tol=1e-12))


def test_povm_verify_compression_bound_reads_tolerance():
    result = povm_dilate(Povm.from_vectors([np.array([1.0, 0.0]), np.array([0.0, 1.0])]))
    blurred = Povm(dim=2, effects=(np.diag([1 - 1e-9, 1e-9]), np.diag([1e-9, 1 - 1e-9])))
    report = povm_verify(result, blurred)
    assert report.compression == pytest.approx(1e-9)
    assert not report.passed
    assert povm_verify(result, blurred, Tolerances(psd_tol=1e-8)).passed


# ---------------------------------------------------------------------------
# channels


def test_kraus_channel_validation():
    with pytest.raises(DimensionMismatch):
        KrausChannel(in_dim=2, out_dim=2, kraus=(np.eye(3),))
    with pytest.raises(NotContraction):
        KrausChannel(in_dim=2, out_dim=2, kraus=(np.eye(2) * 1.2,))
    assert amplitude_damping().trace_preserving


def test_kraus_channel_keeps_its_gram_sum():
    ch = amplitude_damping()
    np.testing.assert_array_equal(ch.gram, sum(dagger(e) @ e for e in ch.kraus))
    assert not ch.gram.flags.writeable
    e0 = np.array([[1.0, 0.0], [0.0, 0.8]], dtype=complex)
    decreasing = KrausChannel(in_dim=2, out_dim=2, kraus=(e0,))
    assert not decreasing.trace_preserving
    np.testing.assert_allclose(decreasing.gram, np.diag([1.0, 0.64]), atol=1e-15)


def test_identity_channel_dilation_is_exact():
    ch = KrausChannel(in_dim=2, out_dim=2, kraus=(np.eye(2),))
    result = channel_dilate(ch)
    rng = rng_from_seed(93)
    rho = random_density(rng, 2)
    np.testing.assert_allclose(channel_simulate(result, rho), rho, atol=0)


def test_amplitude_damping_fixture():
    ch = amplitude_damping()
    result = channel_dilate(ch)
    rho = np.diag([0.0, 1.0]).astype(complex)
    out = channel_simulate(result, rho)
    np.testing.assert_allclose(out, np.diag([0.36, 0.64]), atol=1e-12)
    rng = rng_from_seed(94)
    for _ in range(20):
        rho = random_density(rng, 2)
        np.testing.assert_allclose(channel_simulate(result, rho), ch.apply(rho),
                                   atol=1e-10)


def test_random_channels_match_kraus_sum():
    rng = rng_from_seed(95)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        count = int(rng.integers(-(-n // m), -(-n // m) + 4))
        ch = KrausChannel(in_dim=n, out_dim=m,
                          kraus=tuple(random_kraus_family(rng, n, m, count)))
        result = channel_dilate(ch)
        assert result.total_dim == result.ancilla_dim * m
        for _ in range(5):
            rho = random_density(rng, n)
            np.testing.assert_allclose(channel_simulate(result, rho), ch.apply(rho),
                                       atol=1e-10)


def test_channel_freedom_inert_on_outputs():
    rng = rng_from_seed(96)
    ch = amplitude_damping()
    base = channel_dilate(ch)
    rho = random_density(rng, 2)
    expected = channel_simulate(base, rho)
    for _ in range(10):
        freedom = (random_unitary(rng, 2), random_unitary(rng, 4))
        result = channel_dilate(ch, freedom=freedom)
        u = result.unitary
        assert frob(dagger(u) @ u - np.eye(u.shape[0])) <= 1e-10
        np.testing.assert_allclose(channel_simulate(result, rho), expected,
                                   atol=1e-10)


def test_minimal_dilation_size_bookkeeping():
    # square channel with r Kraus operators: total = r*m + n exactly, no pad
    rng = rng_from_seed(99)
    ch = KrausChannel(in_dim=2, out_dim=2,
                      kraus=tuple(random_kraus_family(rng, 2, 2, 3)))
    result = channel_dilate(ch)
    assert result.total_dim == 3 * 2 + 2
    assert result.ancilla_dim == 4
    assert result.kraus_count == 3


def test_channel_padding():
    ch = amplitude_damping()
    result = channel_dilate(ch, pad_to_ancilla=5)
    assert result.ancilla_dim == 5
    assert result.total_dim == 10
    rng = rng_from_seed(97)
    rho = random_density(rng, 2)
    np.testing.assert_allclose(channel_simulate(result, rho), ch.apply(rho),
                               atol=1e-10)
    with pytest.raises(PaddingTooSmall):
        channel_dilate(ch, pad_to_ancilla=2)


def test_trace_decreasing_channel_needs_flag():
    e0 = np.array([[1.0, 0.0], [0.0, 0.8]], dtype=complex)
    ch = KrausChannel(in_dim=2, out_dim=2, kraus=(e0,))
    with pytest.raises(NotTracePreserving):
        channel_dilate(ch)
    result = channel_dilate(ch, allow_trace_decreasing=True)
    assert result.absorbing_blocks
    rng = rng_from_seed(98)
    rho = random_density(rng, 2)
    # excluding the absorbing outcome reproduces the trace-decreasing map
    out = channel_simulate(result, rho, include_absorbing=False)
    np.testing.assert_allclose(out, e0 @ rho @ dagger(e0), atol=1e-10)
    # including it restores trace preservation
    full = channel_simulate(result, rho)
    assert abs(np.trace(full).real - 1.0) <= 1e-10


def test_channel_simulate_validation():
    result = channel_dilate(amplitude_damping())
    with pytest.raises(DimensionMismatch):
        channel_simulate(result, np.eye(3) / 3)
    with pytest.raises(NotState):
        channel_simulate(result, np.diag([1.0, -0.2]))
    with pytest.raises(NotState):
        channel_simulate(result, np.diag([0.9, 0.9]))


def test_channel_simulate_stack_equals_one_state_at_a_time():
    rng = rng_from_seed(91)
    kraus = tuple(0.9 * e for e in random_kraus_family(rng, 3, 2, 4))
    result = channel_dilate(KrausChannel(in_dim=3, out_dim=2, kraus=kraus),
                            allow_trace_decreasing=True)
    assert result.absorbing_blocks
    states = np.stack([random_density(rng, 3) for _ in range(6)])
    for absorbing in (True, False):
        stacked = channel_simulate(result, states, include_absorbing=absorbing)
        for rho, out in zip(states, stacked):
            single = channel_simulate(result, rho, include_absorbing=absorbing)
            assert out.tobytes() == single.tobytes()
    bad = states.copy()
    bad[4] = np.diag([1.2, -0.2, 0.0])
    with pytest.raises(NotState, match="eigenvalue -2"):
        channel_simulate(result, bad)
    with pytest.raises(DimensionMismatch):
        channel_simulate(result, states[:, :2, :2])


@pytest.mark.parametrize("n, m, count", [(3, 2, 4), (8, 8, 8), (16, 16, 16)])
def test_kraus_apply_stack_equals_one_state_at_a_time(n, m, count):
    rng = rng_from_seed(92)
    ch = KrausChannel(in_dim=n, out_dim=m,
                      kraus=tuple(random_kraus_family(rng, n, m, count)))
    states = np.stack([random_density(rng, n) for _ in range(20)])
    stacked = ch.apply(states)
    assert stacked.shape == (20, m, m)
    for rho, out in zip(states, stacked):
        assert out.tobytes() == ch.apply(rho).tobytes()
    with pytest.raises(ValueError):
        ch.apply(states[:, :, :, None])


def test_dilation_result_keeps_its_unitarity_deviation():
    result = channel_dilate(amplitude_damping())
    assert result.unitarity == unitarity_deviation(result.unitary)
    with pytest.raises(TypeError):
        DilationResult(kind="povm", unitary=np.eye(2), system_span=(0, 1),
                       ancilla_dim=1, unitarity=0.0)


def test_dilation_result_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        DilationResult(kind="povm", unitary=np.eye(2) * 0.9,
                       system_span=(0, 1), ancilla_dim=1)


# ---------------------------------------------------------------------------
# Fast paths against the definitions they replace


def simulate_by_conjugation(result, rho, include_absorbing=True):
    """Block trace of U (e0 e0* (x) rho) U* over the ancilla."""
    n, m, k = result.system_span[1], result.out_dim, result.total_dim
    x = np.zeros((k, k), dtype=complex)
    x[:n, :n] = rho
    y = result.unitary @ x @ dagger(result.unitary)
    skip = () if include_absorbing else result.absorbing_blocks
    return sum(y[b * m:(b + 1) * m, b * m:(b + 1) * m]
               for b in range(k // m) if b not in skip)


def test_channel_simulate_matches_conjugation():
    rng = rng_from_seed(111)
    ch = KrausChannel(in_dim=3, out_dim=2,
                      kraus=tuple(random_kraus_family(rng, 3, 2, 4)))
    decreasing = KrausChannel(in_dim=3, out_dim=2,
                              kraus=tuple(0.8 * e for e in ch.kraus[:3]))
    results = [
        channel_dilate(ch),
        channel_dilate(ch, pad_to_ancilla=9),
        channel_dilate(ch, freedom=(random_unitary(rng, 3), random_unitary(rng, 8))),
        channel_dilate(decreasing, allow_trace_decreasing=True),
    ]
    assert results[-1].absorbing_blocks
    for result in results:
        for _ in range(3):
            rho = random_density(rng, 3)
            for include in (True, False):
                np.testing.assert_allclose(
                    channel_simulate(result, rho, include_absorbing=include),
                    simulate_by_conjugation(result, rho, include), rtol=0, atol=1e-13)


def verify_by_projectors(u, povm):
    """Every povm_verify field from its per-projector definition."""
    m, n = povm.dim, povm.outcomes
    fs = povm_projectors(u)
    k = len(fs)
    return {
        "completeness": frob(sum(fs) - np.eye(k)),
        "idempotency": max(frob(f @ f - f) for f in fs),
        "orthogonality": max([frob(fs[i] @ fs[j]) for i in range(k)
                              for j in range(i + 1, k)], default=0.0),
        "compression": max(np.abs(fs[i][:m, :m] - povm.effects[i]).max()
                           for i in range(n)),
        "extra_compression": max([np.abs(fs[i][:m, :m]).max() for i in range(n, k)],
                                 default=0.0),
    }


def test_povm_verify_matches_projector_definitions():
    rng = rng_from_seed(112)
    mm = random_coisometry(rng, 3, 5)
    povm = Povm.from_vectors([mm[:, j] for j in range(5)])
    unitary = povm_dilate(povm).unitary
    corrupted = np.array(unitary)
    corrupted[:, 0] += 1e-3
    corrupted[2, 6] -= 0.3j
    non_unitary = 1.7 * random_unitary(rng, 8) + 0.4 * (
        rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    for u in (unitary, corrupted, non_unitary):
        got = povm_verify(u, povm)
        for name, expected in verify_by_projectors(u, povm).items():
            assert abs(getattr(got, name) - expected) <= 1e-13 * max(1.0, expected), name
    assert povm_verify(unitary, povm).passed
    assert not povm_verify(corrupted, povm).passed


# ---------------------------------------------------------------------------
# The isometry core against the SVD construction it replaces


def svd_julia(t, size, freedom=None):
    """julia_block(T, defects(T)), its freedom applied, then (+) I up to ``size``."""
    u = julia_block(t, defects(t))
    if freedom is not None:
        u = with_freedom(u, *freedom)
    out = np.eye(size, dtype=complex)
    out[:len(u), :len(u)] = u
    return out


def test_channel_dilations_match_svd_julia():
    rng = rng_from_seed(121)
    ch = KrausChannel(in_dim=3, out_dim=2,
                      kraus=tuple(random_kraus_family(rng, 3, 2, 4)))
    t = np.vstack(ch.kraus)  # 8 x 3
    u1, u2 = random_unitary(rng, 3), random_unitary(rng, 8)
    # in_dim 3 is not a multiple of out_dim 2: the root's 3 rows get one zero row
    decreasing = KrausChannel(in_dim=3, out_dim=2,
                              kraus=tuple(0.8 * e for e in ch.kraus[:3]))
    deficit = np.eye(3) - sum(dagger(e) @ e for e in decreasing.kraus)
    t_dec = np.vstack([*decreasing.kraus, sqrt_psd(deficit), np.zeros((1, 3))])
    cases = [
        (channel_dilate(ch), t, svd_julia(t, 12)),
        (channel_dilate(ch, pad_to_ancilla=9), t, svd_julia(t, 18)),
        (channel_dilate(ch, freedom=(u1, u2)), t, svd_julia(t, 12, (u1, u2))),
        (channel_dilate(decreasing, allow_trace_decreasing=True), t_dec,
         svd_julia(t_dec, 14)),
    ]
    assert cases[-1][0].absorbing_blocks == (3, 4)
    for result, stack, expected in cases:
        np.testing.assert_allclose(result.unitary, expected, rtol=0, atol=1e-13)
        r = stack.shape[0]
        assert not result.unitary[r:r + 3, :3].any()  # D_T of the isometric stack


def test_povm_dilations_match_svd_julia():
    rng = rng_from_seed(122)
    mm = random_coisometry(rng, 3, 7)
    povm = Povm.from_vectors([mm[:, j] for j in range(7)])
    u1, u2 = random_unitary(rng, 7), random_unitary(rng, 3)
    # julia(M*)* = julia(M): the POVM dilation is the adjoint completion of M*
    expected = dagger(svd_julia(dagger(mm), 10))
    cases = [
        (povm_dilate(povm), expected),
        (povm_dilate(povm, freedom=(u1, u2)), with_freedom(expected.copy(), u1, u2)),
    ]
    for result, want in cases:
        np.testing.assert_allclose(result.unitary, want, rtol=0, atol=1e-13)
        assert not result.unitary[:3, 7:].any()  # D_M* of the co-isometry
