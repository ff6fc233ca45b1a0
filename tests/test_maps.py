import numpy as np
import pytest

from schur_dilate.errors import DimensionMismatch, NotUnital, UnknownName
from schur_dilate.families import bell_projector
from schur_dilate.linalg import dagger, hermitian_part, is_psd
from schur_dilate.maps import (
    MatrixLinearMap,
    _choi3,
    apply_blockwise,
    builtin_witness,
    map_from_function,
    map_from_kraus_pairs,
    positivity_inequality_suite,
    unital_witness,
    vec,
)
from schur_dilate.sampling import (
    complex_gaussian,
    random_kraus_family,
    random_psd,
    random_unitary,
    rng_from_seed,
)


def matrix_unit(n, i, j):
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


def entrywise_partial_transpose(a, k, n):
    out = np.zeros_like(a)
    for i in range(k):
        for j in range(k):
            out[i * n:(i + 1) * n, j * n:(j + 1) * n] = \
                a[i * n:(i + 1) * n, j * n:(j + 1) * n].T
    return out


def test_identity_pair_gives_identity_map():
    phi = map_from_kraus_pairs([(np.eye(2), np.eye(2))])
    rng = rng_from_seed(71)
    x = complex_gaussian(rng, 2, 2)
    np.testing.assert_allclose(phi(x), x, atol=1e-14)
    assert phi.unital and phi.trace_preserving and phi.hermiticity_preserving


def test_transpose_from_pairs_matches_entrywise():
    n = 3
    pairs = [(matrix_unit(n, i, j), matrix_unit(n, j, i))
             for i in range(n) for j in range(n)]
    phi = map_from_kraus_pairs(pairs)
    rng = rng_from_seed(72)
    for _ in range(5):
        x = complex_gaussian(rng, n, n)
        np.testing.assert_allclose(phi(x), x.T, atol=1e-12)


def test_amplitude_damping_pairs_trace_preserving():
    e0 = np.array([[1.0, 0.0], [0.0, 0.8]])
    e1 = np.array([[0.0, 0.6], [0.0, 0.0]])
    phi = map_from_kraus_pairs([(e0, e0), (e1, e1)])
    assert phi.trace_preserving
    assert not phi.unital


def test_kraus_pairs_validation():
    with pytest.raises(ValueError):
        map_from_kraus_pairs([])
    with pytest.raises(DimensionMismatch):
        map_from_kraus_pairs([(np.eye(2), np.eye(2)), (np.eye(3), np.eye(3))])


def test_builtin_transpose_and_reduction_values():
    t = builtin_witness("transpose", 2)
    np.testing.assert_allclose(t(np.eye(2)), np.eye(2), atol=1e-14)
    r = builtin_witness("reduction", 2)
    np.testing.assert_allclose(r(np.diag([1.0, 0.0])), np.diag([0.0, 1.0]),
                               atol=1e-14)
    with pytest.raises(UnknownName):
        builtin_witness("nope")
    with pytest.raises(UnknownName):
        builtin_witness("choi3", dim=4)


def test_bell_partial_transpose_spectrum():
    phi = builtin_witness("transpose", 2)
    out = apply_blockwise(phi, bell_projector(), 2)
    w = np.linalg.eigvalsh(hermitian_part(out))
    assert w[0] == pytest.approx(-0.5, abs=1e-12)


def test_choi3_definition_entries():
    phi = builtin_witness("choi3")
    rng = rng_from_seed(73)
    x = complex_gaussian(rng, 3, 3)
    y = phi(x)
    expected = np.array([
        [x[0, 0] + x[1, 1], -x[0, 1], -x[0, 2]],
        [-x[1, 0], x[1, 1] + x[2, 2], -x[1, 2]],
        [-x[2, 0], -x[2, 1], x[2, 2] + x[0, 0]],
    ])
    np.testing.assert_allclose(y, expected, atol=1e-13)


def test_choi3_positive_on_psd_but_not_cp():
    phi = builtin_witness("choi3")
    rng = rng_from_seed(74)
    for _ in range(50):
        p = random_psd(rng, 3)
        assert is_psd(phi(p)).ok
    # Choi matrix of the map has a negative eigenvalue: not completely positive
    choi = sum(np.kron(matrix_unit(3, i, j), phi(matrix_unit(3, i, j)))
               for i in range(3) for j in range(3))
    assert np.linalg.eigvalsh(hermitian_part(choi))[0] < -0.5


def test_apply_blockwise_identity_and_single_block():
    ident = map_from_kraus_pairs([(np.eye(2), np.eye(2))])
    rng = rng_from_seed(75)
    a = complex_gaussian(rng, 6, 6)
    np.testing.assert_allclose(apply_blockwise(ident, a, 3), a, atol=1e-13)
    x = complex_gaussian(rng, 2, 2)
    np.testing.assert_allclose(apply_blockwise(ident, x, 1), x, atol=1e-13)


def test_apply_blockwise_matches_entrywise_partial_transpose():
    phi = builtin_witness("transpose", 3)
    rng = rng_from_seed(76)
    a = complex_gaussian(rng, 9, 9)
    np.testing.assert_allclose(apply_blockwise(phi, a, 3),
                               entrywise_partial_transpose(a, 3, 3), atol=1e-13)


def test_apply_blockwise_linear():
    phi = builtin_witness("reduction", 2)
    rng = rng_from_seed(77)
    a = complex_gaussian(rng, 4, 4)
    b = complex_gaussian(rng, 4, 4)
    lhs = apply_blockwise(phi, 2.0 * a + 1j * b, 2)
    rhs = 2.0 * apply_blockwise(phi, a, 2) + 1j * apply_blockwise(phi, b, 2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_apply_blockwise_shape_check():
    phi = builtin_witness("transpose", 2)
    with pytest.raises(DimensionMismatch):
        apply_blockwise(phi, np.eye(5), 2)


def apply_per_block(phi, a, k):
    """I_k (x) phi as one ``phi.apply`` per block."""
    n, m = phi.in_dim, phi.out_dim
    out = np.zeros((k * m, k * m), dtype=complex)
    for i in range(k):
        for j in range(k):
            out[i * m:(i + 1) * m, j * m:(j + 1) * m] = phi.apply(
                a[i * n:(i + 1) * n, j * n:(j + 1) * n])
    return out


@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("name,dim", [("transpose", 3), ("reduction", 3),
                                      ("reduction", 4), ("choi3", 3)])
def test_apply_blockwise_equals_per_block_apply(name, dim, k):
    phi = builtin_witness(name, dim)
    a = complex_gaussian(rng_from_seed(78 + k), k * dim, k * dim)
    np.testing.assert_allclose(apply_blockwise(phi, a, k),
                               apply_per_block(phi, a, k), rtol=0, atol=1e-14)


def test_apply_blockwise_rectangular_kraus_map():
    rng = rng_from_seed(79)
    # X (3 x 3) -> sum_i A_i X B_i* (2 x 2)
    phi = map_from_kraus_pairs([(complex_gaussian(rng, 2, 3), complex_gaussian(rng, 2, 3))
                                for _ in range(2)])
    assert (phi.in_dim, phi.out_dim) == (3, 2)
    a = complex_gaussian(rng, 12, 12)
    out = apply_blockwise(phi, a, 4)
    assert out.shape == (8, 8)
    np.testing.assert_allclose(out, apply_per_block(phi, a, 4), rtol=0, atol=1e-14)


def test_apply_blockwise_non_contiguous_input():
    phi = builtin_witness("choi3", 3)
    a = complex_gaussian(rng_from_seed(80), 12, 12).T
    assert not a.flags.c_contiguous
    out = apply_blockwise(phi, a, 4)
    assert np.array_equal(out, apply_blockwise(phi, np.ascontiguousarray(a), 4))
    np.testing.assert_allclose(out, apply_per_block(phi, a, 4), rtol=0, atol=1e-14)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_apply_blockwise_rejects_non_finite(bad):
    a = np.eye(6, dtype=complex)
    a[4, 1] = bad
    with pytest.raises(ValueError):
        apply_blockwise(builtin_witness("transpose", 3), a, 2)


@pytest.mark.parametrize("name", ["transpose", "reduction", "choi3"])
def test_witnesses_preserve_hermiticity(name):
    phi = builtin_witness(name, 3)
    assert phi.hermiticity_preserving
    rng = rng_from_seed(78)
    for _ in range(10):
        x = complex_gaussian(rng, 3, 3)
        np.testing.assert_allclose(phi(dagger(x)), dagger(phi(x)), atol=1e-12)


def probe_flags(phi):
    """Randomized probe of the three derived flags: four Gaussian inputs
    each for hermiticity and trace preservation, one identity for unitality."""
    rng = rng_from_seed(20_0931)
    n, m = phi.in_dim, phi.out_dim
    xs = [complex_gaussian(rng, n, n) for _ in range(8)]
    hp = all(np.abs(phi(dagger(x)) - dagger(phi(x))).max() <= 1e-10 for x in xs[:4])
    unital = np.abs(phi(np.eye(n)) - np.eye(m)).max() <= 1e-12
    tp = all(abs(np.trace(phi(x)) - np.trace(x)) <= 1e-10 * max(1.0, abs(np.trace(x)))
             for x in xs[4:])
    return hp, unital, tp


def random_pairs(rng, kind, n, m):
    count = int(rng.integers(1, 4))
    if kind == "trace-preserving":
        ops = random_kraus_family(rng, n, m, max(count, -(-n // m)))
        return [(e, e) for e in ops]
    if kind == "unital":
        ops = random_kraus_family(rng, m, n, max(count, -(-m // n)))
        return [(dagger(e), dagger(e)) for e in ops]
    if kind == "unitary-conjugation":
        u = random_unitary(rng, n)
        return [(u, u)]
    if kind == "non-hermitian-pair":
        return [(complex_gaussian(rng, m, n), complex_gaussian(rng, m, n))
                for _ in range(count)]
    ops = [complex_gaussian(rng, m, n) for _ in range(count)]
    return [(e, e) for e in ops]


def test_derived_flags_match_randomized_probe():
    rng = rng_from_seed(79)
    kinds = ("trace-preserving", "unital", "unitary-conjugation",
             "non-hermitian-pair", "generic")
    seen = set()
    for i in range(200):
        kind = kinds[i % len(kinds)]
        n = int(rng.integers(1, 4))
        m = n if kind == "unitary-conjugation" else int(rng.integers(1, 4))
        phi = map_from_kraus_pairs(random_pairs(rng, kind, n, m))
        flags = (phi.hermiticity_preserving, phi.unital, phi.trace_preserving)
        assert flags == probe_flags(phi), (kind, n, m)
        seen.add(flags)
    assert len(seen) >= 4


def test_derived_flags_are_not_constructor_arguments():
    with pytest.raises(TypeError):
        MatrixLinearMap(1, 1, np.eye(1), unital=True)
    phi = MatrixLinearMap(2, 2, np.eye(4), positive_declared=True)
    assert phi.positive_declared and phi.unital and phi.trace_preserving


def test_unital_witnesses_rescale_the_catalog():
    for dim in (2, 3, 4, 5):
        reduction = map_from_function(
            lambda x: (np.trace(x) * np.eye(dim) - x) / (dim - 1), dim, dim)
        np.testing.assert_array_equal(unital_witness("reduction", dim).action,
                                      reduction.action)
        np.testing.assert_array_equal(unital_witness("transpose", dim).action,
                                      builtin_witness("transpose", dim).action)
    choi = map_from_function(lambda x: _choi3(x) / 2, 3, 3)
    np.testing.assert_array_equal(unital_witness("choi3").action, choi.action)
    for name in ("transpose", "reduction", "choi3"):
        phi = unital_witness(name, 3)
        assert phi.unital and phi.positive_declared
    with pytest.raises(UnknownName):
        unital_witness("reduction", 1)
    with pytest.raises(UnknownName):
        unital_witness("choi3", 4)


def test_vectorization_convention():
    # column stacking: vec([[a, b], [c, d]]) = (a, c, b, d)
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(vec(x), [1.0, 3.0, 2.0, 4.0])


def test_suite_requires_unital_positive():
    with pytest.raises(NotUnital):
        positivity_inequality_suite(builtin_witness("reduction", 3), 5)
    ident = map_from_kraus_pairs([(np.eye(2), np.eye(2))])  # not declared positive
    with pytest.raises(NotUnital):
        positivity_inequality_suite(ident, 5)


@pytest.mark.parametrize("name", ["transpose", "reduction"])
def test_suite_passes_for_unital_witnesses(name):
    phi = unital_witness(name, 3)
    report = positivity_inequality_suite(phi, 50, seed=5)
    assert not report.failures
    assert report.norm_excess <= 1e-10
    assert report.worst_eigenvalue() >= -1e-9


def test_suite_zero_contraction_edge_is_exactly_flat():
    # G = 0: I - phi(G*G) - phi(D_{G*})^2 collapses to I - phi(I)^2 = 0
    phi = unital_witness("transpose", 3)
    g = np.zeros((3, 3))
    q = np.eye(3) - phi(dagger(g) @ g) - phi(np.eye(3)) @ phi(np.eye(3))
    assert np.abs(q).max() == 0.0
