import numpy as np
import pytest

from schur_dilate.errors import DimensionMismatch, NotHermitian, NotPSD, NotUnitary
from schur_dilate.linalg import (
    Tolerances,
    check_unitary,
    dagger,
    herm_eig,
    is_psd,
    kron,
    pinv,
    ptrace_first,
    sqrt_psd,
    zero_level,
)
from schur_dilate.sampling import complex_gaussian, random_psd, rng_from_seed


def test_tolerances_must_be_positive():
    with pytest.raises(ValueError):
        Tolerances(psd_tol=0.0)
    with pytest.raises(ValueError):
        Tolerances(recon_tol=-1.0)
    with pytest.raises(ValueError):
        Tolerances(rank_tol=0.0)
    Tolerances(rank_tol=None)  # auto cutoff is allowed
    # non-finite values slip past a plain "<= 0" test, since nan <= 0 is False
    for bad in (float("nan"), float("inf")):
        for field in ("psd_tol", "recon_tol", "rank_tol"):
            with pytest.raises(ValueError):
                Tolerances(**{field: bad})


def test_herm_eig_identity():
    w, v = herm_eig(np.eye(2))
    np.testing.assert_allclose(w, [1.0, 1.0])
    np.testing.assert_allclose(dagger(v) @ v, np.eye(2), atol=1e-12)


def test_herm_eig_diagonal_descending():
    w, v = herm_eig(np.diag([3.0, -1.0]))
    np.testing.assert_allclose(w, [3.0, -1.0])
    # eigenvectors are a permutation of the identity up to phase
    np.testing.assert_allclose(np.abs(v), np.eye(2), atol=1e-12)


def test_herm_eig_reassembly_oracle():
    rng = rng_from_seed(11)
    for _ in range(20):
        g = complex_gaussian(rng, 5, 5)
        a = g + dagger(g)
        w, v = herm_eig(a)
        scale = np.linalg.norm(a)
        assert np.linalg.norm((v * w) @ dagger(v) - a) <= 1e-12 * scale
        assert np.linalg.norm(dagger(v) @ v - np.eye(5)) <= 1e-12
        assert np.all(np.diff(w) <= 1e-12)  # descending


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DimensionMismatch):
        herm_eig(np.zeros((2, 3)))


def test_sqrt_psd_trivial():
    np.testing.assert_allclose(sqrt_psd(np.eye(3)), np.eye(3), atol=1e-14)
    np.testing.assert_allclose(sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]),
                               atol=1e-14)


def test_sqrt_psd_squaring_oracle():
    rng = rng_from_seed(12)
    for _ in range(20):
        b = complex_gaussian(rng, 4, 4)
        a = dagger(b) @ b
        r = sqrt_psd(a)
        assert np.linalg.norm(r @ r - a) <= 1e-10 * np.linalg.norm(a)
        assert is_psd(r).ok


def test_sqrt_psd_clamps_rounding_noise():
    a = np.diag([1.0, -5e-11])
    r = sqrt_psd(a)
    np.testing.assert_allclose(r, np.diag([1.0, 0.0]), atol=1e-12)


def test_sqrt_psd_keeps_small_eigenvalues_unless_cut():
    # a matrix's own scale cannot tell 1e-11 from noise, so only a cut zeroes it
    a = np.diag([1.0, 1e-11, 1e-9])
    assert sqrt_psd(a)[1, 1] == pytest.approx(np.sqrt(1e-11))
    r = sqrt_psd(a, cut=zero_level(1.0))
    assert r[1, 1] == 0.0
    assert r[2, 2] == pytest.approx(np.sqrt(1e-9))
    assert not sqrt_psd(np.eye(2), cut=1.0).any()


def test_zero_level_is_the_positivity_and_rank_rule():
    assert zero_level(4.0) == 4e-10
    assert zero_level(4.0, Tolerances(psd_tol=1e-6)) == 4e-6
    # is_psd and sqrt_psd fail just below -zero_level of the scale 1
    assert is_psd(np.diag([1.0, -0.99e-10]))
    assert not is_psd(np.diag([1.0, -1.01e-10]))
    with pytest.raises(NotPSD):
        sqrt_psd(np.diag([1.0, -1.01e-10]))


def test_check_unitary_bound_scales_with_size():
    rng = rng_from_seed(19)
    u = np.linalg.qr(complex_gaussian(rng, 4, 4))[0]
    assert check_unitary(u, 1e-10) <= 1e-13
    bumped = u + 1e-7 * complex_gaussian(rng, 4, 4)
    with pytest.raises(NotUnitary, match="U1 is not unitary"):
        check_unitary(bumped, 1e-10, "U1")
    assert check_unitary(bumped, 1e-4) > 1e-10


def test_sqrt_psd_rejects_negative():
    with pytest.raises(NotPSD):
        sqrt_psd(np.diag([1.0, -1.0]))


def test_pinv_trivial():
    np.testing.assert_allclose(pinv(np.eye(3)), np.eye(3), atol=1e-14)
    z = pinv(np.zeros((2, 4)))
    assert z.shape == (4, 2)
    assert np.abs(z).max() == 0.0


def test_pinv_left_inverse_full_rank():
    rng = rng_from_seed(13)
    a = complex_gaussian(rng, 4, 2)
    np.testing.assert_allclose(pinv(a) @ a, np.eye(2), atol=1e-10)


@pytest.mark.parametrize("rows,cols", [(1, 1), (3, 3), (2, 5), (5, 2), (8, 8), (8, 3)])
def test_pinv_penrose_conditions(rows, cols):
    rng = rng_from_seed(100 * rows + cols)
    for _ in range(5):
        a = complex_gaussian(rng, rows, cols)
        p = pinv(a)
        scale = 1e-10 * max(1.0, np.linalg.norm(a) * np.linalg.norm(p))
        assert np.linalg.norm(a @ p @ a - a) <= scale
        assert np.linalg.norm(p @ a @ p - p) <= scale
        assert np.linalg.norm(dagger(a @ p) - a @ p) <= scale
        assert np.linalg.norm(dagger(p @ a) - p @ a) <= scale


def test_is_psd_trivial():
    res = is_psd(np.eye(2))
    assert res.ok and res  # truthy
    assert res.min_eigenvalue == pytest.approx(1.0)
    res = is_psd(np.diag([1.0, -1.0]))
    assert not res.ok and not res
    assert res.min_eigenvalue == pytest.approx(-1.0)


def test_is_psd_construction_oracle():
    rng = rng_from_seed(14)
    for _ in range(20):
        assert is_psd(random_psd(rng, 4)).ok


def test_is_psd_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        is_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_kron_ancilla_first_block_layout():
    rng = rng_from_seed(15)
    rho = random_psd(rng, 2)
    big = kron(np.eye(2), rho)
    np.testing.assert_allclose(big[:2, :2], rho)
    np.testing.assert_allclose(big[2:, 2:], rho)
    assert np.abs(big[:2, 2:]).max() == 0.0


def test_ptrace_first_pure_ancilla():
    rng = rng_from_seed(16)
    rho = random_psd(rng, 3)
    e0 = np.zeros((2, 2))
    e0[0, 0] = 1.0
    np.testing.assert_allclose(ptrace_first(kron(e0, rho), 2, 3), rho, atol=1e-14)


def test_ptrace_first_scales_by_trace():
    rng = rng_from_seed(17)
    p = random_psd(rng, 2)
    rho = random_psd(rng, 3)
    np.testing.assert_allclose(ptrace_first(kron(p, rho), 2, 3),
                               np.trace(p) * rho, atol=1e-12)


def test_ptrace_first_trace_preserving_and_linear():
    rng = rng_from_seed(18)
    for _ in range(10):
        x = complex_gaussian(rng, 6, 6)
        y = complex_gaussian(rng, 6, 6)
        out = ptrace_first(x, 2, 3)
        assert abs(np.trace(out) - np.trace(x)) <= 1e-12 * max(1.0, abs(np.trace(x)))
        lhs = ptrace_first(2.0 * x + 1j * y, 2, 3)
        rhs = 2.0 * out + 1j * ptrace_first(y, 2, 3)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_ptrace_first_shape_check():
    with pytest.raises(DimensionMismatch):
        ptrace_first(np.eye(5), 2, 3)
