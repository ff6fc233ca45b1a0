"""The witness harness as a stack: stacked kernels, the batched generator,
the chunked CLI loop and the reports it writes.

Every stacked call must give, entry by entry, the bits of the 2-D call on
that entry alone, so that generating and checking trials as a stack leaves
every report byte-identical.
"""

import argparse
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schur_dilate import cli, families
from schur_dilate.errors import NotPSD, UnsupportedCombination
from schur_dilate.families import FAMILY_NAMES, gen_family, witness_check
from schur_dilate.linalg import Tolerances, dagger, is_psd, sqrt_psd
from schur_dilate.maps import apply_blockwise, builtin_witness
from schur_dilate.sampling import complex_gaussian, random_unitary, rng_from_seed

BLOCKS = {"arrow_first": 8, "arrow_second": 8, "span3_1": 16, "span3_2": 16, "span3_3": 16}

examples = settings(max_examples=40, deadline=None)
seeds = st.integers(0, 2**32 - 1)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def hermitian_stack(seed, count, n):
    """Hermitian matrices of one side: PSD of every rank, with eigenvalues
    at rounding level of either sign, or indefinite."""
    rng = rng_from_seed(seed)
    out = []
    for _ in range(count):
        kind = rng.integers(3)
        w = rng.uniform(0.0, 2.0, n)
        w[rng.random(n) < 0.3] = 0.0
        if kind == 1:
            w[rng.random(n) < 0.5] = rng.uniform(-1e-11, 1e-11)
        elif kind == 2:
            w[rng.random(n) < 0.5] *= -1
        u = random_unitary(rng, n) if n else np.zeros((0, 0), dtype=complex)
        out.append((u * w) @ dagger(u))
    return np.stack(out) if out else np.zeros((0, n, n), dtype=complex)


@examples
@given(seeds, st.integers(1, 6), st.integers(0, 6))
def test_stacked_is_psd_equals_2d_calls(seed, count, n):
    stack = hermitian_stack(seed, count, n)
    assert is_psd(stack) == [is_psd(a) for a in stack]


@examples
@given(seeds, st.integers(1, 6), st.integers(0, 6), st.sampled_from([0.0, 1e-12, 0.5]))
def test_stacked_sqrt_psd_equals_2d_calls(seed, count, n, cut):
    stack = hermitian_stack(seed, count, n)
    roots = []
    for a in stack:
        try:
            roots.append(sqrt_psd(a, cut=cut))
        except NotPSD:
            with pytest.raises(NotPSD):
                sqrt_psd(stack, cut=cut)
            return
    stacked = sqrt_psd(stack, cut=cut)
    assert all(same_bits(stacked[i], root) for i, root in enumerate(roots))


@examples
@given(seeds, st.integers(1, 5), st.integers(1, 4),
       st.sampled_from([("transpose", 2), ("transpose", 4), ("reduction", 3),
                        ("reduction", 4), ("choi3", 3)]))
def test_stacked_apply_blockwise_equals_2d_calls(seed, count, k, witness):
    phi = builtin_witness(*witness)
    rng = rng_from_seed(seed)
    side = k * phi.in_dim
    stack = np.stack([complex_gaussian(rng, side, side) for _ in range(count)])
    out = apply_blockwise(phi, stack, k)
    assert all(same_bits(out[i], apply_blockwise(phi, a, k)) for i, a in enumerate(stack))


def test_stacked_kernels_check_every_matrix():
    with pytest.raises(NotPSD):
        sqrt_psd(np.stack([np.eye(2), np.diag([1.0, -1.0])]))
    with pytest.raises(ValueError):
        is_psd(np.stack([np.eye(2), np.full((2, 2), np.nan)]))


def witness_args(family, seed, trials, block_dim=3):
    return argparse.Namespace(family=family, block_dim=block_dim, blocks=BLOCKS.get(family),
                              seed=seed, trials=trials)


@examples
@given(st.sampled_from(FAMILY_NAMES), st.integers(0, 2**20), st.integers(1, 16))
def test_chunked_samples_equal_one_seed_samples(family, seed, trials):
    chunks = list(cli._witness_chunks(witness_args(family, seed, trials), Tolerances()))
    samples = [s for chunk in chunks for s in chunk]
    assert [s.seed for s in samples] == list(range(seed, seed + trials))
    for s in samples:
        alone = gen_family(family, 3, s.seed, block_count=BLOCKS.get(family))
        assert (s.block_count, s.block_dim) == (alone.block_count, alone.block_dim)
        assert same_bits(s.matrix, alone.matrix)


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_batched_check_equals_one_sample_checks(family):
    phi = builtin_witness("choi3")
    samples = families._gen_samples(family, 3, range(5, 14), block_count=BLOCKS.get(family))
    assert witness_check(phi, samples) == [witness_check(phi, s) for s in samples]


def test_chunks_hold_the_benchmark_trials():
    # 20 arrow trials of 24 x 24 in one stack; 40 span trials of 48 x 48 in
    # stacks of 7, which keeps the peak memory of a run flat
    def sizes(family, trials):
        return [len(c) for c in cli._witness_chunks(witness_args(family, 0, trials), Tolerances())]

    assert sizes("arrow_first", 20) == [20]
    assert sizes("span3_2", 40) == [7] * 5 + [5]
    assert sizes("toeplitz2", 3) == [3]


def test_batched_generator_keeps_its_checks():
    with pytest.raises(UnsupportedCombination, match="block_dim"):
        families._gen_samples("span3_1", 2, [0, 1])
    with pytest.raises(UnsupportedCombination, match="positive"):
        families._gen_samples("toeplitz2", 3, [0, 1], block_count=0)
    with pytest.raises(UnsupportedCombination, match="at least 2"):
        families._gen_samples("arrow_first", 3, [0, 1], block_count=1)


# sha256 of the reports of `witness --trials 9 --seed 11`, with --blocks from
# BLOCKS, as written before trials were generated and checked as stacks; the
# span runs span two chunks.  The digests pin the bits of the BLAS/LAPACK
# build they were taken with (numpy 2.4, OpenBLAS 0.3.31, x86-64).
REPORT_SHA256 = {
    ("toeplitz2", "transpose"): "ddb532b29d22ce8d0fa9cb5e0b30482f3f45a61189ca003049b42f590faf83a6",
    ("toeplitz2", "reduction"): "3cc1d01a2f6c11cc26b08d9768dee5a88170a4e3bbc135c1a8de1f4126f15b05",
    ("toeplitz2", "choi3"): "bd654af32538a6945e142b8a8c009487ec034dbb82776d0a1a431fa33cc3ee0d",
    ("subnormal3_i", "transpose"): "ca070c7f75653e15bfba3bd6f16ba99ba158e45a438652b5ded4a88960bcc1cb",
    ("subnormal3_i", "reduction"): "b7901b9cb2f032749802944513cb45981485f7c91c8316190189825bd1bd2361",
    ("subnormal3_i", "choi3"): "d25157fe1d81eebecbce4b57ecb2278ab25e24d25337da2160cb9b1673243efb",
    ("subnormal3_ii", "transpose"): "25f1b307790f8be8c8e97265b7a1a87ae7bd0836afad3e33cbace44d5501c35e",
    ("subnormal3_ii", "reduction"): "f451c55667660fcd0d7d5f2bf6b9841bc52897fb07dd82dba12e7c009ff17baf",
    ("subnormal3_ii", "choi3"): "aa39d7cf52b4d4f5d6aaa2e29d520522fe740e19ee42ceaa6bfbcd920f1006b2",
    ("arrow_first", "transpose"): "cfd618cf9d50017dd9a8a776588b6c0f026218ee4ae5c1827ae3aa16a1606ddc",
    ("arrow_first", "reduction"): "4c93657b4333f1efe1b101962ff124a2c5b39a91c79a2abbc7edcfb1e661a29d",
    ("arrow_first", "choi3"): "a61a6c55441c5f5ca03600e0838490b670b581ea104d574211bc8006633a1c19",
    ("arrow_second", "transpose"): "e2299d6643945d72ce4dc7cf39c0d48ba1abd8bd456ee4b25708ee24515d2e77",
    ("arrow_second", "reduction"): "396e92831ae6f2d0a6b493f57e2a4bdfa9a57e7b1eaa4346f303eda58d83c789",
    ("arrow_second", "choi3"): "0c30ee02ce65f79a31caf768ed8974d776715203298d700bcbda38f2e0c1d27d",
    ("span3_1", "transpose"): "f92e277dc3e309e90a2f7b8a3e09165fed34ade4fb2d6a676f8707469f849d08",
    ("span3_1", "reduction"): "7ab45287a13d8e3e2467258a1b3f05ba115c1150e59c72824676840996d597c4",
    ("span3_1", "choi3"): "63e3625f1fd38c3a9d020c51f5acbc0f42e794144b68417e8be42b771efd53f7",
    ("span3_2", "transpose"): "cde2cc8381a923974945a3a926f599ae9dc0ae01f38523aafc40a198e77c6af1",
    ("span3_2", "reduction"): "dc00c12225a8d6f67962dd74c527212da3c1b688c7b05952c23bd4e9ff47c7ba",
    ("span3_2", "choi3"): "55df694da7d7a815119b31cd0d7fb90f033e771ab140263745efa3100b364a2e",
    ("span3_3", "transpose"): "2d09b0e160950a72171865044f00552fc7df119aeec2d8cdfcd8965a05458f02",
    ("span3_3", "reduction"): "57a23e3243faaaaa354ea724a902bc900fc457e17e8fd3a9a9f3a1032329b2ee",
    ("span3_3", "choi3"): "1498adbe7af199ffe01883ae4916a59485e72af014263bb492e889115559a3ae",
}


@pytest.mark.parametrize(("family", "witness"), list(REPORT_SHA256))
def test_witness_reports_are_pinned(tmp_path, family, witness):
    out = tmp_path / "r.jsonl"
    argv = ["witness", "--family", family, "--witness", witness,
            "--trials", "9", "--seed", "11", "--out", str(out)]
    if family in BLOCKS:
        argv += ["--blocks", str(BLOCKS[family])]
    assert cli.main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REPORT_SHA256[(family, witness)]
