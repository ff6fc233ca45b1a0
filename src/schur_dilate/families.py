"""Generators for the structured positive-matrix families and the witness harness.

Every family below is built so that the ampliation ``I_k (x) phi`` of an
arbitrary positive map phi keeps it positive; the harness checks that
claim numerically, sample by sample.  The families:

``toeplitz2``       [[T, S], [S*, T]] with S = T^(1/2) G T^(1/2), G any
                    contraction.
``subnormal3_i``    three equal diagonal blocks T, couplings
                    S = T^(1/2) G T^(1/2) and W = T^(1/2) D_{G*} T^(1/2)
                    for a normal contraction G, zero (2,3) coupling.
``subnormal3_ii``   the mirror image with the coupling moved to (2,3).
``arrow_first``     diagonal (T, ..., T, R) with Hermitian blocks S_i on
                    the last row and column only.
``arrow_second``    diagonal (T, R, ..., R) with Hermitian S_i on the
                    first row and column only.
``span3_1/2/3``     k x k block matrices whose 3 x 3 blocks all lie in the
                    rank-two pattern span{u u*, u w* + w u*, w w*} for a
                    fixed 0/1 vector pair (u, w).

``build_*`` functions assemble a family member, or a stack of members,
from explicit ingredients; ``gen_family`` draws the ingredients from a
seeded generator.  Samples are deterministic in the seed, and the
structural zeros / equal blocks hold exactly (bit-identical), not merely
within tolerance.

The harness generates and checks trials in chunks, each a stack of
samples: every sample draws from its own seeded generator, then each
generation stage and the check make one stacked LAPACK call for the
chunk.  A seed gives the same sample bits in any chunk, and alone
(``gen_family`` is the one-seed case).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contraction import defect_star
from .errors import NotPSD, UnsupportedCombination
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    _as_stack,
    dagger,
    hermitian_part,
    is_psd,
    sqrt_psd,
)
from .maps import MatrixLinearMap, apply_blockwise
from .sampling import (
    random_contraction,
    random_hermitian,
    random_normal_contraction,
    random_psd,
    rng_from_seed,
)

FAMILY_NAMES = (
    "toeplitz2",
    "subnormal3_i",
    "subnormal3_ii",
    "arrow_first",
    "arrow_second",
    "span3_1",
    "span3_2",
    "span3_3",
)

# Pattern frames: each 3 x 3 pattern is the span of uu*, uw* + wu*, ww*.
SPAN_FRAMES = {
    "span3_1": (np.array([1.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])),
    "span3_2": (np.array([1.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0])),
    "span3_3": (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 1.0])),
}

# Least eigenvalue a span3 draw keeps after ``_gen_span3``'s spectral shift of
# its compressed 2k x 2k matrix, so that the draw lies inside the cone.
SPAN3_EIGEN_FLOOR = 1e-6


@dataclass(frozen=True)
class StateFamilySample:
    """One generated member of a structured family."""

    family: str
    matrix: np.ndarray
    block_dim: int
    block_count: int
    seed: int

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def build_toeplitz2(t, g, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """[[T, S], [S*, T]] with S = T^(1/2) G T^(1/2); of each pair, for stacks."""
    root = sqrt_psd(t, tol)
    s = root @ np.asarray(g, dtype=complex) @ root
    return np.block([[t, s], [dagger(s), t]])


def build_subnormal3(t, g, coupling_first: bool = True,
                     tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Three-block family coupled through a normal contraction and its defect.

    ``t`` and ``g`` may be stacks of matching length, giving a stack of members.
    """
    t = np.asarray(t, dtype=complex)
    root = sqrt_psd(t, tol)
    g = np.asarray(g, dtype=complex)
    s = root @ g @ root
    w = root @ defect_star(g, tol) @ root
    z = np.zeros_like(t)
    if coupling_first:
        rows = [[t, s, w], [dagger(s), t, z], [w, z, t]]
    else:
        rows = [[t, z, w], [z, t, s], [w, dagger(s), t]]
    return np.block(rows)


def _arrow_strips(k: int, n: int, first: bool) -> tuple[slice, slice]:
    """Rows (or columns) of the hub block and of the spoke blocks."""
    if first:
        return slice((k - 1) * n, k * n), slice(0, (k - 1) * n)
    return slice(0, n), slice(n, k * n)


def build_arrow(t, r, couplings, first: bool = True) -> np.ndarray:
    """Arrow pattern from explicit Hermitian couplings (not positivity-checked).

    ``t`` and ``r`` may be stacks ``(T, n, n)``, with ``couplings`` then of
    shape ``(T, k - 1, n, n)``, giving a stack of members.
    """
    t = np.asarray(t, dtype=complex)
    r = np.asarray(r, dtype=complex)
    lead, n = t.shape[:-2], t.shape[-1]
    couplings = np.asarray(couplings, dtype=complex).reshape(lead + (-1, n, n))
    k = couplings.shape[-3] + 1
    hub, spokes = _arrow_strips(k, n, first)
    out = np.zeros(lead + (k * n, k * n), dtype=complex)
    out[..., hub, hub] = r if first else t
    for i in range(k - 1):
        spoke = slice(spokes.start + i * n, spokes.start + (i + 1) * n)
        out[..., spoke, spoke] = t if first else r
        out[..., spoke, hub] = couplings[..., i, :, :]
        out[..., hub, spoke] = couplings[..., i, :, :]
    return out


def build_span3(a, b, c, pattern: str) -> np.ndarray:
    """A (x) uu* + B (x) (uw* + wu*) + C (x) ww* for one pattern frame.

    Positive exactly when [[|u|^2 A, |u||w| B], [|u||w| B, |w|^2 C]] is PSD
    and A, B, C are Hermitian (B Hermitian is what keeps each block inside
    the complex span of the pattern).  ``a``, ``b`` and ``c`` may be stacks
    of matching length, giving a stack of members.
    """
    u, w = SPAN_FRAMES[pattern]
    terms = [_as_stack(x) for x in (a, b, c)]
    frames = (np.outer(u, u), np.outer(u, w) + np.outer(w, u), np.outer(w, w))
    lead, (rows, cols) = terms[0].shape[:-2], terms[0].shape[-2:]
    out = np.empty(lead + (rows, 3, cols, 3), dtype=complex)
    for live, frame in enumerate(frames):
        # The frames are 0/1 with disjoint supports, so each entry of the
        # kron sum has one live term; computing x * 1 + y * 0 + z * 0 in the
        # sum's own order keeps its signed zeros.
        weights = [1 + 0j if i == live else 0j for i in range(3)]
        tile = terms[0] * weights[0] + terms[1] * weights[1] + terms[2] * weights[2]
        for p, q in zip(*np.nonzero(frame)):
            out[..., :, p, :, q] = tile
    return out.reshape(lead + (3 * rows, 3 * cols))


def _gen_arrow(t, r, g, tol, first):
    """Arrow stack from stacked draws: ``t``, ``r`` of shape ``(T, n, n)`` and
    the unscaled couplings ``g`` of shape ``(T, k - 1, n, n)``.

    Couplings start Hermitian-projected and shrink until the exact test
    passes.  Symmetrizing T^(1/2) G R^(1/2) can lose positivity, so
    rejection halves the couplings; the block-diagonal limit is PSD, hence
    termination.  The stack is built once: each round tests the samples
    still pending with one stacked ``is_psd`` and halves the hub strips of
    the rejected ones in place, which is exact in binary floating point, so
    every attempt sees the matrix a rebuild from the halved couplings would
    give.
    """
    count, k, n = len(t), g.shape[1] + 1, t.shape[-1]
    roots = sqrt_psd(np.concatenate((t, r)), tol)
    rt, rr = roots[:count, np.newaxis], roots[count:, np.newaxis]
    a = build_arrow(t, r, hermitian_part(rt @ g @ rr) / np.sqrt(k - 1), first)
    hub, spokes = _arrow_strips(k, n, first)
    pending = np.arange(count)
    for _ in range(80):
        rejected = [not res.ok for res in is_psd(a[pending], tol)]
        pending = pending[rejected]
        if not pending.size:
            return a
        a[pending, hub, spokes] /= 2
        a[pending, spokes, hub] /= 2
    raise NotPSD("arrow sample rejected repeatedly")  # pragma: no cover


def _gen_span3(a, b, c, name):
    """Spectral shift on the compressed 2k x 2k matrices lands the draws in the cone."""
    u, w = SPAN_FRAMES[name]
    nu = float(u @ u)
    nw = float(w @ w)
    cross = np.sqrt(nu * nw)
    compressed = np.block([[nu * a, cross * b], [cross * b, nw * c]])
    lam = np.linalg.eigvalsh(hermitian_part(compressed))[:, 0]
    shift = np.maximum(0.0, SPAN3_EIGEN_FLOOR - lam)[:, np.newaxis, np.newaxis]
    eye = np.eye(a.shape[-1])
    return build_span3(a + (shift / nu) * eye, b, c + (shift / nw) * eye, name)


def _block_count(family: str, block_count: int | None) -> int:
    """Blocks per sample: fixed by the family, else ``block_count`` or the
    family's default (3 arrow, 2 span blocks)."""
    fixed = {"toeplitz2": 2, "subnormal3_i": 3, "subnormal3_ii": 3}
    if family in fixed:
        return fixed[family]
    if block_count is not None:
        return block_count
    return 3 if family.startswith("arrow") else 2


def _gen_samples(family: str, block_dim: int, seeds, tol: Tolerances = DEFAULT_TOL,
                 block_count: int | None = None) -> list[StateFamilySample]:
    """Seeded samples of one family, one per seed, generated as a stack.

    Each sample draws from its own ``rng_from_seed(seed)`` in the order of
    a lone sample.  The factorizations then run once over the stack: one
    stacked ``eigh`` for the roots, one stacked SVD for the coupling norms
    and one for the defects, one stacked ``eigvalsh`` for the span shifts
    and one per arrow rejection round.  Each sample is bit-identical to the
    one the same seed gives alone.
    """
    if block_count is not None and block_count < 1:
        raise UnsupportedCombination(f"block_count must be positive, got {block_count}")
    rngs = [rng_from_seed(seed) for seed in seeds]
    k = _block_count(family, block_count)
    n = block_dim
    # each sampler call draws once from every generator in turn, so the
    # calls below keep each generator's own draw order
    if family == "toeplitz2":
        matrices = build_toeplitz2(random_psd(rngs, n), random_contraction(rngs, n, n), tol)
    elif family in ("subnormal3_i", "subnormal3_ii"):
        t = random_psd(rngs, n)
        g = np.stack([random_normal_contraction(rng, n) for rng in rngs])
        matrices = build_subnormal3(t, g, coupling_first=family == "subnormal3_i", tol=tol)
    elif family in ("arrow_first", "arrow_second"):
        if k < 2:
            raise UnsupportedCombination("arrow families need at least 2 blocks")
        t, r = random_psd(rngs, n), random_psd(rngs, n)
        g = random_contraction([rng for rng in rngs for _ in range(k - 1)], n, n)
        matrices = _gen_arrow(t, r, g.reshape(len(rngs), k - 1, n, n), tol,
                              first=family == "arrow_first")
    elif family in SPAN_FRAMES:
        if block_dim != 3:
            raise UnsupportedCombination(f"{family} fixes block_dim = 3")
        matrices = _gen_span3(random_hermitian(rngs, k), random_hermitian(rngs, k),
                              random_hermitian(rngs, k), family)
    else:
        raise UnsupportedCombination(f"unknown family {family!r}")
    return [StateFamilySample(family=family, matrix=m, block_dim=block_dim,
                              block_count=k, seed=seed)
            for m, seed in zip(matrices, seeds)]


def gen_family(family: str, block_dim: int, seed: int,
               tol: Tolerances = DEFAULT_TOL,
               block_count: int | None = None) -> StateFamilySample:
    """Draw one seeded sample of a structured family.

    ``block_count`` applies to the variable-size families (arrow, span);
    the others fix it.  ``None`` selects the default size (3 arrow, 2 span
    blocks).  span families fix ``block_dim`` = 3.
    """
    return _gen_samples(family, block_dim, [seed], tol, block_count)[0]


@dataclass(frozen=True)
class WitnessCheck:
    passed: bool
    min_eig: float


def witness_check(phi: MatrixLinearMap, sample, tol: Tolerances = DEFAULT_TOL):
    """Apply I_k (x) phi to the sample and test positivity of the output.

    ``sample`` may also be a sequence of samples sharing one size and block
    count, checked as a stack: one ``apply_blockwise`` and one stacked
    ``is_psd`` give a list of checks, each equal to its sample's alone.
    """
    one = isinstance(sample, StateFamilySample)
    batch = [sample] if one else list(sample)
    block_counts = {s.block_count for s in batch}
    if len(block_counts) != 1:
        raise ValueError("a stack of samples needs one block count")
    out = apply_blockwise(phi, np.stack([s.matrix for s in batch]), block_counts.pop())
    checks = [WitnessCheck(passed=res.ok, min_eig=res.min_eigenvalue)
              for res in is_psd(out, tol)]
    return checks[0] if one else checks


def bell_projector() -> np.ndarray:
    """Projector onto (|00> + |11>)/sqrt(2); the canonical entangled control."""
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return np.outer(v, v.conj())


def bell_control_sample() -> StateFamilySample:
    """Bell projector packaged for the harness (expected to FAIL witnesses)."""
    return StateFamilySample(family="bell-control", matrix=bell_projector(),
                             block_dim=2, block_count=2, seed=0)


def choi_detected_state() -> np.ndarray:
    """A PPT entangled 3 (x) 3 state whose Choi-map ampliation is not PSD.

    Mixture of the maximally entangled projector with the two cyclic
    diagonal states, weighted 2/7, 15/28, 5/28; the heavier diagonal part
    sits on the coordinates the Choi map's diagonal pattern does not see,
    which keeps the partial transpose positive while the ampliation picks
    up eigenvalue about -0.0357 on the maximally entangled vector.
    """
    psi = np.zeros(9, dtype=complex)
    for i in range(3):
        psi[i * 3 + i] = 1 / np.sqrt(3)
    rho = (2 / 7) * np.outer(psi, psi.conj())
    hidden = [(0, 2), (1, 0), (2, 1)]   # |ij>, invisible to the Choi diagonal
    partner = [(2, 0), (0, 1), (1, 2)]
    for cells, weight in ((hidden, 15 / 28), (partner, 5 / 28)):
        for (i, j) in cells:
            e = np.zeros(9)
            e[i * 3 + j] = 1.0
            rho += weight / 3 * np.outer(e, e)
    return rho


def choi_control_sample() -> StateFamilySample:
    return StateFamilySample(family="choi-control", matrix=choi_detected_state(),
                             block_dim=3, block_count=3, seed=0)
