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

``build_*`` functions assemble a family member from explicit ingredients;
``gen_family`` draws the ingredients from a seeded generator.  Samples are
deterministic in the seed, and the structural zeros / equal blocks hold
exactly (bit-identical), not merely within tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contraction import defect_star
from .errors import NotPSD, UnsupportedCombination
from .linalg import (
    DEFAULT_TOL,
    PsdResult,
    Tolerances,
    as_matrix,
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
    """[[T, S], [S*, T]] with S = T^(1/2) G T^(1/2)."""
    root = sqrt_psd(t, tol)
    s = root @ np.asarray(g, dtype=complex) @ root
    return np.block([[t, s], [dagger(s), t]])


def build_subnormal3(t, g, coupling_first: bool = True,
                     tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Three-block family coupled through a normal contraction and its defect."""
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


def build_arrow(t, r, couplings, first: bool = True) -> np.ndarray:
    """Arrow pattern from explicit Hermitian couplings (not positivity-checked)."""
    t = np.asarray(t, dtype=complex)
    r = np.asarray(r, dtype=complex)
    couplings = [np.asarray(s, dtype=complex) for s in couplings]
    k = len(couplings) + 1
    n = t.shape[0]
    hub, spokes = (k - 1, range(k - 1)) if first else (0, range(1, k))
    out = np.zeros((k * n, k * n), dtype=complex)

    def block(i, j):
        return slice(i * n, (i + 1) * n), slice(j * n, (j + 1) * n)

    out[block(hub, hub)] = r if first else t
    for i, s in zip(spokes, couplings):
        out[block(i, i)] = t if first else r
        out[block(i, hub)] = s
        out[block(hub, i)] = s
    return out


def build_span3(a, b, c, pattern: str) -> np.ndarray:
    """A (x) uu* + B (x) (uw* + wu*) + C (x) ww* for one pattern frame.

    Positive exactly when [[|u|^2 A, |u||w| B], [|u||w| B, |w|^2 C]] is PSD
    and A, B, C are Hermitian (B Hermitian is what keeps each block inside
    the complex span of the pattern).
    """
    u, w = SPAN_FRAMES[pattern]
    terms = [as_matrix(x) for x in (a, b, c)]
    frames = (np.outer(u, u), np.outer(u, w) + np.outer(w, u), np.outer(w, w))
    rows, cols = terms[0].shape
    out = np.empty((rows, 3, cols, 3), dtype=complex)
    for live, frame in enumerate(frames):
        # The frames are 0/1 with disjoint supports, so each entry of the
        # kron sum has one live term; computing x * 1 + y * 0 + z * 0 in the
        # sum's own order keeps its signed zeros.
        weights = [1 + 0j if i == live else 0j for i in range(3)]
        tile = terms[0] * weights[0] + terms[1] * weights[1] + terms[2] * weights[2]
        for p, q in zip(*np.nonzero(frame)):
            out[:, p, :, q] = tile
    return out.reshape(3 * rows, 3 * cols)


def _gen_arrow(rng, n, k, tol, first):
    """Couplings start Hermitian-projected and shrink until the exact test passes.

    Symmetrizing T^(1/2) G R^(1/2) can lose positivity, so rejection
    halves the couplings; the block-diagonal limit is PSD, hence
    termination.  The matrix is built once: each rejection halves the
    hub's off-diagonal strips in place, which is exact in binary floating
    point, so every attempt sees the matrix a rebuild from the halved
    couplings would give.
    """
    if k < 2:
        raise UnsupportedCombination("arrow families need at least 2 blocks")
    t = random_psd(rng, n)
    r = random_psd(rng, n)
    rt, rr = sqrt_psd(t, tol), sqrt_psd(r, tol)
    couplings = [
        hermitian_part(rt @ random_contraction(rng, n, n) @ rr) / np.sqrt(k - 1)
        for _ in range(k - 1)
    ]
    a = build_arrow(t, r, couplings, first)
    hub = slice((k - 1) * n, k * n) if first else slice(0, n)
    spokes = slice(0, (k - 1) * n) if first else slice(n, k * n)
    for _ in range(80):
        if is_psd(a, tol):
            return a
        a[hub, spokes] /= 2
        a[spokes, hub] /= 2
    raise NotPSD("arrow sample rejected repeatedly")  # pragma: no cover


def _gen_span3(rng, k, name):
    """Spectral shift on the compressed 2k x 2k matrix lands the draw in the cone."""
    u, w = SPAN_FRAMES[name]
    nu = float(u @ u)
    nw = float(w @ w)
    a = random_hermitian(rng, k)
    b = random_hermitian(rng, k)
    c = random_hermitian(rng, k)
    cross = np.sqrt(nu * nw)
    compressed = np.block([[nu * a, cross * b], [cross * b, nw * c]])
    lam = float(np.linalg.eigvalsh(hermitian_part(compressed))[0])
    shift = max(0.0, 1e-6 - lam)
    a = a + (shift / nu) * np.eye(k)
    c = c + (shift / nw) * np.eye(k)
    return build_span3(a, b, c, name)


def gen_family(family: str, block_dim: int, seed: int,
               tol: Tolerances = DEFAULT_TOL,
               block_count: int | None = None) -> StateFamilySample:
    """Draw one seeded sample of a structured family.

    ``block_count`` applies to the variable-size families (arrow, span);
    the others fix it.  ``None`` selects the default size (3 arrow, 2 span
    blocks).  span families fix ``block_dim`` = 3.
    """
    if block_count is not None and block_count < 1:
        raise UnsupportedCombination(f"block_count must be positive, got {block_count}")
    rng = rng_from_seed(seed)
    if family == "toeplitz2":
        matrix = build_toeplitz2(random_psd(rng, block_dim),
                                 random_contraction(rng, block_dim, block_dim), tol)
        k = 2
    elif family in ("subnormal3_i", "subnormal3_ii"):
        matrix = build_subnormal3(random_psd(rng, block_dim),
                                  random_normal_contraction(rng, block_dim),
                                  coupling_first=family == "subnormal3_i",
                                  tol=tol)
        k = 3
    elif family in ("arrow_first", "arrow_second"):
        k = 3 if block_count is None else block_count
        matrix = _gen_arrow(rng, block_dim, k, tol, first=family == "arrow_first")
    elif family in SPAN_FRAMES:
        if block_dim != 3:
            raise UnsupportedCombination(f"{family} fixes block_dim = 3")
        k = 2 if block_count is None else block_count
        matrix = _gen_span3(rng, k, family)
    else:
        raise UnsupportedCombination(f"unknown family {family!r}")
    return StateFamilySample(family=family, matrix=matrix, block_dim=block_dim,
                             block_count=k, seed=seed)


@dataclass(frozen=True)
class WitnessCheck:
    passed: bool
    min_eig: float


def witness_check(phi: MatrixLinearMap, sample: StateFamilySample,
                  tol: Tolerances = DEFAULT_TOL) -> WitnessCheck:
    """Apply I_k (x) phi to the sample and test positivity of the output."""
    out = apply_blockwise(phi, sample.matrix, sample.block_count)
    res: PsdResult = is_psd(out, tol)
    return WitnessCheck(passed=res.ok, min_eig=res.min_eigenvalue)


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
