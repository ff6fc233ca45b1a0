"""Constructive dilations: POVM -> PVM completion and unitary channel models.

A rank-one POVM with effects ``v_i v_i*`` summing to the identity packs
its vectors into ``M = [v_1 ... v_n]`` with ``M M* = I``, so the codomain
defect vanishes and the Julia completion

    U = [[M, 0], [D_M, -M*]]

is available without further computation.  The projectors onto the
columns of ``U`` form a PVM whose first ``n`` members compress onto the
original effects.

A trace-preserving Kraus family stacks into a column isometry
``T = [E_1; ...; E_r]`` (domain defect zero), whose Julia completion is
the unitary model of the channel on system + ancilla: conjugate the
embedded input by ``U`` and trace out the ancilla (the first, slow tensor
factor) to recover ``sum_i E_i rho E_i*``.  Both completions carry the
freedom ``diag(I, U_1) . U . diag(I, U_2)``; the freedom never touches the
first block column, so simulated outputs and compressions are invariant
under it.  Up to an adjoint (``julia(T)* = julia(T*)``, with ``T = M*`` for
the POVM) both complete an isometry ``V``, whose defects ``D_V = 0`` and
``D_V* = I - VV*`` need no SVD: ``_isometry_julia`` builds both.

Checks stay below the cost of the completion itself: ``channel_simulate``
reads only ``U[:, :n]`` (O(k n^2) per state), and ``povm_verify`` takes
its projector norms from one Gram matrix ``U*U`` instead of the k^2
products ``F_i F_j`` of the definitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .contraction import CLIP_SLACK, with_freedom
from .contraction import defect_star  # noqa: F401 - bench/selftest.py looks it up here
from .errors import (
    DimensionMismatch,
    EffectsNotRankOne,
    NotContraction,
    NotResolution,
    NotState,
    NotTracePreserving,
    PaddingTooSmall,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    _as_stack,
    as_matrix,
    check_unitary,
    dagger,
    frob,
    herm_eig,
    hermitian_part,
    is_psd,
    sqrt_psd,
    zero_level,
)


def _isometry_julia(v: np.ndarray, size: int) -> np.ndarray:
    """Julia unitary ``[[V, I - VV*], [0, -V*]]`` of an r x n isometry V
    (``V*V = I``, so ``D_V = 0`` and ``D_V*`` is the projection ``I - VV*``),
    followed by an identity block up to ``size``."""
    r, n = v.shape
    k0 = r + n
    u = np.zeros((size, size), dtype=complex)
    u[:r, :n] = v
    u[:r, n:k0] = np.eye(r) - v @ dagger(v)
    u[r:k0, n:k0] = -dagger(v)
    u[k0:, k0:] = np.eye(size - k0)
    return u


def _apply_freedom(u: np.ndarray, freedom, p: int, q: int, tol: Tolerances):
    """Check ``freedom = (U1, U2)`` (p- and q-square unitaries within
    ``tol.psd_tol``, never looser than the result's ``CLIP_SLACK``) and apply
    ``diag(I, U1) . u . diag(I, U2)`` in place; returns the checked pair."""
    if freedom is None:
        return None
    checked = tuple(as_matrix(f, name) for f, name in zip(freedom, ("U1", "U2")))
    for f, side, name in zip(checked, (p, q), ("U1", "U2")):
        if f.shape != (side, side):
            raise DimensionMismatch(f"{name} must be {side} x {side}, got {f.shape}")
        check_unitary(f, min(tol.psd_tol, CLIP_SLACK), name)
    with_freedom(u, *checked)
    return checked


@dataclass(frozen=True)
class Povm:
    """Finite POVM on C^dim, its effects PSD and summing to I within
    ``DEFAULT_TOL``; ``vectors`` present when all effects are rank one."""

    dim: int
    effects: tuple[np.ndarray, ...]
    vectors: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        effects = tuple(np.array(e, dtype=complex) for e in self.effects)
        for e in effects:
            if e.shape != (self.dim, self.dim):
                raise DimensionMismatch(
                    f"effect shape {e.shape} differs from dim {self.dim}")
        # one stacked eigvalsh for all the effects
        if effects and not all(is_psd(np.stack(effects))):
            raise NotResolution("every effect must be PSD")
        for e in effects:
            e.setflags(write=False)
        total = sum(effects)
        if np.abs(total - np.eye(self.dim)).max() > DEFAULT_TOL.psd_tol:
            raise NotResolution("effects do not sum to the identity")
        object.__setattr__(self, "effects", effects)
        if self.vectors is not None:
            vs = tuple(np.array(v, dtype=complex).reshape(-1) for v in self.vectors)
            if len(vs) != len(effects) or any(v.shape != (self.dim,) for v in vs):
                raise DimensionMismatch("one length-dim vector per effect required")
            for v in vs:
                v.setflags(write=False)
            object.__setattr__(self, "vectors", vs)

    @classmethod
    def from_vectors(cls, vectors) -> "Povm":
        vs = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
        if not vs:
            raise ValueError("at least one effect required")
        dim = vs[0].shape[0]
        effects = [np.outer(v, v.conj()) for v in vs]
        return cls(dim=dim, effects=tuple(effects), vectors=tuple(vs))

    @classmethod
    def from_effects(cls, effects, tol: Tolerances = DEFAULT_TOL) -> "Povm":
        """Build from effects, extracting vectors when every effect is rank
        one: its second eigenvalue at most ``zero_level`` of its largest."""
        effects = [as_matrix(e, "effect") for e in effects]
        if not effects:
            raise ValueError("at least one effect required")
        dim = effects[0].shape[0]
        vectors = []
        for e in effects:
            w, v = herm_eig(e, tol)
            if w.size > 1 and w[1] > zero_level(np.abs(w).max(), tol):
                vectors = None
                break
            vectors.append(v[:, 0] * np.sqrt(max(w[0], 0.0)))
        return cls(dim=dim, effects=tuple(effects),
                   vectors=None if vectors is None else tuple(vectors))

    @property
    def outcomes(self) -> int:
        return len(self.effects)


@dataclass(frozen=True)
class KrausChannel:
    """Kraus family E_i : C^in_dim -> C^out_dim, trace non-increasing within
    ``DEFAULT_TOL``; ``gram`` is ``sum E_i* E_i``, computed once."""

    in_dim: int
    out_dim: int
    kraus: tuple[np.ndarray, ...]
    gram: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ops = tuple(np.array(e, dtype=complex) for e in self.kraus)
        if not ops:
            raise ValueError("at least one Kraus operator required")
        for e in ops:
            if e.shape != (self.out_dim, self.in_dim):
                raise DimensionMismatch(
                    f"Kraus shape {e.shape}, expected {(self.out_dim, self.in_dim)}")
            e.setflags(write=False)
        gram = sum(dagger(e) @ e for e in ops)
        w = np.linalg.eigvalsh(hermitian_part(gram))
        if w.size and w.max() > 1.0 + DEFAULT_TOL.psd_tol:
            raise NotContraction(
                f"sum E*E has eigenvalue {w.max():.12f} > 1: trace increasing")
        gram.setflags(write=False)
        object.__setattr__(self, "kraus", ops)
        object.__setattr__(self, "gram", gram)

    @property
    def trace_preserving(self) -> bool:
        return bool(np.abs(self.gram - np.eye(self.in_dim)).max() <= DEFAULT_TOL.psd_tol)

    def apply(self, rho) -> np.ndarray:
        """Direct Kraus-sum action, the oracle the dilation is checked against.

        ``rho`` may be a stack ``(T, n, n)`` of states: one product pair per
        Kraus operator acts on all of them, and each output is bit-identical
        to the call on its state alone.
        """
        rho = _as_stack(rho, "rho")
        return sum(e @ rho @ dagger(e) for e in self.kraus)


@dataclass(frozen=True)
class DilationResult:
    """Unitary completion together with its embedding bookkeeping.

    ``system_span`` is the half-open index range of the original space
    inside C^k.  For channels, the total dimension is
    ``out_dim * ancilla_dim`` and ``absorbing_blocks`` lists the ancilla
    block rows added to restore trace preservation (empty if none).
    ``unitarity`` is ``||U*U - I||_F``, computed once on construction and
    bounded by ``CLIP_SLACK * max(1, k)``.
    """

    kind: str  # "povm" | "channel"
    unitary: np.ndarray
    system_span: tuple[int, int]
    ancilla_dim: int
    freedom: tuple[np.ndarray, np.ndarray] | None = None
    out_dim: int | None = None
    kraus_count: int | None = None
    absorbing_blocks: tuple[int, ...] = ()
    unitarity: float = field(init=False, compare=False)

    def __post_init__(self):
        u = np.array(self.unitary, dtype=complex)
        deviation = check_unitary(u, CLIP_SLACK, "dilation result")
        u.setflags(write=False)
        object.__setattr__(self, "unitary", u)
        object.__setattr__(self, "unitarity", deviation)

    @property
    def total_dim(self) -> int:
        return self.unitary.shape[0]


def povm_dilate(povm: Povm, freedom=None, tol: Tolerances = DEFAULT_TOL) -> DilationResult:
    """Complete a rank-one POVM to a PVM on C^(m+n) via the Julia unitary.

    The system occupies the first m coordinates; projectors onto the first
    n columns compress onto the effects, the remaining m columns compress
    to zero.
    """
    if povm.vectors is None:
        raise EffectsNotRankOne("dilation needs rank-one effects with vectors")
    m = povm.dim
    n = povm.outcomes
    mm = np.column_stack(povm.vectors)
    if np.abs(mm @ dagger(mm) - np.eye(m)).max() > tol.psd_tol:
        raise NotResolution("vectors do not resolve the identity")
    u = dagger(_isometry_julia(dagger(mm), m + n))  # [[M, 0], [I - M*M, -M*]]
    applied = _apply_freedom(u, freedom, n, m, tol)
    return DilationResult(kind="povm", unitary=u, system_span=(0, m),
                          ancilla_dim=n, freedom=applied)


def povm_projectors(result) -> list[np.ndarray]:
    """Rank-one projectors onto the columns of the dilation unitary.

    Accepts a ``DilationResult`` or a bare (possibly corrupted) matrix, so
    verification can report on candidates that fail the unitarity invariant.
    """
    u = result.unitary if isinstance(result, DilationResult) else as_matrix(result)
    return [np.outer(u[:, i], u[:, i].conj()) for i in range(u.shape[1])]


@dataclass(frozen=True)
class PovmVerification:
    """Worst deviations of the dilated PVM from its defining properties."""

    completeness: float      # || sum_i F_i - I ||_F
    idempotency: float       # max_i || F_i^2 - F_i ||_F
    orthogonality: float     # max_{i != j} || F_i F_j ||_F
    compression: float       # max_i<n || P F_i P - E_i ||  (entrywise)
    extra_compression: float  # max_i>=n || P F_i P ||      (entrywise)
    passed: bool


def povm_verify(result, povm: Povm, tol: Tolerances = DEFAULT_TOL) -> PovmVerification:
    """Report-only check of the PVM and compression properties.

    The PVM properties pass within ``CLIP_SLACK``, like every dilation
    unitary, and the compressions within ``tol.psd_tol``.

    Every ``F_i = u_i u_i*`` is rank one, so for any matrix ``U`` (unitary
    or not) the projector norms reduce to its Gram matrix ``G = U*U``:
    ``sum_i F_i = U U*``, ``||F_i^2 - F_i||_F = |G_ii - 1| G_ii`` and
    ``||F_i F_j||_F = |G_ij| sqrt(G_ii G_jj)``.  That is two k^3 products
    in place of the k^2 projector products of the definitions; the
    compressions are the outer products of the columns of ``U[:m, :]``.
    """
    m = povm.dim
    n = povm.outcomes
    u = result.unitary if isinstance(result, DilationResult) else as_matrix(result)
    completeness = frob(u @ dagger(u) - np.eye(u.shape[0]))
    gram = dagger(u) @ u
    sq = gram.diagonal().real  # ||u_i||^2
    idem = float(np.max(np.abs(sq - 1.0) * sq))
    norms = np.sqrt(sq)
    ortho = float(np.triu(np.abs(gram) * np.outer(norms, norms), 1).max())
    top = u[:m, :].T
    compressed = top[:, :, None] * top.conj()[:, None, :]  # P F_i P, one per column
    compression = float(np.abs(compressed[:n] - np.array(povm.effects)).max())
    extra = float(np.abs(compressed[n:]).max(initial=0.0))
    passed = (all(x <= CLIP_SLACK for x in (completeness, idem, ortho))
              and all(x <= tol.psd_tol for x in (compression, extra)))
    return PovmVerification(completeness=completeness, idempotency=idem,
                            orthogonality=ortho, compression=compression,
                            extra_compression=extra, passed=passed)


def channel_dilate(ch: KrausChannel, freedom=None, pad_to_ancilla: int | None = None,
                   tol: Tolerances = DEFAULT_TOL,
                   allow_trace_decreasing: bool = False) -> DilationResult:
    """Unitary model of a quantum operation on system (x) ancilla.

    The Kraus stack T is a column isometry, so the Julia completion has an
    exactly vanishing lower-left block.  The total dimension is padded by
    an identity direct sum (appended at the end, keeping the embedding
    stable) up to ``out_dim * ancilla_dim``; ``pad_to_ancilla`` picks a
    larger ancilla than the minimal one.

    Trace-decreasing channels are refused unless ``allow_trace_decreasing``
    is set; then the rows of ``(I - T*T)^(1/2)`` and zero rows up to a
    multiple of ``out_dim`` complete the stack to an isometry.  They form
    its last ``ceil(in_dim / out_dim)`` blocks, the ``absorbing_blocks``.
    """
    n, m = ch.in_dim, ch.out_dim
    ops = list(ch.kraus)
    absorbing: tuple[int, ...] = ()
    if not ch.trace_preserving:
        if not allow_trace_decreasing:
            raise NotTracePreserving("sum E*E != I; pass allow_trace_decreasing=True "
                                     "to dilate with absorbing outcomes")
        absorbing = tuple(range(len(ops), len(ops) - (-n // m)))
        deficit = np.eye(n) - ch.gram
        ops += [sqrt_psd(deficit, tol), np.zeros((-n % m, n))]
    t = np.vstack(ops)
    rm = t.shape[0]
    k0 = rm + n
    minimal = -(-k0 // m)  # ceil
    ancilla = minimal if pad_to_ancilla is None else int(pad_to_ancilla)
    if ancilla * m < k0:
        raise PaddingTooSmall(
            f"ancilla dim {ancilla} gives total {ancilla * m} < minimal {k0}")
    u = _isometry_julia(t, ancilla * m)
    applied = _apply_freedom(u[:k0, :k0], freedom, n, rm, tol)
    return DilationResult(kind="channel", unitary=u, system_span=(0, n),
                          ancilla_dim=ancilla, freedom=applied, out_dim=m,
                          kraus_count=len(ch.kraus), absorbing_blocks=absorbing)


def channel_simulate(result: DilationResult, rho,
                     tol: Tolerances = DEFAULT_TOL,
                     include_absorbing: bool = True) -> np.ndarray:
    """Push a state through the dilation and trace out the ancilla.

    Embedding ``e_0 e_0* (x) rho`` (the input occupies the leading system
    coordinates), conjugating by the dilation unitary and summing the
    diagonal out_dim blocks gives ``sum_b V_b rho V_b*``, with ``V_b`` the
    out_dim x n blocks of ``U[:, :n]``; only those are read, so a call
    costs O(k n^2) instead of the O(k^3) of the full conjugation.
    Excluding the absorbing blocks reproduces the original
    trace-decreasing map.  ``rho`` may be a stack ``(T, n, n)`` of states:
    one stacked ``is_psd`` then checks them all, and each output is
    bit-identical to the call on its state alone.
    """
    if result.kind != "channel":
        raise ValueError("channel_simulate needs a channel dilation")
    n = result.system_span[1] - result.system_span[0]
    m = result.out_dim
    states = _as_stack(rho, "rho")
    if states.shape[-2:] != (n, n):
        raise DimensionMismatch(f"state must be {n} x {n}, got {states.shape}")
    checks = is_psd(states, tol)
    for check in checks if states.ndim == 3 else [checks]:
        if not check:
            raise NotState(f"state has eigenvalue {check.min_eigenvalue:.3e}")
    if (np.trace(states, axis1=-2, axis2=-1).real > 1.0 + tol.psd_tol).any():
        raise NotState("state trace exceeds 1")
    q = result.total_dim // m
    v = result.unitary[:q * m, :n].reshape(q, m, n)  # V_b = block row b of U's first columns
    if not include_absorbing:
        v = v[np.setdiff1d(np.arange(q), result.absorbing_blocks)]
    outs = [np.tensordot(v @ r, v.conj(), axes=([0, 2], [0, 2]))
            for r in states.reshape(-1, n, n)]
    return np.stack(outs) if states.ndim == 3 else outs[0]
