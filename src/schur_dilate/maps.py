"""Linear maps on matrix algebras and the positive-map inequality harness.

Maps are stored by their action on column-stacked vectorizations:
``vec`` stacks columns, so ``vec(A X B) = (B^T kron A) vec(X)`` and a map
``X -> sum_i A_i X B_i*`` has action matrix ``sum_i conj(B_i) kron A_i``.

The builtin catalog holds the standard positive, non-completely-positive
witnesses: the transpose map, the reduction map ``X -> tr(X) I - X``, and
the Choi map on 3 x 3 matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .contraction import defects
from .errors import DimensionMismatch, NotUnital, UnknownName
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    _as_stack,
    as_matrix,
    dagger,
    hermitian_part,
    opnorm,
)
from .sampling import (
    random_contraction,
    random_hermitian,
    random_normal_contraction,
    rng_from_seed,
)


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return x.T.reshape(-1)


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    return v.reshape(cols, rows).T


@dataclass(frozen=True)
class MatrixLinearMap:
    """Linear map C^{n x n} -> C^{m x m} stored as an action matrix ``A``.

    ``positive_declared`` is a trusted flag: positivity of an arbitrary map
    is not decided here, only asserted by the catalog or the caller.  The
    other flags are identities of ``A`` within ``DEFAULT_TOL`` entrywise:
    ``A.reshape(m, m, n, n)`` equals its (1, 0, 3, 2)-transposed conjugate
    (hermiticity preserving), ``A vec(I_n) = vec(I_m)`` (unital) and
    ``vec(I_m)^T A = vec(I_n)^T`` (trace preserving).
    """

    in_dim: int
    out_dim: int
    action: np.ndarray
    positive_declared: bool = False
    hermiticity_preserving: bool = field(init=False)
    unital: bool = field(init=False)
    trace_preserving: bool = field(init=False)

    def __post_init__(self):
        n, m = self.in_dim, self.out_dim
        a = np.array(self.action, dtype=complex)
        if a.shape != (m ** 2, n ** 2):
            raise DimensionMismatch(f"action must be {m ** 2} x {n ** 2}, got {a.shape}")
        a.setflags(write=False)
        c = a.reshape(m, m, n, n)
        eye_in, eye_out = vec(np.eye(n)), vec(np.eye(m))
        flags = {
            "hermiticity_preserving": c - c.transpose(1, 0, 3, 2).conj(),
            "unital": a @ eye_in - eye_out,
            "trace_preserving": eye_out @ a - eye_in,
        }
        for name, residual in flags.items():
            object.__setattr__(self, name,
                               bool(np.abs(residual).max(initial=0.0) <= DEFAULT_TOL.psd_tol))
        object.__setattr__(self, "action", a)

    def apply(self, x) -> np.ndarray:
        x = as_matrix(x)
        if x.shape != (self.in_dim, self.in_dim):
            raise DimensionMismatch(
                f"input must be {self.in_dim} x {self.in_dim}, got {x.shape}")
        return unvec(self.action @ vec(x), self.out_dim, self.out_dim)

    def __call__(self, x) -> np.ndarray:
        return self.apply(x)


def map_from_kraus_pairs(pairs, positive_declared: bool = False) -> MatrixLinearMap:
    """Map X -> sum_i A_i X B_i* from a list of (A_i, B_i) pairs."""
    pairs = [(as_matrix(a, "A"), as_matrix(b, "B")) for a, b in pairs]
    if not pairs:
        raise ValueError("at least one Kraus pair required")
    m, n = pairs[0][0].shape
    for a, b in pairs:
        if a.shape != (m, n) or b.shape != (m, n):
            raise DimensionMismatch("all Kraus pairs must share one shape")
    action = sum(np.kron(b.conj(), a) for a, b in pairs)
    return MatrixLinearMap(n, m, action, positive_declared=positive_declared)


def map_from_function(fn, in_dim: int, out_dim: int,
                      positive_declared: bool = False) -> MatrixLinearMap:
    """Build the action matrix of a linear map by applying it to matrix units."""
    cols = []
    for j in range(in_dim):
        for i in range(in_dim):
            e = np.zeros((in_dim, in_dim), dtype=complex)
            e[i, j] = 1.0
            cols.append(vec(as_matrix(fn(e))))
    return MatrixLinearMap(in_dim, out_dim, np.column_stack(cols),
                           positive_declared=positive_declared)


def _choi3(x: np.ndarray) -> np.ndarray:
    """Choi map on 3 x 3 matrices: positive, not 2-positive, not decomposable."""
    d = np.diag(x)
    out = -x.astype(complex).copy()
    out[0, 0] += 2 * d[0] + d[1]
    out[1, 1] += 2 * d[1] + d[2]
    out[2, 2] += 2 * d[2] + d[0]
    return out


WITNESS_NAMES = ("transpose", "reduction", "choi3")


def builtin_witness(name: str, dim: int = 3) -> MatrixLinearMap:
    """Catalog of positive but not completely positive maps.

    ``transpose`` and ``reduction`` take any dimension; ``choi3`` is fixed
    at 3 x 3 (requesting another dimension is an error).
    """
    if name == "transpose":
        return map_from_function(lambda x: x.T, dim, dim, positive_declared=True)
    if name == "reduction":
        return map_from_function(
            lambda x: np.trace(x) * np.eye(dim) - x, dim, dim, positive_declared=True)
    if name == "choi3":
        if dim != 3:
            raise UnknownName("choi3 is defined on 3 x 3 matrices only")
        return map_from_function(_choi3, 3, 3, positive_declared=True)
    raise UnknownName(f"no builtin witness named {name!r}")


def unital_witness(name: str, dim: int = 3) -> MatrixLinearMap:
    """Unital rescalings of the catalog, for the inequality suite.

    Every catalog map sends I to a multiple ``phi(I)[0, 0]`` of I: 1 for the
    transpose, ``dim - 1`` for the reduction map and 2 for the Choi map.
    """
    if name == "reduction" and dim < 2:
        raise UnknownName("unital reduction needs dim >= 2")
    phi = builtin_witness(name, dim)
    scale = phi.apply(np.eye(phi.in_dim))[0, 0].real
    return MatrixLinearMap(phi.in_dim, phi.out_dim, phi.action / scale,
                           positive_declared=True)


def apply_blockwise(phi: MatrixLinearMap, a, block_count: int) -> np.ndarray:
    """Action of I_k (x) phi: apply phi to every n x n block of a.

    One reshape lays the blocks out as the rows of a k^2 x n^2 matrix ``v``,
    row ``i k + j`` holding ``vec`` of block (i, j) (column stacking), so
    the single matmul ``v @ phi.action.T`` gives every ``vec(phi(block))``
    at once; a second reshape puts them back as m x m blocks.  The matmul
    may sum a row's terms in another order than ``phi.apply`` does, so the
    two can differ in the last bits where a row has three or more nonzero
    terms (the reduction map from dimension 4 up).  ``a`` may be a stack
    ``(T, kn, kn)``: the 3-D matmul then takes one product of the 2-D
    call's shape per matrix, so each output is bit-identical to the call
    on its matrix alone.
    """
    a = _as_stack(a)
    k, n, m = block_count, phi.in_dim, phi.out_dim
    if a.shape[-2:] != (k * n, k * n):
        raise DimensionMismatch(
            f"expected {k}x{k} blocks of side {n}, got matrix shape {a.shape}")
    lead = a.shape[:-2]
    d = len(lead)
    v = a.reshape(lead + (k, n, k, n)).transpose(*range(d), d, d + 2, d + 3, d + 1)
    out = v.reshape(lead + (k * k, n * n)) @ phi.action.T
    out = out.reshape(lead + (k, k, m, m)).transpose(*range(d), d, d + 3, d + 1, d + 2)
    return out.reshape(lead + (k * m, k * m))


@dataclass(frozen=True)
class InequalityReport:
    """Worst margins over the randomized positive-map inequality checks.

    Eigenvalue entries record the most negative minimum eigenvalue seen
    (0 means every difference was PSD); ``norm_excess`` records the worst
    value of ||phi(contraction)|| - 1.
    """

    trials: int
    norm_excess: float
    kadison: float
    product_left: float
    product_right: float
    defect_star_bound: float
    defect_bound: float
    failures: dict = field(default_factory=dict)

    def worst_eigenvalue(self) -> float:
        return min(self.kadison, self.product_left, self.product_right,
                   self.defect_star_bound, self.defect_bound)


def positivity_inequality_suite(phi: MatrixLinearMap, trials: int,
                                seed: int = 0,
                                tol: Tolerances = DEFAULT_TOL) -> InequalityReport:
    """Randomized checks of the norm and operator inequalities a unital
    positive map must satisfy.

    Per trial: ||phi(G)|| <= 1 for a contraction G; phi(S^2) >= phi(S)^2
    for Hermitian S; phi(A*A) >= phi(A*)phi(A) and phi(A*A) >= phi(A)phi(A*)
    for normal A; and both defect-type bounds
    I - phi(G*G) - phi(D_{G*})^2 >= 0, I - phi(G*G) - phi(D_G)^2 >= 0
    for normal contractions G.
    """
    if not phi.unital:
        raise NotUnital("inequality suite requires a unital map")
    if not phi.positive_declared:
        raise NotUnital("inequality suite requires a positive-declared map")
    rng = rng_from_seed(seed)
    n, m = phi.in_dim, phi.out_dim
    eye_m = np.eye(m)
    norm_excess = -np.inf
    worst = {"kadison": np.inf, "product_left": np.inf, "product_right": np.inf,
             "defect_star_bound": np.inf, "defect_bound": np.inf}

    def min_eig(x):
        return float(np.linalg.eigvalsh(hermitian_part(x))[0])

    for _ in range(trials):
        g = random_contraction(rng, n, n)
        norm_excess = max(norm_excess, opnorm(phi.apply(g)) - 1.0)

        s = random_hermitian(rng, n)
        fs = phi.apply(s)
        worst["kadison"] = min(worst["kadison"], min_eig(phi.apply(s @ s) - fs @ fs))

        a = random_normal_contraction(rng, n) * rng.uniform(0.5, 2.0)
        fa = phi.apply(a)
        fas = phi.apply(dagger(a))
        faa = phi.apply(dagger(a) @ a)
        worst["product_left"] = min(worst["product_left"], min_eig(faa - fas @ fa))
        worst["product_right"] = min(worst["product_right"], min_eig(faa - fa @ fas))

        g = random_normal_contraction(rng, n)
        fgg = phi.apply(dagger(g) @ g)
        pair = defects(g, tol)
        fds = phi.apply(pair.d_t_star)
        fd = phi.apply(pair.d_t)
        worst["defect_star_bound"] = min(worst["defect_star_bound"],
                                         min_eig(eye_m - fgg - fds @ fds))
        worst["defect_bound"] = min(worst["defect_bound"],
                                    min_eig(eye_m - fgg - fd @ fd))

    slack = tol.psd_tol
    failures = {k: v for k, v in worst.items() if v < -slack}
    if norm_excess > slack:
        failures["norm_excess"] = norm_excess
    return InequalityReport(trials=trials, norm_excess=float(norm_excess),
                            **{k: float(v) for k, v in worst.items()}, failures=failures)
