"""Span tracer installed from outside the package, at its module boundaries.

``Tracer.install`` wraps the public functions (and the public methods and
``__post_init__`` of public classes) of every package layer, plus the
``numpy.linalg`` calls beneath them as the ``lapack`` layer.  The package
binds names with ``from .x import y``, so each wrapper is patched into every
module namespace that holds the original object, not only the defining one;
otherwise calls such as ``cli.psd_parametrize`` or ``families.is_psd`` would
bypass it.  ``uninstall`` restores every patched name; installing again
rebinds the same wrappers.

A span records (name, start, end, parent span, op id, work).  Spans stay in
memory; ``summary`` derives self times (span time minus child span time),
call counts and computed flops from them, and ``save`` writes them out.
Wrappers record nothing outside ``begin_op``/``end_op``, so output checks
running between ops are not traced.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import os
import time
from collections import Counter

import numpy as np

PACKAGE = "schur_dilate"
LAYERS = ("cli", "serialize", "scparams", "contraction", "linalg",
          "dilation", "families", "maps", "sampling")
LAPACK = ("eigh", "eigvalsh", "svd", "pinv", "norm", "qr")

# Units of the per-layer metrics ``summary`` returns, each per op attempted.
UNITS = {
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    "lapack.ms": "ms",
    **{f"lapack.{fn}_calls": "count" for fn in ("eigh", "eigvalsh", "svd", "pinv", "norm2")},
    "lapack.gflop_computed": "GFLOP",
    "scparams.calls": "count",
    "contraction.defect_calls": "count",
    "contraction.solve_calls": "count",
    "contraction.clip_calls": "count",
    "linalg.herm_eig_calls": "count",
    "linalg.pinv_calls": "count",
    "linalg.is_psd_calls": "count",
    "serialize.bytes_out": "bytes",
    "serialize.bytes_in": "bytes",
    "dilation.dilate_ms": "ms",
    "dilation.simulate_ms": "ms",
    "dilation.verify_ms": "ms",
    "families.gen_ms": "ms",
    "families.gen_attempts": "1",
    "maps.apply_calls": "count",
    "maps.build_ms": "ms",
}


def _mn(a):
    shape = np.shape(a)
    m, n = (shape[-2], shape[-1]) if len(shape) >= 2 else (max(shape or (1,)), 1)
    return max(m, n), min(m, n)


def lapack_flops(name: str, args, kwargs) -> float:
    """Golub-Van Loan real flop estimates, times 4 for complex operands.

    Returns 0 for calls that do no factorization (norms other than ord=2).
    """
    m, n = _mn(args[0])
    if name == "eigh":
        f = 9.0 * n ** 3
    elif name == "eigvalsh":
        f = 4.0 / 3.0 * n ** 3
    elif name == "svd":
        if not kwargs.get("compute_uv", args[2] if len(args) > 2 else True):
            f = 4.0 * m * n * n - 4.0 / 3.0 * n ** 3
        elif kwargs.get("full_matrices", args[1] if len(args) > 1 else True):
            f = 4.0 * m * m * n + 8.0 * m * n * n + 9.0 * n ** 3
        else:
            f = 14.0 * m * n * n + 8.0 * n ** 3
    elif name == "pinv":
        f = 16.0 * m * n * n + 8.0 * n ** 3
    elif name == "norm":
        order = kwargs.get("ord", args[1] if len(args) > 1 else None)
        if order != 2 or np.ndim(args[0]) != 2:
            return 0.0
        f = 4.0 * m * n * n - 4.0 / 3.0 * n ** 3
    else:  # qr
        f = 4.0 * m * n * n - 4.0 / 3.0 * n ** 3
    return 4.0 * f if np.iscomplexobj(args[0]) else f


def _file_size(path) -> float:
    try:
        return float(os.path.getsize(path))
    except (OSError, TypeError):
        return 0.0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        # one span per index across these compact columns
        self.nid = array.array("i")
        self.parent = array.array("q")
        self.op_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.work = array.array("d")
        self.stack: list[int] = []
        self.op = -1
        self.shapes: Counter = Counter()
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording -------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op = op_id

    def end_op(self) -> None:
        self.op = -1
        self.stack.clear()

    def _wrap(self, fn, name: str, work=None):
        nid = len(self.names)
        self.names.append(name)
        stack, clock = self.stack, time.perf_counter
        nids, parents, ops, starts, ends, works = (
            self.nid, self.parent, self.op_id, self.start, self.end, self.work)

        def wrapper(*args, **kwargs):
            if self.op < 0:
                return fn(*args, **kwargs)
            idx = len(starts)
            nids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            works.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if work is not None:
                    works[idx] = work(args, kwargs)

        return functools.update_wrapper(wrapper, fn)

    def _lapack_work(self, name):
        def work(args, kwargs):
            flops = lapack_flops(name, args, kwargs)
            if name != "norm" or flops:
                label = "svd(norm2)" if name == "norm" else name
                self.shapes[(self.op, label, "x".join(map(str, np.shape(args[0]))))] += 1
            return flops
        return work

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Bind every wrapper; the wrappers are built once, on first use."""
        if not self._patches:
            self._build_patches()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def _build_patches(self) -> None:
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                   for layer in LAYERS}
        namespaces = [importlib.import_module(PACKAGE), *modules.values()]
        replace: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    work = None
                    if layer == "serialize" and attr in ("dump", "load"):
                        path_arg = 1 if attr == "dump" else 0
                        work = lambda a, k, i=path_arg: _file_size(a[i] if len(a) > i else None)
                    replace[id(obj)] = self._wrap(obj, f"{layer}.{attr}", work)
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in replace:
                    self._add_patch(ns, attr, replace[id(obj)])
        for name in LAPACK:
            fn = getattr(np.linalg, name)
            self._add_patch(np.linalg, name,
                            self._wrap(fn, f"lapack.{name}", self._lapack_work(name)))

    def _wrap_methods(self, layer, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__post_init__":
                continue
            label = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(raw):
                self._add_patch(cls, attr, self._wrap(raw, label))
            elif isinstance(raw, (classmethod, staticmethod)):
                self._add_patch(cls, attr, type(raw)(self._wrap(raw.__func__, label)))

    def _add_patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr], wrapper))

    # -- analysis --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self):
        nid = np.array(self.nid, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return nid, parent, dur, dur - child, np.array(self.op_id, dtype=np.int32), \
            np.array(self.work)

    def counts(self, op: int | None = None) -> dict:
        """Calls per span name, over all ops or one: deterministic for fixed inputs."""
        nid = np.array(self.nid, dtype=np.int32)
        if op is not None:
            nid = nid[np.array(self.op_id, dtype=np.int32) == op]
        c = Counter()
        for i, n in enumerate(np.bincount(nid, minlength=len(self.names))):
            if n:
                c[self.names[i]] += int(n)
        return dict(sorted(c.items()))

    def summary(self, n_ops: int) -> dict:
        """Per-layer metrics, each per op attempted.

        Aggregates by span-name id, so memory stays linear in the span count.
        """
        nid, parent, dur, self_t, _, work = self.arrays()
        n = len(self.names)
        calls = np.bincount(nid, minlength=n)
        self_by = np.bincount(nid, weights=self_t, minlength=n)
        dur_by = np.bincount(nid, weights=dur, minlength=n)
        work_by = np.bincount(nid, weights=work, minlength=n)

        def ids(*full):
            return [i for i, name in enumerate(self.names) if name in full]

        def in_layer(layer):
            return [i for i, name in enumerate(self.names) if name.split(".", 1)[0] == layer]

        def count(*full):
            return float(calls[ids(*full)].sum()) / n_ops

        def incl_ms(*full):
            return 1e3 * float(dur_by[ids(*full)].sum()) / n_ops

        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = 1e3 * float(self_by[in_layer(layer)].sum()) / n_ops
        lapack = in_layer("lapack")
        out["lapack.ms"] = 1e3 * float(self_by[lapack].sum()) / n_ops
        for fn in ("eigh", "eigvalsh", "svd", "pinv"):
            out[f"lapack.{fn}_calls"] = count(f"lapack.{fn}")
        norm = ids("lapack.norm")
        out["lapack.norm2_calls"] = float(np.isin(nid[work > 0], norm).sum()) / n_ops
        out["lapack.gflop_computed"] = float(work_by[lapack].sum()) / 1e9 / n_ops
        out["scparams.calls"] = float(calls[in_layer("scparams")].sum()) / n_ops
        out["contraction.defect_calls"] = count("contraction.defect", "contraction.defect_star")
        out["contraction.solve_calls"] = count("contraction.solve_contraction_factor",
                                               "contraction.solve_partial_isometry")
        out["contraction.clip_calls"] = count("contraction.clip_to_contraction")
        out["linalg.herm_eig_calls"] = count("linalg.herm_eig")
        out["linalg.pinv_calls"] = count("linalg.pinv")
        out["linalg.is_psd_calls"] = count("linalg.is_psd")
        out["serialize.bytes_out"] = float(work_by[ids("serialize.dump")].sum()) / n_ops
        out["serialize.bytes_in"] = float(work_by[ids("serialize.load")].sum()) / n_ops
        out["dilation.dilate_ms"] = incl_ms("dilation.povm_dilate", "dilation.channel_dilate")
        out["dilation.simulate_ms"] = incl_ms("dilation.channel_simulate")
        out["dilation.verify_ms"] = incl_ms("dilation.povm_verify")
        out["families.gen_ms"] = incl_ms("families.gen_family")
        out["families.gen_attempts"] = self._gen_attempts(
            nid, parent, ids("linalg.is_psd"), ids("families.gen_family"))
        out["maps.apply_calls"] = count("maps.MatrixLinearMap.apply")
        builders = ids("maps.builtin_witness", "maps.unital_witness",
                       "maps.map_from_function", "maps.map_from_kraus_pairs")
        top = np.flatnonzero(np.isin(nid, builders))
        nested = (parent[top] >= 0) & np.isin(nid[parent[top]], builders)
        out["maps.build_ms"] = 1e3 * float(dur[top[~nested]].sum()) / n_ops
        return out

    @staticmethod
    def _gen_attempts(nid, parent, test_ids, gen_ids) -> float:
        """Positivity tests per accepted sample, over samplers that test at all."""
        gen_tests: Counter = Counter()
        for idx in np.flatnonzero(np.isin(nid, test_ids)):
            p = parent[idx]
            while p >= 0 and nid[p] not in gen_ids:
                p = parent[p]
            if p >= 0:
                gen_tests[p] += 1
        return sum(gen_tests.values()) / len(gen_tests) if gen_tests else 0.0

    def save(self, path: str, op_kinds: list[str]) -> None:
        """Write every span, plus the per-op lapack shape histogram."""
        shapes = np.array([f"{op_kinds[k[0]]}|{k[1]}|{k[2]}|{v}"
                           for k, v in sorted(self.shapes.items())])
        np.savez_compressed(path, names=np.array(self.names),
                            name=np.array(self.nid, dtype=np.int32),
                            parent=np.array(self.parent, dtype=np.int64),
                            op=np.array(self.op_id, dtype=np.int32),
                            start=np.array(self.start), end=np.array(self.end),
                            work=np.array(self.work), op_kinds=np.array(op_kinds),
                            shapes=shapes)
