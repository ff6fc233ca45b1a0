"""Seeded inputs and op mixes for the three benchmark workloads.

``build(workload, seed, workdir)`` writes every input file under
``workdir/in`` and returns one pass of ops.  Inputs come from numpy's
generator seeded with ``seed`` only, so the same seed gives byte-identical
files and argument lists.  The timed loop repeats the pass, reshuffled, so
the share of each op kind is exact in every run.

Each mix is chosen so that the p50 and p90 ranks of the op times sit inside
one op kind (see ``MIX_NOTES``) rather than on the boundary between two kinds
of very different cost, where a percentile would jump between them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks
from schur_dilate.families import (
    FAMILY_NAMES,
    bell_control_sample,
    choi_control_sample,
    gen_family,
)

WORKLOADS = ("param", "dilate", "witness")
EXIT_DOMAIN = 2     # the CLI's exit code for a SchurDilateError such as NoFactor

MIX_NOTES = {
    "param": "p50 falls in psd8 (ranks 0.36-0.68 of completed ops), "
             "p90 in psd16 (0.82-1.0); the boundary slice is 3 of 23 ops",
    "dilate": "p50 falls in channel8 with freedom (0.40-0.60), "
              "p90 in channel16 (0.80-1.0)",
    "witness": "p50 falls in the arrow families (0.34-0.72), "
               "p90 in the span3 families (0.72-1.0)",
}


@dataclass
class Op:
    """One CLI invocation, its expected exit code and its output check.

    ``tolerated_rc`` is a known-failure exit code: an op ending with it counts
    as failed (it lowers ``ok_ratio``) without making the run incorrect.  Only
    the boundary slice of ``param`` has one; any other unexpected exit code is
    an error.
    """

    kind: str
    argv: list[str]
    out: str
    expect_rc: int = 0
    check: Callable[[], tuple] | None = None
    files: list[str] = field(default_factory=list)
    tolerated_rc: int | None = None


def _gauss(rng, rows, cols):
    return (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def _unitary(rng, n):
    q, r = np.linalg.qr(_gauss(rng, n, n))
    d = np.diag(r)
    return q * (d / np.abs(d))


def _contraction(rng, rows, cols, unit_values=0):
    """Contraction with ``unit_values`` singular values exactly 1, the rest in (0.1, 0.9)."""
    k = min(rows, cols)
    s = np.concatenate([np.ones(unit_values), rng.uniform(0.1, 0.9, k - unit_values)])
    u = _unitary(rng, rows)[:, :k]
    v = _unitary(rng, cols)[:, :k]
    return (u * s) @ v.conj().T


def _psd(rng, blocks, size, rank=None):
    """G*G; ``rank`` below blocks*size makes every diagonal block rank-deficient."""
    n = blocks * size
    g = _gauss(rng, 2 * n if rank is None else rank, n)
    return g.conj().T @ g / n


def _dump(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)


class _Builder:
    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng([seed, 0x5C4D])
        self.indir = os.path.join(workdir, "in")
        self.outdir = os.path.join(workdir, "out")
        os.makedirs(self.indir, exist_ok=True)
        os.makedirs(self.outdir, exist_ok=True)
        self.ops: list[Op] = []

    def path(self, kind: str, ext: str, where: str) -> str:
        base = self.indir if where == "in" else self.outdir
        return os.path.join(base, f"{len(self.ops):02d}-{kind}.{ext}")

    def add(self, op: Op):
        self.ops.append(op)


def _param_op(b: _Builder, kind, label, matrix, dims, reconstruct, boundary=False):
    src = b.path(label, "json", "in")
    _dump(checks.matrix_to_obj(matrix), src)
    out = b.path(label, "json", "out")
    shape = "+".join(str(d) for d in dims)
    if kind == "matrix":
        shape = f"{shape}x{shape}"
    argv = ["param", "--kind", kind, "--shape", shape, "--in", src, "--out", out]
    if reconstruct:
        argv.append("--reconstruct")
    check = lambda: checks.check_param(out, kind, matrix, dims, reconstruct)
    b.add(Op(label, argv, out, 0, check, [src], EXIT_DOMAIN if boundary else None))


def _build_param(b: _Builder):
    rng = b.rng
    # (label, kind, blocks, block size, count): half of each count reconstructs
    interior = [
        ("row16", "row", 16, 4, 1), ("column16", "column", 16, 4, 1),
        ("psd4", "psd", 4, 4, 2), ("matrix4", "matrix", 4, 2, 2),
        ("psd8", "psd", 8, 4, 7), ("matrix8", "matrix", 8, 2, 3),
        ("psd16", "psd", 16, 4, 4),
    ]
    for label, kind, blocks, size, count in interior:
        for i in range(count):
            dims = (size,) * blocks
            if kind == "psd":
                a = _psd(rng, blocks, size)
            elif kind == "row":
                a = _contraction(rng, size, size * blocks)
            elif kind == "column":
                a = _contraction(rng, size * blocks, size)
            else:
                a = _contraction(rng, size * blocks, size * blocks)
            _param_op(b, kind, label, a, dims, reconstruct=i % 2 == 1)
    # Boundary slice: rank-deficient diagonal blocks currently end in NoFactor
    # (exit 2), which counts as a failed op rather than being filtered out.
    _param_op(b, "psd", "boundary-psd8-rank3", _psd(rng, 8, 4, rank=3), (4,) * 8,
              False, boundary=True)
    _param_op(b, "matrix", "boundary-matrix4-norm1",
              _contraction(rng, 8, 8, unit_values=2), (2,) * 4, True, boundary=True)
    _param_op(b, "column", "boundary-column16-norm1",
              _contraction(rng, 64, 4, unit_values=1), (4,) * 16, False, boundary=True)


def _kraus_refs(rng, kraus, count=3):
    n = kraus[0].shape[1]
    states = []
    for _ in range(count):
        g = _gauss(rng, n, n)
        p = g.conj().T @ g
        states.append(p / np.trace(p).real)
    refs = [sum(e @ rho @ e.conj().T for e in kraus) for rho in states]
    return states, refs


def _channel_op(b: _Builder, n, freedom):
    rng = b.rng
    label = f"channel{n}" + ("-freedom" if freedom else "")
    iso = _unitary(rng, n * n)[:, :n]          # r = m = n Kraus operators
    kraus = [iso[i * n:(i + 1) * n, :] for i in range(n)]
    src = b.path(label, "json", "in")
    _dump({"in_dim": n, "out_dim": n,
           "kraus": [checks.matrix_to_obj(e) for e in kraus]}, src)
    files = [src]
    out = b.path(label, "json", "out")
    argv = ["dilate", "--channel", src, "--simulate", "20",
            "--seed", str(int(rng.integers(1 << 30))), "--out", out]
    if freedom:
        fpath = b.path(label + "-u", "json", "in")
        _dump({"u1": checks.matrix_to_obj(_unitary(rng, n)),
               "u2": checks.matrix_to_obj(_unitary(rng, n * n))}, fpath)
        argv[-2:-2] = ["--freedom", fpath]
        files.append(fpath)
    states, refs = _kraus_refs(rng, kraus)
    check = lambda: checks.check_channel(out, kraus, states, refs)
    b.add(Op(label, argv, out, 0, check, files))


def _povm_op(b: _Builder, m, n):
    label = f"povm{m}x{n}"
    vectors = _unitary(b.rng, n)[:m, :]        # columns resolve the identity on C^m
    src = b.path(label, "json", "in")
    _dump({"dim": m, "vectors": [[[z.real, z.imag] for z in vectors[:, i]]
                                 for i in range(n)]}, src)
    out = b.path(label, "json", "out")
    argv = ["dilate", "--povm", src, "--out", out]
    check = lambda: checks.check_povm(out, vectors)
    b.add(Op(label, argv, out, 0, check, [src]))


def _build_dilate(b: _Builder):
    for _ in range(5):
        _channel_op(b, 8, freedom=False)
    for _ in range(4):
        _channel_op(b, 8, freedom=True)
    for _ in range(4):
        _channel_op(b, 16, freedom=False)
    for _ in range(3):
        _povm_op(b, 8, 32)
    for _ in range(4):
        _povm_op(b, 8, 64)


WITNESSES = ("transpose", "reduction", "choi3")
TRIALS = 20
SPAN_TRIALS = 40    # keeps span3 ops well above the arrow ops that hold p50
REF_TRIALS = 2      # trials per op cross-checked with a numpy ampliation


def _build_witness(b: _Builder):
    blocks = {"arrow_first": 8, "arrow_second": 8,
              "span3_1": 16, "span3_2": 16, "span3_3": 16}
    # Two ops per arrow pair put the p50 rank near the middle of the arrow
    # block rather than in its lower third.
    pairs = [(f, w) for f in FAMILY_NAMES for w in WITNESSES
             for _ in range(2 if f.startswith("arrow") else 1)]
    for family, witness in pairs:
        label = f"{family}-{witness}"
        seed = int(b.rng.integers(1 << 30))
        trials = SPAN_TRIALS if family.startswith("span3") else TRIALS
        out = b.path(label, "jsonl", "out")
        argv = ["witness", "--family", family, "--witness", witness,
                "--trials", str(trials), "--seed", str(seed),
                "--block-dim", "3", "--out", out]
        if family in blocks:
            argv[-2:-2] = ["--blocks", str(blocks[family])]
        refs = {}
        for t in range(REF_TRIALS):
            s = gen_family(family, 3, seed + t, block_count=blocks.get(family))
            refs[t] = checks.ampliation_min_eig(np.array(s.matrix), s.block_count, witness)
        check = (lambda out=out, trials=trials, refs=refs:
                 checks.check_witness(out, trials, True, refs))
        b.add(Op(label, argv, out, 0, check))
    for sample, witness in ((bell_control_sample(), "transpose"),
                            (choi_control_sample(), "choi3")):
        out = b.path(sample.family, "jsonl", "out")
        argv = ["witness", "--family", sample.family, "--witness", witness,
                "--seed", "0", "--out", out]
        refs = {0: checks.ampliation_min_eig(np.array(sample.matrix),
                                             sample.block_count, witness)}
        check = (lambda out=out, refs=refs:
                 checks.check_witness(out, 1, False, refs))
        b.add(Op(sample.family, argv, out, 2, check))


def build(workload: str, seed: int, workdir: str) -> list[Op]:
    b = _Builder(seed, workdir)
    {"param": _build_param, "dilate": _build_dilate, "witness": _build_witness}[workload](b)
    return b.ops


def fingerprint(ops: list[Op], workdir: str) -> str:
    """Digest of every input file and argument list, with the workdir factored out."""
    import hashlib

    h = hashlib.sha256()
    for op in ops:
        h.update(json.dumps([a.replace(workdir, "<w>") for a in op.argv]).encode())
        for path in op.files:
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()
