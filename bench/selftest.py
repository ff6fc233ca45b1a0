"""Self-tests of the benchmark itself; run ``python3 bench/selftest.py``.

- The same seed gives byte-identical inputs; another seed gives other ones.
- Traced call counts reproduce the factorization counts of the seed code:
  psd 16 x (4x4) parametrize 2076 eigh + 150 pinv, reconstruct 2060 eigh;
  matrix 8 x 8 grid of 2x2 blocks 576 eigh each way, plus 72 pinv when
  extracting; 16-dim channel dilate 2 eigh.
- One pass of every workload, untraced and traced twice, writes
  byte-identical output files, and the two traced passes give identical
  call counts and lapack shapes.
- Every layer records at least one span on each workload that uses it.

Exits 1 if any expectation fails.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import sys
import tempfile

import run

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402
from schur_dilate import cli, dilation, families, scparams  # noqa: E402

import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

USES = {
    "param": {"cli", "serialize", "scparams", "contraction", "linalg", "lapack"},
    "dilate": {"cli", "serialize", "dilation", "contraction", "linalg", "lapack", "sampling"},
    "witness": {"cli", "families", "maps", "contraction", "linalg", "lapack", "sampling"},
}
failures: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_inputs(tmp: str) -> None:
    for w in workloads.WORKLOADS:
        prints = []
        for n, seed in enumerate((7, 7, 8)):
            d = f"{tmp}/inputs-{w}-{n}"
            prints.append(workloads.fingerprint(workloads.build(w, seed, d), d))
        expect(prints[0] == prints[1], f"{w}: same seed gives identical inputs")
        expect(prints[0] != prints[2], f"{w}: another seed gives other inputs")


def test_seed_counts() -> None:
    rng = np.random.default_rng(0)
    g = rng.standard_normal((128, 64)) + 1j * rng.standard_normal((128, 64))
    psd = g.conj().T @ g / 64
    t = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    t *= 0.9 / np.linalg.norm(t, 2)
    q, _ = np.linalg.qr(rng.standard_normal((256, 16)) + 1j * rng.standard_normal((256, 16)))
    channel = dilation.KrausChannel(16, 16, tuple(q[16 * i:16 * (i + 1)] for i in range(16)))
    psd_shape = scparams.BlockShape((4,) * 16, (4,) * 16)
    grid = scparams.BlockShape((2,) * 8, (2,) * 8)

    tracer = Tracer()
    tracer.install()
    try:
        bound = {"cli.psd_parametrize": cli.psd_parametrize,
                 "scparams.defect": scparams.defect,
                 "dilation.defect_star": dilation.defect_star,
                 "families.is_psd": families.is_psd}
        for where, fn in bound.items():
            expect(hasattr(fn, "__wrapped__"), f"{where} is wrapped where callers look it up")
        steps = [
            ("psd 16x(4x4) parametrize", lambda: scparams.psd_parametrize(psd, psd_shape),
             {"lapack.eigh": 2076, "lapack.pinv": 150}),
            ("psd 16x(4x4) reconstruct", None, {"lapack.eigh": 2060}),
            ("matrix 8x8 grid parametrize", lambda: scparams.matrix_parametrize(t, grid),
             {"lapack.eigh": 576, "lapack.pinv": 72}),
            ("matrix 8x8 grid reconstruct", None, {"lapack.eigh": 576}),
            ("channel 16 dilate", lambda: dilation.channel_dilate(channel), {"lapack.eigh": 2}),
        ]
        result = None
        for op, (label, fn, want) in enumerate(steps):
            tracer.begin_op(op)
            if fn is None:   # reconstruct what the step before extracted
                recon = (scparams.psd_reconstruct if isinstance(result, scparams.PositiveSCParams)
                         else scparams.matrix_reconstruct)
                recon(result)
            else:
                result = fn()
            tracer.end_op()
            got = tracer.counts(op)
            seen = {k: got.get(k, 0) for k in want}
            expect(seen == want, f"{label}: {seen} == {want}")
    finally:
        tracer.uninstall()


def run_pass(ops, tracer=None) -> None:
    for op in ops:
        if os.path.exists(op.out):
            os.remove(op.out)
    if tracer is not None:
        tracer.install()
    try:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.begin_op(i)
            rc, _ = run.call(cli, op.argv)
            if tracer is not None:
                tracer.end_op()
            if rc != op.expect_rc and (rc is None or rc != op.tolerated_rc):
                expect(False, f"{op.kind}: exit {rc}")
    finally:
        if tracer is not None:
            tracer.uninstall()


def outputs(ops) -> dict:
    return {op.out: digest(op.out) for op in ops if os.path.exists(op.out)}


def test_tracing(tmp: str) -> set:
    seen_layers: set = set()
    for w in workloads.WORKLOADS:
        ops = workloads.build(w, 11, f"{tmp}/trace-{w}")
        run_pass(ops)
        plain = outputs(ops)
        tracers = [Tracer(), Tracer()]
        traced = []
        for tr in tracers:
            run_pass(ops, tr)
            traced.append(outputs(ops))
        expect(len(plain) >= len(ops) - 1 and plain == traced[0] == traced[1],
               f"{w}: traced and untraced passes write byte-identical outputs "
               f"({len(plain)} files)")
        expect(tracers[0].counts() == tracers[1].counts()
               and tracers[0].shapes == tracers[1].shapes,
               f"{w}: two traced passes give identical call counts and shapes")
        layers = {name.split(".", 1)[0] for name in tracers[0].counts()}
        missing = USES[w] - layers
        expect(not missing, f"{w}: spans from layers {sorted(USES[w])}"
               + (f", missing {sorted(missing)}" if missing else ""))
        seen_layers |= layers
    return seen_layers


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)
    try:
        test_inputs(tmp)
        test_seed_counts()
        layers = test_tracing(tmp)
        every = {*LAYERS, "lapack"}
        expect(every <= layers, f"all ten layers traced: {sorted(layers)}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
