"""End-to-end benchmark of the schur-dilate CLI, run in-process.

Usage, from the repository root::

    python3 bench/run.py --workload param|dilate|witness --seed N \\
        --seconds S --trace 0|1

A single closed-loop client keeps one op in flight: every op is a call to
``schur_dilate.cli.main(argv)`` in this process, so interpreter and numpy
start-up stay out of op times (they are reported once, as ``setup_s``).
Inputs are generated from ``--seed`` before timing and written under
``.bench_work/``; one warm-up op of each kind runs untimed; then shuffled
passes over the op mix repeat until ``--seconds`` of op time has been
measured.  Every output is checked against an independent numpy reference
(``checks.py``) between ops, outside the timed region.

The speed of a shared virtual machine drifts by 20-40 % over seconds to
minutes, for Python and LAPACK code alike.  So a fixed probe kernel that uses
nothing of the package (``SpeedProbe``) runs for a few milliseconds before
and after every op and every set-up launch, and the reported times are wall
times scaled by the probe's speed relative to ``PROBE_REF_HZ``: milliseconds
on a machine running at the reference speed.  Raw wall times and probe
speeds go to the run record.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced passes with passes under the span tracer (``tracer.py``), half the
time each, and prints the per-layer metrics, each per op attempted.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Run metadata goes to standard error and, with
the metrics, to ``.bench_work/<workload>-s<seed>-t<trace>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BLAS_THREADS = "1"
SETUP_LAUNCHES = 9
PROBE_SECONDS = 0.008           # around each op
SETUP_PROBE_SECONDS = 0.1       # around each set-up launch: there are few of them
PROBE_REF_HZ = 8000.0           # probe kernels per second at the reference speed
ACCURACY_FLOOR = 2.0 ** -52     # an exact match reads as 15.65 digits

# BLAS threads are read once, when numpy is first imported, so pin them here.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = BLAS_THREADS
TOL_ENV_WAS_SET = os.environ.pop("SCHUR_DILATE_TOL", None) is not None


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("param", "dilate", "witness"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _commit() -> str:
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return git.stdout.strip() if git.returncode == 0 else "unknown"


def _blas() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


class SpeedProbe:
    """Machine speed relative to the reference, from a fixed kernel.

    The kernel mixes the kinds of work the ops do (a small complex ``eigh``
    and matmul, a JSON dump, a Python loop) and uses nothing of the package,
    so a change to the package cannot move it.  ``eigh`` is bound here, before
    any tracer wraps ``numpy.linalg``.
    """

    def __init__(self):
        import numpy as np

        a = np.random.default_rng(0).standard_normal((12, 12)) + 0j
        self.a = a + a.conj().T
        self.eigh = np.linalg.eigh
        self.rows = [[0.123456789, -1.5e-3]] * 40

    def _kernel(self) -> None:
        self.eigh(self.a)
        self.a @ self.a
        json.dumps(self.rows)
        s = 0
        for i in range(300):
            s += i * i

    def __call__(self, seconds=PROBE_SECONDS) -> float:
        t0, n = time.perf_counter(), 0
        while True:
            self._kernel()
            n += 1
            t = time.perf_counter() - t0
            if t >= seconds:
                return n / t / PROBE_REF_HZ


def measure_setup(probe) -> tuple[list[float], list[float]]:
    """Fresh-interpreter launches of ``python -m schur_dilate.cli --version``:
    wall times, and the probe speed around each launch."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, speeds = [], []
    before = probe(SETUP_PROBE_SECONDS)
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "schur_dilate.cli", "--version"],
                       cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        after = probe(SETUP_PROBE_SECONDS)
        speeds.append((before + after) / 2)
        before = after
    return times, speeds


def call(cli, argv) -> tuple[int | None, str]:
    """One op: its exit code and captured output, or None and the reason if it raised."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(list(argv))
        return rc, sink.getvalue()
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 1), sink.getvalue()
    except Exception as exc:  # a crash is a failed op, not a benchmark abort
        return None, f"{type(exc).__name__}: {exc}"


class Outcomes:
    """Per-op results of one loop: kind, time, probe speed, whether it counted."""

    def __init__(self):
        self.kinds: list[str] = []
        self.passes: list[int] = []
        self.times: list[float] = []
        self.speeds: list[float] = []
        self.ok: list[bool] = []
        self.errs: list[float] = []
        # crashes, unexpected exit codes and failed output checks: any makes
        # the run incorrect; a tolerated exit code only counts as failed
        self.errors = 0
        self.failures: dict[str, int] = {}

    def add(self, op, dt, rc, detail, pass_no=-1, speed=1.0):
        ok, err = rc == op.expect_rc, 0.0
        if not ok:
            self.errors += rc is None or rc != op.tolerated_rc
            why = f"{op.kind}: exit {rc} (expected {op.expect_rc}) {detail.strip()[-120:]}"
        else:
            ok, err, msg = op.check()
            if not ok:
                self.errors += 1
                why = f"{op.kind}: check failed: {msg}"
        if not ok:
            self.failures[why] = self.failures.get(why, 0) + 1
        self.kinds.append(op.kind)
        self.passes.append(pass_no)
        self.times.append(dt)
        self.speeds.append(speed)
        self.ok.append(ok)
        self.errs.append(err)

    @property
    def busy(self) -> float:
        return sum(self.times)


def run_pass(cli, ops, rng, probe, out: Outcomes, tracer=None) -> None:
    """One shuffled pass over ``ops``, probing speed between ops; checks run
    between ops, untimed."""
    pass_no = max(out.passes, default=0) + 1
    before = probe()
    for i in rng.permutation(len(ops)):
        op = ops[i]
        if tracer is not None:
            tracer.begin_op(len(out.kinds))
        t0 = time.perf_counter()
        rc, detail = call(cli, op.argv)
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        after = probe()
        out.add(op, dt, rc, detail, pass_no, (before + after) / 2)
        before = after


def run_loop(cli, ops, seconds, rng, probe) -> Outcomes:
    """Whole passes until ``seconds`` of op time."""
    out = Outcomes()
    while out.busy < seconds:
        run_pass(cli, ops, rng, probe, out)
    return out


def run_traced(cli, ops, seconds, rng, probe, tracer) -> tuple[Outcomes, Outcomes]:
    """Untraced and traced passes alternate, ``seconds / 2`` of op time each,
    so both see the same machine conditions and their ratio is the overhead."""
    plain, traced = Outcomes(), Outcomes()
    while plain.busy < seconds / 2 or traced.busy < seconds / 2:
        run_pass(cli, ops, rng, probe, plain)
        tracer.install()
        try:
            run_pass(cli, ops, rng, probe, traced, tracer)
        finally:
            tracer.uninstall()
    return plain, traced


def warm_up(cli, ops) -> Outcomes:
    seen, out = set(), Outcomes()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            out.add(op, 0.0, *call(cli, op.argv))
    return out


def _timings(times, ok) -> dict:
    import numpy as np

    done = times[ok]
    p50, p90 = np.percentile(done, [50, 90]) if done.size else (0.0, 0.0)
    return {"ops_per_s": done.size / times.sum(),
            "op_p50_ms": 1e3 * p50, "op_p90_ms": 1e3 * p90}


def e2e_metrics(out: Outcomes, setup, setup_speeds) -> tuple[dict, dict]:
    """End-to-end metrics of an untraced loop, plus what they rest on.

    Times are wall times scaled by the probe speed (see the module docstring).

    ops_per_s        completed ops / op time; a failed op costs time, adds no op
    op_p50_ms/p90    percentiles of completed ops' times (sample count in extra)
    ok_ratio         completed ops / ops attempted, i.e. 1 - fail_ratio
    accuracy_digits  -log10 of the worst relative error any output check found
    peak_rss_mb      peak resident memory of this process
    setup_s          median fresh-interpreter launch of the CLI
    """
    import numpy as np

    wall = np.array(out.times)
    scaled = wall * np.array(out.speeds)
    ok = np.array(out.ok, dtype=bool)
    timings = _timings(scaled, ok)
    units = {"ops_per_s": "ops/s", "op_p50_ms": "ms", "op_p90_ms": "ms"}
    metrics = {k: (v, units[k]) for k, v in timings.items()}
    metrics.update({
        "ok_ratio": (ok.sum() / ok.size, "1"),
        "accuracy_digits": (-np.log10(max(max(out.errs, default=0.0), ACCURACY_FLOOR)), "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(np.array(setup) * np.array(setup_speeds)), "s"),
    })
    extra = {"op_samples": int(ok.sum()),
             "samples_beyond_p90": int((scaled[ok] > timings["op_p90_ms"] / 1e3).sum()),
             "wall": {**_timings(wall, ok), "setup_s": statistics.median(setup)},
             "probe_speed_median": float(np.median(out.speeds)),
             "setup_launches_s": setup, "setup_probe_speeds": setup_speeds,
             "fail_ratio": 1 - ok.sum() / ok.size}
    return metrics, extra


def per_kind(out: Outcomes) -> dict:
    kinds = {}
    for kind, t, ok, err in zip(out.kinds, out.times, out.ok, out.errs):
        k = kinds.setdefault(kind, {"ops": 0, "failed": 0, "times": [], "worst_rel_err": 0.0})
        k["ops"] += 1
        k["failed"] += not ok
        k["times"].append(t)
        k["worst_rel_err"] = max(k["worst_rel_err"], err)
    for k in kinds.values():
        k["median_ms"] = 1e3 * statistics.median(k.pop("times"))
    return dict(sorted(kinds.items()))


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "schur_dilate" / "cli.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    from schur_dilate import cli

    if Path(cli.__file__).resolve().parent != SRC / "schur_dilate":
        print(f"error: imported schur_dilate from {cli.__file__}", file=sys.stderr)
        return 2
    import workloads
    from tracer import UNITS, Tracer

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = WORK / f"{tag}-{os.getpid()}"
    try:
        probe = SpeedProbe()
        setup, setup_speeds = measure_setup(probe) if args.trace == 0 else ([], [])
        ops = workloads.build(args.workload, args.seed, str(workdir))
        meta = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": sys.version.split()[0],
            "numpy": np.__version__, "blas": _blas(), "blas_threads": int(BLAS_THREADS),
            "nproc": os.cpu_count(), "commit": _commit(),
            "schur_dilate_tol_unset": True, "schur_dilate_tol_was_removed": TOL_ENV_WAS_SET,
            "client": "closed loop, 1 client, 1 op in flight",
            "mix": workloads.MIX_NOTES[args.workload],
            "ops_per_pass": {k: sum(o.kind == k for o in ops) for k in dict.fromkeys(o.kind for o in ops)},
            "inputs_sha256": workloads.fingerprint(ops, str(workdir)),
        }
        warm = warm_up(cli, ops)
        rng = np.random.default_rng([args.seed, 0x100F])
        if args.trace == 0:
            out = run_loop(cli, ops, args.seconds, rng, probe)
            values, extra = e2e_metrics(out, setup, setup_speeds)
        else:
            tracer = Tracer()
            plain, out = run_traced(cli, ops, args.seconds, rng, probe, tracer)
            values = {k: (v, UNITS[k]) for k, v in tracer.summary(len(out.ok)).items()}
            values["trace.overhead"] = (
                (sum(out.ok) / out.busy) / (sum(plain.ok) / plain.busy), "1")
            extra = {"untraced_ops": len(plain.ok), "spans": len(tracer),
                     "calls_traced": tracer.counts()}
            WORK.mkdir(exist_ok=True)
            tracer.save(str(WORK / f"spans-{args.workload}.npz"), out.kinds)
        loops = [out] if args.trace == 0 else [plain, out]
        attempted = sum(len(o.ok) for o in loops)
        failed = attempted - sum(sum(o.ok) for o in loops)
        correct = failed < attempted and all(o.errors == 0 for o in (warm, *loops))
        meta.update(extra, ops_attempted_by_kind=per_kind(out),
                    failures=[o.failures for o in loops],
                    warm_up_failures=warm.failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()},
    }
    WORK.mkdir(exist_ok=True)
    with open(WORK / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "result": result,
                   "samples": {"kind": out.kinds, "pass": out.passes,
                               "ms": [1e3 * t for t in out.times],
                               "probe_speed": out.speeds, "ok": out.ok}},
                  fh, sort_keys=True)
    print(json.dumps({"meta": meta}, sort_keys=True), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
