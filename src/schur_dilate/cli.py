"""Command-line front end.

Subcommands::

    schur-dilate param   --kind psd --shape 2+2 --in A.json --out P.json
    schur-dilate dilate  --povm povm.json --out U.json
    schur-dilate dilate  --channel ch.json --simulate 20 --seed 7 --out U.json
    schur-dilate witness --family toeplitz2 --witness transpose \
                         --trials 100 --seed 1 --out report.jsonl

Exit codes: 0 success / all trials passed, 1 I/O or parse failure,
2 domain precondition violated, 3 internal numerical failure.
The environment variable ``SCHUR_DILATE_TOL`` overrides the positivity
tolerance.  Stochastic commands require an explicit ``--seed``; identical
flags and seed produce byte-identical reports (modulo the version header).
``witness`` generates and checks its trials in chunks of stacked samples,
which leaves every report line as a one-trial run would write it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from . import serialize
from .contraction import CLIP_SLACK
from .dilation import channel_dilate, channel_simulate, povm_dilate, povm_verify
from .errors import NoConvergence, NoFactor, SchurDilateError
from .families import (
    FAMILY_NAMES,
    _block_count,
    _gen_samples,
    bell_control_sample,
    choi_control_sample,
    witness_check,
)
from .linalg import Tolerances, frob
from .maps import WITNESS_NAMES, builtin_witness
from .sampling import random_density, rng_from_seed
from .scparams import (
    BlockShape,
    _recon_bound,
    col_parametrize,
    col_reconstruct,
    matrix_parametrize,
    matrix_reconstruct,
    psd_parametrize,
    psd_reconstruct,
    row_parametrize,
    row_reconstruct,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_DOMAIN = 2
EXIT_NUMERICAL = 3

CONTROL_FAMILIES = ("bell-control", "choi-control")

# witness trials and simulated dilate states are generated and checked as
# stacks of at most this many bytes of samples: 28 arrow trials of 24 x 24,
# 7 span trials of 48 x 48, 64 states of 16 x 16
_CHUNK_BYTES = 256 * 1024


def _chunk_size(side: int) -> int:
    """Samples of ``side x side`` complex entries per chunk of at most ``_CHUNK_BYTES``."""
    return max(1, _CHUNK_BYTES // max(1, side * side * np.dtype(complex).itemsize))


def _tolerances() -> Tolerances:
    env = os.environ.get("SCHUR_DILATE_TOL")
    if env is None:
        return Tolerances()
    return Tolerances(psd_tol=float(env))


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(p) for p in text.split("+"))
    except ValueError as exc:
        raise ValueError(f"bad shape component {text!r}") from exc
    if not dims or min(dims) <= 0:
        raise ValueError(f"shape components must be positive, got {text!r}")
    return dims


def _emit(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True)


def _matrix_shape(text: str) -> BlockShape:
    if "x" not in text:
        raise ValueError("matrix shape must be ROWSxCOLS, e.g. 2+2x3+3")
    rows_text, cols_text = text.split("x", 1)
    return BlockShape(_parse_dims(rows_text), _parse_dims(cols_text))


def cmd_param(args, tol: Tolerances) -> int:
    matrix = serialize.matrix_from_obj(serialize.load(args.input))
    rows, cols = matrix.shape
    # per kind: block shape from --shape, extraction, rebuild (looked up per call)
    kinds = {
        "row": (lambda text: BlockShape((rows,), _parse_dims(text)),
                row_parametrize, row_reconstruct),
        "column": (lambda text: BlockShape(_parse_dims(text), (cols,)),
                   col_parametrize, col_reconstruct),
        "matrix": (_matrix_shape, matrix_parametrize, matrix_reconstruct),
        "psd": (lambda text: BlockShape(*[_parse_dims(text)] * 2),
                psd_parametrize, psd_reconstruct),
    }
    shape, parametrize, reconstruct = kinds[args.kind]
    params = parametrize(matrix, shape(args.shape), tol)
    recon = reconstruct(params, tol)
    err = frob(recon - matrix)
    bound = _recon_bound(matrix, tol, psd=args.kind == "psd")
    if err > bound:
        raise NoFactor(f"round-trip error {err:.1e} exceeds recon_tol bound {bound:.1e}")
    print(f"roundtrip={err:.1e}", file=sys.stderr)
    serialize.dump(recon if args.reconstruct else params, args.out)
    return EXIT_OK


def _load_freedom(path):
    obj = serialize.load(path)
    return (serialize.matrix_from_obj(obj["u1"]), serialize.matrix_from_obj(obj["u2"]))


def cmd_dilate(args, tol: Tolerances) -> int:
    if args.simulate is not None and args.simulate < 1:
        raise ValueError(f"--simulate must be positive, got {args.simulate}")
    freedom = _load_freedom(args.freedom) if args.freedom else None
    if args.povm:
        povm = serialize.povm_from_obj(serialize.load(args.povm), tol)
        result = povm_dilate(povm, freedom=freedom, tol=tol)
        report = {"kind": "povm", "total_dim": result.total_dim,
                  **dataclasses.asdict(povm_verify(result, povm, tol))}
    else:
        channel = serialize.channel_from_obj(serialize.load(args.channel))
        result = channel_dilate(channel, freedom=freedom,
                                pad_to_ancilla=args.pad, tol=tol)
        # DilationResult has already bounded the unitarity; only a
        # simulation can fail the report
        report = {
            "kind": "channel",
            "total_dim": result.total_dim,
            "ancilla_dim": result.ancilla_dim,
            "unitarity": result.unitarity,
            "passed": True,
        }
        if args.simulate:
            rng = rng_from_seed(args.seed)
            n = channel.in_dim
            size = _chunk_size(n)
            worst = 0.0
            for start in range(0, args.simulate, size):
                # one stacked state check and Kraus sum per chunk of at most
                # _CHUNK_BYTES
                states = np.stack([random_density(rng, n)
                                   for _ in range(min(size, args.simulate - start))])
                deviation = channel.apply(states) - channel_simulate(result, states, tol)
                worst = max(worst, float(np.abs(deviation).max()))
            report["simulate_trials"] = args.simulate
            report["simulate_max_deviation"] = worst
            report["passed"] = worst <= CLIP_SLACK
    serialize.dump(result, args.out)
    print(_emit(report))
    return EXIT_OK if report["passed"] else EXIT_NUMERICAL


def _witness_chunks(args, tol: Tolerances):
    """The trials' samples, generated in chunks of at most ``_CHUNK_BYTES``."""
    side = args.block_dim * _block_count(args.family, args.blocks)
    size = _chunk_size(side)
    seeds = [args.seed + trial for trial in range(args.trials)]
    for start in range(0, len(seeds), size):
        yield _gen_samples(args.family, args.block_dim, seeds[start:start + size], tol,
                           block_count=args.blocks)


def cmd_witness(args, tol: Tolerances) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be positive, got {args.trials}")
    if args.block_dim < 1 and args.family not in CONTROL_FAMILIES:
        raise ValueError(f"--block-dim must be positive, got {args.block_dim}")
    lines = [_emit({"schur_dilate_version": __version__})]
    if args.family in CONTROL_FAMILIES:
        # control fixtures carry their own dimension; --block-dim is ignored
        sample = bell_control_sample() if args.family == "bell-control" \
            else choi_control_sample()
        dim, chunks = sample.block_dim, [[sample]]
    else:
        dim, chunks = args.block_dim, _witness_chunks(args, tol)
    phi = builtin_witness(args.witness, dim=dim)
    worst = float("inf")
    all_passed = True
    for chunk in chunks:
        for sample, check in zip(chunk, witness_check(phi, chunk, tol)):
            worst = min(worst, check.min_eig)
            all_passed = all_passed and check.passed
            lines.append(_emit({
                "family": args.family, "seed": sample.seed, "witness": args.witness,
                "min_eig": check.min_eig, "passed": check.passed,
            }))
    lines.append(_emit({"summary": True, "worst_min_eig": worst,
                        "all_passed": all_passed}))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if all_passed else EXIT_DOMAIN


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schur-dilate",
        description="Contraction parametrizations, dilations, witness batches.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("param", help="parametrize or reconstruct a matrix")
    p.add_argument("--kind", required=True, choices=("row", "column", "matrix", "psd"))
    p.add_argument("--shape", required=True,
                   help="block sizes, e.g. 2+2 (psd/row/column) or 2+2x3+3 (matrix)")
    p.add_argument("--in", dest="input", required=True, help="input matrix JSON")
    p.add_argument("--out", required=True, help="output file")
    p.add_argument("--reconstruct", action="store_true",
                   help="write the round-tripped matrix instead of parameters")

    d = sub.add_parser("dilate", help="dilate a POVM or channel")
    source = d.add_mutually_exclusive_group(required=True)
    source.add_argument("--povm", help="POVM JSON file")
    source.add_argument("--channel", help="channel JSON file")
    d.add_argument("--freedom", help="JSON file with unitaries u1, u2")
    d.add_argument("--pad", type=int, default=None,
                   help="ancilla dimension to pad to (channels)")
    d.add_argument("--simulate", type=int, default=None, metavar="N",
                   help="check N random states against the direct Kraus sum")
    d.add_argument("--seed", type=int, default=None,
                   help="seed for --simulate (required with it)")
    d.add_argument("--out", required=True, help="output dilation JSON")

    w = sub.add_parser("witness", help="run a witness batch over a family")
    w.add_argument("--family", required=True,
                   choices=FAMILY_NAMES + CONTROL_FAMILIES)
    w.add_argument("--witness", required=True, choices=WITNESS_NAMES)
    w.add_argument("--trials", type=int, default=100)
    w.add_argument("--seed", type=int, required=True)
    w.add_argument("--block-dim", type=int, default=3, dest="block_dim")
    w.add_argument("--blocks", type=int, default=None,
                   help="block count for the variable-size families")
    w.add_argument("--out", default=None, help="JSONL report file (default stdout)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tol = _tolerances()
    except ValueError as exc:
        print(f"error: bad SCHUR_DILATE_TOL: {exc}", file=sys.stderr)
        return EXIT_IO
    if args.command == "dilate":
        if args.povm and (args.pad, args.simulate, args.seed) != (None, None, None):
            parser.error("--pad, --simulate and --seed apply to --channel only")
        if args.simulate is not None and args.seed is None:
            parser.error("--simulate requires --seed")
    try:
        if args.command == "param":
            return cmd_param(args, tol)
        if args.command == "dilate":
            return cmd_dilate(args, tol)
        return cmd_witness(args, tol)
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NoConvergence as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SchurDilateError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
