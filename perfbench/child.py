"""One run of one workload in a fresh interpreter (started by run.py).

Imports ``rank1lab`` from the checkout's ``src``, builds the workload's inputs
from the seed, times the operations, then checks every answer and prints one
JSON line: ops attempted, failures, the timed wall time and the monotonic
clock reading at the first timed call (run.py turns it into set-up time).

``--record N`` instead runs menu variant N of a workload and prints the
answer digests (or, for acceptance, the criterion details) for reference.json.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import rank1lab  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _call(op, tracer):
    try:
        return tracer.span(op.span, op.call) if tracer else op.call()
    except Exception as exc:  # an exception is a failed operation, not a crash
        traceback.print_exc(file=sys.stderr)
        return exc


def _failure(op, result, expected) -> str | None:
    if isinstance(result, Exception):
        return f"raised {type(result).__name__}: {result}"
    try:
        if op.key not in expected:
            return "no reference answer"
        if op.answer(result) != expected[op.key]:
            return "answer differs from the reference"
        return op.check(result)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return f"check raised {type(exc).__name__}: {exc}"


def record(workload: str, variant: int) -> dict:
    """Answers of menu variant ``variant``: every pick takes its option
    ``variant mod len(options)``, so variants 0..4 cover every menu entry."""
    ops = workloads.BUILDERS[workload](lambda options: options[variant % len(options)])
    return {op.key: op.answer(op.call()) for op in ops}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", help="reference answers to check against")
    parser.add_argument("--spans", help="where the traced run writes its spans (.npz)")
    parser.add_argument("--record", type=int, metavar="VARIANT")
    args = parser.parse_args(argv)

    if os.path.dirname(os.path.abspath(rank1lab.__file__)) != os.path.join(SRC, "rank1lab"):
        print(f"rank1lab was imported from {rank1lab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.record is not None:
        print(json.dumps(record(args.workload, args.record)))
        return 0

    with open(args.reference) as fh:
        reference = json.load(fh)
    rng = random.Random(args.seed)
    ops = workloads.BUILDERS[args.workload](rng.choice)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()

    ready = time.monotonic()
    t0 = time.perf_counter()
    results = [_call(op, tracer) for op in ops]
    wall = time.perf_counter() - t0

    if tracer:
        tracer.uninstall()
    expected = reference.get(args.workload, {})
    failed = 0
    for op, result in zip(ops, results):
        message = _failure(op, result, expected)
        if message:
            failed += 1
            print(f"FAILED {op.key}: {message}", file=sys.stderr)
    out = {"attempted": len(ops), "failed": failed, "wall_s": wall, "ready": ready}
    if tracer:
        out["layers"] = tracer.metrics()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
