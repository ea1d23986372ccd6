"""rank1lab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload {acceptance,deep,sweep} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout.  Each repetition is a fresh
interpreter (perfbench/child.py), started one at a time, with
``RANK1_MAX_STAGE`` removed from its environment.  Repetitions continue
until ``--seconds`` have passed (at least three untraced ones), and the
metrics are medians over them:

  wall_s       timed phase of the child, tracing off
  cpu_s        user + sys CPU time of the whole child (from wait4)
  setup_s      child start -> import rank1lab, inputs built -> first timed call
  peak_rss_mb  ru_maxrss of the child (from wait4)

``--trace 1`` alternates untraced and traced children and reports the
per-layer metrics of tracer.py instead, plus ``trace.overhead_s``.  Every
answer is checked (child.py); the last line of output is one JSON object,
and the exit code is 1 if any operation failed, 2 if nothing could be run.

``--record-reference`` recomputes perfbench/reference.json from the
current source instead of measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("acceptance", "deep", "sweep")
RECORD_VARIANTS = 5       # the longest input menu in workloads.py
MIN_UNTRACED = 3
RUN_LIMIT_S = 150         # start no child that could end after this


class ChildFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("RANK1_MAX_STAGE", None)   # it silently changes answers
    # same bytecode caching whatever the caller's environment, kept in OUT
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(OUT, "pycache")
    env["PYTHONHASHSEED"] = "0"
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"   # one thread per child
    return env


def _alarm(signum, frame):
    raise TimeoutError


def run_child(args: list[str], timeout: float) -> tuple[dict, float, object]:
    """Run child.py to completion; return its JSON line, its start time on
    the monotonic clock and its resource usage."""
    out_path = os.path.join(OUT, "child.out")
    with open(out_path, "w") as out:
        spawned = time.monotonic()
        proc = subprocess.Popen([sys.executable, CHILD, *args], stdout=out,
                                env=child_env(), cwd=ROOT)
        signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(max(1, int(timeout)))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            raise ChildFailed(f"child timed out after {timeout:.0f} s") from None
        finally:
            signal.alarm(0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        lines = fh.read().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child exited with code {proc.returncode}")
    return json.loads(lines[-1]), spawned, usage


def measure(workload, seed, trace, reference, seconds):
    """Repeat the workload in fresh children; return per-child records."""
    start = time.monotonic()
    untraced, traced = [], []
    longest = 0.0
    base = ["--workload", workload, "--seed", str(seed), "--reference", reference]
    while True:
        kinds = [(0, untraced)] + ([(1, traced)] if trace else [])
        for flag, sink in kinds:
            elapsed = time.monotonic() - start
            extra = ["--trace", str(flag)]
            if flag:
                extra += ["--spans", os.path.join(OUT, f"spans-{workload}.npz")]
            t0 = time.monotonic()
            result, spawned, usage = run_child(base + extra, RUN_LIMIT_S + 20 - elapsed)
            longest = max(longest, time.monotonic() - t0)
            result["setup_s"] = result.pop("ready") - spawned
            result["cpu_s"] = usage.ru_utime + usage.ru_stime
            result["peak_rss_mb"] = usage.ru_maxrss / 1024
            sink.append(result)
        elapsed = time.monotonic() - start
        enough = len(untraced) >= (1 if trace else MIN_UNTRACED)
        if (enough and elapsed >= seconds) or elapsed + longest * len(kinds) > RUN_LIMIT_S:
            return untraced, traced


def median_of(records, key):
    return statistics.median(r[key] for r in records)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_frac") else "count"


def record_reference():
    reference = {}
    for workload in WORKLOADS:
        answers = {}
        for variant in range(RECORD_VARIANTS):
            result, _, _ = run_child(["--workload", workload, "--record", str(variant)], 600)
            for key, answer in result.items():
                if answers.setdefault(key, answer) != answer:
                    raise ChildFailed(f"{workload}: two answers for {key}")
        reference[workload] = dict(sorted(answers.items()))
        print(f"{workload}: {len(answers)} answers", file=sys.stderr)
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", default=REFERENCE,
                        help="reference answers to check against")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "rank1lab", "__init__.py")):
        print(f"no rank1lab source under {ROOT}/src: run from a source checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        if args.record_reference:
            record_reference()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        untraced, traced = measure(args.workload, args.seed, args.trace,
                                   os.path.abspath(args.reference), args.seconds)
    except ChildFailed as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2

    children = untraced + traced
    attempted = sum(r["attempted"] for r in children)
    failed = sum(r["failed"] for r in children)
    if args.trace:
        metrics = {name: {"value": statistics.median(r["layers"][name] for r in traced),
                          "unit": layer_unit(name)}
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_s"] = {
            "value": median_of(traced, "wall_s") - median_of(untraced, "wall_s"), "unit": "s"}
    else:
        units = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        metrics = {name: {"value": median_of(untraced, name), "unit": unit}
                   for name, unit in units.items()}
    summary = " | ".join(f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items())
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"children={len(untraced)}+{len(traced)} | {summary} | "
          f"error_rate {failed / attempted:.6g} ratio ({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
