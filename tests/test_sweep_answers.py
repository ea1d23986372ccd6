"""Every answer of the benchmark's ``sweep`` workload, as
``perfbench/reference.json`` records it.

The benchmark checks these answers only when it runs; this test checks them
in the test suite, from this checkout's sources, by running
``perfbench/child.py --workload sweep --record N`` for each menu variant N as
a child process.  It only reads ``perfbench/``: the children write no
bytecode there."""

import json
import os
import subprocess
import sys
from pathlib import Path

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_VARIANTS = 5  # run.py's RECORD_VARIANTS: variants 0..4 cover every menu entry


def test_every_sweep_answer_matches_the_benchmark_reference():
    reference = json.loads((_PERFBENCH / "reference.json").read_text())["sweep"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1")
    env.pop("RANK1_MAX_STAGE", None)  # it changes answers
    keys = set()
    for variant in range(_VARIANTS):
        result = subprocess.run(
            [sys.executable, str(_PERFBENCH / "child.py"), "--workload", "sweep",
             "--record", str(variant)],
            env=env, capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        answers = json.loads(result.stdout.splitlines()[-1])
        assert answers == {key: reference.get(key) for key in answers}, f"variant {variant}"
        keys |= answers.keys()
    assert keys == reference.keys()
