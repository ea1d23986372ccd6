"""The console script's exit codes and output, checked as real processes.

The ``rank1lab`` script's exit statuses are a contract: 0 PASS, 1 FAIL, 2
usage error, 3 INCONCLUSIVE.  This module is the one place that contract is
checked end to end, command by command: acceptance, criterion 1, product
scans, density and CSV rows, correlations, joining witnesses, the oracle's
cell cap, a thousand-stage walk, stage caps, oversize and empty lists, shift
budgets and scan preconditions, a huge cut count, the construction config
grammar and mixed-stage pairs.  Each command goes through the installed
``rank1lab`` script when there is one on the PATH, else through ``python -m
rank1lab.cli``, with this checkout's sources first on the path either way.
Unlike CliRunner, this covers the entry point and the exit status a shell
sees.  Children run one at a time, and a time or memory limit applies to its
child only."""

import csv
import json
import os
import resource
import shutil
import subprocess
import sys
import time

import pytest

from rank1lab import cli

_SOURCE = os.path.dirname(os.path.dirname(cli.__file__))
_SCRIPT = shutil.which("rank1lab")
_COMMAND = [_SCRIPT] if _SCRIPT else [sys.executable, "-m", "rank1lab.cli"]
_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=_SOURCE)
_ENV.pop("RANK1_MAX_STAGE", None)


def _run(*args, timeout=120, env=None, address_space=None):
    """The command's result; ``address_space`` caps the child's own
    ``RLIMIT_AS`` in bytes, so a run that allocates without end fails alone."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    result = subprocess.run([*_COMMAND, *args], env=dict(_ENV, **(env or {})),
                            capture_output=True, timeout=timeout,
                            preexec_fn=limit if address_space else None)
    # decoded with no newline translation, so equal text is equal bytes
    result.stdout, result.stderr = result.stdout.decode(), result.stderr.decode()
    assert "Traceback" not in result.stderr, result.stderr[-2000:]
    return result


# A fresh interpreter that runs one command as its only child and prints the
# child's exit status and peak RSS in KiB (Linux reports ru_maxrss in KiB).
_PEAK = """
import resource, subprocess, sys
status = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, timeout=120).returncode
print(status, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def test_acceptance_fails_exactly_the_two_known_defects():
    """Criteria 6 and 9 are known defects (README, known deviations): the
    run exits exactly 1 and its two FAIL lines are the two lines marked
    as known defects."""
    result = _run("acceptance")
    assert result.returncode == 1
    lines = result.stdout.splitlines()
    failed = [line for line in lines if line.startswith("FAIL")]
    assert len(failed) == 2
    assert [line for line in lines if "[known-defect]" in line] == failed


def test_criterion_1_prints_its_pass_line():
    result = _run("acceptance", "--only", "1")
    assert result.returncode == 0
    assert result.stdout == (
        "PASS criterion-1 oracle-equivalence: 125840 matched-budget identities, "
        "124707 exact, 3 deep toy checks\n")


@pytest.mark.parametrize("k_lo,k_hi,status", [(283, 2264, 1), (15867, 126936, 0)],
                         ids=["stage-4 window", "stage-6 window"])
def test_product_scan_exit_codes(k_lo, k_hi, status):
    """T x T^3 over thm2(2): the stage-4 window holds a nonzero return
    (k = 453), so the scan exits exactly 1 (FAIL); the 256 sampled shifts of
    the stage-6 window are all proven zero, so that scan exits exactly 0."""
    result = _run("products", "scan", "--family", "thm2(2)", "--m", "1", "--n", "3",
                  "--set", "E2", "--k-lo", str(k_lo), "--k-hi", str(k_hi))
    assert result.returncode == status


def test_density_exit_code_and_csv_rows():
    """c(3..6) of toy E1 do not resolve by stage 3, so the density exits
    exactly 3 (INCONCLUSIVE) rather than count them as zero; the toy product
    scan prints "[lo,hi]" cells and exits exactly 1, and every CSV row still
    has one field per header column."""
    density = _run("spectral", "density", "--family", "toy", "--set", "E1", "--n", "0..6",
                   "--order", "7", "--grid", "4", "--max-stage", "3")
    assert density.returncode == 3
    scan = _run("products", "scan", "--family", "toy", "--set", "E1", "--k-lo", "1",
                "--k-hi", "40", "--samples", "3", "--max-stage", "4", "--format", "csv")
    assert scan.returncode == 1
    rows = list(csv.reader(line for line in scan.stdout.splitlines()
                           if not line.startswith("#")))
    assert len(rows) > 1
    assert any("[" in field for row in rows[1:] for field in row)
    assert {len(row) for row in rows} == {len(rows[0])}


def test_correlations_exit_code():
    """c(5..20) of toy E2 do not resolve by stage 4, so spectral corr exits
    exactly 3 (INCONCLUSIVE), as measure does on the same shifts, not 0 with
    the unresolved shifts only listed."""
    result = _run("spectral", "corr", "--family", "toy", "--n", "0..20", "--max-stage", "4")
    assert result.returncode == 3


@pytest.mark.parametrize("args,status", [
    (["--family", "toy", "--m", "5", "--j", "2..4", "--grid", "3", "--max-stage", "5"], 3),
    (["--family", "utv1", "--m", "0", "--j", "4..8"], 0),
], ids=["toy margin across zero", "utv1 stages 4..8"])
def test_joining_witness_exit_codes(args, status):
    """At max stage 5 a toy margin is an unresolved interval across zero, so
    the witness exits exactly 3 (INCONCLUSIVE); on utv1 every stage 4..8 has
    a witness, so it exits exactly 0."""
    result = _run("joinings", "witness", *args)
    assert result.returncode == status


def test_oracle_cell_cap():
    """Toy stage 20 (h_20 = 2^20 - 1 cells) is the largest stage the cell
    cap admits: it exits 0 below 64 MB peak RSS, where int64 tables would
    take about 72 MB, and stage 21 is refused with exit 2."""
    peak = subprocess.run(
        [sys.executable, "-c", _PEAK, *_COMMAND, "oracle", "--family", "toy", "--set", "E1",
         "--n", "1000", "--stage", "20"],
        env=_ENV, capture_output=True, text=True, timeout=150)
    assert peak.returncode == 0, peak.stderr[-2000:]
    status, kib = map(int, peak.stdout.split())
    assert status == 0
    assert kib / 1024 < 64, f"peak RSS {kib / 1024:.1f} MB is not below 64 MB"
    refused = _run("oracle", "--family", "toy", "--set", "E1", "--n", "1000", "--stage", "21")
    assert refused.returncode == 2
    assert refused.stderr.startswith("Error: stage 21 has ")


def test_thousand_stage_walk():
    """A shift near 2^1050 takes toy to stage 1059 and stays unresolved
    there, so measure exits exactly 3 (INCONCLUSIVE) within 60 s; a kernel
    that recursed once per stage would exit 2 with a RecursionError."""
    start = time.monotonic()
    result = _run("measure", "--family", "toy", "--set", "stage=2; levels=0",
                  "--n", str(2**1050 + 5), timeout=60)
    assert result.returncode == 3
    assert time.monotonic() - start < 60


def test_stage_caps_below_1():
    """A stage cap below 1 is a usage error that exits exactly 2, where a
    cap that lifted itself to the start stage would exit 0 or 3.  The
    removed RANK1_MAX_STAGE variable leaves the output byte-identical: n = 20
    resolves at stage 4, so a cap of 1 that still took effect would exit 3
    with a wider interval."""
    assert _run("measure", "--family", "toy", "--set", "E1", "--n", "3",
                "--max-stage", "0").returncode == 2
    free = _run("measure", "--family", "utv1", "--set", "E2", "--n", "20")
    capped = _run("measure", "--family", "utv1", "--set", "E2", "--n", "20",
                  env={"RANK1_MAX_STAGE": "1"})
    assert free.returncode == capped.returncode == 0
    assert free.stdout == capped.stdout


# Each oversize request once built its list, stage span or table until it ran
# out of memory or ran on with no end; each must now be refused up front.
_OVERSIZE = [
    ("limits", "scan", "--family", "utv1", "--j", "7", "--dead-samples", "400000"),
    ("limits", "scan", "--family", "utv1", "--j", "10", "--step", "1"),
    ("measure", "--family", "utv1", "--set", "E2", "--n", ","),
    ("measure", "--family", "utv1", "--set", "E2", "--n", "0..60000000"),
    ("limits", "verify", "--family", "utv1", "--seq", "h_k", "--poly", "1/2*T^0",
     "--j", "3..1000000000"),
    ("limits", "eq4", "--N", "2", "--n", "1", "--p", "1", "--j-max", "1000000000"),
    ("geometry", "--family", "utv1", "--j", "200001"),
    ("limits", "scan", "--family", "utv1", "--j", "50000"),
    ("oracle", "--family", "toy", "--set", "E1", "--n", "1", "--stage", "100000"),
    ("measure", "--family", "toy", "--set", "stage=2; levels=0", "--n", str(2**1050 + 5),
     "--max-stage", "3000"),
    ("products", "scan", "--family", "thm2(2)", "--m", "1", "--n", "3", "--set", "E2",
     "--k-lo", "1", "--k-hi", "1000000000", "--samples", "100000000"),
    ("spectral", "density", "--family", "utv1", "--set", "E2", "--n", "0..4", "--order", "5",
     "--grid", "30000000"),
]


@pytest.mark.parametrize("args", _OVERSIZE, ids=[
    "dead zone of 400,000 samples", "one-step window of 14.5M shifts", "list with no integer",
    "range of 6x10^7 shifts", "span of 10^9 stages", "j-max of 10^9", "stage 200,001",
    "scan at stage 50,000", "oracle stage 100,000", "max-stage 3,000",
    "10^8 samples", "grid of 3x10^7"])
def test_oversize_and_empty_lists(args):
    """A numeric dead zone that lists as many shifts as the refused "all"
    (231,841 at utv1 stage 7) and a one-step window of 14.5M shifts each ran
    out of memory once; a shift list with no integer once passed with no
    rows, and a range of 6x10^7 shifts once crashed with exit 1; a span of
    10^9 stages and a --j-max of 10^9 ran on with no end, as did a single
    stage of 200,001 or 50,000; an oracle stage of 100,000 was built before
    the cell cap, and a --max-stage of 3,000 walked the toy chain, until
    each ran out of memory; a --samples of 10^8 and a --grid of 3x10^7
    allocated until they did.  Each exits exactly 2 within 20 s, under a
    1 GiB address space."""
    start = time.monotonic()
    result = _run(*args, timeout=20, address_space=1 << 30)
    assert time.monotonic() - start < 20
    assert result.returncode == 2, (result.stdout + result.stderr)[-2000:]
    # refused by its size up front, not by a MemoryError under the 1 GiB cap
    assert "request too large for this host" not in result.stderr


def test_shift_budgets_and_scan_preconditions():
    """Toy's n = 10^600 starts at stage 1994 and would walk to stage 2002,
    past the stage ceiling (once 7.2 s and 1.68 GB before exit 3), so it
    exits exactly 2 within 20 s, under a 1 GiB address space, naming the
    ceiling; toy's j = 4 opens no dead zone, and a scan of none would pass
    over nothing, so it exits exactly 2 and says so; and a set field given
    twice exits exactly 2, not answering for its last value."""
    start = time.monotonic()
    budget = _run("measure", "--family", "toy", "--set", "E1", "--n", str(10**600),
                  timeout=20, address_space=1 << 30)
    assert time.monotonic() - start < 20
    assert budget.returncode == 2
    assert "above the ceiling of 2000 stages" in budget.stdout + budget.stderr
    dead_zone = _run("limits", "scan", "--family", "toy", "--j", "4")
    assert dead_zone.returncode == 2
    assert "opens no dead zone" in dead_zone.stdout + dead_zone.stderr
    twice = _run("measure", "--family", "toy", "--set", "stage=2; stage=3; levels=0", "--n", "1")
    assert twice.returncode == 2


def test_huge_cut_count(tmp_path):
    """A stage lists its r columns, so a config with r = 2^40 once failed
    with a bare MemoryError after trying to list them: it exits exactly 2
    within 20 s, as an invalid construction, under a 1 GiB address space."""
    config = tmp_path / "huge_r.json"
    config.write_text('{"h1": 1, "stages": {"r": 1099511627776, "spacers": []}}')
    start = time.monotonic()
    result = _run("geometry", "--config", str(config), "--j", "1", timeout=20,
                  address_space=1 << 30)
    assert time.monotonic() - start < 20
    assert result.returncode == 2
    assert "invalid construction" in result.stdout + result.stderr


def test_construction_config_grammar(tmp_path):
    """The config that geometry prints for scaled(3/2) reads back to the
    same rows, and a parameter its rule does not read (a c on "zero") is an
    unknown key: exit exactly 2."""
    family = _run("geometry", "--family", "scaled(3/2)", "--j", "1..6")
    assert family.returncode == 0
    config = tmp_path / "scaled.json"
    config.write_text(json.dumps(json.loads(family.stdout)["config"]))
    read_back = _run("geometry", "--config", str(config), "--j", "1..6")
    assert read_back.returncode == 0
    assert json.loads(read_back.stdout)["rows"] == json.loads(family.stdout)["rows"]
    unread = tmp_path / "unread_c.json"
    unread.write_text('{"h1": 1, "stages": {"r": 2, "spacers": '
                      '["zero", {"rule": "zero", "c": 9}]}}')
    result = _run("geometry", "--config", str(unread), "--j", "1")
    assert result.returncode == 2
    assert "unknown spacer rule keys ['c']" in result.stdout + result.stderr


def test_mixed_stage_pairs():
    """Sets 98 stages apart: the kernel counts E1 against E99 through the
    stage gap, in the kernel's mixed-stage grouping, and never writes E1 out
    at stage 99 (2^98 levels), so both orientations exit exactly 0 within
    10 s each, with the same exact row at stage 99."""
    rows = []
    for args in (["--set", "E1", "--set-b", "E99", "--n", "3"],
                 ["--set", "E99", "--set-b", "E1", "--n", "-3"]):
        start = time.monotonic()
        result = _run("measure", "--family", "toy", *args, timeout=10)
        assert time.monotonic() - start < 10
        assert result.returncode == 0
        (row,) = json.loads(result.stdout)["rows"]
        rows.append({key: value for key, value in row.items() if key != "n"})
    assert rows[0] == rows[1]
    assert rows[0]["exact"] and rows[0]["resolved_stage"] == 99
