import csv
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time
from decimal import Decimal

import click
import pytest
from click.testing import CliRunner

from rank1lab import __version__, cli
from rank1lab.cli import main
from rank1lab.construction import toy
from rank1lab.serde import format_rational
from rank1lab.tower import LevelSet, apply_power_bounds
from rank1lab.weak_limits import MAX_LISTED


@pytest.fixture
def runner():
    return CliRunner()


def test_geometry_json(runner):
    result = runner.invoke(main, ["geometry", "--family", "utv1", "--j", "5"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["rows"][0]["h"] == "720"
    assert payload["version"]
    assert payload["config"]["stages"]["r"] == 2


def test_geometry_csv_with_extras(runner):
    result = runner.invoke(main, [
        "geometry", "--family", "toy", "--j", "1..4",
        "--measure-sum", "--star-check", "--format", "csv",
    ])
    assert result.exit_code == 0
    assert "j,h,level_width" in result.output
    assert "4,15,1/8" in result.output
    assert "condition_star" in result.output


def test_family_spec_with_arguments(runner):
    result = runner.invoke(main, ["geometry", "--family", "thm2(2)", "--j", "2"])
    assert json.loads(result.output)["rows"][0]["h"] == "9"
    result = runner.invoke(main, ["geometry", "--family", "scaled(2)", "--j", "3"])
    assert json.loads(result.output)["rows"][0]["h"] == "48"


def test_bad_family_is_usage_error(runner):
    result = runner.invoke(main, ["geometry", "--family", "chacon", "--j", "2"])
    assert result.exit_code == 2


def test_construction_config_file(runner, tmp_path):
    config = tmp_path / "construction.json"
    config.write_text(json.dumps({
        "h1": 1,
        "base_width": "1/1",
        "stages": {"r": 2, "spacers": ["zero", {"rule": "j_times_h"}]},
    }))
    result = runner.invoke(main, ["geometry", "--config", str(config), "--j", "2"])
    assert result.exit_code == 0
    assert json.loads(result.output)["rows"][0]["h"] == "3"


@pytest.mark.parametrize("entry,message", [
    ({"rule": "zero", "c": 9}, "unknown spacer rule keys ['c']"),
    ({"rule": "constant", "c": 1, "a": "7/2"}, "unknown spacer rule keys ['a']"),
    ({"rule": [1]}, "unknown spacer rule [1]"),
    ({"rule": "fibonacci", "c": 2}, "unknown spacer rule 'fibonacci'"),
])
def test_bad_spacer_rule_in_a_config_is_a_config_error(runner, tmp_path, entry, message):
    # an unhashable kind too exits 2 with the rule named, not 1 with a traceback
    config = tmp_path / "construction.json"
    config.write_text(json.dumps({"h1": 1, "stages": {"r": 2, "spacers": ["zero", entry]}}))
    result = runner.invoke(main, ["geometry", "--config", str(config), "--j", "1"])
    assert result.exit_code == 2
    assert result.output == f"Error: bad construction config: {message}\n"


def test_family_and_config_are_exclusive(runner, tmp_path):
    config = tmp_path / "c.json"
    config.write_text("{}")
    result = runner.invoke(main, [
        "geometry", "--family", "toy", "--config", str(config), "--j", "2",
    ])
    assert result.exit_code == 2


def test_measure_exact_and_set_sugar(runner):
    result = runner.invoke(main, [
        "measure", "--family", "toy", "--set", "E1", "--n", "3",
    ])
    assert result.exit_code == 0
    row = json.loads(result.output)["rows"][0]
    assert (row["lo"], row["hi"], row["exact"]) == ("5/8", "5/8", True)


def test_measure_textual_set_and_shift_list(runner):
    result = runner.invoke(main, [
        "measure", "--family", "toy",
        "--set", "stage=3; levels=0,1,3,4", "--set-b", "T^1E3", "--n", "-2..2",
    ])
    assert result.exit_code == 0
    assert len(json.loads(result.output)["rows"]) == 5


def test_measure_inconclusive_exit_code(runner):
    result = runner.invoke(main, [
        "measure", "--family", "toy", "--set", "E1", "--n", "15",
        "--max-stage", "6",
    ])
    assert result.exit_code == 3
    assert json.loads(result.output)["status"] == "INCONCLUSIVE"


def test_measure_rows_equal_one_query_per_shift(runner):
    """The one ``power_profile`` behind ``measure`` gives every --n, negative,
    repeated and unresolved ones included, the lo, hi, exactness and resolved
    stage of its own ``apply_power_bounds``, and the status they imply."""
    shifts = [*range(-40, 41), 7, 7]
    result = runner.invoke(main, ["measure", "--family", "toy", "--set", "E1",
                                  "--n", "-40..40,7,7", "--max-stage", "6"])
    e1 = LevelSet.base(toy(), 1)
    single = [apply_power_bounds(e1, e1, n, 6) for n in shifts]
    assert not all(bound.exact for bound in single)
    payload = json.loads(result.output)
    assert (result.exit_code, payload["status"]) == (3, "INCONCLUSIVE")
    assert [[row[key] for key in ("n", "lo", "hi", "exact", "resolved_stage")]
            for row in payload["rows"]] == [
        [str(n), format_rational(bound.lo), format_rational(bound.hi), bound.exact,
         bound.resolved_stage] for n, bound in zip(shifts, single)]


def test_a_stage_cap_at_the_ceiling_answers(runner):
    """--max-stage 2000, the stage ceiling, is a cap and builds nothing a
    query does not reach: a shallow query answers at once."""
    result = runner.invoke(main, ["measure", "--family", "utv1", "--set", "E2", "--n", "1",
                                  "--max-stage", "2000"])
    assert result.exit_code == 0, result.output


_SCAN = ["products", "scan", "--family", "thm2(2)", "--m", "1", "--n", "3", "--set", "E2",
         "--k-lo", "1"]
_DENSITY = ["spectral", "density", "--family", "utv1", "--set", "E2", "--n", "0..4",
            "--order", "5"]


# (args, the library call they reach, the refusal if they do not)
@pytest.mark.parametrize("args,callee,refusal", [
    # --samples counts the shifts sample_shifts lists, min(samples, k_hi - k_lo)
    (_SCAN + ["--k-hi", "1000000000", "--samples", "200001"], "dissipativity_scan", None),
    (_SCAN + ["--k-hi", "200002", "--samples", "1000000000"], "dissipativity_scan", None),
    (_SCAN + ["--k-hi", "1000000000", "--samples", "200002"], "dissipativity_scan",
     "--samples would list 200002 shifts"),
    (_SCAN + ["--k-hi", "200003", "--samples", "1000000000"], "dissipativity_scan",
     "--samples would list 200002 shifts"),
    (_DENSITY + ["--grid", "200001"], "fejer_density", None),
    (_DENSITY + ["--grid", "200002"], "fejer_density", "--grid would list 200002 grid points"),
])
def test_counted_options_are_refused_past_the_limit_only(runner, monkeypatch, args, callee,
                                                         refusal):
    """--samples and --grid are counted against the list limit before
    anything is built: at the limit the command reaches the library, one
    past it the command exits 2 with one line naming the option."""
    def reached(*args, **kwargs):
        raise ValueError("reached")

    monkeypatch.setattr(cli, callee, reached)
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.output == (f"Error: {refusal}, above the limit of {MAX_LISTED}\n"
                             if refusal else "Error: reached\n")


def test_the_environment_sets_no_stage_cap(runner):
    """--max-stage is the one stage cap: RANK1_MAX_STAGE, once a global cap,
    is ignored, even when it is not a number."""
    args = ["measure", "--family", "toy", "--set", "E1", "--n", "3"]
    free = runner.invoke(main, args)
    ignored = runner.invoke(main, args, env={"RANK1_MAX_STAGE": "abc"})
    assert (free.exit_code, ignored.exit_code) == (0, 0)
    assert ignored.output == free.output


def test_bad_shift_range_is_usage_error(runner):
    result = runner.invoke(main, [
        "measure", "--family", "toy", "--set", "E1", "--n", "2..x",
    ])
    assert result.exit_code == 2
    assert result.output.splitlines() == [
        "Error: bad integer or range '2..x', expected e.g. 5 or 3..8"
    ]


def test_construction_invalid_at_a_stage_is_config_error(runner):
    # scaled(11/10) needs a spacer shorter than the tower: rejected while
    # its stages are built, not when the family is parsed
    result = runner.invoke(main, [
        "geometry", "--family", "scaled(11/10)", "--j", "1..8",
    ])
    assert result.exit_code == 2
    (line,) = result.output.splitlines()
    assert line.startswith("Error: invalid construction: scaled target spacer")


def test_oracle_command_and_refusal(runner):
    result = runner.invoke(main, [
        "oracle", "--family", "toy", "--set", "E1", "--n", "3", "--stage", "4",
    ])
    assert result.exit_code == 0
    row = json.loads(result.output)["rows"][0]
    assert row["value"] == "5/8" and row["fully_defined"] is True
    refusal = runner.invoke(main, [
        "oracle", "--family", "toy", "--set", "E1", "--n", "7", "--stage", "3",
    ])
    assert refusal.exit_code == 2


def test_oracle_refuses_huge_stages(runner):
    # h_30 = 31! cells: refused from the height alone, nothing is built
    huge = runner.invoke(main, [
        "oracle", "--family", "utv1", "--set", "E2", "--n", "3", "--stage", "30",
    ])
    assert huge.exit_code == 2
    assert "the oracle materializes at most" in huge.output
    # criterion 1's deep toy check needs stage 18 (262,143 cells)
    deep = runner.invoke(main, [
        "oracle", "--family", "toy", "--set", "E1", "--n", "15", "--stage", "18",
    ])
    assert deep.exit_code == 0


def test_limits_verify_pass_and_fail(runner):
    passing = runner.invoke(main, [
        "limits", "verify", "--family", "utv1",
        "--seq", "h_k", "--poly", "1/2*T^0", "--j", "3..8",
    ])
    assert passing.exit_code == 0
    failing = runner.invoke(main, [
        "limits", "verify", "--family", "utv1",
        "--seq", "h_k", "--poly", "1/4*T^0", "--j", "3..5",
    ])
    assert failing.exit_code == 1


def test_limits_verify_custom_pairs(runner):
    result = runner.invoke(main, [
        "limits", "verify", "--family", "utv1",
        "--seq", "h_k + 1", "--poly", "1/2*T^1", "--j", "3..6",
        "--pair", "E2|T^1E2", "--pair", "T^1E2|T^3E2",
    ])
    assert result.exit_code == 0


def test_limits_scan_dead_zone(runner):
    result = runner.invoke(main, [
        "limits", "scan", "--family", "utv1", "--j", "5", "--format", "csv",
    ])
    assert result.exit_code == 0
    assert "dead_zone_exact_zero=true" in result.output


def test_limits_eq4(runner):
    result = runner.invoke(main, [
        "limits", "eq4", "--big-n", "2", "--n", "2", "--p", "1",
    ])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["stages"] == [3, 6]
    assert payload["status"] == "PASS"


def test_joinings_witness(runner):
    result = runner.invoke(main, [
        "joinings", "witness", "--family", "utv1", "--m", "1", "--j", "4..6",
    ])
    assert result.exit_code == 0
    rows = json.loads(result.output)["rows"]
    assert [row["j"] for row in rows] == [4, 5, 6]
    assert all(row["margin_lo"] == "0" for row in rows)


def test_products_scan_with_ratio(runner):
    result = runner.invoke(main, [
        "products", "scan", "--family", "scaled(2)", "--right-family", "utv1",
        "--m", "1", "--n", "1", "--set", "E2",
        "--k-lo", "1", "--k-hi", "8", "--samples", "4",
        "--ratio-target", "2/1",
    ])
    payload = json.loads(result.output)
    assert payload["ratio_check"][0]["ratio"] == "2/1"


def test_huge_sample_counts_return_the_covered_range_fast(runner):
    """A count past the size of the range emits each shift once, without a
    loop over the count."""
    def scan(samples):
        return runner.invoke(main, [
            "products", "scan", "--family", "utv1", "--k-lo", "1", "--k-hi", "30",
            "--samples", samples,
        ])

    small = scan("1000")
    huge = scan("10000000")
    assert (huge.exit_code, huge.output) == (small.exit_code, small.output)
    # a loop over 10^15 samples could never finish; the bound only tells
    # O(span) from O(samples), not how fast the host is
    start = time.perf_counter()
    vast = scan(str(10**15))
    assert time.perf_counter() - start < 10.0
    assert (vast.exit_code, vast.output) == (small.exit_code, small.output)
    rows = json.loads(huge.output)["rows"]
    assert [int(row["k"]) for row in rows] == list(range(2, 31))


def test_spectral_commands(runner):
    corr = runner.invoke(main, [
        "spectral", "corr", "--family", "utv1", "--n", "0..7",
        "--h-stages", "3..4", "--format", "csv",
    ])
    assert corr.exit_code == 0
    assert "24,1/2" in corr.output and "120,1/2" in corr.output
    density = runner.invoke(main, [
        "spectral", "density", "--family", "utv1", "--n", "0..24",
        "--order", "25", "--grid", "16",
    ])
    assert density.exit_code == 0
    assert len(json.loads(density.output)["rows"]) == 16
    suspend = runner.invoke(main, [
        "spectral", "suspend", "--family", "utv1", "--k", "24", "--format", "csv",
    ])
    assert suspend.exit_code == 0
    assert "0.377540668798" in suspend.output


def test_density_with_unresolved_correlations_is_inconclusive(runner):
    """c(3..6) do not resolve by stage 3 on toy; counting them as zero would
    print a wrong estimate with exit 0."""
    args = ["spectral", "density", "--family", "toy", "--set", "E1", "--n", "0..6",
            "--order", "7", "--grid", "4"]
    capped = runner.invoke(main, args + ["--max-stage", "3"])
    assert capped.exit_code == 3
    payload = json.loads(capped.output)
    assert (payload["status"], payload["unresolved"], payload["rows"]) == (
        "INCONCLUSIVE", ["3", "4", "5", "6"], [])
    assert runner.invoke(main, args).exit_code == 0


def test_correlations_with_unresolved_values_are_inconclusive(runner):
    """c(5..20) of toy E2 do not resolve by stage 4, as measure's n = 15 does
    not: corr lists them as unresolved and exits 3 (INCONCLUSIVE), where it
    once exited 0; c(0..4) alone resolve under the same cap: exit 0, no
    status."""
    capped = runner.invoke(main, ["spectral", "corr", "--family", "toy", "--n", "0..20",
                                  "--max-stage", "4"])
    assert capped.exit_code == 3
    payload = json.loads(capped.output)
    assert payload["status"] == "INCONCLUSIVE"
    assert payload["unresolved"] == [str(n) for n in range(5, 21)]
    assert [row["n"] for row in payload["rows"]] == ["0", "1", "2", "3", "4"]
    measured = runner.invoke(main, ["measure", "--family", "toy", "--set", "E2", "--n", "15",
                                    "--max-stage", "4"])
    assert measured.exit_code == 3
    resolved = runner.invoke(main, ["spectral", "corr", "--family", "toy", "--n", "0..4",
                                    "--max-stage", "4"])
    assert resolved.exit_code == 0
    assert json.loads(resolved.output)["unresolved"] == []
    assert "status" not in json.loads(resolved.output)


def test_suspension_with_unresolved_values_is_inconclusive(runner):
    """spectral suspend --family toy --k 3..6 --max-stage 3: c(3) resolves,
    c(4..6) do not, so their values are intervals and the run exits 3
    (INCONCLUSIVE), where it once exited 0; a resolved run keeps exit 0 and
    prints no status."""
    capped = runner.invoke(main, ["spectral", "suspend", "--family", "toy", "--k", "3..6",
                                  "--max-stage", "3"])
    assert capped.exit_code == 3
    payload = json.loads(capped.output)
    assert payload["status"] == "INCONCLUSIVE"
    assert payload["rows"] == [
        {"k": "3", "value": "0.377540668798"},
        {"k": "4", "value": "[0,0.377540668798]"},
        {"k": "5", "value": "[0,0.377540668798]"},
        {"k": "6", "value": "[0,0.377540668798]"},
    ]
    resolved = runner.invoke(main, ["spectral", "suspend", "--family", "toy", "--k", "3"])
    assert resolved.exit_code == 0
    assert "status" not in json.loads(resolved.output)


def test_density_rejects_orders_its_shifts_do_not_cover(runner):
    """fejer_density reads a shift it was not given as zero, so an order past
    the computed shifts would print a wrong estimate with exit 0."""
    args = ["spectral", "density", "--family", "utv1", "--order", "25", "--grid", "4"]
    short = runner.invoke(main, args + ["--n", "0..4"])
    assert short.exit_code == 2
    assert short.output == (
        "Error: --n must cover every shift below --order 25: 5 is missing\n")
    # a gap is named even where the computed shifts below it are unresolved
    gap = runner.invoke(main, ["spectral", "density", "--family", "toy", "--set", "E1",
                               "--n", "0..3,5", "--order", "7", "--max-stage", "3"])
    assert gap.exit_code == 2
    assert "4 is missing" in gap.output
    assert runner.invoke(main, args + ["--n", "0..24"]).exit_code == 0


def test_thousand_stage_measure_exits_inconclusive(runner):
    """A shift near 2^1050 walks toy to stage 1059 and stays unresolved there:
    INCONCLUSIVE, not a recursion error read as a usage error."""
    result = runner.invoke(main, ["measure", "--family", "toy", "--set", "stage=2; levels=0",
                                  "--n", str(2**1050 + 5)])
    assert result.exit_code == 3
    (row,) = json.loads(result.output)["rows"]
    assert (row["lo"], row["resolved_stage"], row["exact"]) == ("17/256", 1059, False)


def _csv_rows(text: str) -> list[list[str]]:
    """The table of a --format csv report, without its "# key=value" meta lines."""
    return list(csv.reader(line for line in text.splitlines() if not line.startswith("#")))


@pytest.mark.parametrize("args", [
    ["products", "scan", "--family", "toy", "--set", "E1", "--k-lo", "1", "--k-hi", "40",
     "--samples", "3", "--max-stage", "4"],
    ["limits", "verify", "--family", "toy", "--seq", "h_k", "--poly", "1/2*T^5", "--j",
     "3..4", "--max-stage", "3", "--pair", "E1|E1"],
    ["spectral", "suspend", "--family", "toy", "--set", "E1", "--k", "3..5",
     "--max-stage", "3"],
    ["acceptance", "--only", "5", "--out", "{tmp}/acceptance.csv"],
], ids=["products", "limits", "suspend", "acceptance"])
def test_csv_quotes_cells_that_hold_commas(runner, tmp_path, args):
    """Intervals "[lo,hi]" and acceptance details hold commas; each row still
    parses into one field per column."""
    args = [arg.replace("{tmp}", str(tmp_path)) for arg in args] + ["--format", "csv"]
    result = runner.invoke(main, args)
    assert result.exception is None or isinstance(result.exception, SystemExit)
    text = (tmp_path / "acceptance.csv").read_text() if "--out" in args else result.output
    header, *rows = _csv_rows(text)
    assert rows and all(len(row) == len(header) for row in rows)
    assert any("," in cell for row in rows for cell in row)


def test_acceptance_single_criterion(runner):
    result = runner.invoke(main, ["acceptance", "--only", "2"])
    assert result.exit_code == 0
    assert "PASS criterion-2 halving" in result.output


def test_acceptance_known_defect_marker(runner):
    result = runner.invoke(main, ["acceptance", "--only", "6"])
    assert result.exit_code == 1
    assert "FAIL criterion-6" in result.output
    assert "[known-defect]" in result.output


def test_run_config_dispatch(runner, tmp_path):
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({
        "experiment": "limits",
        "construction": {"family": "utv1"},
        "params": {"seq": "h_k", "poly": "1/2*T^0", "j": "3..6"},
    }))
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 0
    assert json.loads(result.output)["status"] == "PASS"


def test_run_config_rejects_unknown_keys(runner, tmp_path):
    config = tmp_path / "exp.json"
    for rejected in (
        {"experiment": "geometry", "bogus": 1},
        {"experiment": "geometry", "construction": {"family": "toy"},
         "params": {"j": "2", "bogus": True}},
        {"experiment": "geometry", "construction": {"family": "toy"},
         "params": {"j": "2", "family": "utv1"}},
        {"experiment": "geometry", "construction": {"family": "toy"},
         "params": {"j": "2", "help": True}},
        {"experiment": "eq4", "construction": {"family": "toy"},
         "params": {"N": 2, "n": 2, "p": 1}},
    ):
        config.write_text(json.dumps(rejected))
        result = runner.invoke(main, ["run", "--config", str(config)])
        assert result.exit_code == 2, rejected


def test_run_config_unknown_experiment(runner, tmp_path):
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({"experiment": "teleport"}))
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 2


def test_run_rejects_a_list_for_a_single_valued_option(runner, tmp_path):
    """click keeps only the last value of a repeated single-valued option, so
    a list there would silently drop all but one item; --pair takes many."""
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({
        "experiment": "measure", "construction": {"family": "utv1"},
        "params": {"set": "E2", "n": ["1", "5"]},
    }))
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 2
    assert result.output.splitlines() == [
        "Error: parameter 'n' of experiment measure takes one value, not a list"]
    config.write_text(json.dumps({
        "experiment": "limits", "construction": {"family": "utv1"},
        "params": {"seq": "h_k", "poly": "1/2*T^0", "j": "3..4", "pair": ["E2|E2"]},
    }))
    assert runner.invoke(main, ["run", "--config", str(config)]).exit_code == 0


@pytest.mark.parametrize("text,fragment", [
    ("not json", "cannot read experiment config"),
    (json.dumps({"experiment": "spectral", "construction": {"family": "utv1"},
                 "params": {"op": "fourier"}}), "unknown spectral op 'fourier'"),
], ids=["unreadable", "spectral op"])
def test_run_rejects_a_bad_config(runner, tmp_path, text, fragment):
    config = tmp_path / "exp.json"
    config.write_text(text)
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 2
    assert fragment in result.output


def test_run_writes_the_top_level_out(runner, tmp_path):
    out = tmp_path / "report.csv"
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({
        "experiment": "geometry", "construction": {"family": "toy"},
        "params": {"j": "1..3"}, "format": "csv", "out": str(out),
    }))
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert (result.exit_code, result.output) == (0, "")
    direct = runner.invoke(main, ["geometry", "--family", "toy", "--j", "1..3", "--format", "csv"])
    assert out.read_text() == direct.output


def test_run_spectral_op(runner, tmp_path):
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({
        "experiment": "spectral",
        "construction": {"family": "utv1"},
        "params": {"op": "corr", "set": "E2", "n": "0..6"},
        "format": "csv",
    }))
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 0
    assert "6,1/2" in result.output


def test_out_file_written_complete(runner, tmp_path):
    out = tmp_path / "report.json"
    result = runner.invoke(main, [
        "geometry", "--family", "utv1", "--j", "3..5", "--out", str(out),
    ])
    assert result.exit_code == 0
    assert json.loads(out.read_text())["rows"][2]["h"] == "720"


def test_no_file_on_usage_error(runner, tmp_path):
    out = tmp_path / "report.json"
    result = runner.invoke(main, [
        "measure", "--family", "toy", "--set", "stage=9; shape=odd",
        "--n", "1", "--out", str(out),
    ])
    assert result.exit_code == 2
    assert not out.exists()


def test_reports_are_deterministic(runner):
    args = [
        "limits", "verify", "--family", "utv1",
        "--seq", "h_k+h_{k-1}", "--poly", "1/4*T^0", "--j", "4..7",
    ]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.output == second.output


def _materialize(args, tmp_path):
    """Write each JSON value in args to a file and put its path in its place."""
    out = []
    for i, arg in enumerate(args):
        if isinstance(arg, str):
            out.append(arg.replace("{tmp}", str(tmp_path)))
        else:
            path = tmp_path / f"arg{i}.json"
            path.write_text(json.dumps(arg))
            out.append(str(path))
    return out


_TOY_2002 = str(10**600)  # toy's start stage is 1994, its budget 2002
# stage options and shifts past the ceiling, each of which ran on for more
# than 7 s or ran out of memory before the ceiling was checked: (args, fragment)
_CEILING_REJECTIONS = [
    (["geometry", "--family", "utv1", "--j", "200001"],
     "Error: --j names stage 200001, above the ceiling of 2000 stages"),
    (["limits", "scan", "--family", "utv1", "--j", "50000"], "Error: --j names stage 50000"),
    (["limits", "eq4", "--N", "2", "--n", "1", "--p", "1", "--stages", "150426"],
     "Error: --stages names stage 150426"),
    (["measure", "--family", "utv1", "--set", "E50000", "--n", "1"],
     "Error: --set names stage 50000"),
    (["oracle", "--family", "toy", "--set", "E1", "--n", "1", "--stage", "100000"],
     "Error: --stage names stage 100000"),
    # a stage cap lets a query walk the chain up to it
    (["measure", "--family", "toy", "--set", "E1", "--n", "1", "--max-stage", "2001"],
     "Error: --max-stage names stage 2001, above the ceiling of 2000 stages"),
    # a shift is walked to its stage budget: 10^600 starts toy at stage 1994
    # and walks 8 stages on (7.2 s and 1.68 GB once)
    (["measure", "--family", "toy", "--set", "E1", "--n", _TOY_2002],
     "Error: --n walks to stage 2002, above the ceiling of 2000 stages"),
    (["spectral", "corr", "--family", "toy", "--set", "E1", "--n", f"0,{_TOY_2002}"],
     "Error: --n walks to stage 2002"),
    (["spectral", "suspend", "--family", "toy", "--set", "E1", "--k", f"-{_TOY_2002}"],
     "Error: --k walks to stage 2002"),
    # products scan walks m*k on the left construction and n*k on the right one
    (["products", "scan", "--family", "toy", "--set", "E1", "--m", "1000", "--k-lo", "1",
      "--k-hi", _TOY_2002[:-3]], "Error: --k-hi walks to stage 2002"),
    (["products", "scan", "--family", "toy", "--set", "E1", "--n", "-1000", "--k-lo", "1",
      "--k-hi", _TOY_2002[:-3]], "Error: --k-hi walks to stage 2002"),
]

# rejected inputs whose message must name what was wrong: (args, fragment)
_NAMED_REJECTIONS = [
    (["limits", "scan", "--family", "utv1", "--j", "5", "--dead-samples", "abc"],
     "--dead-samples"),
    (["limits", "scan", "--family", "utv1", "--j", "5", "--step", "0"], "step"),
    (["limits", "verify", "--family", "utv1", "--seq", "h_k", "--poly", "1/4*T^0",
      "--j", "4..3"], "'4..3'"),
    (["joinings", "witness", "--family", "utv1", "--j", "5..4"], "'5..4'"),
    # the shift menu of stage j needs h_(j-1); the message names the typed stage
    (["joinings", "witness", "--family", "utv1", "--j", "1..3"],
     "Error: witness stage j = 1 must be >= 2: its shift menu uses h_(j-1)"),
    (["geometry", "--family", "utv1", "--j", "3..1", "--measure-sum"], "'3..1'"),
    (["acceptance", "--only", "10"], "criterion 10"),
    (["products", "scan", "--family", "utv1", "--k-lo", "1", "--k-hi", "30",
      "--samples", "0"], "samples"),
    (["limits", "scan", "--family", "utv1", "--j", "5", "--dead-samples", "-5"],
     "dead_samples"),
    # a negative tolerance would turn an exact match into FAIL
    (["limits", "verify", "--family", "utv1", "--seq", "h_k", "--poly", "1/2*T^0",
      "--j", "3..5", "--tol", "-1"], "tol must be >= 0, got -1"),
    (["limits", "eq4", "--N", "2", "--n", "1", "--p", "1", "--tol", "-1/100"],
     "tol must be >= 0, got -1/100"),
    (["joinings", "witness", "--family", "utv1", "--eps", "-1"], "eps must be >= 0, got -1"),
    (["joinings", "witness", "--family", "utv1", "--grid", "-3"],
     "--grid must be >= 1, got -3"),
    # an empty rectangle grid would be a vacuous PASS
    (["joinings", "witness", "--family", "utv1", "--grid", "0"],
     "--grid must be >= 1, got 0"),
    # toy's spacers never open a dead zone, and an empty one would be a vacuous PASS
    (["limits", "scan", "--family", "toy", "--j", "4"],
     "Error: j = 4 opens no dead zone on toy: it would end at 1, below its start 29"),
    # a zero denominator is a usage error, not a crash that reads as FAIL
    (["limits", "verify", "--family", "utv1", "--seq", "h_k", "--poly", "1/0*T^0",
      "--j", "4..6"], "Error: zero denominator in polynomial term '1/0*T^0'"),
    (["limits", "verify", "--family", "utv1", "--seq", "h_k", "--poly", "1/0",
      "--j", "4..6"], "Error: zero denominator in polynomial term '1/0'"),
    # the set is checked before the shift is compared with h_2 = 3
    (["oracle", "--family", "toy", "--set", "E3", "--n", "5", "--stage", "2"],
     "Error: level set is finer than the system"),
    # a stage cap below 1 would silently lift the budget to the start stage
    (["measure", "--family", "toy", "--set", "E1", "--n", "3", "--max-stage", "-5"],
     "Error: --max-stage must be >= 1, got -5"),
    # a malformed family spec is one line that quotes it, not a traceback's
    # last line or a usage block
    (["geometry", "--family", "thm2(x)", "--j", "2"],
     "Error: bad family 'thm2(x)': the argument of thm2 must be an integer"),
    (["geometry", "--family", "thm2(2.5)", "--j", "2"],
     "Error: bad family 'thm2(2.5)': the argument of thm2 must be an integer"),
    (["geometry", "--family", "scaled(abc)", "--j", "2"],
     "Error: bad family 'scaled(abc)': the argument of scaled must be a rational p/q"),
    (["geometry", "--family", "thm2()", "--j", "2"], "Error: cannot parse family 'thm2()'"),
    (["geometry", "--family", "toy(3)", "--j", "2"],
     "Error: bad family 'toy(3)': only thm2 and scaled take an argument"),
    (["products", "scan", "--family", "utv1", "--right-family", "utv1(", "--k-lo", "1",
      "--k-hi", "5"], "Error: cannot parse family 'utv1('"),
    # a list with no integer in it would be a vacuous run: no rows, or every criterion
    (["measure", "--family", "utv1", "--set", "E2", "--n", ","],
     "Error: no integer in ',', expected e.g. 5, 3..8 or 1,2,8"),
    (["acceptance", "--only", ","], "Error: no integer in ','"),
    (["acceptance", "--only", ""], "Error: no integer in ''"),
    (["spectral", "suspend", "--family", "utv1", "--k", ","], "Error: no integer in ','"),
    (["spectral", "corr", "--family", "utv1", "--n", ""], "Error: no integer in ''"),
    (["limits", "eq4", "--big-n", "2", "--n", "1", "--p", "1", "--stages", ","],
     "Error: no integer in ','"),
    # a scan list is counted before it is built: these would run out of memory
    (["limits", "scan", "--family", "utv1", "--j", "7", "--dead-samples", "400000"],
     "Error: the dead zone would list 231841 shifts, above the limit of 200001: "
     "lower dead_samples"),
    (["limits", "scan", "--family", "utv1", "--j", "7", "--dead-samples", "all"],
     "Error: the dead zone would list 231841 shifts"),
    (["limits", "scan", "--family", "utv1", "--j", "10", "--step", "1"],
     "Error: the window would list 14515203 shifts, above the limit of 200001: raise step"),
    # a window of 4 x 40! shifts, counted without a C-sized length
    (["limits", "scan", "--family", "utv1", "--j", "40", "--step", "1"],
     "Error: the window would list 3263"),
    # 4 x 1901! has about 5,400 digits, more than str() prints
    (["limits", "scan", "--family", "utv1", "--j", "1900", "--step", "1"],
     "Error: the window would list 12967969135116205684298516149128040740029045534"),
    # a list option is counted from its bounds before it is listed, at the same limit
    (["measure", "--family", "utv1", "--set", "E2", "--n", "0..1000000000"],
     "Error: --n would list 1000000001 integers, above the limit of 200001"),
    (["spectral", "corr", "--family", "utv1", "--n", "5,0..200000"],
     "Error: --n would list 200002 integers"),
    (["spectral", "suspend", "--family", "utv1", "--k", "-1000000000..0"],
     "Error: --k would list 1000000001 integers"),
    (["limits", "eq4", "--big-n", "2", "--n", "1", "--p", "1", "--stages", "1..10000000000"],
     "Error: --stages would list 10000000000 integers"),
    (["acceptance", "--only", "1..200002"],
     "Error: --only would list 200002 integers, above the limit of 200001"),
    # every stage a command names is checked against the stage ceiling before
    # any stage is built: these would build stage after stage
    (["limits", "verify", "--family", "utv1", "--seq", "h_k", "--poly", "1/2*T^0",
      "--j", "3..1000000000"],
     "Error: --j names stage 1000000000, above the ceiling of 2000 stages"),
    (["geometry", "--family", "utv1", "--j", "1..1000000000"],
     "Error: --j names stage 1000000000"),
    (["joinings", "witness", "--family", "utv1", "--j", "2..1000000000"],
     "Error: --j names stage 1000000000"),
    (["spectral", "corr", "--family", "utv1", "--h-stages", "3..1000000000"],
     "Error: --h-stages names stage 1000000000"),
    # --j-max bounds the stages scanned for the spacer value |p|
    (["limits", "eq4", "--N", "2", "--n", "1", "--p", "1", "--j-max", "1000000000"],
     "Error: --j-max names stage 1000000000, above the ceiling of 2000 stages"),
    *_CEILING_REJECTIONS,
    (["spectral", "suspend", "--family", "utv1", "--set", "stage=2001; levels=0", "--k", "3"],
     "Error: --set names stage 2001"),
    (["products", "scan", "--family", "utv1", "--set-b", "E3000", "--k-lo", "1", "--k-hi", "5"],
     "Error: --set-b names stage 3000"),
    (["limits", "verify", "--family", "utv1", "--seq", "h_k", "--poly", "1/2*T^0",
      "--j", "3..4", "--pair", "E2|E5000"], "Error: --pair names stage 5000"),
    # h_1700 of utv1 has 4,700 digits, more than str() prints
    (["oracle", "--family", "utv1", "--set", "E2", "--n", "1", "--stage", "1700"],
     "Error: stage 1700 has 51001988026548691790866240277455074952051416167347008023"),
]

_REJECTED_INPUTS = [args for args, _ in _NAMED_REJECTIONS] + [
    ["geometry", "--family", "toy", "--j", "0"],
    ["geometry", "--config", {"family": "thm2"}, "--j", "2"],
    ["geometry", "--config", {"family": "toy", "N": 2}, "--j", "2"],
    ["geometry", "--config", {"h1": 2, "stages": 5}, "--j", "2"],
    ["limits", "verify", "--family", "utv1", "--seq", "h_k", "--poly", "1/2*T^0",
     "--j", "3..4", "--tol", "abc"],
    ["limits", "verify", "--family", "utv1", "--seq", "h_k", "--poly", "1/2*T^0",
     "--j", "3..4", "--tol", "1/0"],
    ["limits", "verify", "--family", "utv1", "--seq", "h_{k-3}", "--poly", "1/2*T^0",
     "--j", "3..4"],
    ["joinings", "witness", "--family", "utv1", "--eps", "x"],
    ["joinings", "witness", "--family", "utv1", "--j", "1..2"],
    ["products", "scan", "--family", "utv1", "--k-lo", "1", "--k-hi", "5",
     "--ratio-target", "x"],
    ["products", "scan", "--family", "utv1", "--k-lo", "1", "--k-hi", "5", "--m", "0"],
    ["spectral", "density", "--family", "utv1", "--order", "0"],
    ["spectral", "suspend", "--family", "utv1", "--set", "stage=2; levels=", "--k", "3"],
    ["geometry", "--family", "toy", "--j", "2", "--out", "{tmp}/missing/report.json"],
    ["geometry", "--family", "toy", "--j", "2", "--out", "{tmp}"],
    ["run", "--config", [1, 2]],
    ["run", "--config", {"experiment": "geometry", "params": 5}],
    ["run", "--config", {"experiment": "limits", "construction": {"family": "utv1"},
                         "params": {"seq": "h_k", "poly": "1/0*T^0", "j": "4..6"}}],
    ["run", "--config", {"experiment": "measure", "construction": {"family": "toy"},
                         "params": {"set": "E1", "n": "3", "max_stage": 0}}],
]


@pytest.mark.parametrize("args", _REJECTED_INPUTS, ids=lambda args: " ".join(
    a if isinstance(a, str) else json.dumps(a) for a in args))
def test_rejected_input_exits_2_with_one_line(runner, tmp_path, args):
    result = runner.invoke(main, _materialize(args, tmp_path))
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    (line,) = result.output.splitlines()
    assert line.startswith("Error: ")


@pytest.mark.parametrize("args,fragment", _NAMED_REJECTIONS,
                         ids=lambda value: " ".join(value) if isinstance(value, list) else None)
def test_rejection_names_the_bad_input(runner, args, fragment):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert fragment in result.output


@pytest.mark.parametrize("error", [MemoryError, RecursionError, OverflowError])
@pytest.mark.parametrize("target,args", [
    ("fejer_density", ["spectral", "density", "--family", "utv1", "--n", "0..4",
                       "--order", "5", "--grid", "8"]),
    ("dissipativity_scan", ["products", "scan", "--family", "utv1", "--k-lo", "1",
                            "--k-hi", "30"]),
], ids=["density", "products"])
def test_crash_exits_2_not_fail(runner, monkeypatch, error, target, args):
    """Running out of memory or stack is an error of the request, not FAIL."""
    def crash(*_args, **_kwargs):
        raise error("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, target, crash)
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    (line,) = result.output.splitlines()
    assert line.startswith("Error: ")


def test_crash_message_chains_no_exception(monkeypatch):
    """The usage error raised for a crash holds neither the crash nor its
    frames, which would keep the half-built data of the failing call alive
    while click formats the message."""
    def crash(*_args, **_kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "fejer_density", crash)
    with pytest.raises(cli._BadInput) as raised:
        main.main(["spectral", "density", "--family", "utv1", "--n", "0..4", "--order", "5",
                   "--grid", "8"], standalone_mode=False)
    error = raised.value
    assert error.__cause__ is None and error.__context__ is None
    assert error.message == "request too large for this host (MemoryError)"
    frames = []
    tb = error.__traceback__
    while tb is not None:
        frames.append(tb.tb_frame.f_code.co_name)
        tb = tb.tb_next
    assert "crash" not in frames and "spectral_density" not in frames


# Requests too large for the memory a child process is given: each must exit 2
# with one "Error:" line, never a traceback (the range once printed one and
# exited 1, the FAIL code, under a 1 GB limit).
_OVERSIZE_REQUESTS = [
    ["measure", "--family", "utv1", "--set", "E2", "--n", "0..60000000"],
    ["products", "scan", "--family", "thm2(2)", "--m", "1", "--n", "3", "--set", "E2",
     "--k-lo", "1", "--k-hi", "1000000000", "--samples", "100000000"],
    ["spectral", "density", "--family", "utv1", "--set", "E2", "--n", "0..4", "--order", "5",
     "--grid", "30000000"],
    # toy's stage chain past stage 4,900 (once a MemoryError after 5.3 s at 1.84 GB);
    # --set first keeps its id apart from the range's
    ["measure", "--set", "E1", "--family", "toy", "--n", str(10**1500)],
]
_CHILD_ADDRESS_SPACE = 1 << 30


@pytest.mark.parametrize("args", _OVERSIZE_REQUESTS, ids=lambda args: " ".join(args[:2]))
def test_oversize_request_exits_2_in_a_limited_child(args):
    def limit():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (_CHILD_ADDRESS_SPACE, _CHILD_ADDRESS_SPACE))

    source = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=source)
    result = subprocess.run([sys.executable, "-m", "rank1lab.cli", *args], env=env,
                            preexec_fn=limit, capture_output=True, text=True, timeout=120)
    assert result.returncode == 2, result.stderr[-2000:]
    assert "Traceback" not in result.stderr
    (line,) = result.stderr.splitlines()
    assert line.startswith("Error: ")
    assert result.stdout == ""


def test_list_option_at_the_limit_is_listed(runner):
    """200,001 integers are the most a list option takes: --only 1..200001 is
    listed and reaches the criteria, which name the unknown ones."""
    result = runner.invoke(main, ["acceptance", "--only", "1..200001"])
    assert result.exit_code == 2
    assert result.output.startswith("Error: no acceptance criterion 10, 11, 12, ")


@pytest.mark.parametrize("args,fragment", _CEILING_REJECTIONS,
                         ids=lambda value: " ".join(value) if isinstance(value, list) else None)
def test_stage_past_the_ceiling_is_refused_at_once(runner, args, fragment):
    """Refused before any stage is built; the message is checked with the
    other named rejections."""
    start = time.perf_counter()
    assert runner.invoke(main, args).exit_code == 2
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("args,reached", [
    (["joinings", "witness", "--family", "utv1", "--j", "1..2000"],
     "Error: witness stage j = 1 must be >= 2"),
    # no block of the spacer values below stage 2,000 is 700 stages long
    (["limits", "eq4", "--N", "2", "--n", "1", "--p", "700", "--j-max", "2000"],
     "Error: spacer-value preimage empty"),
    # toy stage 2,000 has 2^2000 - 1 cells, and its levels lie below that
    (["oracle", "--family", "toy", "--set", "E1", "--n", "1", "--stage", "2000"],
     "Error: stage 2000 has 1148130695274254524232833201177681984022"),
    (["measure", "--family", "toy", "--set", "stage=2000; levels=-1", "--n", "1"],
     "Error: bad set 'stage=2000; levels=-1': levels must lie in [0, 114813069527425"),
], ids=["span", "j-max", "stage", "set"])
def test_stage_options_at_the_limit_reach_the_library(runner, args, reached):
    """Stage 2,000, the ceiling, passes the check and is refused only by the
    library's own; stage 2,001 is refused first."""
    assert cli.STAGE_CEILING == 2000
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert reached in result.output
    over = [arg.replace("2000", "2001") for arg in args]
    result = runner.invoke(main, over)
    assert result.exit_code == 2
    assert "names stage 2001, above the ceiling of 2000 stages" in result.output


# (the shift whose stage budget is the ceiling, the one past it, the stage
# cap, the refusal of the one past it)
@pytest.mark.parametrize("under,over,cap,refusal", [
    (2**1991, 2**1992, [], "--n walks to stage 2001"),
    # |n| = h_1991 starts at stage 1992, and |n| = h_1992 at stage 1993
    (-(2**1991 - 1), -(2**1992 - 1), [], "--n walks to stage 2001"),
    (2**1991, 2**1999, [], "--n walks to stage 2008"),
    (2**1999, 2**2000, ["--max-stage", "2000"], "--n walks past stage 2000"),
    (2**1999, 2**2000, ["--max-stage", "1"], "--n walks past stage 2000"),
], ids=["budget", "negative-height", "start-at-ceiling", "max-stage", "low-max-stage"])
def test_shifts_at_the_limit_reach_the_library(runner, monkeypatch, under, over, cap, refusal):
    """A toy shift (h_j = 2^j - 1) whose stage budget is the ceiling passes
    the check and reaches the kernel; one walking a stage further is refused
    first.  The budget is the first stage taller than |n|, plus 8 without
    --max-stage, else --max-stage but at least that stage."""
    def reached(*args, **kwargs):
        raise ValueError("reached")

    monkeypatch.setattr(cli, "power_profile", reached)
    args = ["measure", "--family", "toy", "--set", "E1", *cap, "--n"]
    result = runner.invoke(main, args + [str(under)])
    assert (result.exit_code, result.output) == (2, "Error: reached\n")
    result = runner.invoke(main, args + [str(over)])
    assert result.exit_code == 2
    assert result.output == f"Error: {refusal}, above the ceiling of 2000 stages\n"


@pytest.mark.parametrize("args", [
    ["measure", "--family", "toy", "--set", "E1", "--set-b", "E99", "--n", "3"],
    ["measure", "--family", "toy", "--set", "E99", "--set-b", "E1", "--n", "-3"],
], ids=["shallow-source", "deep-source"])
def test_sets_98_stages_apart_answer_at_once(runner, args):
    """E1 is never written out at stage 99 (2^98 levels): the pair counts
    through the stage gap in the kernel's recursion."""
    start = time.perf_counter()
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert time.perf_counter() - start < 1.0
    (row,) = json.loads(result.output)["rows"]
    assert row["lo"] == row["hi"] == "0/1" and row["resolved_stage"] == 99


def test_integers_past_4300_digits_print(runner):
    """h_1700 of utv1 is 1701!, with 4,700 digits, past str()'s default limit."""
    result = runner.invoke(main, ["geometry", "--family", "utv1", "--j", "1700"])
    assert result.exit_code == 0, result.output
    (row,) = json.loads(result.output)["rows"]
    assert int(Decimal(row["h"])) == math.factorial(1701)
    assert len(row["h"]) > 4300 and row["level_width"].startswith("1/")


def test_witness_prints_shifts_past_4300_digits(runner):
    """The stage-1650 witness shift of utv1 has about 4,600 digits."""
    result = runner.invoke(main, ["joinings", "witness", "--family", "utv1", "--j", "1650"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["status"] == "PASS"
    (row,) = report["rows"]
    assert len(row["k_chosen"]) > 4300 and row["margin_lo"] == "0"


def _leaf_commands(group, path=()):
    for name, command in sorted(group.commands.items()):
        if isinstance(command, click.Group):
            yield from _leaf_commands(command, path + (name,))
        else:
            yield path + (name,), command


@pytest.mark.parametrize("path,command", list(_leaf_commands(main)),
                         ids=lambda value: " ".join(value) if isinstance(value, tuple) else "")
def test_help_shows_the_command_docstring(runner, path, command):
    doc = (command.callback.__doc__ or "").strip()
    assert doc
    result = runner.invoke(main, [*path, "--help"])
    assert result.exit_code == 0
    assert doc.splitlines()[0] in result.output


_EXPLICIT = {
    "h1": 1,
    "base_width": "1/1",
    "stages": {"r": 2, "spacers": ["zero", {"rule": "j_times_h"}]},
}

# (run config, the same experiment as a direct subcommand)
_RUN_VERSUS_DIRECT = [
    ({"experiment": "geometry", "construction": {"family": "toy"}, "format": "csv",
      "params": {"j": "1..3", "star_check": True, "measure_sum": True}},
     ["geometry", "--family", "toy", "--j", "1..3", "--star-check", "--measure-sum",
      "--format", "csv"]),
    ({"experiment": "geometry", "construction": _EXPLICIT, "params": {"j": "1..4"}},
     ["geometry", "--config", _EXPLICIT, "--j", "1..4"]),
    ({"experiment": "measure", "construction": {"family": "toy"},
      "params": {"set": "E1", "n": "15", "max_stage": 6}},
     ["measure", "--family", "toy", "--set", "E1", "--n", "15", "--max-stage", "6"]),
    ({"experiment": "oracle", "construction": {"family": "toy"},
      "params": {"set": "E1", "n": 3, "stage": 4}},
     ["oracle", "--family", "toy", "--set", "E1", "--n", "3", "--stage", "4"]),
    ({"experiment": "limits", "construction": {"family": "utv1"},
      "params": {"seq": "h_k", "poly": "1/4*T^0", "j": "3..4", "pair": ["E2|E2", "E2"]}},
     ["limits", "verify", "--family", "utv1", "--seq", "h_k", "--poly", "1/4*T^0",
      "--j", "3..4", "--pair", "E2|E2", "--pair", "E2"]),
    ({"experiment": "scan", "construction": {"family": "utv1"},
      "params": {"j": 4, "dead_samples": 8}},
     ["limits", "scan", "--family", "utv1", "--j", "4", "--dead-samples", "8"]),
    ({"experiment": "eq4", "params": {"N": 2, "n": 2, "p": 1}},
     ["limits", "eq4", "--big-n", "2", "--n", "2", "--p", "1"]),
    ({"experiment": "eq4", "params": {"big_n": 2, "n": 1, "p": 1}},
     ["limits", "eq4", "--N", "2", "--n", "1", "--p", "1"]),
    ({"experiment": "joinings", "construction": {"family": "utv1"},
      "params": {"m": 1, "j": "4..5", "grid": 2}},
     ["joinings", "witness", "--family", "utv1", "--m", "1", "--j", "4..5", "--grid", "2"]),
    ({"experiment": "products", "construction": {"family": "thm2", "N": 2},
      "params": {"n": 3, "k_lo": 1, "k_hi": 500, "samples": 8}},
     ["products", "scan", "--family", "thm2(2)", "--n", "3", "--k-lo", "1",
      "--k-hi", "500", "--samples", "8"]),
    ({"experiment": "spectral", "construction": {"family": "utv1"},
      "params": {"n": "0..6"}, "format": "csv"},
     ["spectral", "corr", "--family", "utv1", "--n", "0..6", "--format", "csv"]),
    ({"experiment": "spectral", "construction": {"family": "scaled", "a": "3/2"},
      "params": {"op": "density", "n": "0..8", "order": 9, "grid": 8}},
     ["spectral", "density", "--family", "scaled(3/2)", "--n", "0..8", "--order", "9",
      "--grid", "8"]),
    ({"experiment": "spectral", "construction": {"family": "utv1"},
      "params": {"op": "suspend", "k": "24,120"}},
     ["spectral", "suspend", "--family", "utv1", "--k", "24,120"]),
    ({"experiment": "acceptance", "params": {"only": "2"}},
     ["acceptance", "--only", "2"]),
]


@pytest.mark.parametrize("config,direct", _RUN_VERSUS_DIRECT,
                         ids=[direct[0] + "-" + str(i) for i, (_, direct)
                              in enumerate(_RUN_VERSUS_DIRECT)])
def test_run_matches_direct_subcommand(runner, tmp_path, config, direct):
    via_run = runner.invoke(main, _materialize(["run", "--config", config], tmp_path))
    via_direct = runner.invoke(main, _materialize(direct, tmp_path))
    assert via_direct.exception is None or isinstance(via_direct.exception, SystemExit)
    assert via_run.stdout == via_direct.stdout
    assert via_run.exit_code == via_direct.exit_code



# Every subcommand on its PASS, FAIL, INCONCLUSIVE and exit-2 paths, pinned by
# exit code and the sha256 of the whole output (stdout, plus the Error: lines
# of an exit 2).  The tool version in report meta is masked before hashing, so
# a version bump moves no digest.  Float-formatted outputs (spectral density,
# spectral suspend) are left out: their last digits may differ between numpy
# builds.
_PINNED_OUTPUTS = [
    (["geometry", "--family", "utv1", "--j", "1..6"],
     0, "724431226b7bbd0bce8062e7e1f0784226ef774e70d27c27caab51f166f9fc1f"),
    (["geometry", "--family", "toy", "--j", "1..4", "--star-check", "--measure-sum",
      "--format", "csv"],
     0, "06ffbec4430eac6d64f30944b81f2f63b26d18fe13d03ff7cb09776c773ed689"),
    (["geometry", "--family", "thm2(3)", "--j", "2..4", "--star-check"],
     0, "10d18df716180784c2ee41c2c0a41710891b6d64f04cf5cafdc624b5664f5271"),
    (["geometry", "--family", "scaled(11/10)", "--j", "1..8"],
     2, "0dcc48a741b837374c96a0397961648ef2e0fa39326d49099380210dabf1f5d9"),
    (["geometry", "--j", "2"],
     2, "ea1a66ed759ad6fa1ed32c3875386643fd00bf146849f606b0487f47ef4befeb"),
    (["measure", "--family", "toy", "--set", "E1", "--n", "-3..3"],
     0, "5e1e17593f7fabe07b5f9403912015988c5275164881c2785da1eb25e7381ea2"),
    (["measure", "--family", "utv1", "--set", "stage=3; levels=0,1,3,4", "--set-b", "T^1E3",
      "--n", "0..10", "--format", "csv"],
     0, "468c1f2a5f20352071390b279152e29406cf4cae6390ca525ccc9de3f0ad396a"),
    (["measure", "--family", "toy", "--set", "E1", "--n", "15", "--max-stage", "6"],
     3, "a348201a2411762512c2be86b1b3b313212a5c8f201f75d06052cc8c99d5f454"),
    (["measure", "--family", "toy", "--set", "stage=9; shape=odd", "--n", "1"],
     2, "63b764939ca836c7c14f356ffb48a3cab8b35c79774a3d2eb8e944b96a45a1a0"),
    # a field given twice would answer for its last value, here stage 3
    (["measure", "--family", "toy", "--set", "stage=2; stage=3; levels=0", "--n", "1"],
     2, "f309d44a08daa819adb82b86c1711b530ff711f360e8ef31f073d31b55f212d5"),
    (["oracle", "--family", "toy", "--set", "E1", "--n", "3", "--stage", "4"],
     0, "7dbbbe58d6ad0b253667291fdb14f801cf0c00f1be21807bc74562579411e702"),
    (["oracle", "--family", "utv1", "--set", "E2", "--set-b", "T^1E2", "--n", "5",
      "--stage", "5", "--format", "csv"],
     0, "a490b223e049fdb1156bbfb32c311eaec5d90e4388816aa906f89a2dddfa8684"),
    (["oracle", "--family", "utv1", "--set", "E2", "--n", "3", "--stage", "30"],
     2, "39327312202e62c51c702a01e1ee9d1e3c09ea67ff4b0d0b20d330f4440f65ae"),
    (["limits", "verify", "--family", "utv1", "--seq", "h_k", "--poly", "1/2*T^0", "--j",
      "3..8"],
     0, "57011c5c1492013578c5f16d0eb6aea2bb8c3b763ebf2c9a8e28157a50d65b52"),
    (["limits", "verify", "--family", "utv1", "--seq", "h_k", "--poly", "1/4*T^0", "--j",
      "3..5", "--format", "csv"],
     1, "450e19593c89207c3f142ad03858d3f7855d5f656c3c6a6de5ac3f28a1f17c63"),
    (["limits", "verify", "--family", "utv1", "--seq", "h_k + 1", "--poly", "1/2*T^1",
      "--j", "3..6", "--pair", "E2|T^1E2", "--pair", "T^1E2|T^3E2"],
     0, "f4fb92f18191448c5274788a64bd5cd096da03902034328d612ee73be2d60724"),
    (["limits", "verify", "--family", "toy", "--seq", "h_k", "--poly", "1/2*T^0", "--j",
      "3..5", "--max-stage", "3"],
     3, "27c4b7e145ed9c2ca2dca1aacfdc7bb205eab4b34dce84f580d8af2cce5e7574"),
    (["limits", "verify", "--family", "utv1", "--seq", "h_k", "--poly", "1/4*T^0", "--j",
      "4..3"],
     2, "ed5ed050c05dd5d8212bb92b3adc5d861a6c64557bf7a542c7447bfb366d800c"),
    (["limits", "scan", "--family", "utv1", "--j", "5", "--format", "csv"],
     0, "abb8637e6361226dd78e2a12e0db391bba6a5c445a361980c24474f8dbac66e6"),
    (["limits", "scan", "--family", "thm2(2)", "--j", "4"],
     1, "1aea9ada24abe6356ffcd008835b08c7afb23048a3b33f0a4806849e136b4ddd"),
    (["limits", "scan", "--family", "thm2(2)", "--j", "6", "--max-stage", "1"],
     3, "ef12223a7a41b489c70a93e293f969e96a6562280278bf2b7bb2e0818139149b"),
    (["limits", "scan", "--family", "utv1", "--j", "5", "--set-b", "T^1E2",
      "--dead-samples", "8", "--step", "7"],
     0, "aef82125905021cdedd27128c5993566f2369928139ef694a3517315c2a9b8c1"),
    (["limits", "scan", "--family", "utv1", "--j", "5", "--step", "0"],
     2, "58aa394e2f8f781848651c5f25ff2f4fccb2b0849e5e954f793d81314195a4a7"),
    (["limits", "eq4", "--N", "2", "--n", "2", "--p", "1"],
     0, "23ea0bfe16f20a626e112795bd6acb3275d0ebff4fcf0af810a3b14c0a72253f"),
    (["limits", "eq4", "--N", "3", "--n", "2", "--p", "-1", "--stages", "3,6", "--format",
      "csv"],
     0, "b494f47e4f79c689ff4aafc0e934c5b5ed21603a685ac76fd8997486d739e45c"),
    (["limits", "eq4", "--N", "3", "--n", "1", "--p", "2", "--stages", "5"],
     2, "8f94da3bf7cf91fc243d449b16783ce6aa0bac14cf5ad5455acfcbc4fa54499c"),
    (["joinings", "witness", "--family", "utv1", "--m", "1", "--j", "4..6"],
     0, "55b2fd03d1fa2c401f8b17dd081b2b1b3b1ff187bfa76640decf07099e9035d8"),
    (["joinings", "witness", "--family", "thm2(2)", "--m", "1", "--j", "3..5", "--format",
      "csv"],
     0, "73d8f7ecc51773ae2216b06029f2dd2e4b15e2dd0b901c5a344e6ac544697f4f"),
    (["joinings", "witness", "--family", "toy", "--j", "3..5", "--grid", "2", "--m", "2",
      "--max-stage", "1"],
     3, "df112cd8fe0beb7cb1a7b8a440471af26bd6a08d821e5ff8ebc46f57f7d83611"),
    (["joinings", "witness", "--family", "utv1", "--j", "1..3"],
     2, "d78426e41aca0558ef056377d4110edfbad720594bf4e0b046560a29aa954080"),
    (["products", "scan", "--family", "thm2(2)", "--m", "1", "--n", "3", "--set", "E2",
      "--k-lo", "283", "--k-hi", "2264"],
     1, "2e5a2c5960d7b7312eaa5c44575b90739a9ce8c3f5495ed58d2c492b0063af11"),
    (["products", "scan", "--family", "thm2(2)", "--m", "1", "--n", "3", "--set", "E2",
      "--k-lo", "15867", "--k-hi", "126936", "--format", "csv"],
     0, "c58781df52f1f873ff8f9b258215a05194f495a048068e556b5de746b19cb1f0"),
    (["products", "scan", "--family", "scaled(2)", "--right-family", "utv1", "--set", "E2",
      "--k-lo", "1", "--k-hi", "8", "--samples", "4", "--ratio-target", "2/1"],
     0, "c8346c01478c9797208366ea1a1cdafec1cce75f8db7e07a3513736a9ce99811"),
    (["products", "scan", "--family", "utv1", "--set", "E2", "--k-lo", "5", "--k-hi", "60",
      "--samples", "8", "--max-stage", "1"],
     3, "bc5a06b6d9641a9bbd3f6e791cbc4c5b122b8543033ab8d4a3af1ac36d7f5021"),
    (["products", "scan", "--family", "toy", "--set", "E1", "--set-b", "T^1E1", "--k-lo",
      "1", "--k-hi", "30", "--samples", "8", "--max-stage", "2"],
     2, "a45164091ad3fae6580312ef0809a2f14f5409a4a47cde153e48e3e5048585ca"),
    (["products", "scan", "--family", "utv1", "--k-lo", "1", "--k-hi", "5", "--m", "0"],
     2, "669b64968c1504a604613828afa2423fd442d5c3c2037d027a2f7475483eadde"),
    (["spectral", "corr", "--family", "utv1", "--n", "0..7", "--h-stages", "3..4",
      "--format", "csv"],
     0, "2d9cd79b894a888bcc313b97be7577fecca136ea0bcc870f6113098c72dffb6d"),
    (["spectral", "corr", "--family", "toy", "--n", "0..20", "--max-stage", "4"],
     3, "2cf9c55bc075b3b269db704196b73f255e53ee5060d6885f8b937bd44dacb533"),
    (["acceptance", "--only", "2,3"],
     0, "3d65816d7debbf982af8120c78a4cacd77661be230f1375473fdce3be8bcd47e"),
    (["acceptance", "--only", "6"],
     1, "f391e40db5a9635f08a0a3ebd8f152dd6e38520835f69006e9f59f32687dce22"),
    (["acceptance", "--only", "10"],
     2, "8dbf56d448e39dbd4ddd7b32ad7db2ae8fdf72dfe302e4fbd49cd199bc8dc537"),
    (["run", "--config", {"experiment": "limits", "construction": {"family": "utv1"},
                          "params": {"seq": "h_k", "poly": "1/2*T^0", "j": "3..6"}}],
     0, "0a63529e7054ef542aab97ec5a39b6c6b793053545efd637c01b33e0050bcb7e"),
    (["run", "--config", {"experiment": "eq4", "params": {"N": 2, "n": 1, "p": 1},
                          "format": "csv"}],
     0, "5789107964717ccd6139621782e0db6de8f2dcbf034d3a298509b7d3bfe8157d"),
    (["run", "--config", {"experiment": "teleport"}],
     2, "4390626a194f8259b1a9c9d3e439c0b432e606e3379eff398b3555f5dad1a74a"),
]


@pytest.mark.parametrize("args,exit_code,digest", _PINNED_OUTPUTS,
                         ids=[" ".join(a for a in args if isinstance(a, str))
                              for args, _, _ in _PINNED_OUTPUTS])
def test_pinned_outputs(runner, tmp_path, args, exit_code, digest):
    result = runner.invoke(main, _materialize(args, tmp_path))
    assert result.exit_code == exit_code
    output = result.output.replace(f'"{__version__}"', '"<version>"')
    assert hashlib.sha256(output.encode()).hexdigest() == digest
