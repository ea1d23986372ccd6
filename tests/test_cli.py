import json
import time

import pytest
from click.testing import CliRunner

from rank1lab.cli import main


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


def test_env_cap_is_honored(runner, monkeypatch):
    monkeypatch.setenv("RANK1_MAX_STAGE", "6")
    result = runner.invoke(main, [
        "measure", "--family", "toy", "--set", "E1", "--n", "15",
    ])
    assert result.exit_code == 3


def test_bad_env_cap_is_config_error(runner, monkeypatch):
    monkeypatch.setenv("RANK1_MAX_STAGE", "abc")
    result = runner.invoke(main, [
        "measure", "--family", "toy", "--set", "E1", "--n", "3",
    ])
    assert result.exit_code == 2
    assert result.output.splitlines() == [
        "Error: RANK1_MAX_STAGE must be an integer, got 'abc'"
    ]


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
]

_REJECTED_INPUTS = [args for args, _ in _NAMED_REJECTIONS] + [
    ["geometry", "--family", "toy", "--j", "0"],
    ["geometry", "--config", {"family": "thm2"}, "--j", "2"],
    ["geometry", "--config", {"family": "toy", "N": 2}, "--j", "2"],
    ["geometry", "--config", {"h1": 2, "stages": 5}, "--j", "2"],
    ["geometry", "--family", "thm2(x)", "--j", "2"],
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

