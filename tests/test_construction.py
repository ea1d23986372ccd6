import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import rank1lab
from rank1lab.construction import (
    FAMILY_ARGUMENTS,
    ConstructionParams,
    CutRule,
    InvalidConstructionError,
    SpacerRule,
    block_sequence,
    condition_star_check,
    family,
    infinite_measure_partial_sum,
    params_from_config,
    params_to_config,
    scaled,
    stage_geometry,
    thm2,
    toy,
    utv1,
)
from rank1lab.serde import MAX_LISTED


def test_toy_stage_four():
    geom = stage_geometry(toy(), 4)
    assert geom.h == 15
    assert geom.level_width == Fraction(1, 8)


def test_utv1_stage_five():
    assert stage_geometry(utv1(), 5).h == 720


def test_stage_one_is_base_case():
    params = toy()
    geom = stage_geometry(params, 1)
    assert geom.h == params.h1
    assert geom.level_width == params.base_width
    assert geom.column_offsets == (0, 1)  # spacers (0, 1) on height 1


def test_utv1_heights_are_factorials():
    params = utv1()
    for j in range(1, 13):
        assert stage_geometry(params, j).h == math.factorial(j + 1)


def test_scaled_two_doubles_reference_heights():
    doubled = scaled(2)
    reference = utv1()
    for j in range(1, 10):
        assert stage_geometry(doubled, j).h == 2 * stage_geometry(reference, j).h


def test_scaled_three_halves():
    params = scaled(Fraction(3, 2))
    for j in range(1, 9):
        expected = -((-3 * math.factorial(j + 1)) // 2)
        assert stage_geometry(params, j).h == expected


def test_scaled_too_close_to_one_rejected():
    params = scaled(Fraction(7, 6))
    with pytest.raises(InvalidConstructionError, match="scaled target"):
        stage_geometry(params, 2)


def test_scaled_requires_a_above_one():
    with pytest.raises(InvalidConstructionError):
        scaled(1)


def test_thm2_requires_n_at_least_two():
    with pytest.raises(InvalidConstructionError):
        thm2(1)


def test_thm2_spacer_vector_shape():
    geom = stage_geometry(thm2(3), 4)
    assert geom.r == 4
    assert geom.spacers == (0, 0, block_sequence(4), 4 * geom.h)


def test_block_sequence_prefix():
    prefix = [block_sequence(j) for j in range(1, 15)]
    assert prefix == [1, 2, 1, 2, 3, 1, 2, 3, 4, 1, 2, 3, 4, 5]


def test_cut_count_below_two_rejected():
    with pytest.raises(InvalidConstructionError):
        CutRule("constant", 1)


def test_growing_cut_rule():
    params = ConstructionParams(
        h1=1, cuts=CutRule("j_plus", 1), spacer_tail=(SpacerRule("constant", 1),)
    )
    for j in range(1, 6):
        geom = stage_geometry(params, j)
        assert geom.r == j + 1
        nxt = stage_geometry(params, j + 1)
        assert nxt.h == geom.h * geom.r + sum(geom.spacers)


def test_cut_count_above_the_listed_limit_rejected():
    # a stage lists its r columns, so r is bounded as a listed option is; a
    # j_plus rule is refused at the first stage where j + c passes the limit
    params = ConstructionParams(h1=1, cuts=CutRule("j_plus", MAX_LISTED - 1), spacer_tail=())
    assert params.cut_count(1) == MAX_LISTED
    with pytest.raises(InvalidConstructionError, match=f"cut count {MAX_LISTED + 1} at "
                       f"stage 2 is above the limit of {MAX_LISTED}"):
        params.cut_count(2)


def test_spacer_tail_longer_than_columns_rejected():
    params = ConstructionParams(
        h1=1,
        cuts=CutRule("constant", 2),
        spacer_tail=(SpacerRule("zero"), SpacerRule("zero"), SpacerRule("zero")),
    )
    with pytest.raises(InvalidConstructionError, match="columns"):
        stage_geometry(params, 1)


_spacer_rules = st.sampled_from(
    [
        SpacerRule("zero"),
        SpacerRule("constant", 1),
        SpacerRule("constant", 2),
        SpacerRule("linear", 1),
        SpacerRule("j_times_h"),
        SpacerRule("times_height", 1),
    ]
)


@st.composite
def _params(draw):
    h1 = draw(st.integers(min_value=1, max_value=3))
    r = draw(st.integers(min_value=2, max_value=3))
    tail = tuple(draw(st.lists(_spacer_rules, min_size=1, max_size=r)))
    width = draw(st.sampled_from([Fraction(1), Fraction(2, 3), Fraction(5)]))
    return ConstructionParams(
        h1=h1, cuts=CutRule("constant", r), spacer_tail=tail, base_width=width
    )


@settings(max_examples=60, deadline=None)
@given(_params(), st.integers(min_value=1, max_value=5))
def test_height_recursion_invariant(params, j):
    geom = stage_geometry(params, j)
    nxt = stage_geometry(params, j + 1)
    assert nxt.h == geom.h * geom.r + sum(geom.spacers)
    assert nxt.level_width == geom.level_width / geom.r
    assert nxt.space_measure >= geom.space_measure


@settings(max_examples=60, deadline=None)
@given(_params(), st.integers(min_value=1, max_value=5))
def test_column_offsets_telescope(params, j):
    geom = stage_geometry(params, j)
    offsets = geom.column_offsets
    assert offsets[0] == 0
    for i in range(len(offsets) - 1):
        assert offsets[i + 1] - offsets[i] == geom.h + geom.spacers[i]
    assert geom.next_height == offsets[-1] + geom.h + geom.spacers[-1]


@pytest.mark.parametrize("params", [toy(), utv1(), thm2(2)])
def test_width_times_subdivision_is_base_width(params):
    subdivision = 1
    for j in range(1, 11):
        geom = stage_geometry(params, j)
        assert geom.level_width * subdivision == params.base_width
        subdivision *= geom.r


def test_partial_sum_toy():
    report = infinite_measure_partial_sum(toy(), 3)
    assert report.total == Fraction(31, 42)
    assert report.terms == (Fraction(1, 2), Fraction(1, 6), Fraction(1, 14))


def test_partial_sum_utv1():
    assert infinite_measure_partial_sum(utv1(), 3).total == 3


def test_partial_sum_zero_spacers():
    params = ConstructionParams(
        h1=2, cuts=CutRule("constant", 2), spacer_tail=(SpacerRule("zero"),)
    )
    report = infinite_measure_partial_sum(params, 5)
    assert report.total == 0
    assert not report.diverging


def test_divergence_heuristic_separates_families():
    assert infinite_measure_partial_sum(utv1(), 12).diverging
    assert not infinite_measure_partial_sum(toy(), 12).diverging


def test_condition_star_utv1_passes():
    report = condition_star_check(utv1(), 6)
    assert report.passed
    assert [chain[0] for chain in report.chains] == [Fraction(1, j) for j in range(1, 7)]


def test_condition_star_toy_fails():
    report = condition_star_check(toy(), 6)
    assert not report.passed
    assert not report.violations  # ratios grow, but nothing is structurally invalid


def test_condition_star_nonzero_first_spacer_is_violation():
    params = ConstructionParams(
        h1=1,
        cuts=CutRule("constant", 2),
        spacer_tail=(SpacerRule("constant", 1), SpacerRule("j_times_h")),
    )
    report = condition_star_check(params, 4)
    assert any("s_1(1)" in v or "(1) != 0" in v for v in report.violations)
    assert not report.passed


def test_condition_star_zero_interior_spacer_reported_not_raised():
    params = ConstructionParams(
        h1=1,
        cuts=CutRule("constant", 3),
        spacer_tail=(SpacerRule("zero"), SpacerRule("zero"), SpacerRule("j_times_h")),
    )
    report = condition_star_check(params, 4)
    assert any("zero interior" in v for v in report.violations)


def test_condition_star_requires_constant_cuts():
    params = ConstructionParams(
        h1=1, cuts=CutRule("j_plus", 1), spacer_tail=(SpacerRule("constant", 1),)
    )
    with pytest.raises(ValueError, match="constant cut count"):
        condition_star_check(params, 4)


def test_family_config_roundtrip():
    assert params_from_config({"family": "utv1"}) == utv1()
    assert params_from_config({"family": "thm2", "N": 2}) == thm2(2)
    assert params_from_config({"family": "scaled", "a": "3/2"}) == scaled(Fraction(3, 2))


def test_explicit_config_example():
    config = {
        "h1": 1,
        "base_width": "1/1",
        "stages": {"r": 2, "spacers": ["zero", {"rule": "j_times_h"}]},
    }
    params = params_from_config(config)
    assert params.h1 == 1
    assert stage_geometry(params, 2).h == 3  # 1*2 + 1*1


def test_config_roundtrip_explicit_form():
    for params in (toy(), utv1(), thm2(2), scaled(2)):
        assert params_from_config(params_to_config(params)) == params


def test_config_roundtrip_j_plus_cut_rule():
    params = ConstructionParams(
        h1=2, cuts=CutRule("j_plus", 1), spacer_tail=(SpacerRule("constant", 3),))
    config = params_to_config(params)
    assert config["stages"]["r"] == {"rule": "j_plus", "c": 1}
    assert params_from_config(config) == params
    assert [stage_geometry(params_from_config(config), j).r for j in (1, 2, 3)] == [2, 3, 4]


def test_family_arguments_are_the_one_schema():
    """``FAMILY_ARGUMENTS`` is what ``family``, the config form and the CLI
    spec read: each family takes exactly its keyword, parsed by its parser."""
    assert set(FAMILY_ARGUMENTS) == {"thm2", "scaled"}
    for name, (key, parse, _) in FAMILY_ARGUMENTS.items():
        with pytest.raises(InvalidConstructionError, match=rf"takes arguments \['{key}'\]"):
            family(name)
        assert params_from_config({"family": name, key: "3"}) == family(name, **{key: parse("3")})
    for name in ("toy", "utv1"):
        with pytest.raises(InvalidConstructionError, match=r"takes arguments \[\]"):
            family(name, N=2)


def test_params_hash_is_cached_over_the_compared_fields():
    import copy
    import dataclasses
    import pickle

    for make in (toy, utv1, lambda: thm2(2), lambda: scaled(Fraction(3, 2))):
        params, again = make(), make()
        assert params is not again
        assert hash(params) == hash(again)
        renamed = dataclasses.replace(params, family="other")
        assert renamed == params and hash(renamed) == hash(params)
        assert hash(params) == hash(
            (params.h1, params.cuts, params.spacer_tail, params.base_width))
        assert [f.name for f in dataclasses.fields(params)] == [
            "h1", "cuts", "spacer_tail", "base_width", "family"]
        assert repr(params).startswith(f"ConstructionParams(h1={params.h1}, cuts=")
        assert repr(params).endswith(f"family={params.family!r})")
        loaded = params_from_config(params_to_config(params))
        assert loaded == params and hash(loaded) == hash(params)
        for copied in (pickle.loads(pickle.dumps(params)), copy.deepcopy(params)):
            assert copied == params and hash(copied) == hash(params)
            assert repr(copied) == repr(params)
        # str hashes differ between processes: a pickled hash would go stale
        assert b"_hash" not in pickle.dumps(params)


def test_config_unknown_keys_rejected():
    with pytest.raises(InvalidConstructionError, match="unknown"):
        params_from_config({"family": "toy", "extra": 1})
    with pytest.raises(InvalidConstructionError, match="unknown"):
        params_from_config({"h1": 1, "stages": {"r": 2, "spacers": []}, "oops": 0})
    with pytest.raises(InvalidConstructionError, match="unknown"):
        params_from_config({"h1": 1, "stages": {"r": 2, "spacers": [{"rule": "zero", "x": 1}]}})


# every spacer kind, with the one parameter it reads
_SPACER_READS = {"zero": None, "constant": "c", "linear": "c", "times_height": "c",
                 "j_times_h": None, "blocks": None, "scaled_target": "a"}


@st.composite
def _any_spacer_rule(draw):
    kind = draw(st.sampled_from(sorted(_SPACER_READS)))
    if _SPACER_READS[kind] == "c":
        return SpacerRule(kind, c=draw(st.integers(0, 10**30).filter(lambda c: c != 1)))
    if _SPACER_READS[kind] == "a":
        a = draw(st.fractions(min_value=1, max_value=10**6, max_denominator=10**4))
        return SpacerRule(kind, a=a if a > 1 else a + Fraction(1, 3))
    return SpacerRule(kind)


@settings(max_examples=200, deadline=None)
@given(st.lists(_any_spacer_rule(), min_size=1, max_size=4), st.integers(1, 10**20),
       st.sampled_from([CutRule("constant", 4), CutRule("j_plus", 3)]),
       st.fractions(min_value=Fraction(1, 10**6), max_value=10**6))
def test_every_spacer_rule_round_trips_through_its_config(tail, h1, cuts, width):
    params = ConstructionParams(h1, cuts, tuple(tail), width)
    config = json.loads(json.dumps(params_to_config(params)))
    loaded = params_from_config(config)
    assert loaded == params and hash(loaded) == hash(params)
    assert params_to_config(loaded) == config


_UNREAD_PARAMETERS = (
    [(kind, "c", 9) for kind, reads in _SPACER_READS.items() if reads != "c"]
    + [(kind, "a", "7/2") for kind, reads in _SPACER_READS.items() if reads != "a"])


@pytest.mark.parametrize("kind,key,value", _UNREAD_PARAMETERS)
def test_a_parameter_the_kind_does_not_read_is_rejected(kind, key, value):
    """A rule sets only the parameter its kind reads: the config reader
    refuses any other as an unknown key, and the constructor refuses it too,
    so two rules that count alike are equal."""
    entry = {"rule": kind, key: value, **({"a": "3/2"} if kind == "scaled_target" else {})}
    config = {"h1": 1, "stages": {"r": 2, "spacers": ["zero", entry]}}
    with pytest.raises(InvalidConstructionError,
                       match=re.escape(f"unknown spacer rule keys ['{key}']")):
        params_from_config(config)
    kwargs = {"a": Fraction(3, 2)} if kind == "scaled_target" else {}
    kwargs[key] = Fraction(value) if key == "a" else value
    with pytest.raises(InvalidConstructionError, match=f"spacer rule '{kind}' reads no {key}$"):
        SpacerRule(kind, **kwargs)


def test_missing_multipliers_read_as_one():
    loaded = params_from_config(
        {"h1": 1, "stages": {"r": 2, "spacers": ["zero", {"rule": "constant"}]}})
    assert loaded == toy() and hash(loaded) == hash(toy())
    loaded = params_from_config({"h1": 1, "stages": {"r": {"rule": "j_plus"}, "spacers": []}})
    assert loaded.cuts == CutRule("j_plus", 1)


def test_each_spacer_kind_counts_by_its_rule():
    # at j = 3, h_j = 10: c = 4 where read, and a = 3/2 targets ceil(3/2 * 5!) = 180
    rules = {"zero": SpacerRule("zero"), "constant": SpacerRule("constant", 4),
             "linear": SpacerRule("linear", 4), "times_height": SpacerRule("times_height", 4),
             "j_times_h": SpacerRule("j_times_h"), "blocks": SpacerRule("blocks"),
             "scaled_target": SpacerRule("scaled_target", a=Fraction(3, 2))}
    assert set(rules) == set(_SPACER_READS)
    counts = {kind: rule.evaluate(3, 10) for kind, rule in rules.items()}
    assert counts == {"zero": 0, "constant": 4, "linear": 12, "times_height": 40,
                      "j_times_h": 30, "blocks": block_sequence(3), "scaled_target": 180 - 2 * 10}


def test_config_big_integers_as_strings():
    params = params_from_config(
        {"h1": str(10**30), "stages": {"r": 2, "spacers": ["zero"]}}
    )
    assert params.h1 == 10**30


def test_unknown_family_rejected():
    with pytest.raises(InvalidConstructionError):
        family("chacon")


def test_geometry_rejects_stage_zero():
    with pytest.raises(ValueError):
        stage_geometry(toy(), 0)


_SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(rank1lab.__path__))


@pytest.mark.parametrize("module", _SUBMODULES)
def test_any_submodule_imports_first(module):
    """construction imports tower, which imports construction: whichever
    submodule a fresh interpreter imports first, the stage chain works."""
    root = os.path.dirname(os.path.dirname(rank1lab.__file__))
    paths = [root, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = (f"import rank1lab.{module}\n"
            "from rank1lab.construction import stage_geometry, toy\n"
            "assert stage_geometry(toy(), 3).h == 7\n")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("config", [
    {"family": []},
    {"family": "thm2"},
    {"family": "toy", "N": 2},
    {"family": "thm2", "N": 2, "a": "3/2"},
    {"h1": 2, "stages": 5},
    {"h1": 2, "stages": {"r": 2, "spacers": 5}},
    {"h1": 2, "stages": {"r": 2, "spacers": ["zero", {"rule": "scaled_target"}]}},
])
def test_malformed_config_is_invalid_construction(config):
    with pytest.raises(InvalidConstructionError):
        params_from_config(config)


_CONFIG_KEYS = st.sampled_from(
    ["family", "N", "a", "h1", "base_width", "stages", "r", "spacers", "rule", "c"]
) | st.text(max_size=3)
_CONFIG_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["toy", "thm2", "scaled", "zero", "j_times_h", "scaled_target",
                       "j_plus", "3/2", "1/0", "2"])
)
_JSON_VALUES = st.recursive(
    _CONFIG_LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_CONFIG_KEYS, children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_any_json_builds_params_or_raises_value_error(config):
    try:
        params = params_from_config(config)
    except ValueError:
        return
    assert isinstance(params, ConstructionParams)
