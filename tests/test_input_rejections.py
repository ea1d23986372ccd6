"""Library input checks, each with the message it rejects its input with."""

import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import rank1lab
from rank1lab.construction import (
    ConstructionParams,
    CutRule,
    SpacerRule,
    block_sequence,
    condition_star_check,
    height,
    infinite_measure_partial_sum,
    level_width,
    params_from_config,
    stage_geometry,
    toy,
    utv1,
)
from rank1lab.joinings import JoiningCombination, partial_joining, partial_joining_grid
from rank1lab.oracle import IntervalSystem, OrbitWalker, oracle_intersection
from rank1lab.products import ProductSystem, dissipativity_scan, product_return, sample_shifts
from rank1lab.serde import MAX_INT_DIGITS, MAX_LISTED, format_int, parse_int, parse_rational
from rank1lab.spectral import (CorrelationSequence, correlation_sequence, correlations,
                               fejer_density)
from rank1lab.tower import (LevelSet, MeasureBound, apply_power_bounds, level_set_fields,
                            power_profile, tower_of)
from rank1lab.weak_limits import OperatorPolynomial, parse_sequence, scan_window

UTV = utv1()
TOY = toy()
_TWO_COLUMNS = CutRule("constant", 2)


def _explicit(stages) -> dict:
    return {"h1": 1, "stages": stages}


_REJECTIONS = [
    ("block index 0", lambda: block_sequence(0), "index must be >= 1"),
    ("spacer rule kind", lambda: SpacerRule("fibonacci"), "unknown spacer rule 'fibonacci'"),
    # an unhashable kind is unknown too, not a TypeError
    ("unhashable spacer rule kind", lambda: SpacerRule([1]), "unknown spacer rule [1]"),
    ("unhashable spacer rule in a config",
     lambda: params_from_config(_explicit({"r": 2, "spacers": [{"rule": [1]}]})),
     "unknown spacer rule [1]"),
    # the kind is checked before the keys it may take
    ("unknown spacer rule with a key",
     lambda: params_from_config(_explicit({"r": 2, "spacers": [{"rule": "fibonacci", "c": 2}]})),
     "unknown spacer rule 'fibonacci'"),
    ("cut rule kind", lambda: CutRule("random", 2), "unknown cut rule 'random'"),
    ("spacer multiplier", lambda: SpacerRule("constant", -1),
     "spacer multiplier must be >= 0"),
    ("scale factor of 1", lambda: SpacerRule("scaled_target", a=Fraction(1)),
     "scaled_target needs a rational a > 1"),
    ("j_plus offset", lambda: CutRule("j_plus", 0), "j_plus cut rule needs c >= 1"),
    ("initial height", lambda: ConstructionParams(0, _TWO_COLUMNS, ()),
     "initial height must be >= 1"),
    ("base width", lambda: ConstructionParams(1, _TWO_COLUMNS, (), Fraction(0)),
     "base width must be positive"),
    ("spacer entry", lambda: params_from_config(_explicit({"r": 2, "spacers": [5]})),
     "bad spacer rule 5"),
    ("stage keys", lambda: params_from_config(_explicit({"r": 2, "depth": 3})),
     "unknown stage keys ['depth']"),
    ("stages without r", lambda: params_from_config(_explicit({"spacers": ["zero"]})),
     "'stages' needs 'r'"),
    ("stages with a null r", lambda: params_from_config(_explicit({"r": None})),
     "'stages' needs 'r'"),
    ("cut rule keys",
     lambda: params_from_config(_explicit({"r": {"rule": "j_plus", "c": 1, "d": 2}})),
     "unknown cut rule keys ['d']"),
    ("measure sum depth", lambda: infinite_measure_partial_sum(UTV, 0), "J must be >= 1"),
    ("condition (*) depth", lambda: condition_star_check(UTV, 1),
     "need J >= 2 to compare consecutive stages"),
    ("rational from a float", lambda: parse_rational(0.5), "cannot parse rational from 0.5"),
    ("integer from a float", lambda: parse_int(2.0), "cannot parse integer from 2.0"),
    # decimal would read these, int() would not
    ("integer in exponent form", lambda: parse_int("1e3"), "cannot parse integer from '1e3'"),
    ("integer from NaN", lambda: parse_int("NaN"), "cannot parse integer from 'NaN'"),
    # text past the ceiling would take quadratic time to convert
    ("integer past the digit ceiling", lambda: parse_int("-" + "9" * (MAX_INT_DIGITS + 1)),
     f"integer has {MAX_INT_DIGITS + 1} digits, above the limit of {MAX_INT_DIGITS}"),
    ("correlation above 1",
     lambda: CorrelationSequence(((0, Fraction(1)), (1, Fraction(-3, 2)))),
     "|c(n)| <= 1 must hold"),
    # keeping the last of a repeated shift would answer for a value not meant
    ("repeated resolved shift",
     lambda: CorrelationSequence(((0, Fraction(1)), (3, Fraction(1, 2)), (3, Fraction(1, 4)))),
     "shift 3 is stored twice in entries"),
    ("repeated unresolved shift",
     lambda: CorrelationSequence(((0, Fraction(1)),),
                                 ((3, (Fraction(0), Fraction(1, 2))),
                                  (3, (Fraction(1, 4), Fraction(1, 2))))),
     "shift 3 is stored twice in unresolved"),
    # value() would read it as exact, fejer_density refuse it as unresolved
    ("shift both resolved and unresolved",
     lambda: CorrelationSequence(((0, Fraction(1)), (3, Fraction(1, 2))),
                                 ((3, (Fraction(0), Fraction(1, 2))),)),
     "shift 3 is both resolved and unresolved"),
    # both sets are checked before the shift is compared with the height
    # (h_2 = 3 on toy), and before any walk
    ("oracle set finer than the system",
     lambda: oracle_intersection(LevelSet.base(TOY, 1), LevelSet.base(TOY, 3), 5, 2),
     "level set is finer than the system"),
    ("oracle set of another construction",
     lambda: oracle_intersection(LevelSet.base(TOY, 1), LevelSet.base(UTV, 1), 5, 2),
     "level set belongs to a different construction"),
    ("negative scale", lambda: MeasureBound.exactly(1).scaled(-1),
     "scale factor must be >= 0"),
    ("duplicate power",
     lambda: OperatorPolynomial(((1, Fraction(1, 4)), (1, Fraction(1, 4)))),
     "duplicate power 1"),
    ("sequence text", lambda: parse_sequence("h_k x"), "cannot parse sequence 'h_k x'"),
    ("sequence prefix", lambda: parse_sequence("x h_k"), "cannot parse sequence near 'x'"),
    ("scan stage", lambda: scan_window(UTV, 2, LevelSet.base(UTV, 1), LevelSet.base(UTV, 1)),
     "scan needs j >= 3"),
    # the range is checked before the order, so a negative level is out of range
    ("negative level", lambda: LevelSet.from_levels(UTV, 2, [-3]),
     "levels must lie in [0, 6) at stage 2"),
    ("level order", lambda: LevelSet(UTV, 2, (3, 1)), "levels must be strictly increasing"),
    ("repeated level", lambda: LevelSet(UTV, 2, (1, 1)), "levels must be strictly increasing"),
    # keeping the last of a repeated field would answer for a set not meant
    ("repeated set stage", lambda: level_set_fields("stage=2; stage=3; levels=0"),
     "level-set field 'stage' given twice"),
    ("repeated set levels", lambda: level_set_fields("levels=0; stage=2; levels=1"),
     "level-set field 'levels' given twice"),
    # h_1700 of utv1 is 1701!, with 4,700 digits, more than str() prints
    ("level past a 4,700-digit height", lambda: LevelSet(UTV, 1700, (0, -1)),
     f"levels must lie in [0, {format_int(math.factorial(1701))}) at stage 1700"),
]


@pytest.mark.parametrize("build,message", [case[1:] for case in _REJECTIONS],
                         ids=[case[0] for case in _REJECTIONS])
def test_rejected_input_names_the_bad_value(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


# Levels 1 and 3 of utv1's stage 2, and the product of utv1 with itself
_LOW, _HIGH = LevelSet.single(UTV, 2, 1), LevelSet.single(UTV, 2, 3)
_SQUARE = ProductSystem(UTV, 1, UTV, 1)


def _self_return_after_a_hit(v):
    tower_of(UTV).self_returns([_LOW], [2], None)  # the memo now holds |n| = 2
    return tower_of(UTV).self_returns([_LOW], [v], None)


def _scan_after_a_hit(v):
    dissipativity_scan(_SQUARE, _LOW, _LOW, 2, 20, samples=4)  # the memo holds k_lo = 2
    return dissipativity_scan(_SQUARE, _LOW, _LOW, v, 20, samples=4)


# toy's level 2 of stage 2 at n = 21: a cap of 6 gives [1/16, 3/16] at stage 6
_TOY_A = LevelSet.single(TOY, 2, 0)


def _self_return_cap_after_a_hit(v):
    tower_of(UTV).self_returns([_LOW], [2], 2)  # the memo now holds max_stage = 2
    return tower_of(UTV).self_returns([_LOW], [2], v)


def _scan_cap_after_a_hit(v):
    dissipativity_scan(_SQUARE, _LOW, _LOW, 2, 20, samples=4, max_stage=2)
    return dissipativity_scan(_SQUARE, _LOW, _LOW, 2, 20, samples=4, max_stage=v)


# Each way a stage or a stage cap enters, with the message that refuses a
# value that is not an integer.  A cap of 6.5 once walked to stage 7, 2.0
# read a memo filled for 2, and the stage functions and a partial joining's
# stage raised a TypeError.
_NOT_INTEGER_STAGES = [
    ("apply_power_bounds cap", lambda v: apply_power_bounds(_TOY_A, _TOY_A, 21, v), "stage caps"),
    ("power_profile cap", lambda v: power_profile(_TOY_A, _TOY_A, [21], v), "stage caps"),
    ("self_returns cap after a memo hit", _self_return_cap_after_a_hit, "stage caps"),
    ("scan cap after a memo hit", _scan_cap_after_a_hit, "stage caps"),
    ("product_return cap", lambda v: product_return(_SQUARE, _LOW, _LOW, 2, v), "stage caps"),
    ("partial_joining stage", lambda v: partial_joining(_LOW, _HIGH, 1, v), "stages"),
    ("partial_joining_grid stage", lambda v: partial_joining_grid([(_LOW, _HIGH)], [1], v),
     "stages"),
    ("stage_geometry", lambda v: stage_geometry(UTV, v), "stages"),
    ("height", lambda v: height(UTV, v), "stages"),
    ("level_width", lambda v: level_width(UTV, v), "stages"),
]


@pytest.mark.parametrize("value", [6.5, 2.0, np.float64(5.0), Fraction(5)], ids=repr)
@pytest.mark.parametrize("build,what", [case[1:] for case in _NOT_INTEGER_STAGES],
                         ids=[case[0] for case in _NOT_INTEGER_STAGES])
def test_stages_and_caps_that_are_not_integers_are_refused(build, what, value):
    with pytest.raises(ValueError, match=f"^{re.escape(what)} must be integers: "):
        build(value)


def test_numpy_integer_and_bool_stages_pass_as_ints():
    """A numpy stage or cap, and a bool cap, answer as the int they are,
    with a resolved stage of type int: a tower-wide memo of bounds keyed on
    K must never hand a numpy stage to a later int query."""
    joining = partial_joining(_LOW, _HIGH, 1, np.int64(5))
    assert joining == partial_joining(_LOW, _HIGH, 1, 5)
    assert type(joining.resolved_stage) is int
    capped = apply_power_bounds(_TOY_A, _TOY_A, 21, np.int64(6))
    assert capped == apply_power_bounds(_TOY_A, _TOY_A, 21, 6)
    assert (capped.lo, capped.hi) == (Fraction(1, 16), Fraction(3, 16))
    assert type(capped.resolved_stage) is int
    assert apply_power_bounds(_TOY_A, _TOY_A, 21, True) == apply_power_bounds(_TOY_A, _TOY_A, 21, 1)
    assert stage_geometry(UTV, np.int32(3)) is stage_geometry(UTV, 3)


# Each way a shift or a power enters, with the message that refuses a value
# that is not an integer.  Each once answered for such a value or failed
# with another error: a shift of 2.5 or 1.9 got an exact [0, 0] from
# apply_power_bounds, 2.0 and Fraction(2) the answer for 2, correlations
# filed c(2.9) under 2, the from_dict builders, correlation_sequence and
# orbit_counts truncated theirs, and a walk raised an IndexError.
_NOT_INTEGER_SHIFTS = [
    ("apply_power_bounds", lambda v: apply_power_bounds(_LOW, _HIGH, v), "shifts"),
    ("power_profile", lambda v: power_profile(_LOW, _HIGH, [1, v]), "shifts"),
    ("grid_counts", lambda v: tower_of(UTV).grid_counts([(_LOW, _HIGH)], [v], None), "shifts"),
    ("self_returns after a memo hit", _self_return_after_a_hit, "shifts"),
    ("partial_joining_grid", lambda v: partial_joining_grid([(_LOW, _HIGH)], [0, v], 3),
     "shifts"),
    ("correlations", lambda v: correlations(_LOW, [1, v]), "shifts"),
    ("correlation_sequence", lambda v: correlation_sequence({v: Fraction(1, 2)}),
     "correlation shifts"),
    ("OperatorPolynomial.from_dict",
     lambda v: OperatorPolynomial.from_dict({v: Fraction(1, 2)}),
     "an operator polynomial's powers"),
    ("JoiningCombination.from_dict", lambda v: JoiningCombination.from_dict(3, {v: 1}),
     "a joining combination's shifts"),
    ("product_return", lambda v: product_return(_SQUARE, _LOW, _LOW, v), "shifts"),
    ("product exponent", lambda v: ProductSystem(UTV, v, UTV, 1), "product exponents"),
    ("scan window after a memo hit", _scan_after_a_hit, "a scan's window and sample count"),
    ("oracle_intersection", lambda v: oracle_intersection(_LOW, _HIGH, v, 4), "powers"),
    ("OrbitWalker.step", lambda v: OrbitWalker(_LOW, 4).step(v), "powers"),
    ("orbit_counts",
     lambda v: list(IntervalSystem(UTV, 4).orbit_counts([_LOW], [_HIGH], [1, v])), "powers"),
]


@pytest.mark.parametrize("value", [2.5, 1.9, 2.0, np.float64(2.0), Fraction(2)], ids=repr)
@pytest.mark.parametrize("build,what", [case[1:] for case in _NOT_INTEGER_SHIFTS],
                         ids=[case[0] for case in _NOT_INTEGER_SHIFTS])
def test_shifts_and_powers_that_are_not_integers_are_refused(build, what, value):
    with pytest.raises(ValueError, match=f"^{re.escape(what)} must be integers: "):
        build(value)


def test_numpy_integer_and_bool_shifts_pass():
    """``operator.index`` admits numpy integers and bools, as the ints they are."""
    assert apply_power_bounds(_LOW, _HIGH, np.int64(2)) == apply_power_bounds(_LOW, _HIGH, 2)
    assert apply_power_bounds(_LOW, _HIGH, True) == apply_power_bounds(_LOW, _HIGH, 1)
    assert correlations(_LOW, np.arange(4, dtype=np.int32)) == correlations(_LOW, range(4))
    assert (OperatorPolynomial.from_dict({np.int16(-1): Fraction(1, 2)})
            == OperatorPolynomial.from_dict({-1: Fraction(1, 2)}))
    assert (partial_joining_grid([(_LOW, _HIGH)], [np.int8(2)], 3)
            == partial_joining_grid([(_LOW, _HIGH)], [2], 3))


def test_integers_convert_on_both_sides_of_the_digit_ceiling():
    """Text of exactly ``MAX_INT_DIGITS`` digits parses, with a sign and
    underscores as int() takes them, and any integer prints, past Python's
    4,300-digit limit of str() too."""
    big = 10 ** MAX_INT_DIGITS - 1
    assert parse_int(" -" + "9" * MAX_INT_DIGITS + " ") == -big
    assert parse_int("+1_000") == 1000
    assert format_int(big) == "9" * MAX_INT_DIGITS
    assert format_int(-(10 ** 5000)) == "-1" + "0" * 5000
    assert parse_int(format_int(-big)) == -big


_HUGE_LISTS = """
import resource, time
from fractions import Fraction
from rank1lab.construction import utv1
from rank1lab.products import ProductSystem, dissipativity_scan, sample_shifts
from rank1lab.spectral import CorrelationSequence, fejer_density
from rank1lab.tower import LevelSet
params = utv1()
e2, square = LevelSet.base(params, 2), ProductSystem(params, 1, params, 1)
flat = CorrelationSequence(((0, Fraction(1)),))
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
for call in (lambda: sample_shifts(1, 10**9 + 1, 10**9),
             lambda: dissipativity_scan(square, e2, e2, 1, 10**9 + 1, samples=10**9),
             lambda: fejer_density(flat, 5, 10**9)):
    start = time.perf_counter()
    try:
        call()
    except ValueError as exc:
        print(f"{time.perf_counter() - start:.3f} {exc}")
"""


def test_huge_lists_are_refused_before_they_are_built():
    # 10^9 sampled shifts or grid points would take gigabytes; under the
    # child's 1 GiB address-space limit, set in the child only after its
    # imports, building them raises MemoryError, which fails the child
    src = os.path.dirname(os.path.dirname(rank1lab.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    lines = subprocess.run([sys.executable, "-c", _HUGE_LISTS], env=env, check=True,
                           capture_output=True, text=True, timeout=120).stdout.splitlines()
    expected = [f"1000000000 sampled shifts are above the limit of {MAX_LISTED}"] * 2 + [
        f"grid size 1000000000 is above the limit of {MAX_LISTED}"]
    assert [line.split(" ", 1)[1] for line in lines] == expected
    assert all(float(line.split(" ", 1)[0]) < 1 for line in lines)


def test_lists_at_the_limit_are_built():
    assert len(sample_shifts(0, MAX_LISTED + 7, MAX_LISTED)) == MAX_LISTED
    # more samples than the span holds are capped at the span first
    assert sample_shifts(0, 3, 10**9) == [1, 2, 3]
    with pytest.raises(ValueError, match=f"^{MAX_LISTED + 1} sampled shifts are above"):
        sample_shifts(0, MAX_LISTED + 1, MAX_LISTED + 1)
    flat = CorrelationSequence(((0, Fraction(1)),))
    assert len(fejer_density(flat, 1, MAX_LISTED).values) == MAX_LISTED
    with pytest.raises(ValueError, match=f"^grid size {MAX_LISTED + 1} is above the limit"):
        fejer_density(flat, 1, MAX_LISTED + 1)
