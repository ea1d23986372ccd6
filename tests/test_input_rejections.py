"""Library input checks, each with the message it rejects its input with."""

import math
import re
from fractions import Fraction

import pytest

from rank1lab.construction import (
    ConstructionParams,
    CutRule,
    SpacerRule,
    block_sequence,
    condition_star_check,
    infinite_measure_partial_sum,
    params_from_config,
    utv1,
)
from rank1lab.serde import MAX_INT_DIGITS, format_int, parse_int, parse_rational
from rank1lab.spectral import CorrelationSequence
from rank1lab.tower import LevelSet, MeasureBound
from rank1lab.weak_limits import OperatorPolynomial, parse_sequence, scan_window

UTV = utv1()
_TWO_COLUMNS = CutRule("constant", 2)


def _explicit(stages) -> dict:
    return {"h1": 1, "stages": stages}


_REJECTIONS = [
    ("block index 0", lambda: block_sequence(0), "index must be >= 1"),
    ("spacer rule kind", lambda: SpacerRule("fibonacci"), "unknown spacer rule 'fibonacci'"),
    ("cut rule kind", lambda: CutRule("random", 2), "unknown cut rule 'random'"),
    ("spacer multiplier", lambda: SpacerRule("constant", -1),
     "spacer multiplier must be >= 0"),
    ("j_plus offset", lambda: CutRule("j_plus", 0), "j_plus cut rule needs c >= 1"),
    ("initial height", lambda: ConstructionParams(0, _TWO_COLUMNS, ()),
     "initial height must be >= 1"),
    ("base width", lambda: ConstructionParams(1, _TWO_COLUMNS, (), Fraction(0)),
     "base width must be positive"),
    ("spacer entry", lambda: params_from_config(_explicit({"r": 2, "spacers": [5]})),
     "bad spacer rule 5"),
    ("stage keys", lambda: params_from_config(_explicit({"r": 2, "depth": 3})),
     "unknown stage keys ['depth']"),
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
    # h_1700 of utv1 is 1701!, with 4,700 digits, more than str() prints
    ("level past a 4,700-digit height", lambda: LevelSet(UTV, 1700, (0, -1)),
     f"levels must lie in [0, {format_int(math.factorial(1701))}) at stage 1700"),
]


@pytest.mark.parametrize("build,message", [case[1:] for case in _REJECTIONS],
                         ids=[case[0] for case in _REJECTIONS])
def test_rejected_input_names_the_bad_value(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


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
