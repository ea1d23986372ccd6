"""Text forms shared by config files, reports and the CLI.

Rationals travel as "p/q" strings, big integers as decimal strings, so
reports stay exact and survive JSON round-trips regardless of magnitude.
Integers convert through ``decimal``, free of the 4,300-digit limit of ``str``
and ``int``.  Parsing takes time quadratic in the digits, so ``parse_int``
reads at most ``MAX_INT_DIGITS`` (4 ms at the ceiling, Python 3.11, 2 vCPUs).
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction

MAX_INT_DIGITS = 10_000
# The most integers a window scan's shift lists or a CLI list option may hold
# (a dead zone of span 200,000 listed whole), and the largest cut count: each
# is built in memory.
MAX_LISTED = 200_001
_INT_TEXT = re.compile(r"[+-]?\d+(?:_\d+)*")  # int()'s decimal grammar


def parse_rational(value) -> Fraction:
    """Accept "p/q", "p", an int, or a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise ValueError(f"cannot parse rational from {value!r}")


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    return f"{format_int(value.numerator)}/{format_int(value.denominator)}"


def parse_int(value) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _INT_TEXT.fullmatch(value.strip()):
        digits = sum(map(str.isdigit, value))
        if digits > MAX_INT_DIGITS:
            raise ValueError(f"integer has {digits} digits, above the limit of {MAX_INT_DIGITS}")
        return int(Decimal(value.strip()))
    raise ValueError(f"cannot parse integer from {value!r}")


def format_int(value: int) -> str:
    return str(Decimal(int(value)))


def format_number(value) -> str:
    """``str(value)`` of an int or Fraction, free of its digit limit: "3", "-1/2"."""
    value = Fraction(value)
    return format_int(value.numerator) if value.denominator == 1 else format_rational(value)
