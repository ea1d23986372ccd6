"""Text forms shared by config files, reports and the CLI.

Rationals travel as "p/q" strings, big integers as decimal strings, so
reports stay exact and survive JSON round-trips regardless of magnitude.
"""

from __future__ import annotations

from fractions import Fraction


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
    return f"{value.numerator}/{value.denominator}"


def parse_int(value) -> int:
    if isinstance(value, bool):
        raise ValueError(f"cannot parse integer from {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        return int(value.strip(), 10)
    raise ValueError(f"cannot parse integer from {value!r}")


def format_int(value: int) -> str:
    return str(int(value))
