"""Exact rational plumbing: input coercion and output rendering.

All probabilities and margins in the pricing machinery are kept as
`fractions.Fraction` end to end.  Decimal inputs (strings, JSON numbers,
Python floats) are converted by base-10 scaling of their decimal
representation, so e.g. 0.66 becomes exactly 33/50, never the binary
float value.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from decimal import Decimal
from fractions import Fraction

from .errors import ResourceCapError, ValidationError

Rational = Fraction | int | str | float | Decimal


def as_fraction(value: Rational, what: str = "value") -> Fraction:
    """Coerce a number-like input to an exact Fraction.

    Strings accept both "a/b" and decimal notation (including exponents).
    Floats are read through their shortest decimal repr, which keeps CLI
    and test literals like 0.66 exact.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValidationError(f"{what}: expected a number, got a bool")
    if isinstance(value, (int, Decimal)):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValidationError(f"{what}: non-finite number {value!r}")
        return Fraction(str(value))
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"{what}: cannot parse rational {value!r}") from exc
    raise ValidationError(f"{what}: expected a number, got {type(value).__name__}")


def brief_str(x: Fraction | int) -> str:
    """str(x) for numbers of at most about 40 digits, else an approximate
    scientific form such as "~1e+100000": Python refuses to convert
    integers of more than 4300 digits to text.
    """
    if max(x.numerator.bit_length(), x.denominator.bit_length()) <= 133:
        return str(x)
    exp10 = math.log10(abs(x.numerator)) - math.log10(x.denominator)
    e = math.floor(exp10)
    mantissa = float(f"{10 ** (exp10 - e):.4g}")
    if mantissa >= 10:  # exp10 fell just below an integer and 9.9999.. rounded up
        mantissa, e = 1.0, e + 1
    return f"~{'-' if x < 0 else ''}{mantissa:.4g}e{e:+d}"


def echo_str(value: object, text: Callable[[object], str] = str) -> str:
    """text(value) for an error message, or brief_str's approximation of an
    int or Fraction past the 4300 digits Python converts to text."""
    try:
        return text(value)
    except ValueError:
        return brief_str(value)


def frac_str(x: Fraction) -> str:
    """Exact rendering, e.g. Fraction(3, 5) -> "3/5", Fraction(2) -> "2"."""
    try:
        return str(x)
    except ValueError:  # more than the 4300 digits Python converts to text
        raise ResourceCapError(f"result {brief_str(x)} has too many digits to print")


def decimal_str(x: Fraction | float) -> str:
    """Decimal rendering to 12 significant digits (CSV/JSON output)."""
    return format(float(x), ".12g")
