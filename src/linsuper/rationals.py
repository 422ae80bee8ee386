"""Loss-free parsing and printing of rational scalars.

All numeric input enters the package through :func:`parse_rational`; floats
are rejected so that no binary rounding can ever leak into the exact
arithmetic downstream.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .errors import InputValidationError
from .linalg import _fraction


def _digit_limit() -> int:
    """The most digits Python converts between an int and a string."""
    return getattr(sys, "get_int_max_str_digits", int)() or 4300  # Python's default


def _check_literal_size(text: str) -> None:
    """Refuse, from the text alone, a literal whose value Python could not print:
    its numerator and denominator have at most as many digits as its longer
    "p/q" part has characters, plus its exponent's magnitude ("1e1000000000"
    asks for a billion digits)."""
    limit = _digit_limit()
    mantissa, _, exponent = text.lower().partition("e")
    size = max(map(len, mantissa.lstrip("+-").split("/")))
    exp = exponent.lstrip("+-").replace("_", "").lstrip("0")
    size += int(exp[: len(str(limit)) + 1]) if exp.isdigit() else 0  # one digit more exceeds it
    if size > limit:
        raise InputValidationError(
            f"rational literal {text[:20]!r}{'...' if len(text) > 20 else ''} is too large: "
            f"its digits and exponent exceed the limit of {limit} digits"
        )


def parse_rational(value: int | str | Fraction) -> Fraction:
    """Parse an exact rational from an int, a "p/q" string, or a decimal string.

    "0.25" parses to 1/4 exactly; "3/2", "-7", and plain ints are accepted.
    Floats are refused: a binary float does not determine the decimal the
    user wrote.
    """
    if isinstance(value, str):
        text = value.strip()
        if text.isascii() and len(text) <= _digit_limit():  # "[+-]p" or "[+-]p/q", q > 0, through int()
            num, slash, den = text.partition("/")
            q = int(den) if den.isdigit() else int(not slash)  # 1 with no "/", 0 for a zero or no q
            if q and (num[1:] if num[:1] in "+-" else num).isdigit():
                return _fraction(int(num), q)
        _check_literal_size(text)
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputValidationError(f"cannot parse rational from {value!r}: {exc}") from None
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputValidationError(f"expected a rational number, got boolean {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise InputValidationError(
            f"float literal {value!r} is not exact; write it as a string, e.g. \"1/3\" or \"0.25\""
        )
    raise InputValidationError(f"cannot parse rational from {type(value).__name__} {value!r}")


def format_rational(value: Fraction) -> str:
    """Render a rational as "p" or "p/q"; round-trips through parse_rational.

    A value derived from printable literals can still be too long to print
    (a . x of two 3000-digit numbers); it is refused with the limit named.
    """
    try:
        return str(value)
    except ValueError:
        raise InputValidationError(
            f"a derived value exceeds the limit of {_digit_limit()} digits "
            "that a rational can be printed with"
        ) from None
