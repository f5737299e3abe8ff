"""Exact rationals as "p/q" strings for configs and reports."""

from fractions import Fraction


def parse_rational(s):
    """Parse a config rational, a "p/q" or "p" string or a JSON integer,
    into a Fraction. Raises ValueError on "p/0"."""
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if not isinstance(s, str):
        raise ValueError(f"expected rational string, got {type(s).__name__}")
    text = s.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        d = int(den)
        if d == 0:
            raise ValueError(f"zero denominator in rational {s!r}")
        return Fraction(int(num), d)
    return Fraction(int(text))


def format_rational(x):
    """Render a Fraction back to the "p/q" wire form."""
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"
