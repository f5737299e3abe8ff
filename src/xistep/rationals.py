"""Exact rationals as "p/q" strings for configs and reports, and lists of
rationals as integer numerators over one denominator."""

import math
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


def integer_numerators(values):
    """Rationals (ints, Fractions or floats, which are dyadic) as integer
    numerators over the lcm of their denominators: `(numerators, lcm)`,
    with `numerators[i] / lcm == values[i]`."""
    ratios = [v.as_integer_ratio() for v in values]
    # a list, not a generator: a tuple built from a generator is resized,
    # and the tuple free lists keep every resized one
    den = math.lcm(*[d for _, d in ratios])
    return [n * (den // d) for n, d in ratios], den
