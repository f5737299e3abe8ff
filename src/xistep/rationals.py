"""Exact rationals as "p/q" strings for configs and reports, and lists of
rationals as integer numerators over one denominator."""

import math
import re
from fractions import Fraction

# a config numeral has ASCII digits only, and no underscore or space
# inside it: `int` also reads "1_0" as 10, "١٢" as 12 and " 3" as 3
INTEGER = re.compile(r"[+-]?[0-9]+")
RATIONAL = re.compile(rf"({INTEGER.pattern})(?:/({INTEGER.pattern}))?")


def parse_rational(s):
    """Parse a config rational, a "p/q" or "p" string (a `RATIONAL` but
    for outer whitespace) or a JSON integer, into a Fraction. Raises
    ValueError, quoting the value, on anything else and on "p/0"."""
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    try:
        match = RATIONAL.fullmatch(s.strip()) if isinstance(s, str) else None
        if match is None:
            raise ValueError
        num, den = match.groups()
        p, q = int(num), int(den) if den is not None else 1
    except ValueError:   # also a numeral past int's digit limit
        raise ValueError('expected a "p/q" string or an integer, got '
                         f"{s!r}") from None
    if q == 0:
        raise ValueError(f"zero denominator in rational {s!r}")
    return Fraction(p, q)


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
