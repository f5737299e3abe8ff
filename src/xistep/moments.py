"""Forward generator on moment monomials, exact stationary moment systems,
and the complete-monotonicity (moment-problem) check.

M[n, m] denotes the stationary expectation of the colony-1 mass of a fixed
reference set raised to n times the colony-2 mass raised to m; M[0, 0] = 1.
All arithmetic here is exact, and it runs on integers: each generator row
is built as integer coefficients over one scale, the stationary solve runs
on each order's three integer bands and keeps every known over one common
denominator, and the Hausdorff table is one integer table. Fractions are
built only where a caller reads them: the solved moments, a
`MomentPolynomial` when `generator_on_monomial` is asked for one, and a
`LinearSystem`'s dense matrix, right sides and determinant on first read.
`MomentPolynomial.evaluate`, the residual check E[G f] = 0 on solved
moments, adds integer products per value denominator and sums the groups
on integers in ascending size, where a step often takes a small quotient
of one denominator by the ones below it; one Fraction is built at the
end.
"""

import math
from fractions import Fraction
from functools import cached_property

from .linalg import solve_tridiagonal
from .rationals import integer_numerators
from .records import Record, set_field
from .simplex import NAMED_RATES, RateTable, _profiles, check_consistency


class ScalarParams(Record):
    """Scalar inputs of the moment systems: mutation rate theta, reference
    mass alpha, migration rates, and `table`, the one source of collision
    rates; == and hash take all five. The seven named rates (`NAMED_RATES`,
    up to four lineages) are read from the table. Built directly, the given
    ones (0 where not given) fill the 4-block profiles that every table
    shares; a given table must cover those blocks. Migration and collision
    rates must be nonnegative: the stationary systems then have no zero
    pivot (see `linalg.solve_tridiagonal`).

    Each instance keeps a cache of generator rows, built on integers on
    first request (`_generator_row`): per monomial, the coefficients of
    `generator_on_monomial` over the lcm of their denominators. One params
    object thus builds each row once for the stationary solve and every
    later residual check; `records.replace` starts an empty cache."""

    _fields = ("theta", "alpha", "u1", "u2", *NAMED_RATES, "table")
    _shown = _fields[:-1]

    def __init__(self, theta, alpha, u1, u2, a2=None, a21=None, a3=None,
                 a211=None, a22=None, a31=None, a4=None, table=None):
        named = dict(zip(NAMED_RATES, (a2, a21, a3, a211, a22, a31, a4)))
        if table is None:
            # the shared 4-block profiles at the given named rates, or 0
            given = {key: named[name] for name, key in NAMED_RATES.items()}
            table = RateTable(4, {b: tuple(
                (prof, Fraction(given[b, prof.merge_sizes, prof.s] or 0), mult)
                for prof, mult in _profiles(b)) for b in (2, 3, 4)})
        elif table.b_max < 4:
            raise ValueError(f"rate table with b_max={table.b_max} does "
                             "not cover the named rates, which need 4 blocks")
        for name, key in NAMED_RATES.items():
            rate = table.rate_of(*key)
            given = rate if named[name] is None else Fraction(named[name])
            if given < 0:
                raise ValueError(f"{name} must be nonnegative")
            if given != rate:
                raise ValueError(f"{name}={given} disagrees with the rate "
                                 f"table, which gives {rate}")
        table.check_nonnegative()
        theta, alpha = Fraction(theta), Fraction(alpha)
        u1, u2 = Fraction(u1), Fraction(u2)
        if u1 < 0:
            raise ValueError("u1 must be nonnegative")
        if u2 < 0:
            raise ValueError("u2 must be nonnegative")
        if theta <= 0:
            raise ValueError("theta must be positive")
        if not 0 <= alpha <= 1:
            raise ValueError("alpha must lie in [0,1]")
        set_field(self, "theta", theta)
        set_field(self, "alpha", alpha)
        set_field(self, "u1", u1)
        set_field(self, "u2", u2)
        set_field(self, "table", table)
        # (n, m) -> (lcm of the row's denominators, integer coefficients)
        set_field(self, "_rows", {})

    def consistency_violations(self):
        """The failing sampling-consistency identities of the table (at
        least 4 blocks); empty for the rates of a simplex measure."""
        checks = check_consistency(self.table).checks
        return [name for name, _, _, ok in checks if not ok]

    @classmethod
    def from_rate_table(cls, table, theta, alpha, u1, u2):
        return cls(theta, alpha, u1, u2, table=table)

    @cached_property
    def _row_scale(self):
        """S, the lcm of the denominators of theta/2, theta*alpha/2, u1, u2
        and the table's drop rates, and the first four times S: every
        generator row is built on these integers."""
        values = (self.theta / 2, self.theta * self.alpha / 2, self.u1,
                  self.u2)
        scale = math.lcm(self.table.drop_denominator,
                         *[v.denominator for v in values])
        return (scale,) + tuple(v.numerator * (scale // v.denominator)
                                for v in values)


for _name, _key in NAMED_RATES.items():   # p.a2 to p.a4: table reads
    setattr(ScalarParams, _name, property(
        lambda self, key=_key: self.table.rate_of(*key),
        doc=f"The {_name} rate, {_key} in `table`."))
del _name, _key


def _check_table(params, rate_table):
    """`rate_table` is only checked: the rates come from `params.table`."""
    if rate_table is not None and rate_table != params.table:
        raise ValueError("rate_table differs from params.table")


class MomentPolynomial(dict):
    """Finite linear combination of moment monomials; the key (0, 0) is the
    constant term. Values are Fractions; zero coefficients are dropped."""

    def __init__(self, data=()):
        super().__init__()
        for idx, c in dict(data).items():
            self.add(idx, c)

    def add(self, idx, c):
        if idx in self:
            c = c + self[idx]
        if c == 0:
            self.pop(idx, None)
        else:
            self[idx] = c

    def shifted(self, dn, dm):
        """Multiply by the (dn, dm) monomial: indices add."""
        return MomentPolynomial({(n + dn, m + dm): c
                                 for (n, m), c in self.items()})

    def __sub__(self, other):
        out = MomentPolynomial(self)
        for idx, c in other.items():
            out.add(idx, -c)
        return out

    def evaluate(self, values):
        """sum(c * values[idx]) for rational values (Fraction or int).

        The coefficients are brought over L, the lcm of their own
        denominators, which is small. Their integer products with the
        values' numerators are added per value denominator, and the groups
        are summed in ascending bit length into one running numerator over
        one running denominator. Where the running denominator divides the
        next one, as it often does for the solved moments' nested
        denominators, one `divmod` gives a small quotient that rescales
        the running numerator; elsewhere one gcd takes the lcm. The sum
        over L times the last denominator is reduced once."""
        scale = math.lcm(*[c.denominator for c in self.values()])
        parts = {}
        for idx, c in self.items():
            v = values[idx]
            num = c.numerator * (scale // c.denominator) * v.numerator
            parts[v.denominator] = parts.get(v.denominator, 0) + num
        total, common = 0, 1
        for den in sorted(parts, key=int.bit_length):
            factor, rest = divmod(den, common)
            if rest:
                g = math.gcd(common, den)
                total = total * (den // g) + parts[den] * (common // g)
                common = common // g * den
            else:
                total = total * factor + parts[den]
                common = den
        return Fraction(total, common * scale)

    def substitute(self, knowns):
        """Replace the given indices by fixed values (folded into the
        constant term)."""
        out = MomentPolynomial()
        for idx, c in self.items():
            if idx in knowns and idx != (0, 0):
                out.add((0, 0), c * knowns[idx])
            else:
                out.add(idx, c)
        return out


def generator_on_monomial(idx, params, rate_table=None):
    """Forward-generator action on the (n, m) moment monomial as a
    MomentPolynomial: mutation, same-colony coalescence (grouped by block
    drop, rates from `params.table`), and per-block migration
    differences. The diagonal, everything that leaves (n, m), is summed
    once. Built from the params' cached integer row; the caller may change
    it."""
    _check_table(params, rate_table)
    scale, ints = _generator_row(idx, params)
    poly = MomentPolynomial()
    poly.update((jdx, Fraction(c, scale)) for jdx, c in ints.items())
    return poly


def _generator_row(idx, params):
    """The cached row of (n, m) in `params`: the lcm of the denominators
    of `generator_on_monomial`'s coefficients, and those coefficients times
    it as ints, keyed by monomial. Callers must not change it.

    The row is built on integers over S (`ScalarParams._row_scale`):
    every term is an int product, and dividing S and the terms by their
    gcd leaves the lcm form. It is stored part by part: the diagonal,
    negative as theta > 0; the mutation couplings, present when alpha > 0;
    each colony's drop couplings, where a one-block drop adds onto the
    mutation's monomial, the only key two parts share; and the migration
    couplings m*u1 and n*u2, present when that rate is positive. Every
    coupling is a sum of positive terms (u >= 0 and
    `RateTable.check_nonnegative`), so no coefficient cancels to 0, and
    the diagonal exceeds the migration couplings by at least
    theta*(n + m)/2, the dominance `solve_tridiagonal` relies on."""
    row = params._rows.get(idx)
    if row is not None:
        return row
    n, m = idx
    table = params.table
    scale, half_theta, half_mutation, u1, u2 = params._row_scale
    per_rate = scale // table.drop_denominator
    drops_n, total_n = table.drop_numerators(n)
    drops_m, total_m = table.drop_numerators(m)
    terms = {}
    if n or m:
        terms[n, m] = -(half_theta * (n + m) + (total_n + total_m) * per_rate
                        + m * u1 + n * u2)
    # mutation: each variable independently at rate theta/2
    if half_mutation and n:
        terms[n - 1, m] = half_mutation * n
    if half_mutation and m:
        terms[n, m - 1] = half_mutation * m
    # coalescence within each colony
    for drop, rate in drops_n:
        terms[n - drop, m] = terms.get((n - drop, m), 0) + rate * per_rate
    for drop, rate in drops_m:
        terms[n, m - drop] = terms.get((n, m - drop), 0) + rate * per_rate
    # migration, per block
    if u1 and m:
        terms[n + 1, m - 1] = m * u1
    if u2 and n:
        terms[n - 1, m + 1] = n * u2
    g = math.gcd(scale, *terms.values())
    if g > 1:
        scale //= g
        terms = {jdx: c // g for jdx, c in terms.items()}
    row = params._rows[idx] = (scale, terms)
    return row


class LinearSystem(Record):
    """One order's stationary equations and their exact solution (rows and
    unknowns ordered by descending first index). The solve ran on
    integers: `bands` holds the sub-, main and super-diagonal of the
    generator's coefficients, row i times `scales[i]`; row i's right side
    is `lifted[i] / (scales[i] * common)`, and `det` is the determinant of
    the bands. `matrix` (dense), `rhs` and `determinant` are these in
    Fractions, built on first read."""

    _fields = ("unknowns", "solution", "bands", "lifted", "scales", "common",
               "det")
    _shown = _fields[:2]

    def __init__(self, unknowns, solution, bands, lifted, scales, common, det):
        set_field(self, "unknowns", unknowns)
        set_field(self, "solution", solution)
        set_field(self, "bands", bands)
        set_field(self, "lifted", lifted)
        set_field(self, "scales", scales)
        set_field(self, "common", common)
        set_field(self, "det", det)

    @cached_property
    def matrix(self):
        size = len(self.scales)
        return tuple(tuple(Fraction(self.bands[j - i + 1][i]
                                    if abs(j - i) <= 1 else 0, scale)
                           for j in range(size))
                     for i, scale in enumerate(self.scales))

    @cached_property
    def rhs(self):
        return tuple(Fraction(b, scale * self.common)
                     for b, scale in zip(self.lifted, self.scales))

    @cached_property
    def determinant(self):
        return Fraction(self.det, math.prod(self.scales))


def order_indices(k):
    return tuple((k - j, j) for j in range(k + 1))


def stationary_system(N, params, rate_table=None):
    """Zero-expectation equations order by order, each order's unknowns
    solved exactly with the lower orders substituted as knowns. Migration
    couples (n, m) only to (n + 1, m - 1) and (n - 1, m + 1), and every
    other term of the generator lowers the order, so each order's system
    is tridiagonal.

    The solve runs on Python ints, on the order's three bands. Row (n, m)
    is the params' cached integer row (`_generator_row`): its terms of
    order k, the diagonal and the two migrations, go into the bands, and
    its lower-order terms into the right side. The knowns are integer
    numerators over one common denominator D, so each right-hand side is
    an integer combination of them over D. `solve_tridiagonal` returns the
    order's solution as integers over M = det * D. D grows to lcm(D,
    M / g), g the gcd of M and the order's numerators, and every numerator
    is rescaled, only when the solution's reduced denominators do not
    divide it. Fractions are built for the solution from the numerators
    over M / g; the returned LinearSystem keeps the integer system and
    builds its Fraction views on first read."""
    _check_table(params, rate_table)
    common = 1                   # D: each known is numerators[idx] / D
    numerators = {(0, 0): 1}
    systems = []
    for k in range(1, N + 1):
        unknowns = order_indices(k)
        bands = ([0] * (k + 1), [0] * (k + 1), [0] * (k + 1))
        lifted, scales = [], []
        for n, m in unknowns:     # (n, m) is unknown m of the order
            scale, ints = _generator_row((n, m), params)
            b = 0
            for jdx, c in ints.items():
                if jdx[0] + jdx[1] == k:   # the diagonal or a migration
                    bands[jdx[1] - m + 1][m] = c
                elif jdx in numerators:
                    b -= c * numerators[jdx]
                else:
                    raise AssertionError(f"index {jdx} unresolved at order {k}")
            lifted.append(b)
            scales.append(scale)
        numers, det = solve_tridiagonal(*bands, lifted)
        whole = det * common     # each unknown is numers[i] / whole
        g = math.gcd(whole, *numers)
        reduced = whole // g     # signed, as whole is
        systems.append(LinearSystem(
            unknowns, {idx: Fraction(x // g, reduced)
                       for idx, x in zip(unknowns, numers)},
            tuple(map(tuple, bands)), tuple(lifted), tuple(scales), common,
            det))
        grown = math.lcm(common, reduced)
        if grown != common:
            factor = grown // common
            numerators = {idx: v * factor for idx, v in numerators.items()}
            common = grown
        factor = common // reduced
        for idx, x in zip(unknowns, numers):
            numerators[idx] = x // g * factor
    return systems


def solve_stationary(N, params):
    """Exact stationary moments for all total orders <= N."""
    values = {(0, 0): Fraction(1)}
    for system in stationary_system(N, params):
        values.update(system.solution)
    return values


class HausdorffReport(Record):
    """`violations` holds the ((m, n), value) pairs with value < 0."""

    _fields = ("min_value", "violations", "checked")

    def __init__(self, min_value, violations, checked):
        set_field(self, "min_value", min_value)
        set_field(self, "violations", violations)
        set_field(self, "checked", checked)

    @property
    def passed(self):
        return not self.violations


def hausdorff_check(psi):
    """Evaluate every alternating finite difference whose full stencil lies
    inside the support of psi (a mapping from index tuples to rationals).
    Nonnegativity of all of them is the k-dimensional moment condition.

    The differences are built one axis at a time from the table of order
    n: Delta_a f(m) = f(m) - f(m + e_a) exists exactly where both terms do.
    Each order is reached from the one below it on its last nonzero axis,
    so no difference is computed twice.

    The table holds integers: psi times L, the lcm of its denominators, so
    every difference is an int subtraction. Only the minimum and the
    violations are divided by L, as the report's Fractions."""
    if not psi:
        raise ValueError("empty moment array")
    dim = len(next(iter(psi)))
    nums, scale = integer_numerators(psi.values())
    # per axis, each index and its neighbour one step up that axis
    shifts = [{m: m[:axis] + (m[axis] + 1,) + m[axis + 1:] for m in psi}
              for axis in range(dim)]
    lows, violations, checked = [], [], 0
    pending = [((0,) * dim, dict(zip(psi, nums)), 0)]
    while pending:
        n, table, first = pending.pop()
        lows.append(min(table.values()))
        violations.extend(((m, n), value) for m, value in table.items()
                          if value < 0)
        checked += len(table)
        for axis in range(first, dim):
            shift = shifts[axis]
            diff = {m: value - table[up] for m, value in table.items()
                    if (up := shift[m]) in table}
            if diff:
                grown = n[:axis] + (n[axis] + 1,) + n[axis + 1:]
                pending.append((grown, diff, axis))
    violations.sort(key=lambda item: item[0])
    return HausdorffReport(Fraction(min(lows), scale),
                           tuple((key, Fraction(value, scale))
                                 for key, value in violations),
                           checked)

