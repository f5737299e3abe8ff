"""Forward generator on moment monomials, exact stationary moment systems,
and the complete-monotonicity (moment-problem) check.

M[n, m] denotes the stationary expectation of the colony-1 mass of a fixed
reference set raised to n times the colony-2 mass raised to m; M[0, 0] = 1.
All arithmetic here is exact, and it runs on integers: each generator row
is built as integer coefficients over one scale, the stationary solve keeps
every known over one common denominator, and the Hausdorff table is one
integer table. Fractions are built only where a caller reads them: the
solved moments, a `MomentPolynomial` when `generator_on_monomial` is
asked for one, and a `LinearSystem`'s matrix, right sides and determinant
on first read.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .linalg import solve_tridiagonal
from .rationals import integer_numerators
from .simplex import (NAMED_RATES, CollisionProfile, RateTable,
                      check_consistency)


@dataclass(frozen=True)
class ScalarParams:
    """Scalar inputs of the moment systems: mutation rate theta, reference
    mass alpha, migration rates, and `table`, the one source of collision
    rates. Built directly, the seven named rates (up to four lineages) make
    a 4-block table; given a table, which must cover those four blocks,
    they are read from it. Migration and collision rates must be
    nonnegative: the stationary systems then have no zero pivot (see
    `linalg.solve_tridiagonal`).

    Each instance keeps a cache of generator rows, built on integers on
    first request (`_generator_row`): per monomial, the coefficients of
    `generator_on_monomial` over the lcm of their denominators. One params
    object thus builds each row once for the stationary solve and every
    later residual check; `dataclasses.replace` starts an empty cache."""

    theta: Fraction
    alpha: Fraction
    u1: Fraction
    u2: Fraction
    a2: Fraction = None
    a21: Fraction = None
    a3: Fraction = None
    a211: Fraction = None
    a22: Fraction = None
    a31: Fraction = None
    a4: Fraction = None
    table: RateTable = field(default=None, compare=False, repr=False)
    # (n, m) -> (lcm of the row's denominators, integer coefficients)
    _rows: dict = field(init=False, default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_rows", {})
        if self.table is not None and self.table.b_max < 4:
            raise ValueError(f"rate table with b_max={self.table.b_max} does "
                             "not cover the named rates, which need 4 blocks")
        rows = {}
        for name, (b, ks, s) in NAMED_RATES.items():
            rate = (Fraction(0) if self.table is None
                    else self.table.rate_of(b, ks, s))
            given = getattr(self, name)
            given = rate if given is None else Fraction(given)
            if given < 0:
                raise ValueError(f"{name} must be nonnegative")
            if self.table is not None and given != rate:
                raise ValueError(f"{name}={given} disagrees with the rate "
                                 f"table, which gives {rate}")
            object.__setattr__(self, name, given)
            if self.table is None:
                prof = CollisionProfile(b, ks, s)
                rows[b] = rows.get(b, ()) + ((prof, given, prof.multiplicity),)
        if self.table is None:
            object.__setattr__(self, "table", RateTable(4, rows))
        self.table.check_nonnegative()
        for name in ("theta", "alpha", "u1", "u2"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        for name in ("u1", "u2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.theta <= 0:
            raise ValueError("theta must be positive")
        if not 0 <= self.alpha <= 1:
            raise ValueError("alpha must lie in [0,1]")

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
        Products that share a denominator are added as integers, the
        distinct denominators are brought to their lcm and the sum is
        reduced once."""
        parts = {}
        for idx, c in self.items():
            v = values[idx]
            den = c.denominator * v.denominator
            parts[den] = parts.get(den, 0) + c.numerator * v.numerator
        common = 1
        for den in parts:
            if common % den:
                common = math.lcm(common, den)
        return Fraction(sum(num * (common // den)
                            for den, num in parts.items()), common)

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
    gcd leaves the lcm form. The terms come in the order diagonal,
    mutation, colony-1 drops, colony-2 drops, migration; colliding
    monomials are merged and zero terms dropped, as `MomentPolynomial.add`
    does."""
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

    def add(jdx, c):
        c += terms.get(jdx, 0)
        if c:
            terms[jdx] = c
        else:
            terms.pop(jdx, None)

    if n or m:
        add((n, m), -(half_theta * (n + m) + (total_n + total_m) * per_rate
                      + m * u1 + n * u2))
    # mutation: each variable independently at rate theta/2
    if n:
        add((n - 1, m), half_mutation * n)
    if m:
        add((n, m - 1), half_mutation * m)
    # coalescence within each colony
    for drop, rate in drops_n:
        add((n - drop, m), rate * per_rate)
    for drop, rate in drops_m:
        add((n, m - drop), rate * per_rate)
    # migration, per block
    if m:
        add((n + 1, m - 1), m * u1)
    if n:
        add((n - 1, m + 1), n * u2)
    g = math.gcd(scale, *terms.values())
    if g > 1:
        scale //= g
        terms = {jdx: c // g for jdx, c in terms.items()}
    row = params._rows[idx] = (scale, terms)
    return row


@dataclass(frozen=True)
class LinearSystem:
    """One order's stationary equations and their exact solution (rows and
    unknowns ordered by descending first index). The solve ran on
    integers: row i of `rows` is the generator's coefficients times
    `scales[i]`, its right side is `lifted[i] / (scales[i] * common)`, and
    `det` is the determinant of `rows`. `matrix`, `rhs` and `determinant`
    are these in Fractions, built on first read."""

    unknowns: tuple
    solution: dict
    rows: tuple = field(repr=False)
    lifted: tuple = field(repr=False)
    scales: tuple = field(repr=False)
    common: int = field(repr=False)
    det: int = field(repr=False)

    @cached_property
    def matrix(self):
        return tuple(tuple(Fraction(c, scale) for c in row)
                     for row, scale in zip(self.rows, self.scales))

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

    The solve runs on Python ints. Each row is the params' cached integer
    row (`_generator_row`). The knowns are integer numerators over one
    common denominator D, so each right-hand side is an integer
    combination of them over D. `solve_tridiagonal` returns the order's
    solution as integers over M = det * D. D grows to lcm(D, M / g), g the
    gcd of M and the order's numerators, and every numerator is rescaled,
    only when the solution's reduced denominators do not divide it.
    Fractions are built for the solution; the returned LinearSystem keeps
    the integer system and builds its Fraction views on first read."""
    _check_table(params, rate_table)
    common = 1                   # D: each known is numerators[idx] / D
    numerators = {(0, 0): 1}
    systems = []
    for k in range(1, N + 1):
        unknowns = order_indices(k)
        pos = {idx: j for j, idx in enumerate(unknowns)}
        rows, lifted, scales = [], [], []
        for idx in unknowns:
            scale, ints = _generator_row(idx, params)
            row = [0] * len(unknowns)
            b = 0
            for jdx, c in ints.items():
                j = pos.get(jdx)
                if j is not None:
                    row[j] = c
                elif jdx in numerators:
                    b -= c * numerators[jdx]
                else:
                    raise AssertionError(f"index {jdx} unresolved at order {k}")
            rows.append(row)
            lifted.append(b)
            scales.append(scale)
        numers, det = solve_tridiagonal(rows, lifted)
        whole = det * common     # each unknown is numers[i] / whole
        systems.append(LinearSystem(
            unknowns, {idx: Fraction(x, whole)
                       for idx, x in zip(unknowns, numers)},
            tuple(map(tuple, rows)), tuple(lifted), tuple(scales), common,
            det))
        g = math.gcd(whole, *numers)
        reduced = whole // g     # signed, as whole is
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


@dataclass(frozen=True)
class HausdorffReport:
    min_value: Fraction
    violations: tuple   # ((m, n), value) pairs with value < 0
    checked: int

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
    lows, violations, checked = [], [], 0
    pending = [((0,) * dim, dict(zip(psi, nums)), 0)]
    while pending:
        n, table, first = pending.pop()
        lows.append(min(table.values()))
        violations.extend(((m, n), value) for m, value in table.items()
                          if value < 0)
        checked += len(table)
        for axis in range(first, dim):
            diff = {}
            for m, value in table.items():
                up = m[:axis] + (m[axis] + 1,) + m[axis + 1:]
                if up in table:
                    diff[m] = value - table[up]
            if diff:
                grown = n[:axis] + (n[axis] + 1,) + n[axis + 1:]
                pending.append((grown, diff, axis))
    violations.sort(key=lambda item: item[0])
    return HausdorffReport(Fraction(min(lows), scale),
                           tuple((key, Fraction(value, scale))
                                 for key, value in violations),
                           checked)

