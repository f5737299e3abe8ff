"""Forward generator on moment monomials, exact stationary moment systems,
and the complete-monotonicity (moment-problem) check.

M[n, m] denotes the stationary expectation of the colony-1 mass of a fixed
reference set raised to n times the colony-2 mass raised to m; M[0, 0] = 1.
All arithmetic here is exact. The generator's coefficients are Fractions;
the stationary solve and the Hausdorff table run on integers over one
common denominator and build Fractions only for the values they return.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import solve_tridiagonal
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

    Each instance keeps a cache of generator rows, built on first request
    (`_generator_row`): per monomial, `generator_on_monomial`'s polynomial
    and its integer form over the lcm of its denominators. One params
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
    # (n, m) -> (polynomial, lcm of its denominators, integer coefficients)
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
        for row in self.table.rows.values():
            for prof, rate, _ in row:
                if rate < 0:
                    raise ValueError(f"negative rate {rate} for {prof}")
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

    def copy(self):
        """The same terms in a new MomentPolynomial."""
        out = MomentPolynomial()
        out.update(self)
        return out

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
    once. A fresh copy of the params' cached row: the caller may change
    it."""
    _check_table(params, rate_table)
    return _generator_row(idx, params)[0].copy()


def _generator_row(idx, params):
    """The cached row of (n, m) in `params`: the polynomial of
    `_generator_poly`, the lcm of its coefficients' denominators and its
    coefficients times that lcm as ints. Callers must not change it."""
    row = params._rows.get(idx)
    if row is None:
        poly = _generator_poly(idx, params)
        # a list, not a generator: a tuple built from a generator is
        # resized, and the tuple free lists keep every resized one
        scale = math.lcm(*[c.denominator for c in poly.values()])
        ints = {jdx: c.numerator * (scale // c.denominator)
                for jdx, c in poly.items()}
        row = params._rows[idx] = (poly, scale, ints)
    return row


def _generator_poly(idx, params):
    """The body of `generator_on_monomial`. Only field operations are
    used: Fraction parameters give Fraction coefficients."""
    n, m = idx
    poly = MomentPolynomial()
    if n == m == 0:
        return poly
    theta, alpha, table = params.theta, params.alpha, params.table
    poly.add((n, m), -(theta * (n + m) / 2 + table.total_drop_rate(n)
                       + table.total_drop_rate(m)
                       + m * params.u1 + n * params.u2))
    # mutation: each variable independently at rate theta/2
    if n:
        poly.add((n - 1, m), theta * alpha * n / 2)
    if m:
        poly.add((n, m - 1), theta * alpha * m / 2)
    # coalescence within each colony
    for count, other, place in ((n, m, 0), (m, n, 1)):
        if count >= 2:
            for drop, rate in table.drop_rates(count):
                low = ((count - drop, other) if place == 0
                       else (other, count - drop))
                poly.add(low, rate)
    # migration, per block
    if m:
        poly.add((n + 1, m - 1), m * params.u1)
    if n:
        poly.add((n - 1, m + 1), n * params.u2)
    return poly


@dataclass(frozen=True)
class LinearSystem:
    """One order's stationary equations: square exact system plus its
    determinant (rows and unknowns ordered by descending first index)."""

    unknowns: tuple
    matrix: tuple
    rhs: tuple
    determinant: Fraction
    solution: dict


def order_indices(k):
    return tuple((k - j, j) for j in range(k + 1))


def stationary_system(N, params, rate_table=None):
    """Zero-expectation equations order by order, each order's unknowns
    solved exactly with the lower orders substituted as knowns. Migration
    couples (n, m) only to (n + 1, m - 1) and (n - 1, m + 1), and every
    other term of the generator lowers the order, so each order's system
    is tridiagonal.

    The solve runs on Python ints. Each row, the generator on one
    monomial, comes from the params' row cache multiplied by the lcm of
    its coefficients' denominators.
    The knowns are integer numerators over one common denominator D, so
    each right-hand side is an integer combination of them over D.
    `solve_tridiagonal` returns the order's solution as integers over
    det * D. D grows, and every numerator is rescaled, only when a
    solution's reduced denominator does not divide it. Fractions are built
    only for what the returned LinearSystem records: the unscaled matrix
    (the generator's own coefficients), the right sides, the determinant
    and the solution."""
    _check_table(params, rate_table)
    common = 1                   # D: each known is numerators[idx] / D
    numerators = {(0, 0): 1}
    systems = []
    for k in range(1, N + 1):
        unknowns = order_indices(k)
        pos = {idx: j for j, idx in enumerate(unknowns)}
        matrix, scaled, lifted, scales = [], [], [], []
        for idx in unknowns:
            poly, scale, ints = _generator_row(idx, params)
            row = [Fraction(0)] * len(unknowns)
            int_row = [0] * len(unknowns)
            b = 0
            for jdx, ci in ints.items():
                if jdx in pos:
                    row[pos[jdx]] = poly[jdx]
                    int_row[pos[jdx]] = ci
                elif jdx in numerators:
                    b -= ci * numerators[jdx]
                else:
                    raise AssertionError(f"index {jdx} unresolved at order {k}")
            matrix.append(tuple(row))
            scaled.append(int_row)
            lifted.append(b)
            scales.append(scale)
        numers, det = solve_tridiagonal(scaled, lifted)
        solution = [Fraction(x, det * common) for x in numers]
        rhs = tuple(Fraction(b, scale * common)
                    for b, scale in zip(lifted, scales))
        systems.append(LinearSystem(unknowns, tuple(matrix), rhs,
                                    Fraction(det, math.prod(scales)),
                                    dict(zip(unknowns, solution))))
        grown = common
        for x in solution:
            if grown % x.denominator:
                grown = math.lcm(grown, x.denominator)
        if grown != common:
            factor = grown // common
            numerators = {idx: v * factor for idx, v in numerators.items()}
            common = grown
        for idx, x in zip(unknowns, solution):
            numerators[idx] = x.numerator * (common // x.denominator)
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
    values = {m: Fraction(v) for m, v in psi.items()}
    scale = math.lcm(*(v.denominator for v in values.values()))
    lows, violations, checked = [], [], 0
    pending = [((0,) * dim, {m: v.numerator * (scale // v.denominator)
                             for m, v in values.items()}, 0)]
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

