"""Dyadic sets on [0,1], the set-function algebra, base measures, and the
uniform jump mutation generator.

A set function is stored as one coefficient per cell of a dyadic grid,
reduced to the coarsest level that represents it; this makes equality,
products (cell-wise) and integrals exact. Coefficients are Fractions in
exact mode and may be floats in simulation mode. The simulator's event
loop does not build set functions: it keeps plain coefficient lists at one
grid level per run and integrates them with what `BaseMeasure.integrate`
is built from, once per grid level and cached on the measure:
`BaseMeasure.float_integrator` for float lists and
`BaseMeasure.exact_weights` for integer numerators over one denominator.
A `SetFunction` is built where a public function returns one. Exact
integrals stay integers (`integral_ratio`) until a number is returned:
once per integral in `integrate` and per rational factor of
`simulator._start`, once per product in `simulator.evaluate_dual`.
"""

import operator
from fractions import Fraction

from .rationals import integer_numerators
from .records import Record, set_field


def _reduce_cells(level, values):
    """Drop to the coarsest grid level representing the same step function."""
    while level > 0 and values[::2] == values[1::2]:
        values = values[::2]
        level -= 1
    return level, tuple(values)


def _lift(values, from_level, to_level):
    if from_level == to_level:
        return list(values)
    reps = 1 << (to_level - from_level)
    out = []
    for v in values:
        out.extend([v] * reps)
    return out


def weighted_sum(weights, nums):
    """The integer dot product of `exact_weights` with a step function's
    integer numerators: the numerator of its exact integral."""
    return sum(map(operator.mul, weights, nums))


def float_sum(terms):
    """Sum from 0.0, left to right. The built-in `sum` compensates float
    rounding from Python 3.12 on, which would tie seeded results to the
    interpreter version."""
    total = 0.0
    for t in terms:
        total += t
    return total


def cell_index(level, point):
    """Index of the level-`level` cell containing `point` in [0,1]; cells
    are half-open except the last, which is closed at 1."""
    if not 0 <= point <= 1:
        raise ValueError("point outside [0,1]")
    i = int(point * (1 << level))
    return min(i, (1 << level) - 1)


class DyadicSet(Record):
    """Canonical finite union of dyadic cells at a common level."""

    _fields = ("level", "cells")

    def __init__(self, level, cells):
        if any(not 0 <= c < (1 << level) for c in cells):
            raise ValueError("cell index out of range for level")
        lvl, vals = _reduce_cells(level,
                                  [c in cells for c in range(1 << level)])
        set_field(self, "level", lvl)
        set_field(self, "cells", frozenset(i for i, v in enumerate(vals) if v))

    @classmethod
    def full(cls):
        return cls(0, frozenset({0}))

    def complement(self):
        full = set(range(1 << self.level))
        return DyadicSet(self.level, frozenset(full - self.cells))


class SetFunction(Record):
    """Piecewise-constant function on a dyadic grid (one coefficient per
    cell), kept at the coarsest representing level."""

    _fields = ("level", "coeffs")

    def __init__(self, level, coeffs):
        if len(coeffs) != (1 << level):
            raise ValueError("need one coefficient per cell")
        lvl, vals = _reduce_cells(level, tuple(coeffs))
        set_field(self, "level", lvl)
        set_field(self, "coeffs", vals)

    @classmethod
    def _reduced(cls, level, coeffs):
        """The set function of a coefficient tuple already at its coarsest
        level (`_reduce_cells`), built without `__init__`'s check and
        reduction: for the simulator's payloads, whose states reduce their
        cells themselves."""
        g = object.__new__(cls)
        set_field(g, "level", level)
        set_field(g, "coeffs", coeffs)
        return g

    @classmethod
    def constant(cls, c):
        return cls(0, (c,))

    @classmethod
    def indicator(cls, dset):
        return cls(dset.level,
                   tuple(Fraction(1) if c in dset.cells else Fraction(0)
                         for c in range(1 << dset.level)))

    def _coeffs_at(self, level):
        return _lift(self.coeffs, self.level, level)

    def __add__(self, other):
        lvl = max(self.level, other.level)
        a, b = self._coeffs_at(lvl), other._coeffs_at(lvl)
        return SetFunction(lvl, tuple(x + y for x, y in zip(a, b)))

    def axpy(self, a, b):
        """a * self + b * 1, in one pass."""
        return SetFunction(self.level, tuple(a * v + b for v in self.coeffs))


ONE = SetFunction.constant(Fraction(1))


class TensorFunction(Record):
    """Ordered tensor product of single-variable set functions."""

    _fields = ("factors",)

    def __init__(self, factors):
        if not factors:
            raise ValueError("tensor needs at least one factor")
        set_field(self, "factors", factors)

    @property
    def arity(self):
        return len(self.factors)

    @classmethod
    def indicator_power(cls, dset, n):
        return cls((SetFunction.indicator(dset),) * n)


class BaseMeasure(Record):
    """Probability measure on [0,1]: piecewise-constant density on a dyadic
    grid plus finitely many atoms, all rational; `atoms` holds
    (position, mass) pairs."""

    _fields = ("grid_level", "densities", "atoms")

    def __init__(self, grid_level, densities, atoms=()):
        dens = tuple(Fraction(d) for d in densities)
        atoms = tuple((Fraction(p), Fraction(m)) for p, m in atoms)
        if len(dens) != (1 << grid_level):
            raise ValueError("need one density per grid cell")
        if any(d < 0 for d in dens) or any(m < 0 for _, m in atoms):
            raise ValueError("measure must be nonnegative")
        if any(not 0 <= p <= 1 for p, _ in atoms):
            raise ValueError("atom position outside [0,1]")
        total = sum(dens) / (1 << grid_level) + sum(m for _, m in atoms)
        if total != 1:
            raise ValueError(f"total mass must be 1, got {total}")
        set_field(self, "grid_level", grid_level)
        set_field(self, "densities", dens)
        set_field(self, "atoms", atoms)
        # per grid level, `float_integrator` and `exact_weights`, and the
        # float tables of `sample`
        set_field(self, "_cache", {})

    @classmethod
    def uniform(cls):
        return cls(0, (Fraction(1),))

    def measure(self, dset):
        return self.integrate(SetFunction.indicator(dset))

    def integrate(self, g):
        """A float if `g` has a float coefficient, else a Fraction."""
        level = max(self.grid_level, g.level)
        coeffs = g._coeffs_at(level)
        if any(type(c) is float for c in coeffs):
            return self.float_integrator(level)(coeffs)
        return Fraction(*self.integral_ratio(level, coeffs))

    def integral_ratio(self, level, coeffs):
        """The exact integral of rational coefficients (ints, Fractions or
        floats, which are dyadic) at grid level `level` as two integers,
        numerator and denominator, not reduced: their integer numerators
        over the lcm of their denominators, weighed by `exact_weights`
        (`weighted_sum`). `evaluate_dual` multiplies these across blocks
        and reduces the product once."""
        weights, scale = self.exact_weights(level)
        nums, den = integer_numerators(coeffs)
        return weighted_sum(weights, nums), den * scale

    def exact_weights(self, level):
        """The exact integral at one grid level as integer cell weights
        over one denominator, `(weights, scale)`: the integral of a step
        function with coefficient c_i on cell i is
        sum(c_i * weights[i]) / scale. A cell weighs its density over the
        cell count plus the masses of the atoms it holds. Built once per
        level; `level` is at least `grid_level`."""
        key = ("exact", level)
        if key not in self._cache:
            shift = level - self.grid_level
            cells = 1 << level
            w = [self.densities[i >> shift] / cells for i in range(cells)]
            for p, m in self.atoms:
                w[cell_index(level, p)] += m
            self._cache[key] = integer_numerators(w)
        return self._cache[key]

    def float_integrator(self, level):
        """The float branch of `integrate` at one grid level, as a
        function of the coefficient list: float densities per cell and the
        atoms' float masses and cells are looked up once per level. It adds
        the nonzero cell terms left to right from 0.0, divides by the cell
        count, then adds the atom terms, summed the same way."""
        key = ("float", level)
        if key in self._cache:
            return self._cache[key]
        shift = level - self.grid_level
        fdens = [float(d) for d in self.densities]
        weights = [fdens[i >> shift] for i in range(1 << level)]
        cells = 1 << level
        atoms = [(float(m), cell_index(level, p)) for p, m in self.atoms]

        def integral(coeffs):
            total = 0.0
            for c, w in zip(coeffs, weights):
                if c:
                    total += c * w
            total /= cells
            at_atoms = 0.0
            for m, i in atoms:
                at_atoms += m * coeffs[i]
            return total + at_atoms

        self._cache[key] = integral
        return integral

    def __getstate__(self):
        # the cache holds closures, which do not pickle
        return dict(self.__dict__, _cache={})

    def sample(self, rng):
        """Draw a point; density cells are uniform within the cell. The
        atoms' float masses and positions and each cell's float mass are
        looked up once per measure."""
        if "sample" not in self._cache:
            width = 1.0 / (1 << self.grid_level)
            self._cache["sample"] = (
                [(float(m), float(p)) for p, m in self.atoms],
                [float(d) * width for d in self.densities], width)
        atoms, cells, width = self._cache["sample"]
        u = rng.random()
        acc = 0.0
        for m, p in atoms:
            acc += m
            if u < acc:
                return p
        for i, w in enumerate(cells):
            acc += w
            if u < acc:
                return (i + rng.random()) * width
        return 1.0  # guard against float round-off at the top


class MutationSpec(Record):
    """Jump mutation at rate theta/2 per variable; the new type is drawn
    from `base` independently of the current one."""

    _fields = ("theta", "base")

    def __init__(self, theta, base):
        theta = Fraction(theta)
        if theta < 0:
            raise ValueError("theta must be nonnegative")
        set_field(self, "theta", theta)
        set_field(self, "base", base)


def apply_generator_uniform(g, spec):
    """(theta/2) * (<nu0, g> * 1 - g), exactly."""
    half = spec.theta / 2
    return g.axpy(-half, half * spec.base.integrate(g))
