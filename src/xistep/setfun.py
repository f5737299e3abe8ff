"""Dyadic sets on [0,1], the set-function algebra, base measures, and the
uniform jump mutation generator.

A set function is stored as one coefficient per cell of a dyadic grid,
reduced to the coarsest level that represents it; this makes equality,
products (cell-wise) and integrals exact. Coefficients are Fractions in
exact mode and may be floats in simulation mode. The simulator's event
loop does not build set functions: it keeps plain coefficient lists at one
grid level per run and integrates them with `BaseMeasure.integrate_cells`,
the routine behind `BaseMeasure.integrate`, or directly with what that
routine is built from, once per grid level and cached on the measure:
`BaseMeasure.float_integrator` for float lists and
`BaseMeasure.exact_weights` for integer numerators over one denominator.
A `SetFunction` is built where a public function returns one.
"""

from dataclasses import dataclass
from fractions import Fraction

from .rationals import integer_numerators


def _reduce_cells(level, values):
    """Drop to the coarsest grid level representing the same step function."""
    while level > 0 and values[::2] == values[1::2]:
        values = values[::2]
        level -= 1
    return level, tuple(values)


def _lift(values, from_level, to_level):
    reps = 1 << (to_level - from_level)
    out = []
    for v in values:
        out.extend([v] * reps)
    return out


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


@dataclass(frozen=True)
class DyadicSet:
    """Canonical finite union of dyadic cells at a common level."""

    level: int
    cells: frozenset

    def __post_init__(self):
        if any(not 0 <= c < (1 << self.level) for c in self.cells):
            raise ValueError("cell index out of range for level")
        lvl, vals = _reduce_cells(self.level,
                                  [c in self.cells
                                   for c in range(1 << self.level)])
        object.__setattr__(self, "level", lvl)
        object.__setattr__(self, "cells",
                           frozenset(i for i, v in enumerate(vals) if v))

    @classmethod
    def full(cls):
        return cls(0, frozenset({0}))

    def complement(self):
        full = set(range(1 << self.level))
        return DyadicSet(self.level, frozenset(full - self.cells))


@dataclass(frozen=True)
class SetFunction:
    """Piecewise-constant function on a dyadic grid (one coefficient per
    cell), kept at the coarsest representing level."""

    level: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != (1 << self.level):
            raise ValueError("need one coefficient per cell")
        lvl, vals = _reduce_cells(self.level, tuple(self.coeffs))
        object.__setattr__(self, "level", lvl)
        object.__setattr__(self, "coeffs", vals)

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


@dataclass(frozen=True)
class TensorFunction:
    """Ordered tensor product of single-variable set functions."""

    factors: tuple

    def __post_init__(self):
        if not self.factors:
            raise ValueError("tensor needs at least one factor")

    @property
    def arity(self):
        return len(self.factors)

    @classmethod
    def indicator_power(cls, dset, n):
        return cls((SetFunction.indicator(dset),) * n)


@dataclass(frozen=True)
class BaseMeasure:
    """Probability measure on [0,1]: piecewise-constant density on a dyadic
    grid plus finitely many atoms, all rational."""

    grid_level: int
    densities: tuple
    atoms: tuple = ()  # (position, mass) pairs

    def __post_init__(self):
        dens = tuple(Fraction(d) for d in self.densities)
        atoms = tuple((Fraction(p), Fraction(m)) for p, m in self.atoms)
        object.__setattr__(self, "densities", dens)
        object.__setattr__(self, "atoms", atoms)
        if len(dens) != (1 << self.grid_level):
            raise ValueError("need one density per grid cell")
        if any(d < 0 for d in dens) or any(m < 0 for _, m in atoms):
            raise ValueError("measure must be nonnegative")
        if any(not 0 <= p <= 1 for p, _ in atoms):
            raise ValueError("atom position outside [0,1]")
        total = (sum(dens) / (1 << self.grid_level)
                 + sum(m for _, m in atoms))
        if total != 1:
            raise ValueError(f"total mass must be 1, got {total}")
        # per grid level, `float_integrator` and `exact_weights`, and the
        # float tables of `sample`
        object.__setattr__(self, "_cache", {})

    @classmethod
    def uniform(cls):
        return cls(0, (Fraction(1),))

    def measure(self, dset):
        return self.integrate(SetFunction.indicator(dset))

    def integrate(self, g):
        lvl = max(self.grid_level, g.level)
        return self.integrate_cells(lvl, g._coeffs_at(lvl))

    def integrate_cells(self, level, coeffs):
        """Integral of the step function with one coefficient per cell of
        the level-`level` grid; `level` is at least `grid_level`.
        Rational coefficients give a Fraction: their integer numerators
        over the lcm of their denominators, weighed by `exact_weights`
        and reduced once."""
        if any(type(c) is float for c in coeffs):
            # float fast path for simulation mode
            return self.float_integrator(level)(coeffs)
        weights, scale = self.exact_weights(level)
        nums, den = integer_numerators(coeffs)
        return Fraction(sum(n * w for n, w in zip(nums, weights) if n),
                        den * scale)

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
        """The float branch of `integrate_cells` at one grid level, as a
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


@dataclass(frozen=True)
class MutationSpec:
    """Jump mutation at rate theta/2 per variable; the new type is drawn
    from `base` independently of the current one."""

    theta: Fraction
    base: BaseMeasure

    def __post_init__(self):
        object.__setattr__(self, "theta", Fraction(self.theta))
        if self.theta < 0:
            raise ValueError("theta must be nonnegative")


def apply_generator_uniform(g, spec):
    """(theta/2) * (<nu0, g> * 1 - g), exactly."""
    half = spec.theta / 2
    return g.axpy(-half, half * spec.base.integrate(g))
