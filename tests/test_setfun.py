import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from xistep import (BaseMeasure, DyadicSet, MutationSpec, SetFunction,
                    TensorFunction)
from xistep.setfun import ONE, apply_generator_uniform, cell_index, float_sum

from conftest import (E_STAR, decay_factor, intersection, multiply, scale,
                      semigroup_apply_uniform, value_at)

F = Fraction


def interval(a, b, level):
    """Dyadic interval [a/2^level, b/2^level)."""
    return DyadicSet(level, frozenset(range(a, b)))


class TestDyadicSet:
    def test_reduction_to_coarsest_level(self):
        assert DyadicSet(2, frozenset({0, 1})) == DyadicSet(1, frozenset({0}))
        assert DyadicSet(2, frozenset({0, 1, 2, 3})) == DyadicSet.full()

    def test_boolean_algebra(self):
        a = interval(0, 2, 2)           # [0, 1/2)
        b = interval(1, 3, 2)           # [1/4, 3/4)
        assert intersection(a, b) == interval(1, 2, 2)
        assert a.complement() == interval(2, 4, 2)
        assert a.complement().complement() == a


class TestSetFunction:
    def test_multiply_indicators_intersect(self):
        c, d = interval(0, 2, 2), interval(1, 3, 2)
        assert multiply(SetFunction.indicator(c), SetFunction.indicator(d)) \
            == SetFunction.indicator(intersection(c, d))

    def test_indicator_idempotent(self):
        g = SetFunction.indicator(E_STAR)
        assert multiply(g, g) == g

    def test_bilinearity(self):
        c, d = interval(0, 2, 2), interval(1, 3, 2)
        gc, gd = SetFunction.indicator(c), SetFunction.indicator(d)
        a, b, cc, dd = F(2), F(3), F(5), F(7)
        lhs = multiply(scale(ONE, a) + scale(gc, b),
                       scale(ONE, cc) + scale(gd, dd))
        rhs = (scale(ONE, a * cc) + scale(gd, a * dd) + scale(gc, b * cc)
               + scale(SetFunction.indicator(intersection(c, d)), b * dd))
        assert lhs == rhs

    def test_value_at(self):
        g = SetFunction.indicator(interval(1, 3, 2))
        assert value_at(g, F(1, 4)) == 1
        assert value_at(g, F(3, 4)) == 0


class TestBaseMeasure:
    def test_must_be_probability(self):
        with pytest.raises(ValueError):
            BaseMeasure(0, (F(2),))
        with pytest.raises(ValueError):
            BaseMeasure(1, (F(1), F(1)), atoms=((F(1, 2), F(1, 3)),))

    def test_integrate_uniform(self):
        mu = BaseMeasure.uniform()
        assert mu.integrate(ONE) == 1
        assert mu.integrate(SetFunction.indicator(interval(0, 1, 1))) == F(1, 2)

    def test_integrate_density(self):
        # density 2 on [0,1/2), 0 elsewhere; g = 1_[1/4,3/4) -> 1/2
        mu = BaseMeasure(1, (F(2), F(0)))
        g = SetFunction.indicator(interval(1, 3, 2))
        assert mu.integrate(g) == F(1, 2)

    def test_atoms(self):
        mu = BaseMeasure(0, (F(1, 2),), atoms=((F(1, 4), F(1, 2)),))
        assert mu.measure(interval(0, 1, 1)) == F(1, 4) + F(1, 2)
        assert mu.measure(DyadicSet.full()) == 1

    def test_measure_of_empty_set_is_rational(self):
        mass = BaseMeasure.uniform().measure(DyadicSet(0, frozenset()))
        assert mass == 0 and type(mass) is F

    def test_sample_in_support(self):
        mu = BaseMeasure(1, (F(2), F(0)))
        rng = random.Random(3)
        assert all(mu.sample(rng) < 0.5 for _ in range(200))

    def test_sample_hits_atoms_at_their_mass(self):
        # mass 1/4 at 1/8 and 1/4 at 1, density 1 on [1/2, 1)
        mu = BaseMeasure(1, (F(0), F(1)),
                         atoms=((F(1, 8), F(1, 4)), (F(1), F(1, 4))))
        rng = random.Random(4)
        draws = [mu.sample(rng) for _ in range(4000)]
        assert all(x == 0.125 or 0.5 <= x <= 1 for x in draws)
        for atom in (0.125, 1.0):
            share = draws.count(atom) / len(draws)
            assert abs(share - 0.25) < 0.03


def _float_integral_oracle(base, level, coeffs):
    """The float branch of `BaseMeasure.integrate_cells` as it was written
    before `float_integrator`: the slow path that integrator replaces."""
    shift = level - base.grid_level
    fdens = tuple(float(d) for d in base.densities)
    total = float_sum(c * fdens[i >> shift]
                      for i, c in enumerate(coeffs) if c)
    total /= 1 << level
    return total + float_sum(float(m) * coeffs[cell_index(level, p)]
                             for p, m in base.atoms)


def _fraction_integral_oracle(base, level, coeffs):
    """The rational branch of `BaseMeasure.integrate_cells` as it was
    written before `exact_weights`: Fraction arithmetic term by term."""
    shift = level - base.grid_level
    total = sum((c * base.densities[i >> shift]
                 for i, c in enumerate(coeffs) if c), F(0)) / (1 << level)
    return total + sum(m * coeffs[cell_index(level, p)]
                       for p, m in base.atoms)


FLOAT_COEFF = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324,
                                         -1.5e-323]),
                        st.floats(-1e6, 1e6))


@st.composite
def measure_level_coeffs(draw, coeff=FLOAT_COEFF):
    """A base measure on grid level 0..3, possibly with atoms (at cell
    edges too), a grid level up to 4 at or above it, and coefficients
    there, by default floats with zeros of both signs, negatives and
    subnormals (where scaling each term by the cell width would round
    differently)."""
    grid = draw(st.integers(0, 3))
    level = draw(st.integers(grid, 4))
    cell_w = draw(st.lists(st.integers(0, 5), min_size=1 << grid,
                           max_size=1 << grid))
    atoms = draw(st.lists(st.tuples(
        st.one_of(st.fractions(0, 1, max_denominator=64),
                  st.sampled_from([F(0), F(1, 2), F(1)])),
        st.integers(0, 5)), max_size=3))
    mass = F(sum(cell_w), 1 << grid) + sum(w for _, w in atoms)
    if mass == 0:
        cell_w, mass = [1] * (1 << grid), F(1)
    base = BaseMeasure(grid, tuple(F(w) / mass for w in cell_w),
                       tuple((p, F(w) / mass) for p, w in atoms))
    coeffs = draw(st.lists(coeff, min_size=1 << level,
                           max_size=1 << level))
    return base, level, coeffs


def _sample_oracle(base, rng):
    """`BaseMeasure.sample` as it was written before its float tables were
    cached: each mass converted to float at every draw."""
    u = rng.random()
    acc = 0.0
    for p, m in base.atoms:
        acc += float(m)
        if u < acc:
            return float(p)
    width = 1.0 / (1 << base.grid_level)
    for i, d in enumerate(base.densities):
        acc += float(d) * width
        if u < acc:
            return (i + rng.random()) * width
    return 1.0


class TestFloatIntegrator:
    """The routines behind `BaseMeasure.integrate_cells` and
    `BaseMeasure.sample` against the expressions they replace: float
    results to the bit, rational ones exactly."""

    @given(measure_level_coeffs())
    @settings(max_examples=400, deadline=None)
    def test_equals_oracle_to_the_bit(self, case):
        base, level, coeffs = case
        want = _float_integral_oracle(base, level, coeffs)
        for got in (base.float_integrator(level)(coeffs),
                    base.integrate_cells(level, coeffs)):
            assert got == want and got.hex() == want.hex()

    @given(measure_level_coeffs(st.one_of(
        st.integers(-5, 5), st.fractions(-3, 3, max_denominator=12))))
    @settings(max_examples=200, deadline=None)
    def test_rational_branch_equals_oracle(self, case):
        base, level, coeffs = case
        got = base.integrate_cells(level, coeffs)
        assert got == _fraction_integral_oracle(base, level, coeffs)
        assert type(got) is F

    @given(measure_level_coeffs(), st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_sample_equals_oracle_draw_for_draw(self, case, seed):
        base = case[0]
        a, b = random.Random(seed), random.Random(seed)
        for _ in range(20):
            x = base.sample(a)
            assert x == _sample_oracle(base, b) and a.random() == b.random()

    def test_fraction_coefficients_stay_exact(self):
        base = BaseMeasure(1, (F(1), F(1, 2)), atoms=((F(1, 2), F(1, 4)),))
        value = base.integrate_cells(2, [F(1), F(0), F(-3), F(2)])
        # (1 - 3/2 + 1) / 4 on the grid, -3 * 1/4 at the atom
        assert value == F(1, 8) - F(3, 4) and type(value) is F

    def test_pickles_after_caching(self):
        base = BaseMeasure(1, (F(3, 2), F(1, 2)))
        base.float_integrator(2)
        copy = pickle.loads(pickle.dumps(base))
        assert copy == base
        assert copy.integrate_cells(2, [1.0, 0.5, 0.0, -2.0]) \
            == base.integrate_cells(2, [1.0, 0.5, 0.0, -2.0])


class TestMutationSemigroup:
    spec = MutationSpec(F(1), base=BaseMeasure.uniform())

    def test_generator_conservative(self):
        assert apply_generator_uniform(ONE, self.spec) == scale(ONE, 0)
        assert apply_generator_uniform(scale(ONE, F(7, 3)), self.spec) \
            == scale(ONE, 0)

    def test_generator_on_indicator(self):
        # (theta/2)(alpha 1 - 1_{E*}) with alpha = 1/2
        g = SetFunction.indicator(E_STAR)
        out = apply_generator_uniform(g, self.spec)
        assert out == scale(ONE, F(1, 4)) + scale(g, F(-1, 2))

    def test_t_zero_is_identity(self):
        g = SetFunction.indicator(E_STAR)
        assert semigroup_apply_uniform(g, 0, self.spec, exact=True) == g

    def test_constant_fixed(self):
        out = semigroup_apply_uniform(ONE, 0.37, self.spec, exact=True)
        assert out == ONE

    def test_long_time_limit(self):
        g = SetFunction.indicator(E_STAR)
        out = semigroup_apply_uniform(g, 200.0, self.spec)
        for c in out._coeffs_at(1):
            assert abs(c - 0.5) < 1e-12

    def test_matches_ode_integration(self):
        # independent oracle: Euler-integrate dg/dt = A g on the coefficient
        # vector and compare with the closed form at t = 1
        g = SetFunction.indicator(E_STAR)
        coeffs = [float(c) for c in g._coeffs_at(1)]
        steps = 200_000
        dt = 1.0 / steps
        for _ in range(steps):
            mean = sum(coeffs) / len(coeffs)
            coeffs = [c + dt * 0.5 * (mean - c) for c in coeffs]
        closed = semigroup_apply_uniform(g, 1.0, self.spec)
        for c_ode, c_closed in zip(coeffs, closed._coeffs_at(1)):
            assert abs(c_ode - c_closed) < 1e-5

    def test_semigroup_law_numeric(self):
        g = SetFunction.indicator(interval(1, 3, 2))
        for s, t in [(0.2, 0.7), (1.3, 0.05)]:
            lhs = semigroup_apply_uniform(
                semigroup_apply_uniform(g, s, self.spec), t, self.spec)
            rhs = semigroup_apply_uniform(g, s + t, self.spec)
            for a, b in zip(lhs._coeffs_at(2), rhs._coeffs_at(2)):
                assert abs(a - b) < 1e-12

    def test_exact_mode_is_rational(self):
        g = SetFunction.indicator(E_STAR)
        out = semigroup_apply_uniform(g, 0.3, self.spec, exact=True)
        assert all(isinstance(c, Fraction) for c in out._coeffs_at(1))

    def test_decay_factor(self):
        assert decay_factor(F(2), 0.5) == math.exp(-0.5)
        assert decay_factor(F(2), 0.5, exact=True) == F(math.exp(-0.5))
        with pytest.raises(ValueError):
            decay_factor(F(1), -1)


@given(st.fractions(min_value=0, max_value=1, max_denominator=64),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=50, deadline=None)
def test_invariance_of_base_integral(q, level):
    # <nu0, T_t g> = <nu0, g>: the base law is invariant for the semigroup
    spec = MutationSpec(F(3, 2), base=BaseMeasure.uniform())
    cells = frozenset(i for i in range(1 << level) if (i * 7 + 1) % 3 == 0)
    g = scale(SetFunction.indicator(DyadicSet(level, cells)), q) + ONE
    before = spec.base.integrate(g)
    after = spec.base.integrate(
        semigroup_apply_uniform(g, 0.8, spec, exact=True))
    assert abs(float(after - before)) < 1e-12


@pytest.mark.parametrize("make,message", [
    (lambda: cell_index(2, 1.5), r"point outside \[0,1\]"),
    (lambda: cell_index(2, -0.25), r"point outside \[0,1\]"),
    (lambda: DyadicSet(1, frozenset({2})),
     "cell index out of range for level"),
    (lambda: SetFunction(1, (F(1),)), "need one coefficient per cell"),
    (lambda: TensorFunction(()), "tensor needs at least one factor"),
    (lambda: BaseMeasure(1, (F(3), F(-1))), "measure must be nonnegative"),
    (lambda: BaseMeasure(0, (F(1, 2),), ((F(3, 2), F(1, 2)),)),
     r"atom position outside \[0,1\]"),
    (lambda: MutationSpec(F(-1), BaseMeasure.uniform()),
     "theta must be nonnegative")],
    ids=["point_above_1", "point_below_0", "cell_out_of_range",
         "wrong_coefficient_count", "empty_tensor", "negative_density",
         "atom_outside", "negative_theta"])
def test_invalid_input_refused(make, message):
    with pytest.raises(ValueError, match=message):
        make()
