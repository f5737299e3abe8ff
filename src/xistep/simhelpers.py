"""Seeded random model generators and structural path checks, shared by
the selftest command and the test suite."""

from fractions import Fraction

from .moments import ScalarParams
from .setfun import BaseMeasure, DyadicSet, MutationSpec, SetFunction, \
    TensorFunction
from .simplex import SimplexAtom, XiMeasure, build_rate_table
from .simulator import (ModelParams, StopRule, evaluate_dual, initial_state,
                        replay, run_until)


def random_xi(rng, max_atoms=2, allow_empty=False):
    """Random finite simplex measure: Kingman mass plus a few atoms with
    small rational coordinates."""
    mass = Fraction(rng.randint(0 if allow_empty else 1, 3),
                    rng.randint(1, 4))
    atoms = []
    for _ in range(rng.randint(0, max_atoms)):
        support = rng.randint(1, 3)
        budget = Fraction(1)
        coords = []
        for _ in range(support):
            c = Fraction(rng.randint(1, 4), rng.randint(8, 16))
            c = min(c, budget, coords[-1] if coords else c)
            if c <= 0:
                break
            coords.append(c)
            budget -= c
        if coords:
            atoms.append(SimplexAtom(tuple(coords),
                                     Fraction(rng.randint(1, 3),
                                              rng.randint(1, 4))))
    return XiMeasure(mass, tuple(atoms))


def random_scalar_params(rng, symmetric=False):
    """Consistent-by-construction moment parameters: rates are read off a
    random simplex measure's table."""
    table = build_rate_table(random_xi(rng), 4)
    theta = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    alpha = Fraction(rng.randint(1, 7), 8)
    u1 = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    u2 = u1 if symmetric else Fraction(rng.randint(1, 5), rng.randint(1, 3))
    return ScalarParams.from_rate_table(table, theta, alpha, u1, u2)


def random_model(rng):
    return ModelParams(random_xi(rng),
                       MutationSpec(Fraction(1), base=BaseMeasure.uniform()),
                       Fraction(rng.randint(1, 3), rng.randint(1, 2)),
                       Fraction(rng.randint(1, 3), rng.randint(1, 2)), 8)


def _random_trajectory(rng, params, f):
    eta = tuple(rng.choice((1, 2)) for _ in range(f.arity))
    state = initial_state(f, eta)
    stop = StopRule(at_absorption=True, max_events=10_000)
    _, traj = run_until(state, params, stop, rng)
    return eta, traj


def coupling_linearity_holds(rng):
    """Replaying one trajectory of a random model on two 3-block tensors
    that differ in the last slot, and on the tensor holding that slot's
    sum, the duality values add exactly (rational mode)."""
    params = random_model(rng)
    e = DyadicSet(1, frozenset({0}))
    g1, g2 = SetFunction.indicator(e), SetFunction.indicator(e.complement())
    fa = TensorFunction((g1, g1, g1))
    fb = TensorFunction((g1, g1, g2))
    fs = TensorFunction((g1, g1, g1 + g2))
    eta, traj = _random_trajectory(rng, params, fa)
    mu = (BaseMeasure.uniform(), BaseMeasure.uniform())
    va = evaluate_dual(replay(fa, eta, traj, params, exact=True), mu)
    vb = evaluate_dual(replay(fb, eta, traj, params, exact=True), mu)
    vs = evaluate_dual(replay(fs, eta, traj, params, exact=True), mu)
    return va + vb == vs


def normalization_holds(rng):
    """On a random model, f = 1 on each of 3 coordinates stays exactly 1
    along any path."""
    params = random_model(rng)
    f = TensorFunction.indicator_power(DyadicSet.full(), 3)
    eta, traj = _random_trajectory(rng, params, f)
    state = replay(f, eta, traj, params, exact=True)
    mu = (BaseMeasure.uniform(), BaseMeasure.uniform())
    return evaluate_dual(state, mu) == 1
