import math
import random
from fractions import Fraction

import pytest

from xistep import (BaseMeasure, DyadicSet, ModelParams, MutationSpec,
                    ScalarParams, SetFunction, SimplexAtom, TensorFunction,
                    XiMeasure, build_rate_table)
from xistep.setfun import cell_index

F = Fraction

# the two reference measures used throughout: pure Kingman mass 1, and a
# single simplex atom at (1/2, 1/4)
KINGMAN = XiMeasure(kingman_mass=F(1))
ATOM_HALF_QUARTER = XiMeasure(atoms=(SimplexAtom((F(1, 2), F(1, 4)), F(1)),))
STAR = XiMeasure(atoms=(SimplexAtom((F(1),), F(1)),))
# the exact_sweep benchmark measure (SWEEP_CFG in test_cli.py)
SWEEP = XiMeasure(F(1), (SimplexAtom((F(1, 8),) * 6, F(1)),
                         SimplexAtom((F(1, 4), F(1, 5), F(1, 6), F(1, 7),
                                      F(1, 9)), F(1, 2))))

# E* = [0, 1/2) under the uniform base law, so alpha = 1/2
E_STAR = DyadicSet(1, frozenset({0}))


@pytest.fixture
def uniform_base():
    return BaseMeasure.uniform()


def kingman_model(theta=F(1), u1=F(1), u2=F(1), b_max=6):
    return ModelParams(KINGMAN, MutationSpec(theta, base=BaseMeasure.uniform()),
                       u1, u2, b_max)


def kingman_scalar(theta=F(1), alpha=F(1, 2), u1=F(1), u2=F(1)):
    table = build_rate_table(KINGMAN, 4)
    return ScalarParams.from_rate_table(table, theta, alpha, u1, u2)


def indicator_power(n):
    return TensorFunction.indicator_power(E_STAR, n)


def rand_consistent_params(rng, symmetric=False, alpha=None):
    """Random ScalarParams whose rates satisfy the sampling identities by
    construction (built directly, not via a measure, so degenerate corners
    like a4 > 0 with tiny a211 get exercised too)."""
    def fr(lo, hi):
        return F(rng.randint(lo, hi), rng.randint(1, 4))
    a4, a31, a22, a211 = fr(0, 2), fr(0, 2), fr(0, 2), fr(0, 3)
    a3 = a31 + a4
    a21 = a211 + a22 + a31
    a2 = a21 + a3
    u1 = fr(1, 5)
    return ScalarParams(theta=fr(1, 5),
                        alpha=F(rng.randint(1, 7), 8) if alpha is None
                        else alpha,
                        u1=u1, u2=u1 if symmetric else fr(1, 5),
                        a2=a2, a21=a21, a3=a3, a211=a211, a22=a22,
                        a31=a31, a4=a4)


def scale(g, c):
    """The set function c * g."""
    return g.axpy(c, 0)


def multiply(g, h):
    """The pointwise product of two set functions."""
    level = max(g.level, h.level)
    pairs = zip(g._coeffs_at(level), h._coeffs_at(level))
    return SetFunction(level, tuple(x * y for x, y in pairs))


def decay_factor(theta, t, exact=False):
    """exp(-theta t / 2); in exact mode the float is embedded as the exact
    dyadic rational it represents, so downstream algebra stays rational."""
    if t < 0:
        raise ValueError("negative time")
    p = math.exp(-float(theta) * float(t) / 2.0)
    return Fraction(p) if exact else p


def semigroup_apply_uniform(g, t, spec, exact=False):
    """Closed-form mutation semigroup on a set function, the oracle of the
    simulator's payload advance:
    e^{-theta t/2} g + (1 - e^{-theta t/2}) <nu0, g> 1."""
    p = decay_factor(spec.theta, t, exact=exact)
    return g.axpy(p, (1 - p) * spec.base.integrate(g))


def value_at(g, point):
    """The value of the set function g at a point of [0, 1]."""
    return g.coeffs[cell_index(g.level, point)]


def intersection(a, b):
    """The intersection of two dyadic sets, at the finer of their levels."""
    level = max(a.level, b.level)

    def cells(d):
        shift = level - d.level
        return {i for c in d.cells
                for i in range(c << shift, (c + 1) << shift)}

    return DyadicSet(level, frozenset(cells(a) & cells(b)))


def seeded(n):
    return random.Random(f"xistep-tests:{n}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    lines = []
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" in nodeid and "::" in nodeid:
                lines.append((nodeid.split("::")[-1], status == "passed"))
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, ok in sorted(lines):
            terminalreporter.write_line(
                f"{name}: {'PASS' if ok else 'FAIL'}")
