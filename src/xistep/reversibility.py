"""Detailed-balance probes on moment monomials and the machine check that
the stationary process fails reversibility.

A probe pairs two monomials F = (n, m) and G = (p, q) built from tensor
powers of the reference set's indicator. Its residual is the stationary
expectation of G * (gen F) - F * (gen G); reversibility would force every
residual to vanish.

The closed forms the irreversibility chain rests on, `s1_paper_numerator`
and the degenerate F2 numerator, are checked as identities against the
exact residuals wherever they are evaluated.
"""

from fractions import Fraction

from .moments import ScalarParams, generator_on_monomial, stationary_system
from .records import Record, replace, set_field


class ReversibilityProbe(Record):
    """The monomials F = (n, m), `left`, and G = (p, q), `right`."""

    _fields = ("left", "right")

    def __init__(self, left, right):
        if left == (0, 0) and right == (0, 0):
            raise ValueError("at least one side must be a nonconstant monomial")
        set_field(self, "left", left)
        set_field(self, "right", right)

    @property
    def total_order(self):
        return sum(self.left) + sum(self.right)


S1_PROBE = ReversibilityProbe((1, 0), (0, 1))
T1_PROBE = ReversibilityProbe((2, 0), (0, 1))
F1_PROBE = ReversibilityProbe((1, 1), (2, 0))
F2_PROBE = ReversibilityProbe((2, 1), (1, 0))


def residual_polynomial(probe, params):
    """G * (gen F) - F * (gen G) as a moment polynomial (products of
    monomials add their indices)."""
    n, m = probe.left
    p, q = probe.right
    gen_f = generator_on_monomial((n, m), params).shifted(p, q)
    gen_g = generator_on_monomial((p, q), params).shifted(n, m)
    return gen_f - gen_g


def residual(probe, params):
    """Exact rational detailed-balance residual of the probe at the
    stationary moments of the given parameters."""
    return residual_with_denominator(probe, params)[0]


def residual_with_denominator(probe, params):
    """Residual plus the common-denominator convention: the product of the
    absolute determinants of the order-2..K stationary systems. One solve
    gives both; the rate table's error names an order it does not cover."""
    moments, denom = {(0, 0): Fraction(1)}, Fraction(1)
    for k, system in enumerate(stationary_system(probe.total_order, params),
                               start=1):
        moments.update(system.solution)
        if k >= 2:
            denom *= abs(system.determinant)
    return residual_polynomial(probe, params).evaluate(moments), denom


def s1_paper_numerator(p):
    """Factored S1 numerator reported in the source analysis: the S1
    residual times the denominator of `residual_with_denominator` equals
    it exactly, sign included."""
    return (p.alpha * p.theta * p.a2 * (p.u1 - p.u2)
            * (p.theta + 2 * p.u1 + p.a2 + 2 * p.u2) * (p.alpha - 1))


def contradiction_bracket(p):
    """The strictly positive bracket of the final-order combination; its
    positivity forces the triple-collision rate to vanish."""
    return (-8 * p.a4 * p.u1 - 4 * p.a4 * p.a3 - 4 * p.theta * p.a4
            + 8 * p.a3 ** 2 + 22 * p.a3 * p.u1 + 11 * p.a3 * p.theta
            + 8 * p.a21 ** 2 + 16 * p.a21 * p.a3 + 12 * p.a211 * p.a3
            - 4 * p.a4 * p.a21 + 10 * p.a21 * p.u1 + 5 * p.a21 * p.theta
            + 3 * p.a211 * p.theta + 6 * p.a211 * p.u1
            + 12 * p.a211 * p.a21)


class FactorizationReport(Record):
    """`s1_matches` holds one bool per sample."""

    _fields = ("s1_matches", "s1_zero_iff_symmetric", "t1_zero_iff_half",
               "contra_zero_iff_no_triple", "bracket_positive")

    def __init__(self, s1_matches, s1_zero_iff_symmetric, t1_zero_iff_half,
                 contra_zero_iff_no_triple, bracket_positive):
        set_field(self, "s1_matches", s1_matches)
        set_field(self, "s1_zero_iff_symmetric", s1_zero_iff_symmetric)
        set_field(self, "t1_zero_iff_half", t1_zero_iff_half)
        set_field(self, "contra_zero_iff_no_triple", contra_zero_iff_no_triple)
        set_field(self, "bracket_positive", bracket_positive)

    @property
    def all_pass(self):
        return (all(self.s1_matches) and self.s1_zero_iff_symmetric
                and self.t1_zero_iff_half
                and self.contra_zero_iff_no_triple and self.bracket_positive)


def verify_paper_factorizations(samples):
    """At each parameter sample: check the identity residual * denominator
    == `s1_paper_numerator` of the S1 probe, and confirm the chain of
    necessary conditions: symmetric migration, reference mass one half,
    and no triple collisions."""
    for p in samples:
        bad = p.consistency_violations()
        if bad:
            raise ValueError(f"inconsistent rate sample: {bad}")
    s1_matches = []
    s1_iff = True
    for p in samples:
        r, d = residual_with_denominator(S1_PROBE, p)
        s1_matches.append(r * d == s1_paper_numerator(p))
        # the factored numerator vanishes off u1 == u2 only at degenerate
        # alpha or a2, so restrict the iff to informative samples
        if p.alpha not in (0, 1) and p.a2 != 0:
            if (r == 0) != (p.u1 == p.u2):
                s1_iff = False

    t1_iff = True
    for p in samples:
        sym = replace(p, u2=p.u1)
        r_half = residual(T1_PROBE, replace(sym, alpha=Fraction(1, 2)))
        r_other = residual(T1_PROBE, sym)
        if r_half != 0:
            t1_iff = False
        if sym.alpha != Fraction(1, 2) and sym.alpha not in (0, 1) \
                and sym.a2 != 0 and r_other == 0:
            t1_iff = False

    contra_iff = True
    bracket_pos = True
    for p in samples:
        half = replace(p, u2=p.u1, alpha=Fraction(1, 2))
        r = residual(F1_PROBE, half) - 2 * residual(F2_PROBE, half)
        if (r == 0) != (half.a3 == 0):
            contra_iff = False
        if not half.consistency_violations() and half.a2 > 0:
            if contradiction_bracket(half) <= 0:
                bracket_pos = False
    return FactorizationReport(tuple(s1_matches), s1_iff, t1_iff,
                               contra_iff, bracket_pos)


class ContradictionReport(Record):
    """`cubic_numerator` is the residual times its reduced denominator."""

    _fields = ("pair_rate", "residual", "cubic_numerator",
               "closed_form_matches", "cubic_scaling", "nonzero")

    def __init__(self, pair_rate, residual, cubic_numerator,
                 closed_form_matches, cubic_scaling, nonzero):
        set_field(self, "pair_rate", pair_rate)
        set_field(self, "residual", residual)
        set_field(self, "cubic_numerator", cubic_numerator)
        set_field(self, "closed_form_matches", closed_form_matches)
        set_field(self, "cubic_scaling", cubic_scaling)
        set_field(self, "nonzero", nonzero)

    @property
    def passed(self):
        return self.nonzero and self.cubic_scaling and self.closed_form_matches


def degenerate_params(a, theta=Fraction(1), u=Fraction(1)):
    """The forced pattern once triple collisions vanish: only pairwise
    rates survive and they all equal a."""
    a = Fraction(a)
    if a <= 0:
        raise ValueError("pair rate must be positive")
    return ScalarParams(theta, Fraction(1, 2), u, u, a2=a, a21=a, a211=a)


def _reduced_denominator(a, theta, u):
    """Lowest-terms denominator of the probe residual under the degenerate
    rate pattern, as a polynomial in (a, theta, u)."""
    return (8 * (a * theta + 2 * a * u + theta ** 2 + 4 * theta * u)
            * (9 * a ** 3 + 18 * a ** 2 * theta + 36 * a ** 2 * u
               + 11 * a * theta ** 2 + 44 * a * theta * u + 24 * a * u ** 2
               + 2 * theta ** 3 + 12 * theta ** 2 * u + 16 * theta * u ** 2))


# pair rates at which the cleared residual's cubic scaling is checked
_SCALING_SAMPLES = (Fraction(1, 2), Fraction(2), Fraction(3))


def final_contradiction(a, theta=Fraction(1), u=Fraction(1)):
    """With the degenerate rate pattern the last probe's residual cannot
    vanish: cleared of its (positive) denominator it equals a cube of the
    pair rate times a positive function of (theta, u) alone. The cleared
    residual is checked against that closed form, and its cubic scaling
    against the cleared residuals at `_SCALING_SAMPLES`.
    """
    theta, u = Fraction(theta), Fraction(u)

    def cleared(rate):
        p = degenerate_params(rate, theta, u)
        r = residual(F2_PROBE, p)
        return r, r * _reduced_denominator(Fraction(rate), theta, u)

    r, num = cleared(a)
    cofactor = theta * u * (theta + 4 * u)
    closed = num == -(Fraction(a) ** 3) * cofactor
    cubic = True
    for b in _SCALING_SAMPLES:
        _, numb = cleared(b)
        if numb * Fraction(a) ** 3 != num * Fraction(b) ** 3:
            cubic = False
    return ContradictionReport(Fraction(a), r, num, closed, cubic, r != 0)
