from fractions import Fraction

import pytest

from xistep import (F1_PROBE, F2_PROBE, S1_PROBE, T1_PROBE,
                    ReversibilityProbe, final_contradiction, residual,
                    residual_with_denominator, verify_paper_factorizations)
from xistep.reversibility import (contradiction_bracket, degenerate_params,
                                  residual_polynomial, s1_paper_numerator)
from xistep.records import replace

from conftest import kingman_scalar, rand_consistent_params, seeded

F = Fraction


class TestProbe:
    def test_total_order(self):
        assert S1_PROBE.total_order == 2
        assert F2_PROBE.total_order == 4

    def test_double_constant_rejected(self):
        with pytest.raises(ValueError):
            ReversibilityProbe((0, 0), (0, 0))

    def test_order_overflow(self):
        with pytest.raises(ValueError):
            residual(ReversibilityProbe((3, 0), (0, 2)), kingman_scalar())


class TestS1:
    def test_reference_value(self):
        p = kingman_scalar(u1=F(1), u2=F(2))
        r, d = residual_with_denominator(S1_PROBE, p)
        assert r == F(1, 28)
        assert d == 56 and r == F(2, 56)

    def test_symmetric_migration_vanishes(self):
        rng = seeded(41)
        for _ in range(10):
            p = rand_consistent_params(rng, symmetric=True)
            assert residual(S1_PROBE, p) == 0

    def test_constant_side_vanishes(self):
        p = kingman_scalar(u1=F(1), u2=F(3))
        assert residual(ReversibilityProbe((1, 0), (0, 0)), p) == 0

    def test_antisymmetry(self):
        rng = seeded(42)
        p = rand_consistent_params(rng)
        probe = ReversibilityProbe((1, 1), (1, 0))
        flipped = ReversibilityProbe((1, 0), (1, 1))
        assert residual(probe, p) == -residual(flipped, p)

    def test_colony_swap_flips_sign(self):
        rng = seeded(43)
        p = rand_consistent_params(rng)
        mirrored = ReversibilityProbe((0, 1), (1, 0))
        swapped = replace(p, u1=p.u2, u2=p.u1)
        assert residual(S1_PROBE, swapped) == residual(mirrored, p)

    def test_factored_numerator_matches(self):
        rng = seeded(44)
        for _ in range(10):
            p = rand_consistent_params(rng)
            r, d = residual_with_denominator(S1_PROBE, p)
            num = s1_paper_numerator(p)
            assert r * d == num


class TestFactorizationReport:
    def test_random_samples_pass(self):
        rng = seeded(45)
        samples = [rand_consistent_params(rng) for _ in range(12)]
        samples.append(kingman_scalar(u1=F(1), u2=F(2)))
        samples.append(kingman_scalar())
        report = verify_paper_factorizations(samples)
        assert report.all_pass

    def test_inconsistent_sample_rejected(self):
        from xistep import ScalarParams
        bad = ScalarParams(F(1), F(1, 2), F(1), F(1), a2=F(1), a21=F(1),
                           a3=F(1))
        with pytest.raises(ValueError):
            verify_paper_factorizations([bad])

    def test_t1_distinguishes_alpha(self):
        p_half = kingman_scalar(alpha=F(1, 2))
        p_third = kingman_scalar(alpha=F(1, 3))
        assert residual(T1_PROBE, p_half) == 0
        assert residual(T1_PROBE, p_third) != 0

    def test_bracket_positive_on_consistent_rates(self):
        rng = seeded(46)
        count = 0
        while count < 20:
            p = rand_consistent_params(rng, symmetric=True)
            if p.a2 <= 0:
                continue
            assert contradiction_bracket(p) > 0
            count += 1

    def test_contra_vanishes_only_without_triples(self):
        rng = seeded(47)
        for _ in range(5):
            p = rand_consistent_params(rng, symmetric=True, alpha=F(1, 2))
            both = residual(F1_PROBE, p) - 2 * residual(F2_PROBE, p)
            assert (both == 0) == (p.a3 == 0)


class TestFinalContradiction:
    def test_unit_rate(self):
        report = final_contradiction(F(1))
        assert report.passed
        assert report.residual == -F(5, 11008)
        assert report.cubic_numerator == -5

    def test_cubic_scaling_other_rates(self):
        for a in (F(1, 2), F(3, 2), F(4)):
            report = final_contradiction(a, theta=F(2), u=F(1, 3))
            assert report.passed
            assert report.cubic_numerator == \
                -a ** 3 * F(2) * F(1, 3) * (2 + F(4, 3))

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            final_contradiction(F(0))

    def test_degenerate_params_consistent(self):
        p = degenerate_params(F(3, 4))
        assert p.consistency_violations() == []
        assert p.a3 == 0 and p.alpha == F(1, 2) and p.u1 == p.u2


class TestKingmanIrreversibility:
    def test_some_probe_detects(self):
        p = kingman_scalar()   # symmetric, alpha = 1/2, but pairwise rates
        values = [residual(probe, p)
                  for probe in (S1_PROBE, T1_PROBE, F1_PROBE, F2_PROBE)]
        assert any(v != 0 for v in values)

    def test_polynomial_expansion_structure(self):
        p = kingman_scalar()
        poly = residual_polynomial(S1_PROBE, p)
        # indices add under the monomial product, so order <= 2 throughout
        assert all(n + m <= 2 for n, m in poly)
