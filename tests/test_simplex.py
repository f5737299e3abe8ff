import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from xistep import (CollisionProfile, SimplexAtom, XiMeasure,
                    build_rate_table, check_consistency, collision_rate)
from xistep.partitions import iter_profiles
from xistep.simplex import MAX_BLOCKS, _atom_rate, per_partition_rate

from conftest import ATOM_HALF_QUARTER, KINGMAN, STAR

F = Fraction


def rate(xi, n, merge_sizes, s):
    return collision_rate(xi, CollisionProfile(n, tuple(merge_sizes), s))


class TestCollisionRate:
    def test_kingman_pairs_only(self):
        xi = XiMeasure(kingman_mass=F(3, 2))
        for n in range(2, 7):
            assert rate(xi, n, (2,), n - 2) == F(3, 2)
            if n >= 3:
                assert rate(xi, n, (3,), n - 3) == 0

    def test_atom_fixture(self):
        # hand evaluation: l=0 term (5/16)(1/4), l=1 term x1^2 x2 + x2^2 x1
        # = 3/32, divided by sum of squares 5/16
        assert rate(ATOM_HALF_QUARTER, 3, (2,), 1) == F(11, 20)
        assert rate(ATOM_HALF_QUARTER, 3, (3,), 0) == F(9, 20)

    def test_star_measure(self):
        for n in range(2, 9):
            assert rate(STAR, n, (n,), 0) == 1
            assert rate(STAR, n, (2,), n - 2) == (1 if n == 2 else 0)
        assert rate(STAR, 4, (2, 2), 0) == 0
        assert rate(STAR, 4, (3,), 1) == 0

    def test_pair_rate_is_total_mass(self):
        xi = XiMeasure(F(1, 3), (SimplexAtom((F(1, 2), F(1, 4)), F(2)),
                                 SimplexAtom((F(1, 5),), F(1, 2))))
        assert rate(xi, 2, (2,), 0) == xi.total_mass


class TestPerPartitionRate:
    def test_atom_pair(self):
        assert per_partition_rate(ATOM_HALF_QUARTER,
                                  ((1, 2), (3,))) == F(11, 20)

    def test_singleton_partition_is_zero(self):
        assert per_partition_rate(KINGMAN, ((1,), (2,), (3,))) == 0

    def test_kingman_no_double_pair(self):
        assert per_partition_rate(KINGMAN, ((1, 2), (3, 4))) == 0


class TestRateTable:
    def test_multiplicities_b4(self):
        table = build_rate_table(KINGMAN, 4)
        mults = {(prof.merge_sizes, prof.s): mult
                 for prof, _, mult in table.profiles(4)}
        assert mults == {((2,), 2): 6, ((2, 2), 0): 3,
                         ((3,), 1): 4, ((4,), 0): 1}

    def test_multiplicities_b3(self):
        table = build_rate_table(KINGMAN, 3)
        mults = {(prof.merge_sizes, prof.s): mult
                 for prof, _, mult in table.profiles(3)}
        assert mults == {((2,), 1): 3, ((3,), 0): 1}

    def test_total_rate_kingman(self):
        table = build_rate_table(KINGMAN, 4)
        totals = [sum(rate for _, rate in table.drop_rates(b))
                  for b in (2, 3, 4)]
        assert totals == [1, 3, 6]

    def test_rate_of_missing_profile(self):
        table = build_rate_table(KINGMAN, 4)
        assert table.rate_of(4, (4,), 0) == 0

    def test_rate_of_reads_the_rows(self):
        table = build_rate_table(ATOM_HALF_QUARTER, 6)
        for b in range(2, 7):
            for prof, rate, _ in table.profiles(b):
                assert table.rate_of(b, list(prof.merge_sizes), prof.s) == rate
        with pytest.raises(ValueError, match="b_max=6"):
            table.rate_of(7, (2,), 5)

    def test_drop_rates_group_the_profiles(self):
        table = build_rate_table(XiMeasure(F(1, 2), ATOM_HALF_QUARTER.atoms),
                                 7)
        for b in range(2, 8):
            sums = {}
            for prof, rate, mult in table.profiles(b):
                sums[prof.block_drop] = (sums.get(prof.block_drop, F(0))
                                         + mult * rate)
            assert table.drop_rates(b) == tuple(
                (drop, total) for drop, total in sorted(sums.items())
                if total != 0)
        assert table.drop_rates(3) == ((1, F(3, 2) + 3 * F(11, 20)),
                                       (2, F(9, 20)))
        with pytest.raises(ValueError, match="b_max=7"):
            table.drop_rates(8)

    def test_cap_is_named(self):
        with pytest.raises(ValueError, match=f"cap of {MAX_BLOCKS}"):
            build_rate_table(KINGMAN, MAX_BLOCKS + 1)
        assert MAX_BLOCKS == 20


class TestConsistency:
    def test_at_the_cap(self):
        table = build_rate_table(ATOM_HALF_QUARTER, MAX_BLOCKS)
        report = check_consistency(table)
        # 3 named identities and 2064 restriction checks, none twice
        assert report.all_pass and len(report.checks) == 2067

    def test_atom_fixture(self):
        table = build_rate_table(ATOM_HALF_QUARTER, 5)
        report = check_consistency(table)
        assert report.all_pass
        # a2 = a21 + a3 with the hand-checked values
        assert table.rate_of(2, (2,), 0) == F(11, 20) + F(9, 20)

    def test_kingman(self):
        table = build_rate_table(KINGMAN, 5)
        assert check_consistency(table).all_pass
        assert table.rate_of(3, (2,), 1) == 1
        assert table.rate_of(4, (2,), 2) == 1
        assert table.rate_of(4, (2, 2), 0) == 0

    def test_tampered_table_fails(self):
        table = build_rate_table(KINGMAN, 4)
        table.rows[3] = tuple(
            (prof, rate + (1 if prof.merge_sizes == (3,) else 0), mult)
            for prof, rate, mult in table.rows[3])
        report = check_consistency(table)
        failed = [name for name, _, _, ok in report.checks if not ok]
        assert any("a2" in name for name in failed)

    def test_broken_a2_fails_once(self):
        # "a2 = a21 + a3" is also the restriction of the profile (2,);0,
        # which is checked once, under the named label
        table = build_rate_table(KINGMAN, 4)
        table.rows[2] = tuple((prof, rate + 1, mult)
                              for prof, rate, mult in table.rows[2])
        report = check_consistency(table)
        assert [name for name, _, _, ok in report.checks if not ok] \
            == ["a2 = a21 + a3"]


def xi_strategy():
    rationals = st.fractions(min_value=0, max_value=2, max_denominator=6)
    positive = st.fractions(min_value=F(1, 8), max_value=F(1, 3),
                            max_denominator=16)
    atom = st.builds(
        lambda cs, w: SimplexAtom(tuple(sorted(cs, reverse=True)), w),
        st.lists(positive, min_size=1, max_size=3),
        st.fractions(min_value=F(1, 4), max_value=2, max_denominator=5))
    return st.builds(lambda m, ats: XiMeasure(m, tuple(ats)),
                     rationals, st.lists(atom, max_size=2))


@given(xi=xi_strategy())
@settings(max_examples=40, deadline=None)
def test_rates_nonnegative_and_consistent(xi):
    table = build_rate_table(xi, 5)
    for b in range(2, 6):
        for _, r, mult in table.profiles(b):
            assert r >= 0 and mult >= 1
    assert check_consistency(table).all_pass


@given(xi=xi_strategy(),
       c=st.fractions(min_value=F(1, 3), max_value=3, max_denominator=4))
@settings(max_examples=25, deadline=None)
def test_rates_scale_linearly(xi, c):
    t1 = build_rate_table(xi, 4)
    t2 = build_rate_table(xi.scaled(c), 4)
    for b in range(2, 5):
        for (p1, r1, m1), (p2, r2, m2) in zip(t1.profiles(b),
                                              t2.profiles(b)):
            assert p1 == p2 and m1 == m2 and r2 == c * r1


def injective_sum_rate(xi, profile):
    """Enumerative oracle for collision_rate: per atom x, the sum over l of
    C(s, l) times the sum over injective index tuples (i1..ir, j1..jl) of
    x_i1^k1 ... x_ir^kr x_j1 ... x_jl, times (1 - sum x)^(s - l), over
    sum x^2; plus the Kingman mass on the pairwise profile."""
    rate = xi.kingman_mass if profile.merge_sizes == (2,) else F(0)
    for atom in xi.atoms:
        xs = atom.coords
        total = F(0)
        for ell in range(profile.s + 1):
            powers = profile.merge_sizes + (1,) * ell
            inj = sum((math.prod(xs[i] ** k for i, k in zip(idx, powers))
                       for idx in itertools.permutations(range(len(xs)),
                                                         len(powers))),
                      F(0))
            total += (math.comb(profile.s, ell) * inj
                      * (1 - sum(xs)) ** (profile.s - ell))
        rate += atom.weight * total / sum(x * x for x in xs)
    return rate


def assert_rates_match_oracle(xi, b_max):
    for b in range(2, b_max + 1):
        for merge_sizes, s in iter_profiles(b):
            prof = CollisionProfile(b, merge_sizes, s)
            assert collision_rate(xi, prof) == injective_sum_rate(xi, prof)


@given(xi=xi_strategy())
@settings(max_examples=30, deadline=None)
def test_paintbox_recurrence_matches_injective_sums(xi):
    assert_rates_match_oracle(xi, 7)


@pytest.mark.parametrize("xi", [
    XiMeasure(atoms=(SimplexAtom((F(1, 8),) * 6, F(1)),)),
    STAR,
    XiMeasure(F(1, 2), (SimplexAtom((F(1, 2), F(1, 4), F(1, 4)), F(3)),)),
], ids=["six_eighths", "star", "zero_dust"])
def test_paintbox_recurrence_matches_injective_sums_b8(xi):
    assert_rates_match_oracle(xi, 8)


def fraction_paintbox_rate(atom, profile):
    """Fraction oracle for the integer `_atom_rate`: the same (mask, l)
    paintbox recurrence, run on the coordinates as Fractions."""
    ks = profile.merge_sizes
    s = profile.s
    weights = {(0, 0): F(1)}
    for x in atom.coords:
        powers = [x ** k for k in ks]
        grown = dict(weights)
        for (mask, ell), w in weights.items():
            for j, xk in enumerate(powers):
                if not mask >> j & 1:
                    key = (mask | 1 << j, ell)
                    grown[key] = grown.get(key, 0) + w * xk
            if ell < s:
                key = (mask, ell + 1)
                grown[key] = grown.get(key, 0) + w * x * (s - ell)
        weights = grown
    full = (1 << len(ks)) - 1
    dust = 1 - sum(atom.coords)
    total = sum(w * dust ** (s - ell)
                for (mask, ell), w in weights.items() if mask == full)
    return total / sum(x * x for x in atom.coords)


def assert_integer_paintbox_matches(atoms, sizes):
    for atom in atoms:
        for b in sizes:
            for merge_sizes, s in iter_profiles(b):
                prof = CollisionProfile(b, merge_sizes, s)
                assert _atom_rate(atom, prof) == \
                    fraction_paintbox_rate(atom, prof)


@given(xi=xi_strategy())
@settings(max_examples=20, deadline=None)
def test_integer_paintbox_matches_fraction_recurrence(xi):
    assert_integer_paintbox_matches(xi.atoms, range(2, 13))


@pytest.mark.parametrize("atom", [
    SimplexAtom((F(1, 8),) * 6, F(1)),
    SimplexAtom((F(1, 2), F(1, 4), F(1, 4)), F(3)),
], ids=["six_eighths", "zero_dust"])
def test_integer_paintbox_matches_fraction_recurrence_b20(atom):
    assert_integer_paintbox_matches([atom], [20])
