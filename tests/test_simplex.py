import functools
import hashlib
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from xistep import (CollisionProfile, SimplexAtom, XiMeasure,
                    build_rate_table, check_consistency, collision_rate)
from xistep.partitions import iter_profiles, profile_of
from xistep.simplex import MAX_BLOCKS, _paintbox_scan

from conftest import ATOM_HALF_QUARTER, KINGMAN, STAR, SWEEP

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
    """A concrete partition collides at the rate of its profile."""

    def test_atom_pair(self):
        assert rate(ATOM_HALF_QUARTER, *profile_of(((1, 2), (3,)))) \
            == F(11, 20)

    def test_kingman_no_double_pair(self):
        assert rate(KINGMAN, *profile_of(((1, 2), (3, 4)))) == 0


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


@functools.lru_cache(maxsize=None)
def injective_sum(coords, powers):
    """The sum over injective index tuples (i1..ik) of x_i1^p1 ... x_ik^pk
    for the coordinates x and powers p, in integers over D^(sum p), D the
    lcm of the coordinates' denominators."""
    den = math.lcm(*(x.denominator for x in coords))
    cs = [x.numerator * (den // x.denominator) for x in coords]
    total = sum(math.prod(cs[i] ** k for i, k in zip(idx, powers))
                for idx in itertools.permutations(range(len(cs)),
                                                  len(powers)))
    return F(total, den ** sum(powers))


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
            inj = injective_sum(xs, profile.merge_sizes + (1,) * ell)
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


@pytest.mark.parametrize("coords", [
    tuple(F(1, 6 + i) for i in range(9)),
    tuple(F(1, 12 + i) for i in range(12)),
], ids=["nine", "twelve"])
def test_atoms_of_more_than_eight_coordinates(coords):
    # an atom's support is not capped: the scan runs on any number of
    # coordinates
    xi = XiMeasure(F(1, 2), (SimplexAtom(coords, F(1)),))
    assert_rates_match_oracle(xi, 6)
    assert check_consistency(build_rate_table(xi, 12)).all_pass


def fraction_paintbox_rate(atom, profile):
    """Fraction oracle for the integer `_paintbox_scan`: the same (mask, l)
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


def assert_scan_matches_oracles(xi, b_max, sizes):
    """The one scan per atom up to b_max blocks against the Fraction
    recurrence, and the table built from it against the injective sums,
    on every profile of the given block counts."""
    table = build_rate_table(xi, b_max)
    for atom in xi.atoms:
        den, norm, totals = _paintbox_scan(atom.coords, b_max)
        for b in sizes:
            for merge_sizes, s in iter_profiles(b):
                prof = CollisionProfile(b, merge_sizes, s)
                assert F(totals.get((b, merge_sizes, s), 0) * den * den,
                         den ** b * norm) == \
                    fraction_paintbox_rate(atom, prof)
    for b in sizes:
        for prof, rate, _ in table.profiles(b):
            assert rate == injective_sum_rate(xi, prof)


@given(xi=xi_strategy())
@settings(max_examples=20, deadline=None)
def test_integer_paintbox_matches_fraction_recurrence(xi):
    assert_scan_matches_oracles(xi, 12, range(2, 13))


@pytest.mark.parametrize("atom", [
    SimplexAtom((F(1, 8),) * 6, F(1)),
    SimplexAtom((F(1, 2), F(1, 4), F(1, 4)), F(3)),
], ids=["six_eighths", "zero_dust"])
def test_integer_paintbox_matches_fraction_recurrence_b20(atom):
    assert_scan_matches_oracles(XiMeasure(atoms=(atom,)), 20, [20])


def row_digest(row):
    return hashlib.sha256("\n".join(
        f"{p.n};{'+'.join(map(str, p.merge_sizes))};{p.s} {rate} {mult}"
        for p, rate, mult in row).encode()).hexdigest()


class TestPinnedTable:
    """`build_rate_table(SWEEP, 20)`, row by row, as the per-profile
    recurrence that the one scan per atom replaced built it."""

    DIGESTS = {
        2: "d33e927a66b16f8bc2dc965140b555730d00cd8e2e949da8aed1d20d77a820dd",
        3: "1b3545bc707bc93b280e6ce5a4184bfc4e313db8cf2a4ac32f4911224d8d83ae",
        4: "5b313d28a0d57924e7ce8c55d5898795b06923378cbf0a6dca6991d23d43f035",
        5: "2f3a1f145f0536b5c8506cb7c9a2a72ba66afe2ab0a76ece3e899db513826c2e",
        6: "ad460710a42db22ad8f007b7303d384e51758820c1ab83adab28c04c3bc6f01c",
        7: "b04b79ae49ef004b72dc0d16187cc60f1188ad89570ce0eebffd91ca51c5046e",
        8: "8bff6e0c3c5e53515f47894fd60c518cedef08e84ef494a4c3416e304b717a72",
        9: "dc111e7ed9abb7bf60bf5588d50cefc65d16b27f310c303800c8d63fb99134b0",
        10: "067166a463b7b395479ef0c5d7e3fd9eaeb5995376e03e0496e3cbe248a79b77",
        11: "1dca425b1e41c8ebf378a48bf444eb29ba1da1a165b66312bf32652f9bee9f9f",
        12: "c03cc7b3bd4a459b46ca49edfd76e068331e0b9e81c9e292cbeb70075ec35092",
        13: "09d8876844aa97eb9673cef28064023be37464811ba0bc54ada4fc2e2d03e3fd",
        14: "0e6818256033188822bef4c3d33fc75f10d5ac26449924d6e9bbb78d435a6fc5",
        15: "e8532c1cca35ec4257f53d37668c71032b583d421cbe8b5d10d3a88e7c1b1417",
        16: "26c21bb0e542472e5ecd13023bc2d4316e881921fe9750b7a537986194c61496",
        17: "4b6de566dc982fd133da7ab87d980d950e621d23545d84d81bf3dbec3e33deeb",
        18: "70cd86e838d9032aebb06980419b0e4d823943343b8579a4d740f9b22e863659",
        19: "fdd9e7dff9fa7675740ce952467c69d056ef3af59d69eab0770168f2e7999b0a",
        20: "90474644054f45da2e045dcefe8579e27509e0caed029e29a18ff529cfd6939c",
    }

    def test_sweep_rows_at_the_cap(self):
        table = build_rate_table(SWEEP, MAX_BLOCKS)
        assert {b: row_digest(table.profiles(b))
                for b in range(2, MAX_BLOCKS + 1)} == self.DIGESTS

    def test_cached_scan_serves_smaller_tables(self):
        # a scan up to 20 blocks and one up to 7 give the same rates
        big = build_rate_table(SWEEP, MAX_BLOCKS)
        small = build_rate_table(SWEEP, 7)
        for b in range(2, 8):
            assert small.profiles(b) == big.profiles(b)
            for prof, rate, _ in small.profiles(b):
                assert collision_rate(SWEEP, prof) == rate


@pytest.mark.parametrize("make,message", [
    (lambda: SimplexAtom((), F(1)), "atom needs at least one coordinate"),
    (lambda: SimplexAtom((F(1, 2), F(0)), F(1)),
     "atom coordinates must be positive"),
    (lambda: SimplexAtom((F(1, 4), F(1, 2)), F(1)),
     "atom coordinates must be non-increasing"),
    (lambda: SimplexAtom((F(1, 2), F(1, 2), F(1, 4)), F(1)),
     "atom coordinate sum exceeds 1"),
    (lambda: SimplexAtom((F(1, 2),), F(0)), "atom weight must be positive"),
    (lambda: XiMeasure(F(-1)), "kingman_mass must be nonnegative"),
    (lambda: CollisionProfile(3, (), 3),
     "merge sizes must all be >= 2 and nonempty"),
    (lambda: CollisionProfile(5, (2, 3), 0),
     "merge sizes must be non-increasing"),
    (lambda: CollisionProfile(4, (2,), 1),
     r"need n = s \+ sum\(k_i\) with s >= 0"),
    (lambda: build_rate_table(KINGMAN, 0), "b_max must be >= 1"),
    (lambda: check_consistency(build_rate_table(KINGMAN, 3)),
     "consistency check needs a table covering b <= 4")],
    ids=["atom_empty", "atom_zero_coordinate", "atom_increasing",
         "atom_sum_above_1", "atom_zero_weight", "negative_kingman_mass",
         "profile_no_merger", "profile_increasing", "profile_miscounted",
         "table_b_max_0", "consistency_three_blocks"])
def test_invalid_input_refused(make, message):
    with pytest.raises(ValueError, match=message):
        make()
