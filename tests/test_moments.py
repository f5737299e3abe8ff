import itertools
import math
import pickle
from collections import defaultdict, namedtuple
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xistep import (HausdorffReport, MomentPolynomial, RateTable,
                    ScalarParams, SimplexAtom, XiMeasure, build_rate_table,
                    generator_on_monomial, hausdorff_check, order_indices,
                    solve_stationary, stationary_system)
from xistep import moments
from xistep.linalg import solve_exact, solve_tridiagonal
from xistep.moments import _generator_row
from xistep.partitions import (enumerate_partitions, iter_profiles,
                               profile_multiplicity, profile_of)
from xistep.records import replace
from xistep.reversibility import degenerate_params
from xistep.simplex import NAMED_RATES, CollisionProfile

from conftest import ATOM_HALF_QUARTER, KINGMAN, SWEEP, kingman_scalar, \
    rand_consistent_params, seeded

F = Fraction
SWEEP_TABLE_8 = build_rate_table(SWEEP, 8)


def plain_sum(poly, values):
    """The left-to-right Fraction sum that `MomentPolynomial.evaluate`
    must equal."""
    return sum((c * values[idx] for idx, c in poly.items()), F(0))


class TestGeneratorOnMonomial:
    def test_constant_annihilated(self):
        assert generator_on_monomial((0, 0), kingman_scalar()) == {}

    def test_first_moment_form(self):
        p = kingman_scalar(theta=F(3), u1=F(5), u2=F(2))
        poly = generator_on_monomial((1, 0), p)
        assert dict(poly) == {(1, 0): -(F(3) / 2 + F(2)),
                              (0, 1): F(2),
                              (0, 0): F(3) * p.alpha / 2}

    def test_second_moment_form(self):
        p = kingman_scalar(theta=F(1), u1=F(1), u2=F(2))
        poly = generator_on_monomial((2, 0), p).substitute(
            {(1, 0): p.alpha, (0, 1): p.alpha})
        # stationarity of this poly is the linear relation
        # (theta + 2 u2 + a2) M20 - 2 u2 M11 = theta a^2 + a2 a
        assert dict(poly) == {(2, 0): -(1 + 4 + 1),
                              (1, 1): F(4),
                              (0, 0): F(1, 4) + F(1, 2)}

    def test_fourth_moment_coefficients(self):
        rng = seeded(31)
        p = rand_consistent_params(rng)
        poly = generator_on_monomial((4, 0), p)
        zero = F(0)
        assert poly.get((4, 0), zero) == -(2 * p.theta + 4 * p.u2 + 6 * p.a211
                                           + 3 * p.a22 + 4 * p.a31 + p.a4)
        assert poly.get((3, 0), zero) == 2 * p.theta * p.alpha + 6 * p.a211
        assert poly.get((2, 0), zero) == 3 * p.a22 + 4 * p.a31
        assert poly.get((1, 0), zero) == p.a4
        assert poly.get((3, 1), zero) == 4 * p.u2

    def test_rate_table_agrees_with_symbolic(self):
        table = build_rate_table(ATOM_HALF_QUARTER, 4)
        p = ScalarParams.from_rate_table(table, F(1), F(1, 2), F(1), F(2))
        named = ScalarParams(p.theta, p.alpha, p.u1, p.u2, p.a2, p.a21,
                             p.a3, p.a211, p.a22, p.a31, p.a4)
        assert named.table is not table
        for idx in [(2, 0), (1, 1), (3, 1), (2, 2), (4, 0), (0, 3)]:
            assert generator_on_monomial(idx, named) == \
                generator_on_monomial(idx, p)


def profilewise_generator(idx, params):
    """Oracle for generator_on_monomial: one coalescence term per profile
    of the table instead of one per block drop."""
    n, m = idx
    poly = MomentPolynomial()
    if n == m == 0:
        return poly
    theta, alpha = params.theta, params.alpha
    poly.add((n, m), -theta * (n + m) / 2)
    if n:
        poly.add((n - 1, m), theta * alpha * n / 2)
    if m:
        poly.add((n, m - 1), theta * alpha * m / 2)
    for count, other, place in ((n, m, 0), (m, n, 1)):
        if count >= 2:
            for prof, rate, mult in params.table.profiles(count):
                drop = prof.block_drop
                low = ((count - drop, other) if place == 0
                       else (other, count - drop))
                poly.add(low, mult * rate)
                poly.add((n, m), -mult * rate)
    if m:
        poly.add((n + 1, m - 1), m * params.u1)
        poly.add((n, m), -m * params.u1)
    if n:
        poly.add((n - 1, m + 1), n * params.u2)
        poly.add((n, m), -n * params.u2)
    return poly


def lcm_form(poly):
    """A Fraction polynomial as (lcm of its denominators, its coefficients
    times that lcm as ints): the form of `_generator_row`."""
    scale = math.lcm(*(c.denominator for c in poly.values()))
    return scale, {idx: int(c * scale) for idx, c in poly.items()}


@st.composite
def random_table_params(draw):
    """ScalarParams on a rate table of 4 to 20 blocks with random
    nonnegative rates, not necessarily consistent: a share of them zero,
    the rest with denominators up to 10^digits. theta, alpha, u1 and u2
    take large denominators too, alpha its endpoints and u1, u2 the value
    0."""
    rng = draw(st.randoms(use_true_random=False))
    b_max = draw(st.integers(4, 20))
    zero_share = draw(st.sampled_from([0, 0.5, 0.95, 1]))
    digits = draw(st.integers(1, 15))

    def rate():
        if rng.random() < zero_share:
            return F(0)
        return F(rng.randint(1, 10 ** digits), rng.randint(1, 10 ** digits))

    rows = {}
    for b in range(2, b_max + 1):
        rows[b] = tuple((CollisionProfile(b, ks, s), rate(),
                         profile_multiplicity(b, ks, s))
                        for ks, s in iter_profiles(b))
    theta = draw(st.fractions(min_value=F(1, 10 ** 6), max_value=5,
                              max_denominator=10 ** 12))
    alpha = draw(st.one_of(st.just(F(0)), st.just(F(1)),
                           st.fractions(0, 1, max_denominator=10 ** 12)))
    migration = st.one_of(st.just(F(0)),
                          st.fractions(0, 5, max_denominator=10 ** 12))
    u1, u2 = draw(migration), draw(migration)
    return ScalarParams.from_rate_table(RateTable(b_max, rows), theta,
                                        alpha, u1, u2)


class TestIntegerRows:
    """`_generator_row` builds each row on integers; the Fraction oracle
    `profilewise_generator` sums one term per profile instead. Every index
    up to the table's b_max is checked."""

    @staticmethod
    def assert_rows_match_oracle(p):
        for k in range(p.table.b_max + 1):
            for idx in order_indices(k):
                want = profilewise_generator(idx, p)
                assert _generator_row(idx, p) == lcm_form(want), idx
                got = generator_on_monomial(idx, p)
                assert type(got) is MomentPolynomial and got == want, idx

    @given(random_table_params())
    @settings(max_examples=30, deadline=None)
    def test_random_tables(self, p):
        self.assert_rows_match_oracle(p)

    @given(st.randoms(use_true_random=False),
           st.sampled_from([None, F(0), F(1)]), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_random_consistent_params(self, rng, alpha, migration):
        p = rand_consistent_params(rng, alpha=alpha)
        if not migration:
            p = replace(p, u1=F(0), u2=F(0))
        self.assert_rows_match_oracle(p)

    @pytest.mark.parametrize("theta,alpha,u1,u2", [
        (F(3, 2), F(1, 3), 1, 2), (1, 0, 0, 0), (F(1, 7), 1, F(1, 3), 0),
        (1, F(1, 2), 1, 2)],
        ids=["sweep_point", "alpha0_no_migration", "alpha1_u2_zero",
             "exact_sweep"])
    def test_sweep_table_at_b_max_20(self, theta, alpha, u1, u2):
        table = build_rate_table(SWEEP, 20)
        self.assert_rows_match_oracle(ScalarParams.from_rate_table(
            table, theta, alpha, u1, u2))


class TestRowShape:
    """Every cached row up to order 12 has the shape that
    `solve_tridiagonal`'s dominance argument reads: no stored 0, positive
    couplings, the migrations m*u1 and n*u2 as the only couplings inside
    the order, and a diagonal that exceeds them by at least
    theta*(n + m)/2, all over the row's scale s."""

    @staticmethod
    def assert_row_shape(p):
        for k in range(min(12, p.table.b_max) + 1):
            for n, m in order_indices(k):
                s, terms = _generator_row((n, m), p)
                assert 0 not in terms.values(), (n, m)
                diag = terms.get((n, m), 0)
                off = {jdx: c for jdx, c in terms.items() if jdx != (n, m)}
                assert all(c > 0 for c in off.values()), (n, m)
                migrations = {(n + 1, m - 1): m * p.u1 * s,
                              (n - 1, m + 1): n * p.u2 * s}
                assert {jdx: c for jdx, c in off.items() if sum(jdx) == k} \
                    == {jdx: c for jdx, c in migrations.items() if c}, (n, m)
                assert -diag - m * p.u1 * s - n * p.u2 * s >= \
                    s * p.theta * (n + m) / 2, (n, m)

    @given(random_table_params())
    @settings(max_examples=30, deadline=None)
    def test_random_tables(self, p):
        self.assert_row_shape(p)

    def test_sweep_grid(self):
        table = build_rate_table(SWEEP, 12)
        for point in SWEEP_GRID:
            self.assert_row_shape(ScalarParams.from_rate_table(table, *point))


class TestScalarParamsTable:
    def test_named_rates_build_a_four_block_table(self):
        p = rand_consistent_params(seeded(38))
        assert p.table.b_max == 4
        assert p.table.rate_of(4, (2, 2), 0) == p.a22
        assert p.table.rate_of(3, (2,), 1) == p.a21
        full = build_rate_table(KINGMAN, 4)
        for b in (2, 3, 4):
            assert ({(prof, mult) for prof, _, mult in p.table.profiles(b)}
                    == {(prof, mult) for prof, _, mult in full.profiles(b)})
        # the degenerate pattern is Kingman's: equal tables hold the same
        # rows (profile, rate, multiplicity) in the same order
        for a in (F(1, 2), F(1), F(3)):
            assert degenerate_params(a).table \
                == build_rate_table(XiMeasure(kingman_mass=a), 4)

    def test_from_rate_table_keeps_the_table(self):
        table = build_rate_table(ATOM_HALF_QUARTER, 6)
        p = ScalarParams.from_rate_table(table, F(1), F(1, 2), F(1), F(2))
        assert p.table is table
        assert p.a31 == table.rate_of(4, (3,), 1)
        # orders past the named rates come from the same table
        sol = solve_stationary(6, p)
        for idx in order_indices(6):
            assert generator_on_monomial(idx, p).evaluate(sol) == 0
        with pytest.raises(ValueError, match="b_max=6"):
            solve_stationary(7, p)

    def test_table_under_four_blocks_refused(self):
        # such a table used to read the named rates it lacks as 0: on the
        # atom (1/2, 1/4) a 2-block table gave a3 = 0, where it is 9/20
        for b_max in (2, 3):
            table = build_rate_table(ATOM_HALF_QUARTER, b_max)
            with pytest.raises(ValueError, match=f"b_max={b_max}"):
                ScalarParams.from_rate_table(table, F(1), F(1, 2), F(1),
                                             F(2))
        table = build_rate_table(ATOM_HALF_QUARTER, 4)
        p = ScalarParams.from_rate_table(table, F(1), F(1, 2), F(1), F(2))
        assert p.a3 == F(9, 20)

    def test_disagreeing_named_rate_refused(self):
        table = build_rate_table(KINGMAN, 4)
        ScalarParams(F(1), F(1, 2), F(1), F(1), a2=F(1), table=table)
        with pytest.raises(ValueError, match="a2"):
            ScalarParams(F(1), F(1, 2), F(1), F(1), a2=F(2), table=table)

    def test_negative_migration_refused(self):
        # moments solved at u1 = -1 used to fail `hausdorff_check` silently
        with pytest.raises(ValueError, match="u1 must be nonnegative"):
            ScalarParams(F(1), F(1, 2), F(-1), F(1), a2=F(1), a21=F(1),
                         a211=F(1))

    @pytest.mark.parametrize("theta,alpha,message", [
        (F(0), F(1, 2), "theta must be positive"),
        (F(-1), F(1, 2), "theta must be positive"),
        (F(1), F(-1, 3), r"alpha must lie in \[0,1\]"),
        (F(1), F(4, 3), r"alpha must lie in \[0,1\]")],
        ids=["theta_zero", "theta_negative", "alpha_below_0",
             "alpha_above_1"])
    def test_theta_and_alpha_refused(self, theta, alpha, message):
        table = build_rate_table(KINGMAN, 4)
        with pytest.raises(ValueError, match=message):
            ScalarParams.from_rate_table(table, theta, alpha, F(1), F(1))

    def test_negative_named_rate_refused(self):
        # consistent rates that used to end in a zero pivot
        with pytest.raises(ValueError, match="a2 must be nonnegative"):
            ScalarParams(F(1), F(1, 2), F(1), F(1), a2=F(-3), a21=F(-3),
                         a211=F(-3))

    def test_negative_table_rate_names_the_profile(self):
        table = build_rate_table(KINGMAN, 5)
        rows = dict(table.rows)
        prof, _, mult = rows[5][0]
        rows[5] = ((prof, F(-1), mult),) + rows[5][1:]
        with pytest.raises(ValueError,
                           match=r"n=5, merge_sizes=\(2,\), s=3"):
            ScalarParams.from_rate_table(RateTable(5, rows), F(1), F(1, 2),
                                         F(1), F(1))

    def test_table_enters_equality(self):
        # two measures with the same rates up to 4 blocks: the named
        # rates agree, the order-6 moments do not, and neither do the
        # params
        xi_a = XiMeasure(atoms=(SimplexAtom((F(1, 4),), F(1, 2)),
                                SimplexAtom((F(3, 4),), F(1, 2))))
        xi_b = XiMeasure(F(1, 5), (SimplexAtom((F(5, 8),), F(4, 5)),))
        pa, pb = (ScalarParams.from_rate_table(build_rate_table(xi, 6), F(1),
                                               F(1, 2), F(1), F(2))
                  for xi in (xi_a, xi_b))
        assert all(getattr(pa, name) == getattr(pb, name)
                   for name in NAMED_RATES)
        assert solve_stationary(6, pa)[(6, 0)] == F(
            1300317217037969989586851, 8775257719502322160692944)
        assert solve_stationary(6, pb)[(6, 0)] == F(
            88614039404853356400993835, 597872731133135280770367056)
        assert pa != pb and not pa == pb
        # a 4-block table refuses order 5, a 6-block one solves it
        small = kingman_scalar()
        big = ScalarParams.from_rate_table(build_rate_table(KINGMAN, 6),
                                           F(1), F(1, 2), F(1), F(1))
        assert small != big
        assert solve_stationary(5, big)
        with pytest.raises(ValueError, match="b_max=4"):
            solve_stationary(5, small)
        # equal tables, built apart or with their rows in another order,
        # give equal params with equal hashes
        table = build_rate_table(KINGMAN, 6)
        shuffled = RateTable(6, dict(reversed(table.rows.items())))
        assert list(shuffled.rows) != list(table.rows)
        for other in (build_rate_table(KINGMAN, 6), shuffled):
            q = ScalarParams.from_rate_table(other, F(1), F(1, 2), F(1),
                                             F(1))
            assert q == big and hash(q) == hash(big)
        assert kingman_scalar() == small and \
            hash(kingman_scalar()) == hash(small)

    def test_named_rates_are_read_from_the_table(self):
        table = build_rate_table(ATOM_HALF_QUARTER, 6)
        made = [rand_consistent_params(seeded(n)) for n in range(20)]
        made += [ScalarParams.from_rate_table(table, F(1), F(1, 3), F(1),
                                              F(2)),
                 degenerate_params(F(3))]
        made += [replace(p, u1=F(5)) for p in made]
        made += [pickle.loads(pickle.dumps(p)) for p in made]
        for p in made:
            solve_stationary(2, p)          # fills the row cache
            assert not set(NAMED_RATES) & set(vars(p))
            for name, key in NAMED_RATES.items():
                assert getattr(p, name) == p.table.rate_of(*key)

    def test_other_rate_table_refused(self):
        p = kingman_scalar()
        assert stationary_system(2, p, p.table)
        other = build_rate_table(ATOM_HALF_QUARTER, 4)
        with pytest.raises(ValueError, match="params.table"):
            stationary_system(2, p, other)
        with pytest.raises(ValueError, match="params.table"):
            generator_on_monomial((2, 0), p, other)

    def test_swapped_keeps_the_table(self):
        table = build_rate_table(ATOM_HALF_QUARTER, 5)
        p = ScalarParams.from_rate_table(table, F(1), F(1, 3), F(1), F(2))
        q = replace(p, u1=p.u2, u2=p.u1)
        assert q.table is table and (q.u1, q.u2) == (p.u2, p.u1)
        a, b = solve_stationary(5, p), solve_stationary(5, q)
        assert all(b[(m, n)] == v for (n, m), v in a.items())


class TestRowCache:
    """Each `ScalarParams` builds each generator row once; callers get
    copies, and the rows are those a fresh params builds."""

    @staticmethod
    def sweep_params():
        table = build_rate_table(SWEEP, 8)
        return ScalarParams.from_rate_table(table, F(3, 2), F(1, 3), F(2),
                                            F(1))

    def test_returned_polynomial_is_a_copy(self):
        p = self.sweep_params()
        first = generator_on_monomial((3, 2), p)
        want = dict(first)
        first.add((3, 2), F(7))
        first.add((9, 9), F(1))
        del first[(2, 3)]
        again = generator_on_monomial((3, 2), p)
        assert type(again) is MomentPolynomial and again is not first
        assert dict(again) == want
        # the solve reads the unchanged row too
        assert stationary_system(5, p)[4].solution == \
            stationary_system(5, self.sweep_params())[4].solution

    def test_cached_rows_equal_fresh_params(self):
        p = self.sweep_params()
        solve_stationary(8, p)
        indices = [idx for k in range(1, 9) for idx in order_indices(k)]
        assert set(p._rows) == set(indices)
        for idx in indices:
            fresh = self.sweep_params()
            assert fresh._rows == {}
            assert generator_on_monomial(idx, p) == \
                generator_on_monomial(idx, fresh) == \
                profilewise_generator(idx, fresh)

    def test_fraction_views_built_on_first_read(self):
        systems = stationary_system(6, self.sweep_params())
        views = {"matrix", "rhs", "determinant"}
        assert all(not views & vars(s).keys() for s in systems)
        last = systems[-1]
        matrix = last.matrix
        assert last.matrix is matrix
        assert views & vars(last).keys() == {"matrix"}
        assert type(last.determinant) is F and type(last.rhs[0]) is F
        assert views <= vars(last).keys()
        assert all(not views & vars(s).keys() for s in systems[:-1])

    def test_replace_starts_an_empty_cache(self):
        p = self.sweep_params()
        solve_stationary(4, p)
        assert p._rows
        q = replace(p, u1=p.u2, u2=p.u1)
        assert q._rows == {} and q.table is p.table
        assert generator_on_monomial((1, 0), q) != \
            generator_on_monomial((1, 0), p)
        assert q._rows.keys() == {(1, 0)}

    def test_cached_system_equals_fraction_path(self):
        # the solve from a filled row cache against the Fraction oracle
        p = self.sweep_params()
        got = stationary_system(8, p)
        again = stationary_system(8, p)
        want = fraction_stationary_system(8, replace(p))
        for g, a, w in zip(got, again, want):
            for name in ("unknowns", "matrix", "rhs", "determinant",
                         "solution"):
                assert getattr(g, name) == getattr(a, name) == \
                    getattr(w, name)


class TestMomentPolynomial:
    def test_shift_and_subtract(self):
        a = MomentPolynomial({(1, 0): F(2), (0, 0): F(1)})
        assert dict(a.shifted(1, 1)) == {(2, 1): F(2), (1, 1): F(1)}
        assert dict(a - a) == {}

    def test_substitute_folds_constant(self):
        a = MomentPolynomial({(1, 0): F(2), (2, 0): F(1)})
        out = a.substitute({(1, 0): F(1, 3)})
        assert dict(out) == {(0, 0): F(2, 3), (2, 0): F(1)}

    @given(st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.tuples(st.fractions(-3, 3, max_denominator=12),
                  st.one_of(st.fractions(-2, 2, max_denominator=40),
                            st.integers(-5, 5))),
        max_size=12),
           st.randoms(use_true_random=False),
           st.fractions(-2, 2, max_denominator=1000).filter(bool))
    @settings(max_examples=100, deadline=None)
    def test_evaluate_is_the_plain_sum(self, terms, rng, shift):
        """Empty polynomials, zero coefficients, mixed denominators, and
        Fraction and int values; then every generator row up to order 8 on
        solved moments, whose denominators are nested and up to about 2000
        bits, with one moment shifted by a rational and the random values
        written over the moments at their indices. The shift makes some
        residuals nonzero, and the sum meets denominators that do not
        divide each other (the gcd step)."""
        poly = MomentPolynomial({idx: c for idx, (c, _) in terms.items()})
        values = {idx: v for idx, (_, v) in terms.items()}
        assert all(c != 0 for c in poly.values())
        assert set(poly) == {idx for idx, (c, _) in terms.items() if c}
        assert poly.evaluate(values) == plain_sum(poly, values)
        drawn = rand_consistent_params(rng)
        p = ScalarParams.from_rate_table(SWEEP_TABLE_8, drawn.theta,
                                         drawn.alpha, drawn.u1, drawn.u2)
        shifted = solve_stationary(8, p)
        shifted[rng.choice(sorted(shifted))] += shift
        rows = [generator_on_monomial(idx, p) for idx in shifted
                if idx != (0, 0)]
        got = [row.evaluate(shifted) for row in rows]
        assert got == [plain_sum(row, shifted) for row in rows]
        assert any(got)
        mixed = shifted | values
        assert [row.evaluate(mixed) for row in rows] == \
            [plain_sum(row, mixed) for row in rows]

    def test_nested_denominators_take_no_gcd(self, monkeypatch):
        """Value denominators that divide each other are summed upward,
        each step one divmod by the running denominator: whatever the
        order of the values, no gcd is taken."""
        calls = []

        def gcd(*args):
            calls.append(args)
            return math.gcd(*args)

        monkeypatch.setattr(moments, "math",
                            SimpleNamespace(gcd=gcd, lcm=math.lcm))
        rng = seeded(39)
        for _ in range(20):
            dens = [1]
            for _ in range(rng.randint(1, 12)):
                dens.append(dens[-1] * rng.randint(2, 2 ** 40))
            rng.shuffle(dens)
            # numerators prime to their denominators keep the chain
            values = {(k, 0): F(rng.choice((1, -1)) + rng.randint(-9, 9) * den,
                                den)
                      for k, den in enumerate(dens)}
            assert [v.denominator for v in values.values()] == dens
            poly = MomentPolynomial({idx: F(rng.randint(-9, 9) or 1,
                                            rng.randint(1, 12))
                                     for idx in values})
            assert poly.evaluate(values) == plain_sum(poly, values)
        assert not calls


class TestStationarySolutions:
    def test_first_moments_are_alpha(self):
        rng = seeded(32)
        for _ in range(20):
            p = rand_consistent_params(rng)
            sol = solve_stationary(1, p)
            assert sol[(1, 0)] == p.alpha and sol[(0, 1)] == p.alpha

    def test_symmetric_kingman_order_two(self):
        sol = solve_stationary(2, kingman_scalar())
        assert sol[(2, 0)] == F(11, 32)
        assert sol[(1, 1)] == F(5, 16)
        assert sol[(0, 2)] == F(11, 32)

    def test_asymmetric_kingman_order_two(self):
        p = kingman_scalar(u1=F(1), u2=F(2))
        sol = solve_stationary(2, p)
        assert sol[(2, 0)] == F(19, 56)
        assert sol[(1, 1)] == F(9, 28)
        assert sol[(0, 2)] == F(39, 112)
        assert abs(stationary_system(2, p)[1].determinant) == 56

    def test_stationarity_residual_zero(self):
        rng = seeded(33)
        for _ in range(5):
            p = rand_consistent_params(rng)
            sol = solve_stationary(4, p)
            for k in range(1, 5):
                for idx in order_indices(k):
                    assert generator_on_monomial(idx, p).evaluate(sol) == 0

    def test_residual_zero_at_order_20_on_the_sweep_measure(self):
        """Every residual up to order 20, whose moments have denominators
        of up to about 25 000 bits."""
        table = build_rate_table(SWEEP, 20)
        p = ScalarParams.from_rate_table(table, *SWEEP_GRID[1])
        sol = solve_stationary(20, p)
        assert len(sol) == 231
        for idx in sol:
            assert generator_on_monomial(idx, p).evaluate(sol) == 0, idx

    def test_colony_swap_symmetry(self):
        rng = seeded(34)
        p = rand_consistent_params(rng)
        a = solve_stationary(3, p)
        b = solve_stationary(3, replace(p, u1=p.u2, u2=p.u1))
        for (n, m), v in a.items():
            assert b[(m, n)] == v

    def test_moments_bounded_and_monotone(self):
        rng = seeded(35)
        for _ in range(10):
            p = rand_consistent_params(rng)
            sol = solve_stationary(4, p)
            for (n, m), v in sol.items():
                assert 0 <= v <= 1
                if n >= 1:
                    assert v <= sol[(n - 1, m)]
                if m >= 1:
                    assert v <= sol[(n, m - 1)]

    def test_degenerate_alpha_endpoints(self):
        rng = seeded(36)
        for alpha in (F(0), F(1)):
            p = rand_consistent_params(rng, alpha=alpha)
            sol = solve_stationary(3, p)
            for idx, v in sol.items():
                if idx != (0, 0):
                    assert v == alpha

    def test_no_migration_is_two_wright_fisher_colonies(self):
        # u1 = u2 = 0 and Kingman mass c: two independent Wright-Fisher
        # diffusions with parent-independent mutation, each stationary at
        # Beta(theta alpha / c, theta (1 - alpha) / c) (Wright 1931)
        rng = seeded(37)
        for _ in range(5):
            theta = F(rng.randint(1, 30), rng.randint(1, 9))
            den = rng.randint(1, 9)
            alpha = F(rng.randint(0, den), den)
            c = F(rng.randint(1, 30), rng.randint(1, 9))
            p = ScalarParams.from_rate_table(
                build_rate_table(XiMeasure(c), 8), theta, alpha, 0, 0)
            a, b = theta * alpha / c, theta * (1 - alpha) / c

            def beta_moment(n):
                return math.prod([(a + i) / (a + b + i) for i in range(n)],
                                 start=F(1))

            sol = solve_stationary(8, p)
            assert len(sol) == 45
            for (n, m), v in sol.items():
                assert v == beta_moment(n) * beta_moment(m)

    @pytest.mark.parametrize("r1,r2", [(1, 1), (1, 3)])
    def test_fast_migration_is_one_colony(self, r1, r2):
        # u1 = r1 u, u2 = r2 u with u large: a lineage sits in colony i
        # with probability pi_i = r_i / (r1 + r2), and both colonies follow
        # one Fleming-Viot process driven by Xi', with Kingman mass
        # c (pi_1^2 + pi_2^2) and, per atom (x, w) of Xi and colony i, an
        # atom pi_i x of weight w pi_i^2 (Moehle 1998; Nordborg & Krone
        # 2002). So M[n, m] tends to M'[n + m, 0], with a gap of order
        # 1 / u: u times the largest gap at order 6 is 0.039 (1:1) and
        # 0.045 (1:3) at u = 10^3 and 10^4.
        c, (atom,) = F(1, 2), ATOM_HALF_QUARTER.atoms
        pis = (F(r1, r1 + r2), F(r2, r1 + r2))
        merged = XiMeasure(
            c * sum(pi * pi for pi in pis),
            tuple(SimplexAtom(tuple(pi * x for x in atom.coords),
                              atom.weight * pi * pi) for pi in pis))
        limit = solve_stationary(6, ScalarParams.from_rate_table(
            build_rate_table(merged, 6), 1, F(1, 2), 0, 0))
        table = build_rate_table(XiMeasure(c, (atom,)), 6)
        for u in (10 ** 3, 10 ** 4):
            sol = solve_stationary(6, ScalarParams.from_rate_table(
                table, 1, F(1, 2), r1 * u, r2 * u))
            gap = max(abs(v - limit[(n + m, 0)])
                      for (n, m), v in sol.items())
            assert 0 < u * gap <= F(1, 20), (u, float(u * gap))

    def test_system_records_square_matrices(self):
        systems = stationary_system(3, kingman_scalar())
        for k, sys_k in enumerate(systems, start=1):
            assert len(sys_k.unknowns) == k + 1
            assert len(sys_k.matrix) == k + 1
            assert all(len(r) == k + 1 for r in sys_k.matrix)
            assert sys_k.determinant != 0


class TestSolveExact:
    def test_known_system(self):
        sol, det = solve_exact([[F(2), F(1)], [F(1), F(3)]], [F(5), F(10)])
        assert det == 5 and sol == [F(1), F(3)]

    def test_singular_raises(self):
        with pytest.raises(ValueError):
            solve_exact([[F(1), F(2)], [F(2), F(4)]], [F(1), F(1)])

    @given(st.lists(st.fractions(min_value=-5, max_value=5),
                    min_size=4, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_solution_satisfies_system(self, entries):
        a, b, c, d = entries
        m = [[a, b], [c, d]]
        if a * d - b * c == 0:
            return
        sol, det = solve_exact(m, [F(1), F(2)])
        assert det == a * d - b * c
        assert a * sol[0] + b * sol[1] == 1
        assert c * sol[0] + d * sol[1] == 2


def fraction_thomas(matrix, rhs):
    """Oracle for `solve_tridiagonal`: Thomas elimination in Fractions.
    Returns (solution, determinant), the determinant being the product of
    the pivots."""
    n = len(matrix)
    det = F(1)
    upper, forward = [], []
    for i, row in enumerate(matrix):
        pivot, value = F(row[i]), F(rhs[i])
        if i:
            pivot -= row[i - 1] * upper[i - 1]
            value -= row[i - 1] * forward[i - 1]
        if pivot == 0:
            raise ValueError("singular matrix")
        det *= pivot
        if i + 1 < n:
            upper.append(row[i + 1] / pivot)
        forward.append(value / pivot)
    solution = forward
    for i in reversed(range(n - 1)):
        solution[i] -= upper[i] * solution[i + 1]
    return solution, det


FractionSystem = namedtuple("FractionSystem", "unknowns matrix rhs "
                            "determinant solution")


def fraction_stationary_system(N, params):
    """Oracle for `stationary_system`: rows from `profilewise_generator`,
    right sides summed in Fractions over the Fraction knowns, and
    `fraction_thomas`. Returns one FractionSystem per order, with the
    fields that `LinearSystem` shows."""
    knowns = {(0, 0): F(1)}
    systems = []
    for k in range(1, N + 1):
        unknowns = order_indices(k)
        pos = {idx: j for j, idx in enumerate(unknowns)}
        matrix, rhs = [], []
        for idx in unknowns:
            row = [F(0)] * len(unknowns)
            b = F(0)
            for jdx, c in profilewise_generator(idx, params).items():
                if jdx in pos:
                    row[pos[jdx]] = c
                else:
                    b -= c * knowns[jdx]
            matrix.append(tuple(row))
            rhs.append(b)
        solution, det = fraction_thomas(matrix, rhs)
        sol = dict(zip(unknowns, solution))
        systems.append(FractionSystem(unknowns, tuple(matrix), tuple(rhs),
                                      det, sol))
        knowns.update(sol)
    return systems


def integer_rows(system):
    """A LinearSystem on integers: each row of the matrix times the lcm
    of its denominators, the right side scaled alike and then times L, the
    lcm of what denominators it still has. Returns (matrix, rhs, the
    product of the row multipliers, L)."""
    matrix, rhs, scales = [], [], 1
    for row, b in zip(system.matrix, system.rhs):
        scale = math.lcm(*(c.denominator for c in row))
        matrix.append([int(c * scale) for c in row])
        rhs.append(b * scale)
        scales *= scale
    common = math.lcm(*(b.denominator for b in rhs))
    return matrix, [int(b * common) for b in rhs], scales, common


def dense(low, diag, up):
    """The square matrix with the given three bands; low[0] and up[-1]
    are left out, as `solve_tridiagonal` leaves them."""
    n = len(diag)
    return [[{i - 1: low[i], i: diag[i], i + 1: up[i]}.get(j, 0)
             for j in range(n)] for i in range(n)]


def bands_of(matrix):
    """The three bands of a tridiagonal matrix, with low[0] = up[-1] = 0."""
    n = len(matrix)
    return (tuple(matrix[i][i - 1] if i else 0 for i in range(n)),
            tuple(matrix[i][i] for i in range(n)),
            tuple(matrix[i][i + 1] if i + 1 < n else 0 for i in range(n)))


@st.composite
def integer_bands(draw):
    """Three random integer bands and a right side; low[0] and up[-1] are
    drawn too, and the solve must not read them."""
    n = draw(st.integers(1, 6))
    band = st.lists(st.integers(-6, 6), min_size=n, max_size=n)
    rhs = st.lists(st.integers(-20, 20), min_size=n, max_size=n)
    return draw(band), draw(band), draw(band), draw(rhs)


class TestSolveTridiagonal:
    def test_known_system(self):
        bands = ([0, 1, 1], [2, 3, 4], [1, 1, 0])
        numers, det = solve_tridiagonal(*bands, [3, 5, 5])
        assert det == 18 and numers == [18, 18, 18]
        # the same system over a right side with no integer solution
        numers, det = solve_tridiagonal(*bands, [1, 0, 0])
        assert det == 18 and numers == [11, -4, 1]
        assert all(type(x) is int for x in numers + [det])

    def test_empty_system(self):
        assert solve_tridiagonal([], [], [], []) == ([], 1)

    def test_zero_pivot_raises(self):
        with pytest.raises(ValueError, match="singular matrix"):
            solve_tridiagonal([0, 2], [1, 4], [2, 0], [1, 1])
        # a zero leading minor, though the matrix itself is regular
        with pytest.raises(ValueError, match="singular matrix"):
            solve_tridiagonal([0, 1], [0, 0], [1, 0], [1, 1])

    @given(integer_bands())
    @settings(max_examples=150, deadline=None)
    def test_matches_gauss_jordan_on_integer_systems(self, system):
        """Equal to the dense oracle and to Fraction Thomas elimination on
        the dense view wherever every leading minor is nonzero; otherwise
        the error names the singular matrix."""
        *bands, rhs = system
        matrix = dense(*bands)
        minors = [leading_minor(matrix, k) for k in range(1, len(matrix) + 1)]
        if 0 in minors:
            with pytest.raises(ValueError, match="singular matrix"):
                solve_tridiagonal(*bands, rhs)
            return
        numers, det = solve_tridiagonal(*bands, rhs)
        assert (det, [F(x, det) for x in numers]) == \
            (minors[-1], solve_exact(matrix, rhs)[0])
        assert fraction_thomas(matrix, rhs) == \
            ([F(x, det) for x in numers], det)

    def test_matches_gauss_jordan_on_every_system(self):
        """Solutions and determinants equal the dense oracle's at orders
        1-12 on the sweep measure, at 20 random (theta, alpha, u1, u2),
        and at orders 1-4 on the random named rates themselves: both the
        recorded Fraction system and the bands of its integer rows."""
        rng = seeded(41)
        table = build_rate_table(SWEEP, 12)
        params = [ScalarParams.from_rate_table(table, F(1), F(1, 2), F(1),
                                               F(2))]
        for _ in range(20):
            p = rand_consistent_params(rng)
            params += [p, ScalarParams.from_rate_table(
                table, p.theta, p.alpha, p.u1, p.u2)]
        for p in params:
            for system in stationary_system(p.table.b_max, p):
                want = [system.solution[u] for u in system.unknowns]
                solution, det = solve_exact(system.matrix, system.rhs)
                assert det == system.determinant
                assert solution == want
                matrix, rhs, scales, common = integer_rows(system)
                numers, det = solve_tridiagonal(*bands_of(matrix), rhs)
                assert det == scales * system.determinant
                assert [F(x, det * common) for x in numers] == want

    def test_bands_are_the_oracle_matrix(self):
        """At orders 1-12 on the sweep measure, the recorded bands are the
        Fraction oracle's matrix with row i times `scales[i]`, as ints.
        The dense views that perfbench's probe re-solves are held to the
        oracle by `TestIntegerEngine.test_sweep_grid_orders_1_to_12`."""
        table = build_rate_table(SWEEP, 12)
        p = ScalarParams.from_rate_table(table, *SWEEP_GRID[1])
        want = fraction_stationary_system(12, replace(p))
        for g, w in zip(stationary_system(12, p), want, strict=True):
            scaled = [[c * scale for c in row]
                      for row, scale in zip(w.matrix, g.scales)]
            assert g.bands == bands_of(scaled)
            assert all(type(c) is int for band in g.bands for c in band)


def leading_minor(matrix, k):
    """The determinant of the top-left k x k block, by the dense oracle."""
    try:
        return solve_exact([row[:k] for row in matrix[:k]], [0] * k)[1]
    except ValueError:
        return 0


# the perfbench exact_sweep grid of (theta, alpha, u1, u2)
SWEEP_GRID = ((1, F(1, 2), 1, 2), (F(3, 2), F(1, 3), 2, 1),
              (F(1, 2), F(3, 4), 1, 1), (2, F(1, 4), 1, 3),
              (1, F(1, 8), 3, 2), (F(5, 2), F(5, 8), F(1, 2), 1),
              (3, F(1, 2), 2, 2))


class TestIntegerEngine:
    """`stationary_system` on integers against the Fraction path it
    replaced: every field of every LinearSystem is equal."""

    @staticmethod
    def assert_fraction_path(N, p):
        got = stationary_system(N, p)
        want = fraction_stationary_system(N, p)
        assert len(got) == len(want) == N
        for g, w in zip(got, want):
            for name in ("unknowns", "matrix", "rhs", "determinant",
                         "solution"):
                assert getattr(g, name) == getattr(w, name), (name, g.unknowns)
            assert all(type(v) is F for v in g.rhs
                       + (g.determinant,) + tuple(g.solution.values()))

    def test_sweep_grid_orders_1_to_12(self):
        """At 4 of these 7 points some order's reduced denominator does not
        divide the common denominator so far, which is then lcm'd."""
        table = build_rate_table(SWEEP, 12)
        for point in SWEEP_GRID:
            self.assert_fraction_path(
                12, ScalarParams.from_rate_table(table, *point))

    def test_random_params(self):
        """The named 4-block rates, and their (theta, alpha, u1, u2) on
        the sweep table."""
        rng = seeded(42)
        table = build_rate_table(SWEEP, 12)
        for _ in range(20):
            p = rand_consistent_params(rng)
            self.assert_fraction_path(4, p)
            self.assert_fraction_path(12, ScalarParams.from_rate_table(
                table, p.theta, p.alpha, p.u1, p.u2))

    def test_order_20(self):
        xi = XiMeasure(F(1), ATOM_HALF_QUARTER.atoms)
        table = build_rate_table(xi, 20)
        self.assert_fraction_path(
            20, ScalarParams.from_rate_table(table, F(3, 2), F(1, 3), F(1),
                                             F(2)))

    @pytest.mark.parametrize("xi,theta,alpha,u1,u2", [
        (SWEEP, 1, 0, 1, 2), (SWEEP, 1, 1, 1, 2),
        (SWEEP, F(1, 3), F(1, 2), 0, 2), (SWEEP, 2, F(1, 2), 1, 0),
        (SWEEP, 1, F(1, 2), 0, 0), (XiMeasure(), 1, F(1, 2), 1, 2),
        (XiMeasure(), F(1, 7), F(3, 8), 0, F(1, 3))],
        ids=["alpha0", "alpha1", "u1_zero", "u2_zero", "no_migration",
             "no_collisions", "no_collisions_u1_zero"])
    def test_degenerate_corners(self, xi, theta, alpha, u1, u2):
        table = build_rate_table(xi, 8)
        self.assert_fraction_path(8, ScalarParams.from_rate_table(
            table, theta, alpha, u1, u2))


def xi_event_law(pi, k):
    """The law of a colony's count of type-E particles after the
    partition pi of its particles 1..N strikes, particles 1..k being of
    type E: each merged group takes the type of a uniform member."""
    law = {0: F(1)}
    for block in pi:
        size, hits = len(block), sum(x <= k for x in block)
        step = {size: F(hits, size), 0: F(size - hits, size)}
        after = defaultdict(F)
        for count, p in law.items():
            for add, q in step.items():
                after[count + add] += p * q
        law = after
    return law


def forward_moments(N, order, table, theta, alpha, u1, u2):
    """M_N(n, m) = E[(k1)_n (k2)_m] / ((N)_n (N)_m) for n, m <= N and
    n + m <= order, under the exact stationary law of the counts (k1, k2)
    of type-E particles in a population of N particles per colony:
    - Xi-events: in each colony, every partition of the N particles
      strikes at its per-partition rate from `table.rows[N]`
      (`xi_event_law`). Their rates sum over all partitions, so one
      placement of the k type-E particles gives the count's law;
    - mutation: each particle redraws its type at rate theta/2, landing
      in E with probability alpha;
    - migration: each colony-2 particle copies a uniform colony-1
      particle at rate u1, and each colony-1 particle copies a uniform
      colony-2 particle at rate u2."""
    partitions = [pi for pi in enumerate_partitions(N) if len(pi) < N]
    colony = {}      # count k -> {count after a Xi-event: rate}
    for k in range(N + 1):
        rates = defaultdict(F)
        for pi in partitions:
            rate = table.rate_of(*profile_of(pi))
            for after, p in xi_event_law(pi, k).items():
                if after != k:
                    rates[after] += rate * p
        colony[k] = rates
    states = list(itertools.product(range(N + 1), repeat=2))
    flows = {state: defaultdict(F) for state in states}
    for k1, k2 in states:
        out = flows[k1, k2]
        for after, rate in colony[k1].items():
            out[after, k2] += rate
        for after, rate in colony[k2].items():
            out[k1, after] += rate
        out[k1 + 1, k2] += (N - k1) * theta / 2 * alpha
        out[k1 - 1, k2] += k1 * theta / 2 * (1 - alpha)
        out[k1, k2 + 1] += (N - k2) * theta / 2 * alpha
        out[k1, k2 - 1] += k2 * theta / 2 * (1 - alpha)
        out[k1, k2 + 1] += (N - k2) * u1 * F(k1, N)
        out[k1, k2 - 1] += k2 * u1 * F(N - k1, N)
        out[k1 + 1, k2] += (N - k1) * u2 * F(k2, N)
        out[k1 - 1, k2] += k1 * u2 * F(N - k2, N)
    # pi Q = 0, the last balance equation replaced by sum(pi) = 1
    matrix = [[flows[i].get(j, 0) if i != j else -sum(flows[i].values())
               for i in states] for j in states[:-1]]
    matrix.append([1] * len(states))
    law, _ = solve_exact(matrix, [0] * (len(states) - 1) + [1])
    return {(n, m): sum(p * math.perm(k1, n) * math.perm(k2, m)
                        for (k1, k2), p in zip(states, law))
            / (math.perm(N, n) * math.perm(N, m))
            for k in range(order + 1) for n, m in order_indices(k)
            if n <= N and m <= N}


def finite_row_moments(N, order, params):
    """M_N(n, m) for n, m <= N from `_generator_row`'s rows with each
    migration coupling split by whether the migrant lands on a sampled
    lineage: m*u1*(N - n)/N to (n + 1, m - 1) and m*u1*n/N to (n, m - 1),
    n*u2*(N - m)/N to (n - 1, m + 1) and n*u2*m/N to (n - 1, m). Solved
    order by order with `solve_exact`."""
    values = {(0, 0): F(1)}
    for k in range(1, order + 1):
        unknowns = [(n, m) for n, m in order_indices(k) if n <= N and m <= N]
        matrix, rhs = [], []
        for n, m in unknowns:
            scale, ints = _generator_row((n, m), params)
            row = defaultdict(F)
            for jdx, c in ints.items():
                c = F(c, scale)
                if jdx == (n + 1, m - 1):
                    row[jdx] += c * F(N - n, N)
                    row[n, m - 1] += c * F(n, N)
                elif jdx == (n - 1, m + 1):
                    row[jdx] += c * F(N - m, N)
                    row[n - 1, m] += c * F(m, N)
                else:
                    row[jdx] += c
            matrix.append([row.get(idx, 0) for idx in unknowns])
            rhs.append(-sum(c * values[jdx] for jdx, c in row.items()
                            if sum(jdx) < k))
        solution, _ = solve_exact(matrix, rhs)
        values.update(zip(unknowns, solution))
    return values


class TestForwardDuality:
    """The moment rows checked from the population side, not through the
    dual: the exact stationary law of a population of N particles per
    colony (`forward_moments`) against `_generator_row`'s rows with each
    migration coupling split at finite N (`finite_row_moments`), at every
    index with n, m <= N up to order min(2N, 8)."""

    THETA, ALPHA, U1, U2 = F(1), F(1, 3), F(1), F(2)
    MODELS = {"kingman": KINGMAN,
              "mc_stationary": XiMeasure(F(1, 2), ATOM_HALF_QUARTER.atoms),
              "atom_third": XiMeasure(atoms=(SimplexAtom((F(1, 3),), F(2)),))}

    def both_sides(self, N, model, swapped=False):
        table = build_rate_table(self.MODELS[model], 8)
        order = min(2 * N, 8)
        u1, u2 = (self.U2, self.U1) if swapped else (self.U1, self.U2)
        forward = forward_moments(N, order, table, self.THETA, self.ALPHA,
                                  u1, u2)
        params = ScalarParams.from_rate_table(table, self.THETA, self.ALPHA,
                                              self.U1, self.U2)
        return forward, params, order

    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_forward_law_solves_the_split_rows(self, N, model):
        forward, params, order = self.both_sides(N, model)
        rows = finite_row_moments(N, order, params)
        assert rows == forward

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_planted_faults_mismatch(self, model):
        """Rows left unsplit (today's rows, N = infinity), and u1 and u2
        swapped in the forward chain: each differs from the forward law at
        more than half the indices. N = 4, as the swap can hide at smaller
        N: where u1 + u2 = N*a2 (Kingman 1 at N = 3, the mc_stationary Xi
        at N = 2) a migrant pair coalesces at the within-colony rate, and
        there the forward law comes out symmetric in the colonies."""
        forward, params, order = self.both_sides(4, model)
        swapped, _, _ = self.both_sides(4, model, swapped=True)
        for faulty in (solve_stationary(order, params), swapped):
            assert 2 * sum(faulty[idx] != v
                           for idx, v in forward.items()) > len(forward)


def stencil_hausdorff(psi):
    """Stencil oracle for hausdorff_check: for every pair of support points
    m <= top whose whole box m + [0, n], n = top - m, lies in the support,
    the alternating binomial sum over the box, in (m, n) order."""
    keys = set(psi)
    entries = []
    for m in sorted(keys):
        for top in sorted(keys):
            nvec = tuple(t - a for t, a in zip(top, m))
            if any(v < 0 for v in nvec):
                continue
            stencil = list(itertools.product(*(range(v + 1) for v in nvec)))
            points = [tuple(a + b for a, b in zip(m, p)) for p in stencil]
            if not all(point in keys for point in points):
                continue
            value = sum(((-1) ** sum(p) * psi[point]
                         * math.prod(map(math.comb, nvec, p))
                         for p, point in zip(stencil, points)), F(0))
            entries.append((m, nvec, value))
    violations = tuple(((m, n), v) for m, n, v in entries if v < 0)
    return HausdorffReport(min(v for _, _, v in entries), violations,
                           len(entries))


@st.composite
def moment_arrays(draw):
    """1-D, 2-D and 3-D arrays on the corner sum(index) <= order with up to
    a third of the keys dropped. Values are the moments of a point mass (no
    violations) or arbitrary rationals (violations)."""
    dim = draw(st.integers(1, 3))
    order = draw(st.integers(0, {1: 8, 2: 6, 3: 4}[dim]))
    corner = [idx for idx in itertools.product(range(order + 1), repeat=dim)
              if sum(idx) <= order]
    dropped = draw(st.sets(st.sampled_from(corner),
                           max_size=len(corner) // 3))
    keys = [idx for idx in corner if idx not in dropped]
    if draw(st.booleans()):
        point = draw(st.lists(st.fractions(0, 1, max_denominator=8),
                              min_size=dim, max_size=dim))
        return {idx: math.prod(map(pow, point, idx)) for idx in keys}
    values = st.fractions(min_value=-1, max_value=2, max_denominator=6)
    return {idx: draw(values) for idx in keys}


class TestHausdorff:
    def test_point_mass_moments_pass(self):
        # x identically 2/3 in colony 1, 1/5 in colony 2
        psi = {(n, m): F(2, 3) ** n * F(1, 5) ** m
               for n in range(4) for m in range(4)}
        assert hausdorff_check(psi).passed

    def test_exponential_counterexample_fails(self):
        psi = {(n,): F(2) ** n for n in range(5)}
        report = hausdorff_check(psi)
        assert not report.passed
        assert report.min_value < 0
        # the (m=(0,), n=1) difference 1 - 2 = -1 is among the violations
        assert any(v == -1 for _, v in report.violations)

    def test_solved_moments_pass(self):
        rng = seeded(37)
        for _ in range(5):
            p = rand_consistent_params(rng)
            assert hausdorff_check(solve_stationary(4, p)).passed

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            hausdorff_check({})

    @given(psi=moment_arrays())
    @settings(max_examples=80, deadline=None)
    def test_difference_table_matches_stencils(self, psi):
        assert hausdorff_check(psi) == stencil_hausdorff(psi)

    def test_difference_table_matches_stencils_on_solved_moments(self):
        table = build_rate_table(ATOM_HALF_QUARTER, 6)
        p = ScalarParams.from_rate_table(table, F(1), F(1, 2), F(1), F(2))
        psi = solve_stationary(6, p)
        assert hausdorff_check(psi) == stencil_hausdorff(psi)

