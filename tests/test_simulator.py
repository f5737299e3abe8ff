import bisect
import copy
import functools
import hashlib
import math
import pickle
import random
import statistics
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from xistep import (BaseMeasure, DualState, DyadicSet, LabeledPartition,
                    ModelParams, MutationSpec, ScalarParams, SetFunction,
                    StopRule, TensorFunction, XiMeasure, estimate_Qt,
                    estimate_stationary, evaluate_dual, initial_state,
                    replay, run_until, solve_stationary)
from xistep import build_rate_table, simulator
from xistep.records import replace as replace_record
from xistep.simhelpers import (coupling_linearity_holds, normalization_holds,
                               random_model, random_xi)
from xistep.linalg import solve_exact
from xistep.partitions import COLONY_1, COLONY_2, singleton_partition
from xistep.setfun import cell_index, float_sum
from xistep.simulator import (EventRecord, Trajectory, dual_generator_value,
                              genealogical_evaluate, replica_rng)

from conftest import ATOM_HALF_QUARTER, E_STAR, KINGMAN, STAR, SWEEP, \
    decay_factor, indicator_power, kingman_model, kingman_scalar, \
    measure_level_coeffs, multiply, reference_evaluate_dual, scale, seeded

F = Fraction


def _floated(f):
    """The float-coefficient copy of f that the estimators run on."""
    return TensorFunction(tuple(
        SetFunction(g.level, tuple(float(c) for c in g.coeffs))
        for g in f.factors))


# The dual's event loop as it stood before it kept the colony counts, drew
# merge groups from the shuffled ranks, kept block contents only where
# read and held the payload in one list, frozen as the oracle of
# `simulator._run`: with its one coefficient list per block and block
# contents throughout, it gives the event records, final blocks, labels
# and float payload, replica values and skeleton segments that the loop
# must keep to the bit.


def random_partition_with_profile(b, merge_sizes, s, rng):
    """Uniform partition of [b] with the given profile, without enumerating
    all of P_[b]: consecutive groups of a uniform random permutation induce
    each qualifying partition equally often."""
    perm = list(range(1, b + 1))
    rng.shuffle(perm)
    blocks = []
    pos = 0
    for k in merge_sizes:
        blocks.append(perm[pos:pos + k])
        pos += k
    for _ in range(s):
        blocks.append(perm[pos:pos + 1])
        pos += 1
    # canonical: sorted blocks in least-element order
    blocks = [tuple(sorted(b)) for b in blocks]
    blocks.sort(key=lambda b: b[0])
    return tuple(blocks)


def _relabel(eta, k, colony):
    if not 1 <= k <= len(eta):
        raise IndexError(f"label position {k} out of range")
    return eta[:k - 1] + (colony,) + eta[k:]


def _coag_colony(blocks, labels, colony, pi_prime):
    positions = [i for i, c in enumerate(labels) if c == colony]
    if len(positions) != sum(len(b) for b in pi_prime):
        raise ValueError("pi_prime does not cover the colony")
    groups = [sorted(positions[k - 1] for k in b) if len(b) > 1
              else [positions[b[0] - 1]] for b in pi_prime]
    groups += [[i] for i, c in enumerate(labels) if c != colony]
    groups.sort()
    new_blocks = tuple(tuple(sorted(x for i in g for x in blocks[i]))
                       if len(g) > 1 else tuple(blocks[g[0]])
                       for g in groups)
    return new_blocks, tuple(labels[g[0]] for g in groups), groups


def _frozen_start(factors, base):
    level = max(base.grid_level, *(g.level for g in factors))

    def integral(g):
        # a list with a float takes the float route, a rational list gives
        # its exact Fraction
        if any(type(c) is float for c in g):
            return base.float_integrator(level)(g)
        return F(*base.integral_ratio(level, g))

    return level, tuple(g._coeffs_at(level) for g in factors), integral


class _FrozenChain:
    """The float payload or skeleton run of the frozen loop. The float
    payload defers its flow as `_FloatPayload` does: holding times add to
    a pending time, which flows at the next coalescence and when the
    factors are read (`floats`), and a block that merges with no other
    keeps its integral. With `eager`, every holding time flows at once
    and every integral is recomputed after a coalescence, as the loop
    stood before the flow was deferred."""

    def __init__(self, state, params, start, eager=False):
        self.blocks, self.labels = state.lp.partition, tuple(state.lp.labels)
        self.theta = params._tables[2]
        if start is None:
            self.factors, self.segments = None, []
        else:
            self.level, self.factors, self.integral = start
            self.eager, self.pending = eager, 0.0
            self.ints = None if eager else [self.integral(g)
                                            for g in self.factors]
        self.clock, self.events = state.clock, state.events

    def advance(self, dt):
        if self.factors is None:
            self.segments.append((self.blocks, dt))
        elif self.eager:
            if self.ints is None:
                self.ints = [self.integral(g) for g in self.factors]
            self._flow(dt)
        else:
            self.pending += dt
        self.clock += dt

    def _flow(self, dt):
        p = math.exp(-self.theta * dt / 2.0)
        q = 1 - p
        self.factors = [[p * v + b for v in g]
                        for g, b in zip(self.factors,
                                        [q * c for c in self.ints])]

    def flush(self):
        if self.pending:
            self._flow(self.pending)
            self.pending = 0.0

    def floats(self):
        """The factors after the pending flow, as floats."""
        self.flush()
        return [[float(v) for v in g] for g in self.factors]

    def advance_to(self, t):
        self.advance(t - self.clock)
        self.clock = t

    def apply(self, kind, colony, detail):
        self.events += 1
        if kind == "migration":
            target = COLONY_1 if colony == COLONY_2 else COLONY_2
            self.labels = _relabel(self.labels, detail, target)
            return
        self.blocks, self.labels, groups = _coag_colony(
            self.blocks, self.labels, colony, detail)
        if self.factors is not None:
            self.flush()
            merged, ints = [], []
            for group in groups:
                g = self.factors[group[0]]
                for j in group[1:]:
                    g = [x * y for x, y in zip(g, self.factors[j])]
                merged.append(g)
                if not self.eager:
                    ints.append(self.ints[group[0]] if len(group) == 1
                                else self.integral(g))
            self.factors = merged
            self.ints = None if self.eager else ints


def _event_rates(labels, params):
    n1 = labels.count(COLONY_1)
    return params._tables[0][n1][len(labels) - n1]


def _pick_event(labels, rates, total, params, rng):
    pick = rng.random() * total
    if pick < rates[0] + rates[1]:
        label = COLONY_2 if pick < rates[0] else COLONY_1
        i = labels.index(label)
        for _ in range(rng.randrange(labels.count(label))):
            i = labels.index(label, i + 1)
        return "migration", label, i + 1
    pick -= rates[0] + rates[1]
    colony = COLONY_1 if pick < rates[2] or rates[3] == 0 else COLONY_2
    if colony == COLONY_2:
        pick -= rates[2]
    b = labels.count(colony)
    rows, cum, _ = params._tables[1][b]
    prof = rows[bisect.bisect_right(cum, pick, hi=len(rows) - 1)]
    detail = random_partition_with_profile(b, prof.merge_sizes, prof.s, rng)
    return "coalescence", colony, detail


def _frozen_run(chain, params, rng, at_time, absorb, max_events,
                record=False):
    events = []
    count = 0
    while True:
        if absorb and len(chain.blocks) == 1:
            return events, False
        if max_events is not None and count >= max_events:
            return events, True
        rates, total = _event_rates(chain.labels, params)
        dt = rng.expovariate(total)
        if at_time is not None and chain.clock + dt >= at_time:
            chain.advance_to(at_time)
            return events, False
        kind, colony, detail = _pick_event(chain.labels, rates, total,
                                           params, rng)
        chain.advance(dt)
        chain.apply(kind, colony, detail)
        count += 1
        if record:
            events.append(EventRecord(chain.clock, dt, kind, colony, detail,
                                      len(chain.blocks)))


def _frozen_leaf_value(chain, leaves, mu, theta, base, rng):
    """The leaf value of the frozen skeleton, which finds each coalescence
    by comparing consecutive (blocks, dt) segments."""
    mu1, mu2 = mu
    top = chain.blocks
    types = [(mu1 if label == COLONY_1 else mu2).sample(rng)
             for label in chain.labels]
    for blocks, duration in reversed(chain.segments):
        if blocks != top:
            owner = {i: x for b, x in zip(top, types) for i in b}
            types = [owner[b[0]] for b in blocks]
            top = blocks
        if duration > 0 and theta is not None:
            keep = math.exp(-theta * duration / 2.0)
            types = [x if rng.random() < keep else base.sample(rng)
                     for x in types]
    leaf_types = {b[0]: x for b, x in zip(top, types)}
    value = 1.0
    for i, (level, coeffs) in enumerate(leaves, start=1):
        value *= coeffs[cell_index(level, leaf_types[i])]
    return value


def _frozen_steps(chain):
    """The frozen skeleton's segments as `_run` keeps them: each holding
    time (in hex) and, after a coalescence, its merge groups, the
    positions of the blocks before it that each block after it unites."""
    steps = []
    after = [b for b, _ in chain.segments[1:]] + [chain.blocks]
    for (before, dt), later in zip(chain.segments, after):
        steps.append(dt.hex())
        if later != before:
            steps.append([[i for i, b in enumerate(before) if set(b) <= set(c)]
                          for c in later])
    return steps


def _frozen_replica_values(f, eta, mu, t, params, seed, skeleton, lo, hi):
    state = initial_state(f, eta)
    spec = params.mutation
    if skeleton:
        start = None
        leaves = [(g.level, [float(c) for c in g.coeffs]) for g in f.factors]
        theta = params._tables[2] if spec.theta > 0 else None
    else:
        start = _frozen_start(
            [SetFunction(g.level, tuple(map(float, g.coeffs)))
             for g in f.factors], spec.base)
        pair = {label: simulator._float_pairing(m, start[0])
                for label, m in zip((COLONY_1, COLONY_2), mu)}
    values = []
    for rep in range(lo, hi):
        rng = replica_rng(seed, rep)
        chain = _FrozenChain(state, params, start)
        _, truncated = _frozen_run(chain, params, rng, t, t is None,
                                   simulator.EVENT_CAP)
        assert not truncated
        if skeleton:
            values.append(_frozen_leaf_value(chain, leaves, mu, theta,
                                             spec.base, rng))
        else:
            value = 1
            for g, label in zip(chain.floats(), chain.labels):
                value *= pair[label](g)
            values.append(float(value))
    return values


class TestJumpRate:
    """The jump rate the chain draws its holding times with, as the frozen
    loop reads it from the table."""

    def test_single_block(self):
        params = kingman_model()
        assert _event_rates((1,), params)[1] == params.u2

    def test_pair_same_colony(self):
        params = kingman_model()
        assert _event_rates((1, 1), params)[1] == 3

    def test_pair_split_colonies(self):
        params = kingman_model(u1=F(3, 2), u2=F(3, 2))
        assert _event_rates((1, 2), params)[1] == 3

    @pytest.mark.parametrize("xi", [KINGMAN, XiMeasure(
        F(1, 2), ATOM_HALF_QUARTER.atoms)], ids=["kingman", "kingman+atom"])
    def test_table_equals_formula_up_to_b_max_20(self, xi):
        # the formula `_event_rates` evaluated per event before the rates
        # were tabulated, with its colony totals summed from the exact table
        params = ModelParams(xi, MutationSpec(F(1), BaseMeasure.uniform()),
                             F(1, 3), F(7, 5), 20)
        table = build_rate_table(xi, 20)
        coal = {}
        for b in range(2, 21):
            acc = 0.0
            for _, rate, mult in table.profiles(b):
                if rate > 0:
                    acc += float(rate * mult)
            coal[b] = acc
        fu1, fu2 = float(params.u1), float(params.u2)
        for n in range(1, 21):
            for n1 in range(n + 1):
                n2 = n - n1
                rates = (n2 * fu1, n1 * fu2, coal.get(n1, 0.0),
                         coal.get(n2, 0.0))
                want = rates, rates[0] + rates[1] + rates[2] + rates[3]
                # labels in two orders: only the counts matter
                for labels in ((1,) * n1 + (2,) * n2, (2,) * n2 + (1,) * n1):
                    assert _event_rates(labels, params) == want


class _TopUniform(random.Random):
    """Stream whose uniform draws all return the largest float below 1.
    Defining `getrandbits` keeps the stdlib's integer draws on it, as on
    `random.Random`, so the frozen loop's `randrange` and `shuffle` draw
    the integers `simulator._run` draws; overriding `random` alone would
    switch them to draws from `random`."""

    getrandbits = random.Random.getrandbits

    def random(self):
        return 1 - 2 ** -53


# Kingman pair rate 5, u1 = 1, u2 = 1/5: from labels (1, 1, 2) the rates
# are (1.0, 0.4, 5.0, 0.0) and the top uniform draw leaves pick at 5.0
# after `pick -= rates[0] + rates[1]`
ROUNDING = (XiMeasure(kingman_mass=F(5)), F(1), F(1, 5), (1, 1, 2))


def _rounding_model():
    xi, u1, u2, eta = ROUNDING
    return ModelParams(xi, MutationSpec(F(1), base=BaseMeasure.uniform()),
                       u1, u2, 4), eta


class TestPickEvent:
    def test_colony_without_coalescence_rate_never_picked(self):
        # one block in colony 2: rounding in `pick -= rates[0] + rates[1]`
        # leaves pick == rates[2], which used to pick colony 2
        params, eta = _rounding_model()
        rates, total = params._tables[0][2][1]
        assert rates[3] == 0
        assert not (1 - 2 ** -53) * total - (rates[0] + rates[1]) < rates[2]
        record, state = _one_event(initial_state(indicator_power(3), eta),
                                   params, _TopUniform(0))
        assert (record.kind, record.colony, record.detail) == \
            ("coalescence", 1, ((1, 2),))
        assert state.lp.labels == (1, 2)


def _one_event(state, params, rng):
    """One jump of the chain from `state`: its event record and the state
    after it."""
    state, traj = run_until(state, params,
                            StopRule(at_time=math.inf, max_events=1), rng)
    (record,) = traj.events
    return record, state


class TestStep:
    def test_single_block_only_migrates(self):
        params = kingman_model()
        rng = random.Random(1)
        state = initial_state(indicator_power(1), (1,))
        for _ in range(20):
            record, state = _one_event(state, params, rng)
            assert record.kind == "migration"
            assert state.lp.block_count == 1

    def test_star_merge_multiplies_factors(self):
        # u tiny: the first event is (a.s. here) the full merge; the two
        # indicator factors intersect
        star_params = ModelParams(STAR,
                                  MutationSpec(F(1), base=BaseMeasure.uniform()),
                                  F(1, 10**9), F(1, 10**9), 4)
        c = DyadicSet(2, frozenset({0, 1}))
        d = DyadicSet(2, frozenset({1, 2}))
        f = TensorFunction((SetFunction.indicator(c),
                            SetFunction.indicator(d)))
        _, traj = run_until(initial_state(f, (1, 1)), star_params,
                            StopRule(at_time=math.inf, max_events=1),
                            random.Random(2))
        # the Fraction payload of the same event
        state = replay(f, (1, 1), traj, star_params, exact=True)
        (record,) = traj.events
        assert record.kind == "coalescence"
        assert state.lp.block_count == 1
        p = F(math.exp(-record.dt / 2))
        expected = multiply(
            SetFunction.indicator(c).axpy(p, (1 - p) * F(1, 2)),
            SetFunction.indicator(d).axpy(p, (1 - p) * F(1, 2)))
        assert state.y.factors[0] == expected

    def test_event_frequencies_match_rates(self):
        # eta = (1,1,2): events are 3 migrations (u2,u2,u1) and one
        # colony-1 pair coalescence (a2=1)
        params = kingman_model(u1=F(2), u2=F(1))
        rng = random.Random(3)
        n = 30_000
        counts = {"migration1": 0, "migration2": 0, "coalescence": 0}
        state0 = initial_state(indicator_power(3), (1, 1, 2))
        for _ in range(n):
            record, _ = _one_event(state0, params, rng)
            if record.kind == "coalescence":
                counts["coalescence"] += 1
            else:
                counts[f"migration{record.colony}"] += 1
        total_rate = 2 * 1 + 1 * 2 + 1   # two colony-1 blocks at u2=1,
        for key, rate in [("migration1", 2), ("migration2", 2),
                          ("coalescence", 1)]:
            p = rate / total_rate
            sigma = math.sqrt(n * p * (1 - p))
            assert abs(counts[key] - n * p) < 4 * sigma


class TestRunUntil:
    def test_stop_rule_needs_exactly_one_target(self):
        # with both, the run used to ignore absorption and go on to t
        for targets in ({}, {"at_time": 50.0, "at_absorption": True}):
            with pytest.raises(ValueError, match="exactly one target"):
                StopRule(**targets)

    @pytest.mark.parametrize("t", [-1.0, math.nan], ids=["negative", "nan"])
    def test_stop_time_below_zero_refused(self, t):
        # a negative time used to fail only after the first holding time
        # was drawn, with a bare "negative time"; the skeleton returned
        # an estimate
        params = kingman_model()
        f, eta = indicator_power(2), (1, 2)
        mu = (BaseMeasure.uniform(), BaseMeasure.uniform())
        for run in (lambda: StopRule(at_time=t),
                    lambda: estimate_Qt(f, eta, mu, t, 5, params, 0),
                    lambda: genealogical_evaluate(f, eta, mu, t, 5, params,
                                                  0)):
            with pytest.raises(ValueError,
                               match=f"at_time must be at least 0, got {t}"):
                run()

    def test_stop_time_before_the_clock_refused_without_drawing(self):
        # it used to draw a holding time first, then fail with a bare
        # "negative time"
        params = kingman_model()
        state, _ = run_until(initial_state(indicator_power(2), (1, 2)),
                             params, StopRule(at_time=2.0),
                             random.Random(0))
        assert state.clock == 2.0
        rng = random.Random(1)
        before = rng.getstate()
        with pytest.raises(ValueError, match="stop time 1.0 is before the "
                           "state's clock 2.0"):
            run_until(state, params, StopRule(at_time=1.0), rng)
        assert rng.getstate() == before

    @pytest.mark.parametrize("t", [None, 0.5])
    def test_unrecorded_run_takes_the_same_path(self, t):
        # the replica driver's loop keeps no records; its run is the one
        # `run_until` records
        params = ModelParams(ATOM_HALF_QUARTER,
                             MutationSpec(F(1), base=BaseMeasure.uniform()),
                             F(1), F(2), 6)
        start = initial_state(_floated(indicator_power(4)), (1, 2, 1, 2))
        runs = []
        for record in (True, False):
            chain = simulator._Chain.of(start, _float_payload(start, params))
            events, truncated = simulator._run(
                chain, params, replica_rng(3, 0),
                StopRule(at_time=t, at_absorption=t is None), record)
            runs.append((events, (truncated, chain.labels,
                                  _bits(chain.payload.factors()),
                                  chain.clock.hex(), chain.events)))
        # only a recording run keeps the blocks
        assert chain.blocks is None
        (recorded, path_a), (unrecorded, path_b) = runs
        assert len(recorded) == path_a[-1] > 0 and unrecorded == []
        assert path_a == path_b

    def test_absorbed_start_returns_immediately(self):
        params = kingman_model()
        state, traj = run_until(initial_state(indicator_power(1), (2,)),
                                params, StopRule(at_absorption=True),
                                random.Random(0))
        assert state.lp.block_count == 1 and traj.events == ()

    def test_zero_mass_xi_truncates(self):
        xi = XiMeasure()
        params = ModelParams(xi, MutationSpec(F(1), base=BaseMeasure.uniform()),
                             F(1), F(1), 4)
        state, traj = run_until(
            initial_state(indicator_power(2), (1, 1)), params,
            StopRule(at_absorption=True, max_events=50), random.Random(0))
        assert traj.truncated and state.lp.block_count == 2

    def test_cap_counts_the_run_and_events_the_path(self):
        # one counter, the chain's: a run from a state that has taken
        # events stops after max_events of its own, and the state it
        # returns counts every event since the start
        params = ModelParams(XiMeasure(),
                             MutationSpec(F(1), base=BaseMeasure.uniform()),
                             F(1), F(1), 4)
        first, traj = run_until(initial_state(indicator_power(2), (1, 1)),
                                params,
                                StopRule(at_absorption=True, max_events=50),
                                random.Random(0))
        assert traj.truncated and first.events == len(traj.events) == 50
        second, traj = run_until(first, params,
                                 StopRule(at_absorption=True, max_events=30),
                                 random.Random(1))
        assert traj.truncated and len(traj.events) == 30
        assert second.events == 80

    def test_zero_mass_requires_cap(self):
        xi = XiMeasure()
        params = ModelParams(xi, MutationSpec(F(1), base=BaseMeasure.uniform()),
                             F(1), F(1), 4)
        with pytest.raises(ValueError):
            run_until(initial_state(indicator_power(2), (1, 1)), params,
                      StopRule(at_absorption=True, max_events=None),
                      random.Random(0))

    def test_mean_absorption_time_two_blocks(self):
        # oracle: first-passage analysis of the label chain with u1=u2=1
        # and pair rate 1.  t_same = 1/3 + (2/3) t_diff and
        # t_diff = 1/2 + t_same give t_same = 2.
        params = kingman_model()
        n = 20_000
        times = []
        for rep in range(n):
            rng = replica_rng(17, rep)
            state, _ = run_until(initial_state(indicator_power(2), (1, 1)),
                                 params, StopRule(at_absorption=True), rng)
            times.append(state.clock)
        mean = sum(times) / n
        var = sum((t - mean) ** 2 for t in times) / (n - 1)
        exact = 2.0
        assert abs(mean - exact) < 3 * math.sqrt(var / n)


class TestRationalStart:
    """`run_until` and `replay(exact=False)` on a Fraction tensor: `_start`
    integrates each block exactly and rounds the payload to float once,
    before the run takes its first event. The digest of the states,
    records and replays on the mc_transition model was first taken when
    every advance went through Fraction's float fallback instead, and
    retaken when the flow was deferred to once per coalescence, which
    moved coefficients by at most 1.2e-15 relative and nothing else. The
    frozen loop, which flows a Fraction start through that fallback,
    holds the conversion to every bit."""

    DIGEST = ("fbfe192e412a8ebb3d2e7d503c936eb99b3a00fa33510cda3a525e964ba1"
              "586a")

    @staticmethod
    def _line(state, records=None):
        coeffs = [[c.hex() if isinstance(c, float) else str(c)
                   for c in g.coeffs] for g in state.y.factors]
        if records is None:
            return repr((state.clock.hex(), state.events, coeffs))
        return repr((state.clock.hex(), state.events, state.lp.partition,
                     state.lp.labels, coeffs,
                     [(e.time.hex(), e.dt.hex(), e.kind, e.colony, e.detail,
                       e.block_count) for e in records]))

    def test_states_pinned(self):
        params = ModelParams(XiMeasure(F(1, 2), ATOM_HALF_QUARTER.atoms),
                             MutationSpec(F(1), base=BaseMeasure.uniform()),
                             F(1), F(2), 6)
        eta = (1, 1, 2, 2)
        f = indicator_power(4)
        lines = []
        for stop in (StopRule(at_time=0.5), StopRule(at_time=2.0),
                     StopRule(at_absorption=True)):
            for rep in range(40):
                state, traj = run_until(initial_state(f, eta), params, stop,
                                        replica_rng(5, rep))
                assert all(type(c) is float
                           for g in state.y.factors for c in g.coeffs)
                lines.append(self._line(state, traj.events))
                lines.append(self._line(replay(f, eta, traj, params,
                                               exact=False)))
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
            self.DIGEST

    @given(measure_level_coeffs(st.one_of(
        st.integers(-5, 5), st.fractions(-3, 3, max_denominator=10**9))))
    @settings(max_examples=300, deadline=None)
    def test_start_rounds_the_exact_integral(self, case):
        # each rational factor's integral is its exact value rounded once
        base, level, coeffs = case
        g = SetFunction(level, tuple(coeffs))
        run_level, _, _, ints = simulator._start([g, g], base)
        n, d = base.integral_ratio(run_level, g._coeffs_at(run_level))
        want = float(F(n, d)).hex()
        assert [x.hex() for x in ints] == [want] * (2 << run_level)

    def test_unadvanced_start_turns_float(self):
        # a run that never advances returns its start rounded to float:
        # absorbed at the start, capped at zero events, or an empty
        # trajectory replayed on floats
        params = kingman_model()
        f = TensorFunction((SetFunction(1, (F(1, 2), F(1, 3))),
                            SetFunction.indicator(E_STAR)))
        absorbed, _ = run_until(initial_state(indicator_power(1), (2,)),
                                params, StopRule(at_absorption=True),
                                random.Random(0))
        capped, traj = run_until(initial_state(f, (1, 2)), params,
                                 StopRule(at_absorption=True, max_events=0),
                                 random.Random(0))
        assert traj.truncated and traj.events == ()
        replayed = replay(f, (1, 2), Trajectory(()), params, exact=False)
        # the start's integrals are exact, then rounded: float(5/12), not
        # the float sum (0.5 + float(1/3)) / 2, which is one ulp lower
        _, cells, _, ints = simulator._start(f.factors, params.mutation.base)
        assert all(type(c) is float for c in cells + ints)
        assert ints == [float(F(5, 12))] * 2 + [0.5] * 2
        for state, start in ((absorbed, indicator_power(1)), (capped, f),
                             (replayed, f)):
            assert state.y == _floated(start)
            assert all(type(c) is float
                       for g in state.y.factors for c in g.coeffs)


def _float_payload(state, params):
    """The float payload `run_until` starts a run from `state` with."""
    return simulator._FloatPayload(
        simulator._start(state.y.factors, params.mutation.base),
        params._tables[2])


def _hexed(record):
    return record._replace(time=record.time.hex(), dt=record.dt.hex())


def _bits(lists):
    return [[c.hex() for c in g] for g in lists]


@functools.lru_cache(maxsize=None)
def _frozen_model(name):
    """The models of the frozen-loop cases, each with its start labels:
    Kingman alone; the mc_stationary model (Kingman mass 1/2 plus the atom
    (1/2, 1/4), whose dust 1/4 leaves singletons beside a merger); the
    exact_sweep measure (two atoms plus Kingman), whose multi-group
    mergers with dust need many blocks."""
    xi, u1, u2, n = {
        "kingman": (KINGMAN, F(1), F(1), 5),
        "atom": (XiMeasure(F(1, 2), ATOM_HALF_QUARTER.atoms), F(1), F(2), 6),
        "sweep10": (SWEEP, F(1), F(2), 10),
        "sweep20": (SWEEP, F(3), F(1, 2), 20)}[name]
    params = ModelParams(xi, MutationSpec(F(1), base=BaseMeasure.uniform()),
                         u1, u2, n)
    return params, tuple(1 + i % 2 for i in range(n))


# a float tensor at two grid levels under the uniform base, cycled over the
# start blocks
_FROZEN_FACTORS = (SetFunction(2, (0.3, 1.7, 0.25, 1.1)),
                   SetFunction.indicator(E_STAR),
                   SetFunction(1, (0.625, -0.5)))


def _frozen_tensor(n, exact=False):
    if exact:
        return indicator_power(n)
    return TensorFunction(tuple(_FROZEN_FACTORS[i % 3] for i in range(n)))


class TestFrozenLoop:
    """`run_until`, the replica driver and the skeleton agree to the bit
    with the frozen loop above: at absorption, at t = 0 and at mid-run
    stops, on Kingman alone, the atom with dust and the exact_sweep
    measure at 10 and 20 start blocks. The generator's state after a run
    equals the frozen loop's too, so the run drew as many bits."""

    STOPS = [StopRule(at_absorption=True), StopRule(at_time=0.0),
             StopRule(at_time=0.3), StopRule(at_time=2.0)]

    @pytest.mark.parametrize("name", ["kingman", "atom", "sweep10",
                                      "sweep20"])
    def test_run_until_equals_frozen_loop(self, name):
        params, eta = _frozen_model(name)
        replicas = 4 if name == "sweep20" else 12
        merged = 0
        for exact in (False, True):
            f = _frozen_tensor(len(eta), exact)
            state0 = initial_state(f, eta)
            for stop in self.STOPS:
                for rep in range(replicas):
                    rng, frozen_rng = replica_rng(7, rep), replica_rng(7, rep)
                    state, traj = run_until(state0, params, stop, rng)
                    chain = _FrozenChain(state0, params, _frozen_start(
                        f.factors, params.mutation.base))
                    events, truncated = _frozen_run(
                        chain, params, frozen_rng, stop.at_time,
                        stop.at_absorption, stop.max_events, record=True)
                    assert rng.getstate() == frozen_rng.getstate()
                    assert [_hexed(r) for r in traj.events] == \
                        [_hexed(r) for r in events]
                    assert traj.truncated == truncated
                    assert state.lp.partition == chain.blocks
                    assert state.lp.labels == chain.labels
                    assert (state.clock.hex(), state.events) == \
                        (chain.clock.hex(), chain.events)
                    assert _bits(g.coeffs for g in state.y.factors) == \
                        _bits(SetFunction(chain.level, tuple(g)).coeffs
                              for g in chain.floats())
                    merged += sum(1 for r in events
                                  if r.kind == "coalescence"
                                  and sum(len(b) > 1 for b in r.detail) > 1)
        if name.startswith("sweep"):
            # several groups merging in one event, beside singletons
            assert merged > 0

    @pytest.mark.parametrize("name", ["kingman", "atom", "sweep10"])
    @pytest.mark.parametrize("t", [None, 0.0, 0.3, 2.0])
    def test_replica_values_equal_frozen_driver(self, name, t):
        params, eta = _frozen_model(name)
        mu = (BaseMeasure(1, (F(3, 2), F(1, 2))),
              BaseMeasure(1, (F(1, 2), F(3, 2))))
        f = _frozen_tensor(len(eta), exact=True)
        stop = simulator._replica_stop(t, params)
        for skeleton in (False, True):
            args = (params, 3, skeleton, 5, 45)
            assert [v.hex() for v in
                    simulator._replica_values(f, eta, mu, stop, *args)] == \
                [v.hex() for v in _frozen_replica_values(f, eta, mu, t, *args)]

    @pytest.mark.parametrize("name", ["atom", "sweep10", "kingman",
                                      "sweep20"])
    def test_skeleton_segments_equal_frozen_loop(self, name):
        params, eta = _frozen_model(name)
        state0 = initial_state(indicator_power(len(eta)), eta)
        for t in (None, 0.0, 0.3, 2.0):
            for rep in range(12):
                rng, frozen_rng = replica_rng(9, rep), replica_rng(9, rep)
                chain = simulator._Chain.of(state0, simulator._Skeleton())
                simulator._run(chain, params, rng,
                               StopRule(at_time=t, at_absorption=t is None))
                frozen = _FrozenChain(state0, params, None)
                _frozen_run(frozen, params, frozen_rng, t, t is None,
                            simulator.EVENT_CAP)
                assert rng.getstate() == frozen_rng.getstate()
                assert [s.hex() if type(s) is float else s
                        for s in chain.payload] == _frozen_steps(frozen)
                assert tuple(chain.labels) == frozen.labels

    def test_rounding_branch_equals_frozen_loop(self):
        # every uniform at the top: the first coalescence takes the branch
        # where colony 2 has no coalescence rate and rounding leaves pick
        # at rates[2]
        params, eta = _rounding_model()
        state0 = initial_state(indicator_power(3), eta)
        rng, frozen_rng = _TopUniform(1), _TopUniform(1)
        state, traj = run_until(state0, params, StopRule(
            at_time=math.inf, max_events=6), rng)
        chain = _FrozenChain(state0, params, _frozen_start(
            state0.y.factors, params.mutation.base))
        events, truncated = _frozen_run(chain, params, frozen_rng,
                                        math.inf, False, 6, record=True)
        assert traj.events[0].kind == "coalescence" and truncated
        assert [_hexed(r) for r in traj.events] == \
            [_hexed(r) for r in events]
        assert state.lp.labels == chain.labels
        assert rng.getstate() == frozen_rng.getstate()


def _counting(payload_class):
    """`payload_class`, counting the flows it runs."""

    class Counting(payload_class):
        __slots__ = ("flows",)

        def __init__(self, *args):
            super().__init__(*args)
            self.flows = 0

        def flow(self):
            self.flows += 1
            super().flow()

    return Counting


class TestDeferredFlow:
    """Both coefficient payloads flow once per coalescence, and once more
    when their factors are read after a time stop left time pending,
    instead of once per event; the path is the frozen loop's, and the
    float payload is within rounding of the eager flow's. The exact
    payload's deferral is exact: the replay tests hold it `==` to the
    eager `_reference_replay`."""

    @pytest.mark.parametrize("name", ["kingman", "atom", "sweep10"])
    def test_one_flow_per_coalescence(self, name):
        params, eta = _frozen_model(name)
        f = _frozen_tensor(len(eta))
        state0 = initial_state(f, eta)
        base, theta = params.mutation.base, params._tables[2]
        payloads = {
            "float": lambda: _counting(simulator._FloatPayload)(
                simulator._start(f.factors, base), theta),
            "exact": lambda: _counting(simulator._ExactPayload)(
                simulator._start(f.factors, base, exact=True), theta)}
        for kind, make in payloads.items():
            flows = 0
            for stop in TestFrozenLoop.STOPS:
                for rep in range(12):
                    rng = replica_rng(11, rep)
                    frozen_rng = replica_rng(11, rep)
                    payload = make()
                    chain = simulator._Chain.of(state0, payload)
                    records, truncated = simulator._run(chain, params, rng,
                                                        stop, record=True)
                    frozen = _FrozenChain(state0, params, _frozen_start(
                        f.factors, base), eager=True)
                    events, frozen_truncated = _frozen_run(
                        frozen, params, frozen_rng, stop.at_time,
                        stop.at_absorption, stop.max_events, record=True)
                    assert rng.getstate() == frozen_rng.getstate()
                    assert [_hexed(r) for r in records] == \
                        [_hexed(r) for r in events]
                    assert (truncated, tuple(chain.labels), chain.blocks,
                            chain.clock.hex(), chain.events) == \
                        (frozen_truncated, frozen.labels, frozen.blocks,
                         frozen.clock.hex(), frozen.events)
                    coalescences = sum(r.kind == "coalescence"
                                       for r in records)
                    assert payload.flows == coalescences
                    payload.factors()
                    payload.factors()
                    pending = stop.at_time is not None and stop.at_time > 0
                    assert payload.flows == coalescences + pending, kind
                    flows += payload.flows
            assert flows > 0, kind

    @pytest.mark.parametrize("name", ["kingman", "atom", "sweep10"])
    def test_within_rounding_of_the_eager_flow(self, name):
        params, eta = _frozen_model(name)
        for exact in (False, True):
            f = _frozen_tensor(len(eta), exact)
            state0 = initial_state(f, eta)
            for stop in TestFrozenLoop.STOPS:
                for rep in range(12):
                    chain = simulator._Chain.of(
                        state0, _float_payload(state0, params))
                    simulator._run(chain, params, replica_rng(13, rep), stop)
                    frozen = _FrozenChain(state0, params, _frozen_start(
                        f.factors, params.mutation.base), eager=True)
                    _frozen_run(frozen, params, replica_rng(13, rep),
                                stop.at_time, stop.at_absorption,
                                stop.max_events)
                    for g, h in zip(chain.payload.factors(), frozen.floats(),
                                    strict=True):
                        scale = max(map(abs, h))
                        assert all(abs(x - y) <= 1e-12 * scale
                                   for x, y in zip(g, h, strict=True))


def exact_event_mix(params, n1, n2):
    """Expected events, migrations, coalescences, time and multiple
    mergers (coalescences that drop more than one block) of the dual from
    n1 blocks in colony 1 and n2 in colony 2 to one block, in Fractions,
    by first-step analysis of the block-count chain (n1, n2). Each
    quantity has a reward rate per state: the rate of the events it
    counts, or 1 for time. A migration keeps the total n1 + n2 and a
    coalescence lowers it, so the totals are solved from 2 up, each a
    linear system in n1 (`solve_exact`) whose coalescence terms read the
    lower totals' solutions."""
    u1, u2 = params.u1, params.u2
    # per block count, each coalescence profile's block count after it
    # and its rate summed over the partitions with that profile
    coal = {b: [(len(prof.merge_sizes) + prof.s, rate * mult)
                for prof, rate, mult in params.table.profiles(b) if rate > 0]
            for b in range(2, n1 + n2 + 1)}
    solved = {1: {0: (F(0),) * 5, 1: (F(0),) * 5}}
    for n in range(2, n1 + n2 + 1):
        matrix, rhs = [], ([], [], [], [], [])
        for k in range(n + 1):
            into1, into2 = (n - k) * u1, k * u2
            c1, c2 = coal.get(k, []), coal.get(n - k, [])
            coalescence = sum(r for _, r in c1) + sum(r for _, r in c2)
            row = [F(0)] * (n + 1)
            row[k] = into1 + into2 + coalescence
            if k < n:
                row[k + 1] = -into1
            if k:
                row[k - 1] = -into2
            matrix.append(row)
            multiple = (sum(r for a, r in c1 if k - a > 1)
                        + sum(r for a, r in c2 if n - k - a > 1))
            rewards = (into1 + into2 + coalescence, into1 + into2,
                       coalescence, 1, multiple)
            for i, reward in enumerate(rewards):
                rhs[i].append(
                    reward
                    + sum(r * solved[a + n - k][a][i] for a, r in c1)
                    + sum(r * solved[k + a][k][i] for a, r in c2))
        columns = [solve_exact(matrix, side)[0] for side in rhs]
        solved[n] = {k: tuple(x[k] for x in columns) for k in range(n + 1)}
    return solved[n1 + n2][n1]


class TestEventMix:
    """The dual's event mix to absorption against the exact block-count
    chain (`exact_event_mix`). The float payload flows once per
    coalescence, not once per event: on the mc_stationary model from
    (2, 2), 2.87 flows per replica instead of 10.26."""

    def test_mc_stationary_mix(self):
        params, _ = _frozen_model("atom")
        events, migrations, coalescences, time, multiple = \
            exact_event_mix(params, 2, 2)
        assert events == migrations + coalescences
        assert (round(float(events), 4), round(float(migrations), 3),
                round(float(coalescences), 3)) == (10.2606, 7.388, 2.872)
        assert time == F(15159513170335, 7131099130812)
        assert round(float(multiple), 5) == 0.12372

    @pytest.mark.parametrize("xi,eta", [
        (KINGMAN, (1, 1, 2, 2)), (ATOM_HALF_QUARTER, (1, 1, 2, 2)),
        (SWEEP, (1, 2, 1, 2, 1, 2))], ids=["kingman", "atom", "sweep"])
    def test_run_means_match_exact_mix(self, xi, eta):
        params = ModelParams(xi, MutationSpec(F(1),
                                              base=BaseMeasure.uniform()),
                             F(1), F(2), len(eta))
        state0 = initial_state(indicator_power(len(eta)), eta)
        replicas = 3000
        samples = []
        for rep in range(replicas):
            chain = simulator._Chain.of(state0, simulator._Skeleton())
            simulator._run(chain, params, replica_rng(31, rep),
                           StopRule(at_absorption=True))
            merges = [s for s in chain.payload if type(s) is list]
            multiple = sum(sum(map(len, groups)) - len(groups) > 1
                           for groups in merges)
            samples.append((chain.events, chain.events - len(merges),
                            len(merges), chain.clock, multiple))
        exact = exact_event_mix(params, eta.count(COLONY_1),
                                eta.count(COLONY_2))
        for sample, value in zip(zip(*samples), exact, strict=True):
            # Kingman's coalescences are binary: n - 1 of them, exactly,
            # and no multiple merger
            se = statistics.stdev(sample) / math.sqrt(replicas)
            assert abs(statistics.fmean(sample) - value) <= 4 * se


class TestPayloadStream:
    """What rides on the blocks does not change the jump chain: from the
    same start and stream, `_run` with the float payload, the exact
    payload and the skeleton takes one path, to a time and to
    absorption, and leaves the generator in one state. The exact payload
    driven live equals `replay(exact=True)` of the path it took."""

    @pytest.mark.parametrize("xi,n", [(KINGMAN, 5), (ATOM_HALF_QUARTER, 6),
                                      (SWEEP, 10)],
                             ids=["kingman", "atom", "sweep"])
    def test_payloads_take_one_path(self, xi, n):
        params = ModelParams(xi, MutationSpec(F(1),
                                              base=BaseMeasure.uniform()),
                             F(1), F(2), n)
        eta = tuple(1 + i % 2 for i in range(n))
        f = indicator_power(n)
        state0 = initial_state(f, eta)
        base, theta = params.mutation.base, params._tables[2]
        for stop in (StopRule(at_time=0.4), StopRule(at_absorption=True)):
            for rep in range(6):
                chains, runs = [], []
                for payload in (_float_payload(state0, params),
                                simulator._ExactPayload(
                                    simulator._start(f.factors, base,
                                                     exact=True),
                                    theta),
                                simulator._Skeleton()):
                    rng = replica_rng(23, rep)
                    chain = simulator._Chain.of(state0, payload)
                    records, truncated = simulator._run(chain, params, rng,
                                                        stop, record=True)
                    chains.append(chain)
                    runs.append(((rng.getstate(), tuple(chain.labels),
                                  chain.blocks, chain.clock.hex(),
                                  chain.events, truncated),
                                 [_hexed(r) for r in records]))
                assert runs[0] == runs[1] == runs[2]
                trajectory = Trajectory(tuple(records), truncated,
                                        None if truncated else stop.at_time)
                assert chains[1].state() == replay(f, eta, trajectory,
                                                   params, exact=True)


class TestEvaluateDual:
    def test_all_ones(self):
        state = initial_state(TensorFunction.indicator_power(
            DyadicSet.full(), 3), (1, 2, 1))
        mu = (BaseMeasure.uniform(), BaseMeasure.uniform())
        assert evaluate_dual(state, mu) == 1

    def test_product_pairing(self):
        state = initial_state(indicator_power(2), (1, 2))
        mu1 = BaseMeasure(1, (F(3, 2), F(1, 2)))    # mu1(E*) = 3/4
        mu2 = BaseMeasure(1, (F(1, 2), F(3, 2)))    # mu2(E*) = 1/4
        assert evaluate_dual(state, (mu1, mu2)) == F(3, 16)

    def test_linearity(self):
        c = DyadicSet(2, frozenset({1}))
        g = SetFunction.constant(F(2)) + scale(SetFunction.indicator(c), F(3))
        f = TensorFunction((g, SetFunction.indicator(E_STAR)))
        state = initial_state(f, (1, 1))
        mu = BaseMeasure.uniform()
        assert evaluate_dual(state, (mu, mu)) == (2 + 3 * F(1, 4)) * F(1, 2)


class TestEstimators:
    def test_qt_at_zero_zero_variance(self):
        params = kingman_model()
        mu = (BaseMeasure.uniform(), BaseMeasure.uniform())
        est = estimate_Qt(indicator_power(2), (1, 1), mu, 0.0, 50, params,
                          seed=0)
        assert est.mean == 0.25 and est.std_error == 0

    def test_qt_all_ones_conservative(self):
        params = kingman_model()
        f = TensorFunction.indicator_power(DyadicSet.full(), 2)
        mu = (BaseMeasure.uniform(), BaseMeasure.uniform())
        est = estimate_Qt(f, (1, 2), mu, 0.8, 200, params, seed=1)
        assert abs(est.mean - 1) < 1e-9 and est.std_error < 1e-9

    def test_stationary_single_block_exact_alpha(self):
        params = kingman_model()
        est = estimate_stationary(indicator_power(1), (1,),
                                  BaseMeasure.uniform(), 300, params, seed=2)
        assert abs(est.mean - 0.5) < 1e-12 and est.std_error < 1e-12

    def test_stationary_matches_exact_moments(self):
        params = kingman_model()
        est = estimate_stationary(indicator_power(2), (1, 1),
                                  BaseMeasure.uniform(), 20_000, params,
                                  seed=3)
        exact = float(solve_stationary(2, kingman_scalar())[(2, 0)])
        assert abs(est.mean - exact) < 3 * est.std_error

    def test_worker_fanout_identical(self):
        params = kingman_model()
        a = estimate_stationary(indicator_power(2), (1, 1),
                                BaseMeasure.uniform(), 400, params, seed=4)
        b = estimate_stationary(indicator_power(2), (1, 1),
                                BaseMeasure.uniform(), 400, params, seed=4,
                                workers=3)
        assert a == b

    def test_replicas_below_one_refused(self):
        params = kingman_model()
        mu = (BaseMeasure.uniform(), BaseMeasure.uniform())
        with pytest.raises(ValueError, match="replicas"):
            estimate_Qt(indicator_power(2), (1, 1), mu, 0.5, 0, params, 0)
        with pytest.raises(ValueError, match="replicas"):
            estimate_stationary(indicator_power(2), (1, 1),
                                BaseMeasure.uniform(), -3, params, 0)

    def test_qt_needs_a_time(self):
        mu = (BaseMeasure.uniform(), BaseMeasure.uniform())
        with pytest.raises(ValueError, match="time"):
            estimate_Qt(indicator_power(2), (1, 1), mu, None, 10,
                        kingman_model(), 0)

    def test_zero_mass_refused(self, monkeypatch):
        # a run to absorption, from any start, is refused before a replica
        # is drawn; the skeleton used to run replica 0 to the event cap
        xi = XiMeasure()
        params = ModelParams(xi, MutationSpec(F(1), base=BaseMeasure.uniform()),
                             F(1), F(1), 4)

        def no_replica(seed, replica):
            raise AssertionError("a replica was drawn")

        monkeypatch.setattr(simulator, "replica_rng", no_replica)
        pi = BaseMeasure.uniform()
        for f, eta in ((indicator_power(2), (1, 1)),
                       (indicator_power(1), (2,))):
            for run in (lambda: estimate_stationary(f, eta, pi, 10, params,
                                                    seed=0),
                        lambda: genealogical_evaluate(f, eta, (pi, pi), None,
                                                      10, params, 0)):
                with pytest.raises(ValueError, match=r"xi mass > 0"):
                    run()


class TestStdev:
    """The standard error's standard deviation is `statistics.stdev`,
    correctly rounded from Python 3.11 on, the supported floor, so seeded
    reports agree on every supported interpreter."""

    def test_pinned_case_where_python_310_differs(self):
        # `statistics.stdev` of 3.10 gives 0x1.bfd8df179b0bdp-3 here
        assert statistics.stdev([0.082, 0.365, 0.6, 0.458]).hex() == \
            "0x1.bfd8df179b0bep-3"


class TestReplicaDriver:
    """Each estimator is the mean of its public path: `run_until` from the
    float-coefficient tensor on stream `replica_rng(seed, rep)`, paired
    with the colony laws. No estimator returns a value from a truncated
    path."""

    @pytest.mark.parametrize("t", [None, 0.5])
    def test_estimator_equals_public_path_to_the_bit(self, t):
        # the estimators pair the chain's coefficient lists with the laws
        # directly; `evaluate_dual` pairs reduced `SetFunction`s. The
        # cases have laws at, above (`mixed`) and below (`coarse`, whose
        # factors reduce) the run's grid level.
        atom = ModelParams(ATOM_HALF_QUARTER,
                           MutationSpec(F(1), base=BaseMeasure.uniform()),
                           F(1), F(2), 6)
        skewed = (BaseMeasure(1, (F(3, 2), F(1, 2))),
                  BaseMeasure(1, (F(1, 2), F(3, 2))))
        cases = [(atom, indicator_power(4), (1, 2, 1, 2), skewed)] \
            + TestFlatPayload()._cases()
        replicas, seed = 300, 11
        for params, f, eta, mu in cases:
            f_float = _floated(f)
            runs = ([(StopRule(at_absorption=True), (pi, pi))
                     for pi in (BaseMeasure.uniform(),) + mu] if t is None
                    else [(StopRule(at_time=t), mu)])
            for stop, laws in runs:
                values = []
                for rep in range(replicas):
                    state, traj = run_until(initial_state(f_float, eta),
                                            params, stop,
                                            replica_rng(seed, rep))
                    assert not traj.truncated
                    values.append(float(evaluate_dual(state, laws)))
                est = (estimate_stationary(f, eta, laws[0], replicas,
                                           params, seed) if t is None
                       else estimate_Qt(f, eta, laws, t, replicas, params,
                                        seed))
                assert float_sum(values) / replicas == est.mean
                # per replica too: a last-bit change can vanish in the sum
                assert simulator._replica_values(
                    f, eta, laws, stop, params, seed, False, 0,
                    replicas) == values

    @pytest.mark.parametrize("estimator", ["qt", "stationary",
                                           "genealogical"])
    def test_event_cap_raises(self, monkeypatch, estimator):
        monkeypatch.setattr(simulator, "EVENT_CAP", 3)
        # migration at rate 10^6 per block: three events come long before
        # t = 1 or absorption
        params = kingman_model(u1=F(10**6), u2=F(10**6))
        f, eta = indicator_power(2), (1, 2)
        mu = (BaseMeasure.uniform(), BaseMeasure.uniform())
        run = {"qt": lambda: estimate_Qt(f, eta, mu, 1.0, 5, params, 0),
               "stationary": lambda: estimate_stationary(
                   f, eta, mu[0], 5, params, 0),
               "genealogical": lambda: genealogical_evaluate(
                   f, eta, mu, 1.0, 5, params, 0)}[estimator]
        with pytest.raises(RuntimeError, match="replica 0 .*event cap"):
            run()


class TestGenealogical:
    def test_agrees_with_closed_form_qt(self):
        params = kingman_model()
        mu = (BaseMeasure.uniform(), BaseMeasure.uniform())
        a = estimate_Qt(indicator_power(2), (1, 1), mu, 0.4, 4000, params,
                        seed=5)
        b = genealogical_evaluate(indicator_power(2), (1, 1), mu, 0.4, 4000,
                                  params, seed=6)
        sigma = math.hypot(a.std_error, b.std_error)
        assert abs(a.mean - b.mean) < 3 * sigma

    def test_t_zero_is_iid_sampling(self):
        params = kingman_model()
        mu = (BaseMeasure.uniform(), BaseMeasure.uniform())
        est = genealogical_evaluate(indicator_power(2), (1, 2), mu, 0.0,
                                    4000, params, seed=7)
        sigma = math.sqrt(0.25 * 0.75 / 4000)
        assert abs(est.mean - 0.25) < 3 * sigma

    def test_stationary_agreement(self):
        params = kingman_model()
        pi = BaseMeasure.uniform()
        a = estimate_stationary(indicator_power(2), (1, 1), pi, 4000,
                                params, seed=8)
        b = genealogical_evaluate(indicator_power(2), (1, 1), (pi, pi),
                                  None, 4000, params, seed=9)
        sigma = math.hypot(a.std_error, b.std_error)
        assert abs(a.mean - b.mean) < 3 * sigma


class TestPathStructure:
    def test_block_count_monotone(self):
        params = kingman_model()
        for rep in range(50):
            rng = replica_rng(20, rep)
            _, traj = run_until(initial_state(indicator_power(4),
                                              (1, 1, 2, 2)), params,
                                StopRule(at_absorption=True), rng)
            counts = [4] + [ev.block_count for ev in traj.events]
            for before, after, ev in zip(counts, counts[1:], traj.events):
                if ev.kind == "migration":
                    assert after == before
                else:
                    assert after < before

    def test_coupling_linearity(self):
        rng = seeded(21)
        assert all(coupling_linearity_holds(rng) for _ in range(20))

    def test_normalization(self):
        rng = seeded(22)
        assert all(normalization_holds(rng) for _ in range(20))

    def test_replay_reproduces_terminal_state(self):
        rng = seeded(23)
        params = random_model(rng)
        f = indicator_power(3)
        mu = (BaseMeasure.uniform(), BaseMeasure.uniform())
        for stop in (StopRule(at_absorption=True), StopRule(at_time=0.7)):
            state, traj = run_until(initial_state(f, (1, 2, 1)), params,
                                    stop, rng)
            again = replay(f, (1, 2, 1), traj, params, exact=False)
            assert again.lp == state.lp and again.clock == state.clock
            assert again.events == state.events == len(traj.events)
            assert evaluate_dual(again, mu) == evaluate_dual(state, mu)


class TestRefusals:
    """Bad input to the dual's types and runs fails naming what is wrong
    (Kingman, b_max 6)."""

    @pytest.mark.parametrize("make,message", [
        (lambda: run_until(initial_state(indicator_power(7), (1,) * 7),
                           kingman_model(), StopRule(at_time=1.0),
                           random.Random(0)),
         "7 blocks exceed b_max=6"),
        (lambda: kingman_model(u1=F(0)),
         "migration rate u1 must be positive, got 0"),
        (lambda: kingman_model(u2=F(-1)),
         "migration rate u2 must be positive, got -1"),
        (lambda: DualState(LabeledPartition(singleton_partition(2), (1, 2)),
                           indicator_power(3)),
         "tensor arity must equal block count")],
        ids=["blocks_past_b_max", "u1_zero", "u2_negative",
             "dual_state_arity"])
    def test_refused(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_estimators_refuse_before_the_pool(self, monkeypatch):
        # the refusals come from the estimators themselves: no worker pool
        # is started to refuse in each worker
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            no_pool)
        f, eta = indicator_power(2), (1, 2)
        pi = BaseMeasure.uniform()
        massless = ModelParams(XiMeasure(), MutationSpec(F(1), base=pi),
                               F(1), F(1), 4)
        with pytest.raises(ValueError, match=r"xi mass > 0"):
            estimate_stationary(f, eta, pi, 10, massless, 0, workers=2)
        with pytest.raises(ValueError, match="at_time must be at least 0"):
            estimate_Qt(f, eta, (pi, pi), -1.0, 10, kingman_model(), 0,
                        workers=2)


def _refused_twice(f, eta, traj, params, exact, message):
    """`replay` refuses `traj` with `message` on a first and on a second
    call, in the same words, and keeps no decoded path on it."""
    texts = []
    for _ in range(2):
        with pytest.raises(ValueError, match=message) as err:
            replay(f, eta, traj, params, exact=exact)
        texts.append(str(err.value))
        assert traj._decoded == {}
    assert texts[0] == texts[1]


class TestReplayRefusesRecords:
    """A record that would replay as a counted event changing nothing is
    refused, on both payloads (Kingman, eta (1, 2)), and so is a holding
    time or stop time below 0 or NaN. A refused trajectory is refused
    again on a second replay, and no decoded path is kept on it."""

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("record,message", [
        # block 1 is in colony 1, not in colony 2
        (EventRecord(0.1, 0.1, "migration", 2, 1, 2),
         "migration record out of colony 2: block 1 is in colony 1"),
        # colony 1's one block by the all-singletons partition
        (EventRecord(0.1, 0.1, "coalescence", 1, ((1,),), 2),
         r"coalescence record in colony 1: partition \(\(1,\),\) merges "
         "nothing")], ids=["migration", "coalescence"])
    def test_no_op_record_refused(self, exact, record, message):
        _refused_twice(indicator_power(2), (1, 2), Trajectory((record,)),
                       kingman_model(), exact, message)

    @pytest.mark.parametrize("exact", [False, True])
    def test_negative_holding_time_refused(self, exact):
        # NaN used to pass the `dt < 0` test: float replay returned NaN
        # coefficients and clock, exact replay failed converting NaN to a
        # ratio; a NaN stop time reached the same test
        for dt in (-0.1, math.nan):
            record = EventRecord(dt, dt, "migration", 1, 1, 1)
            for traj in (Trajectory((record,)),
                         Trajectory((), stop_time=dt)):
                _refused_twice(indicator_power(2), (1, 2), traj,
                               kingman_model(), exact,
                               f"holding time must be at least 0, got {dt}")

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("eta,detail", [
        ((1, 1), ((1, 1),)), ((1, 1, 1), ((1, 2, 2),)),
        ((1, 1, 1), ((1, 2, 2), (3,)))],
        ids=["repeat", "repeat_in_block", "repeat_and_cover"])
    def test_repeated_rank_refused(self, exact, eta, detail):
        # such a record used to replay as a counted event, the repeated
        # rank squaring its block's factor
        record = EventRecord(0.1, 0.1, "coalescence", 1, detail, len(eta))
        _refused_twice(indicator_power(len(eta)), eta, Trajectory((record,)),
                       kingman_model(), exact,
                       r"coalescence record in colony 1: .* repeats an "
                       "element")

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("n,eta,message", [
        (3, (1, 2), "tensor arity must equal block count"),
        (2, (1, 3), "labels must be colony 1 or 2"),
        # both wrong: the labels are named, as `initial_state` names them
        (3, (0, 2), "labels must be colony 1 or 2")],
        ids=["arity", "label", "label_and_arity"])
    def test_bad_start_refused_before_any_event(self, exact, n, eta,
                                                message):
        # `initial_state`'s message for the same start; the record's NaN
        # holding time would be refused if an event were applied first
        f = indicator_power(n)
        with pytest.raises(ValueError, match=message):
            initial_state(f, eta)
        record = EventRecord(math.nan, math.nan, "migration", 1, 1, 2)
        _refused_twice(f, eta, Trajectory((record,)), kingman_model(),
                       exact, message)

    def test_later_bad_record_keeps_nothing(self):
        # the first record is good: the path is refused at the second, and
        # a valid eta decoded before is kept beside nothing for the bad one
        good = EventRecord(0.1, 0.1, "migration", 1, 1, 2)
        bad = EventRecord(0.3, 0.2, "migration", 1, 2, 2)
        traj = Trajectory((good, bad))
        params = kingman_model()
        # from (1, 1) both records are good: block 1, then block 2 leave
        assert replay(indicator_power(2), (1, 1), traj, params).lp.labels \
            == (2, 2)
        for exact in (False, True):
            with pytest.raises(ValueError, match="block 2 is in colony 2"):
                replay(indicator_power(2), (1, 2), traj, params, exact=exact)
        assert list(traj._decoded) == [(1, 1)]

    def test_recorded_paths_still_replay(self):
        params = kingman_model()
        f = indicator_power(3)
        for rep in range(20):
            state, traj = run_until(initial_state(f, (1, 2, 1)), params,
                                    StopRule(at_absorption=True),
                                    replica_rng(13, rep))
            for exact in (False, True):
                again = replay(f, (1, 2, 1), traj, params, exact=exact)
                assert again.lp == state.lp
                assert again.events == len(traj.events)


class TestDecodedPaths:
    """`replay` decodes a trajectory once per eta and keeps the decoded
    path on it, outside its ==, hash, repr and pickling; replays through
    a kept path equal replays of fresh, equal trajectories."""

    # good from (1, 1, 2) and from (1, 2, 1), with different blocks:
    # colony 1's two blocks merge, then colony 2's block moves to colony 1
    EVENTS = (EventRecord(0.1, 0.1, "coalescence", 1, ((1, 2),), 2),
              EventRecord(0.35, 0.25, "migration", 2, 2, 2))
    TENSOR = TensorFunction((SetFunction(1, (F(1, 3), F(2))),
                             SetFunction.indicator(E_STAR),
                             SetFunction(2, (0.3, 1.7, 0.25, 1.1))))

    @staticmethod
    def _assert_same(a, b, exact):
        assert a == b
        if not exact:
            assert _bits(g.coeffs for g in a.y.factors) == \
                _bits(g.coeffs for g in b.y.factors)
            assert a.clock.hex() == b.clock.hex()

    def test_two_etas_equal_fresh_trajectories(self):
        params = kingman_model()
        traj = Trajectory(self.EVENTS, stop_time=0.5)
        etas = [(1, 1, 2), (1, 2, 1)]
        for _ in range(2):
            for exact in (True, False):
                for eta in etas:
                    fresh = Trajectory(self.EVENTS, stop_time=0.5)
                    self._assert_same(
                        replay(self.TENSOR, eta, traj, params, exact=exact),
                        replay(self.TENSOR, eta, fresh, params, exact=exact),
                        exact)
        assert list(traj._decoded) == etas
        assert [traj._decoded[eta][1].partition for eta in etas] == \
            [((1, 2), (3,)), ((1, 3), (2,))]

    def test_records_decoded_once_per_eta(self, monkeypatch):
        calls = []
        apply = simulator._Chain.apply

        def counting(chain, *args):
            calls.append(args)
            return apply(chain, *args)

        monkeypatch.setattr(simulator._Chain, "apply", counting)
        params = kingman_model()
        traj = Trajectory(self.EVENTS, stop_time=0.5)
        for eta in [(1, 1, 2), (1, 2, 1), (1, 1, 2)]:
            for exact in (True, False):
                replay(self.TENSOR, eta, traj, params, exact=exact)
                replay(indicator_power(3), eta, traj, params, exact=exact)
        # two etas, each decoded once
        assert len(calls) == 2 * len(self.EVENTS)

    def test_recorded_paths_equal_fresh_trajectories(self):
        params, eta = _frozen_model("atom")
        tensors = [_frozen_tensor(len(eta)),
                   _frozen_tensor(len(eta), exact=True)]
        for rep in range(8):
            stop = (StopRule(at_absorption=True) if rep % 2
                    else StopRule(at_time=0.6))
            _, traj = run_until(initial_state(tensors[0], eta), params,
                                stop, replica_rng(59, rep))
            for _ in range(2):
                for f in tensors:
                    for exact in (True, False):
                        fresh = Trajectory(traj.events, traj.truncated,
                                           traj.stop_time)
                        self._assert_same(
                            replay(f, eta, traj, params, exact=exact),
                            replay(f, eta, fresh, params, exact=exact),
                            exact)
            assert list(traj._decoded) == [eta]

    def test_kept_path_outside_eq_hash_repr_pickle_and_replace(self):
        params, eta = kingman_model(), (1, 2, 1)
        f = indicator_power(3)
        _, traj = run_until(initial_state(f, eta), params,
                            StopRule(at_time=0.7), replica_rng(61, 0))
        fresh = Trajectory(traj.events, traj.truncated, traj.stop_time)
        before = (repr(traj), hash(traj), pickle.dumps(traj))
        state = replay(f, eta, traj, params)
        assert traj._decoded and not fresh._decoded
        assert traj == fresh and hash(traj) == hash(fresh)
        assert (repr(traj), hash(traj), pickle.dumps(traj)) == before
        assert repr(traj) == repr(fresh) and "_decoded" not in repr(traj)
        assert pickle.dumps(traj) == pickle.dumps(fresh)
        for back in (pickle.loads(pickle.dumps(traj)), copy.copy(traj)):
            assert back == traj and back._decoded == {}
            assert replay(f, eta, back, params) == state
        moved = replace_record(traj, stop_time=0.9)
        assert moved._decoded == {}
        assert replay(f, eta, moved, params) == replay(
            f, eta, Trajectory(traj.events, traj.truncated, 0.9), params)
        assert replay(f, eta, traj, params) == state
        with pytest.raises(ValueError, match="_decoded"):
            replace_record(traj, _decoded={})

    @pytest.mark.parametrize("name", ["kingman", "atom", "sweep10"])
    @pytest.mark.parametrize("t", [0.3, 2.0, None])
    def test_both_readers_of_a_path_agree(self, monkeypatch, name, t):
        # the skeleton `genealogical_evaluate`'s chain builds on a stream
        # is the decoded skeleton of the path `run_until` records on it
        params, eta = _frozen_model(name)
        f = indicator_power(len(eta))
        seen = []
        leaf_value = simulator._leaf_value

        def keep(chain, *args):
            seen.append((list(chain.payload), chain.clock, chain.events,
                         tuple(chain.labels)))
            return leaf_value(chain, *args)

        monkeypatch.setattr(simulator, "_leaf_value", keep)
        mu = (BaseMeasure.uniform(), BaseMeasure.uniform())
        genealogical_evaluate(f, eta, mu, t, 12, params, 67)
        stop = StopRule(at_time=t, at_absorption=t is None)
        merges = 0
        for rep, (steps, clock, events, labels) in enumerate(seen):
            _, traj = run_until(initial_state(f, eta), params, stop,
                                replica_rng(67, rep))
            skeleton, lp, decoded_clock, count = simulator._decode(traj, eta)
            assert [s.hex() if type(s) is float else s for s in skeleton] \
                == [s.hex() if type(s) is float else s for s in steps]
            assert decoded_clock.hex() == clock.hex()
            assert count == events == len(traj.events)
            assert lp.labels == labels
            merges += sum(type(s) is list for s in steps)
        assert len(seen) == 12 and merges > 0


def _reference_replay(f, eta, trajectory, params, exact):
    """`replay` with the payload as reduced `SetFunction`s, advanced by
    `axpy` and merged by `multiply` at every event: the oracle for the
    flat coefficient lists of the kernel. Returns labels and factors."""
    spec = params.mutation
    blocks, labels = singleton_partition(len(eta)), tuple(eta)
    factors, clock = list(f.factors), 0.0

    def advance(factors, dt):
        p = decay_factor(spec.theta, dt, exact=exact)
        return [g.axpy(p, (1 - p) * spec.base.integrate(g)) for g in factors]

    for ev in trajectory.events:
        factors = advance(factors, ev.dt)
        clock += ev.dt
        if ev.kind == "migration":
            labels = _relabel(labels, ev.detail,
                              1 if ev.colony == 2 else 2)
            continue
        blocks, labels, groups = _coag_colony(blocks, labels, ev.colony,
                                              ev.detail)
        merged = []
        for group in groups:
            g = factors[group[0]]
            for j in group[1:]:
                g = multiply(g, factors[j])
            merged.append(g)
        factors = merged
    if trajectory.stop_time is not None:
        factors = advance(factors, trajectory.stop_time - clock)
    return labels, tuple(factors)


@st.composite
def replay_case(draw):
    """A recorded path of a random model for exact replay: mutation rate 0
    (decay factor exactly 1) or not, a uniform base or one on a level-2
    grid with an atom, 1 to 4 factors at levels 0 to 2, colony laws at
    levels 0 to 3 (finer than the run) with or without an atom, and a path
    run to absorption under criterion 8's event cap or stopped at a time.
    Some holding times are set to 0."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    theta = draw(st.sampled_from([F(0), F(1), F(3, 2)]))
    base = draw(st.sampled_from([BaseMeasure.uniform(),
                                 TestFlatPayload.FINE_BASE]))
    # slow coalescence and fast migration make longer paths; the longest,
    # past criterion 8's 134 events, are in the long-path test below
    xi = draw(st.sampled_from([random_xi(rng), XiMeasure(F(1, 4))]))
    u1, u2 = (draw(st.sampled_from([F(1, 2), F(2), F(4)]))
              for _ in range(2))
    params = ModelParams(xi, MutationSpec(theta, base=base), u1, u2, 8)
    coeff = st.fractions(-2, 2, max_denominator=9)
    factors = []
    for _ in range(draw(st.integers(1, 4))):
        level = draw(st.integers(0, 2))
        factors.append(SetFunction(level, tuple(draw(st.lists(
            coeff, min_size=1 << level, max_size=1 << level)))))
    f = TensorFunction(tuple(factors))
    eta = tuple(draw(st.lists(st.sampled_from([1, 2]), min_size=f.arity,
                              max_size=f.arity)))
    absorb = params.xi.total_mass > 0 and draw(st.booleans())
    stop = (StopRule(at_absorption=True, max_events=10_000) if absorb
            else StopRule(at_time=draw(st.sampled_from([0.0, 0.4, 2.5]))))
    _, traj = run_until(initial_state(f, eta), params, stop, rng)
    zero = draw(st.sets(st.integers(0, 7)))
    traj = Trajectory(tuple(ev._replace(dt=0.0) if i % 8 in zero else ev
                            for i, ev in enumerate(traj.events)),
                      traj.truncated, traj.stop_time)
    laws = [BaseMeasure.uniform(), BaseMeasure(1, (F(3, 2), F(1, 2))),
            BaseMeasure(1, (F(1, 2), F(1)), ((F(1, 4), F(1, 4)),)),
            BaseMeasure(3, tuple(F(k, 4) for k in (1, 7, 2, 6, 3, 5, 4, 4)))]
    mu = (draw(st.sampled_from(laws)), draw(st.sampled_from(laws)))
    return params, f, eta, traj, mu


class TestFlatPayload:
    """The kernel keeps one coefficient list per block at one grid level
    per run; replaying recorded paths through it and through the reduced
    `SetFunction` reference gives equal Fraction results and float results
    within 1e-12 relative."""

    # the base of the second model: density on a level-2 grid plus an atom
    FINE_BASE = BaseMeasure(2, (F(1, 2), F(1, 2), F(1), F(1)),
                            ((F(1, 3), F(1, 4)),))

    def _cases(self):
        atom = ModelParams(ATOM_HALF_QUARTER,
                           MutationSpec(F(1), base=BaseMeasure.uniform()),
                           F(1), F(2), 6)
        fine = ModelParams(ATOM_HALF_QUARTER,
                           MutationSpec(F(3, 2), base=self.FINE_BASE),
                           F(1), F(1, 2), 6)
        # factors at levels 0 and 1 under a level-2 base
        mixed = TensorFunction((
            SetFunction.indicator(E_STAR), SetFunction.constant(F(3, 2)),
            SetFunction(1, (F(1, 3), F(2))),
            SetFunction.indicator(E_STAR.complement())))
        law = BaseMeasure(1, (F(3, 2), F(1, 2)))
        # a colony law at level 3, finer than the run's level 2
        fine_law = BaseMeasure(3, tuple(F(k, 4) for k in (1, 7, 2, 6, 3, 5,
                                                          4, 4)))
        # level-0 factors under a level-0 base in a level-2 run: their
        # integrals sum four equal cells, so float results may differ from
        # the reference in the last bit
        coarse = TensorFunction((
            SetFunction.indicator(DyadicSet(2, frozenset({1, 2}))),
            SetFunction.constant(F(3, 7)), SetFunction(1, (F(1, 3), F(2))),
            SetFunction.constant(F(5, 3))))
        skewed = (law, BaseMeasure(1, (F(1, 2), F(3, 2))))
        return [(atom, indicator_power(4), (1, 1, 2, 2), skewed),
                (fine, mixed, (1, 2, 1, 2), (fine_law, self.FINE_BASE)),
                (atom, coarse, (1, 2, 1, 2), skewed)]

    def _paths(self, params, f, eta):
        for rep in range(12):
            stop = (StopRule(at_absorption=True) if rep % 2
                    else StopRule(at_time=0.6))
            _, traj = run_until(initial_state(_floated(f), eta), params,
                                stop, replica_rng(31, rep))
            assert not traj.truncated
            yield traj

    def test_fraction_replay_equals_reference(self):
        for params, f, eta, mu in self._cases():
            for traj in self._paths(params, f, eta):
                state = replay(f, eta, traj, params, exact=True)
                labels, factors = _reference_replay(f, eta, traj, params,
                                                    exact=True)
                assert state.lp.labels == labels
                assert state.y.factors == factors
                assert evaluate_dual(state, mu) == \
                    evaluate_dual(initial_state(TensorFunction(factors),
                                                labels), mu)

    def test_float_coefficients_replay_exactly(self):
        # a float is a dyadic rational: exact replay converts it exactly,
        # as if the tensor held Fraction(c), and returns Fractions
        for params, f, eta, mu in self._cases():
            ff = _floated(f)
            fq = TensorFunction(tuple(
                SetFunction(g.level, tuple(F(c) for c in g.coeffs))
                for g in ff.factors))
            for traj in self._paths(params, f, eta):
                state = replay(ff, eta, traj, params, exact=True)
                assert state == replay(fq, eta, traj, params, exact=True)
                assert all(type(c) is F
                           for g in state.y.factors for c in g.coeffs)

    @given(case=replay_case())
    @settings(max_examples=60, deadline=None)
    def test_exact_replay_equals_reference_on_random_paths(self, case):
        params, f, eta, traj, mu = case
        state = replay(f, eta, traj, params, exact=True)
        labels, factors = _reference_replay(f, eta, traj, params,
                                            exact=True)
        assert state.lp.labels == labels
        assert state.y.factors == factors
        assert evaluate_dual(state, mu) == evaluate_dual(
            initial_state(TensorFunction(factors), labels), mu)

    def test_exact_replay_equals_reference_on_long_paths(self):
        # absorbing paths longer than criterion 8's longest (134 events),
        # whose payload denominators reach tens of thousands of bits
        params = ModelParams(XiMeasure(F(1, 4)),
                             MutationSpec(F(1), base=self.FINE_BASE),
                             F(4), F(4), 8)
        f, eta = self._cases()[1][1], (1, 2, 1, 2)
        lengths = []
        for rep in range(3):
            _, traj = run_until(initial_state(f, eta), params,
                                StopRule(at_absorption=True,
                                         max_events=10_000),
                                replica_rng(5, rep))
            lengths.append(len(traj.events))
            state = replay(f, eta, traj, params, exact=True)
            assert (state.lp.labels, state.y.factors) == _reference_replay(
                f, eta, traj, params, exact=True)
        assert max(lengths) > 134

    def test_float_replay_within_1e12_of_reference(self):
        for params, f, eta, mu in self._cases():
            ff = _floated(f)
            for traj in self._paths(params, f, eta):
                state = replay(ff, eta, traj, params, exact=False)
                labels, factors = _reference_replay(ff, eta, traj, params,
                                                    exact=False)
                assert state.lp.labels == labels
                for g, h in zip(state.y.factors, factors):
                    level = max(g.level, h.level)
                    for a, b in zip(g._coeffs_at(level),
                                    h._coeffs_at(level)):
                        assert a == pytest.approx(b, rel=1e-12)
                value = evaluate_dual(state, mu)
                ref = evaluate_dual(initial_state(TensorFunction(factors),
                                                  labels), mu)
                assert value == pytest.approx(ref, rel=1e-12)


def _replayed_payload(f, eta, traj, params):
    """The exact payload of `replay(f, eta, traj, params)`, driven by the
    same chain operations."""
    payload = simulator._ExactPayload(
        simulator._start(f.factors, params.mutation.base, exact=True),
        params._tables[2])
    chain = simulator._Chain(singleton_partition(len(eta)), eta, payload)
    for ev in traj.events:
        chain.advance(ev.dt)
        chain.apply(ev.kind, ev.colony, ev.detail)
    if traj.stop_time is not None:
        chain.advance_to(traj.stop_time)
    return payload


class TestIntegerPairing:
    """`evaluate_dual` pairs a rational state's blocks as integers and
    builds one Fraction; it equals the frozen product of the blocks'
    Fractions (`reference_evaluate_dual`), and a state with floats keeps
    that product's bits. The exact payload reduces its states on integer
    numerators."""

    @given(case=replay_case())
    @settings(max_examples=60, deadline=None)
    def test_pairing_equals_reference(self, case):
        params, f, eta, traj, mu = case
        state = replay(f, eta, traj, params, exact=True)
        value = evaluate_dual(state, mu)
        assert type(value) is F
        assert value == reference_evaluate_dual(state, mu)
        state = replay(f, eta, traj, params, exact=False)
        value = evaluate_dual(state, mu)
        assert type(value) is float
        assert value.hex() == reference_evaluate_dual(state, mu).hex()

    def test_mixed_state_keeps_the_product_bits(self):
        # a float block after rational ones: the Fractions multiply first,
        # then the float
        law = BaseMeasure(1, (F(1, 2), F(1)), ((F(1, 4), F(1, 4)),))
        mu = (law, BaseMeasure(3, tuple(F(k, 4) for k in (1, 7, 2, 6, 3,
                                                           5, 4, 4))))
        factors = (SetFunction(1, (F(1, 3), F(2))), SetFunction.constant(3),
                   SetFunction(2, (0.1, 0.7, -0.3, 1.9)))
        for eta in [(1, 2, 1), (2, 1, 2), (1, 1, 2)]:
            state = initial_state(TensorFunction(factors), eta)
            value = evaluate_dual(state, mu)
            assert type(value) is float
            assert value.hex() == reference_evaluate_dual(state, mu).hex()

    @given(case=replay_case())
    @settings(max_examples=40, deadline=None)
    def test_set_functions_reduce_on_integers(self, case):
        params, f, eta, traj, _ = case
        payload = _replayed_payload(f, eta, traj, params)
        assert payload.set_functions() == tuple(
            SetFunction(payload.level, tuple(F(n, d) for n in g))
            for g, d in zip(payload.factors(), payload.dens))

    def test_state_reducing_to_level_0(self):
        # constant factors in a level-2 run (the base's grid) reduce to
        # level 0, on their own and after merging
        params = ModelParams(ATOM_HALF_QUARTER,
                             MutationSpec(F(1),
                                          base=TestFlatPayload.FINE_BASE),
                             F(1), F(2), 6)
        f = TensorFunction((SetFunction.constant(F(3, 7)),
                            SetFunction.constant(F(-2)),
                            SetFunction(1, (F(5, 3), F(5, 3)))))
        eta = (1, 1, 2)
        for rep in range(6):
            stop = (StopRule(at_absorption=True) if rep % 2
                    else StopRule(at_time=0.5))
            _, traj = run_until(initial_state(f, eta), params, stop,
                                replica_rng(43, rep))
            payload = _replayed_payload(f, eta, traj, params)
            assert payload.level == 2
            factors = payload.set_functions()
            assert {g.level for g in factors} == {0}
            assert factors == tuple(
                SetFunction(2, tuple(F(n, d) for n in g))
                for g, d in zip(payload.factors(), payload.dens))
            assert replay(f, eta, traj, params).y.factors == factors


def _distinct(f):
    """A tensor equal to f whose factors are distinct objects."""
    return TensorFunction(tuple(SetFunction(x.level, x.coeffs)
                                for x in f.factors))


class TestRepeatedFactors:
    """A payload starts each distinct factor object once per call and
    keeps nothing after it, the exact payload's states share one
    `SetFunction` among equal blocks, and `evaluate_dual` pairs each
    distinct factor object once per colony; a tensor that repeats one
    factor object runs, replays and pairs as one made of equal but
    distinct objects, on both payloads and through `run_until`."""

    MU = (BaseMeasure(1, (F(3, 2), F(1, 2))), TestFlatPayload.FINE_BASE)

    def _assert_same_value(self, state):
        mu = self.MU
        value = evaluate_dual(state, mu)
        again = evaluate_dual(DualState(state.lp, _distinct(state.y)), mu)
        assert value == again
        if type(value) is float:
            assert value.hex() == again.hex()

    def test_repeated_object_equals_distinct_objects(self):
        params = ModelParams(ATOM_HALF_QUARTER,
                             MutationSpec(F(3, 2),
                                          base=TestFlatPayload.FINE_BASE),
                             F(1), F(1, 2), 6)
        g, h = SetFunction(1, (F(1, 3), F(2))), SetFunction.indicator(E_STAR)
        fg = SetFunction(g.level, tuple(map(float, g.coeffs)))
        eta = (1, 2, 1, 2)
        for same in (TensorFunction((g, h, g, g)),
                     TensorFunction((fg, h, fg, fg))):
            distinct = _distinct(same)
            assert distinct == same
            assert len(set(map(id, distinct.factors))) == 4
            self._assert_same_value(initial_state(same, eta))
            for rep in range(8):
                stop = (StopRule(at_absorption=True) if rep % 2
                        else StopRule(at_time=0.6))
                runs = [run_until(initial_state(t, eta), params, stop,
                                  replica_rng(47, rep))
                        for t in (same, distinct)]
                assert runs[0] == runs[1]
                assert _bits(g.coeffs for g in runs[0][0].y.factors) == \
                    _bits(g.coeffs for g in runs[1][0].y.factors)
                traj = runs[0][1]
                for exact in (False, True):
                    a, b = (replay(t, eta, traj, params, exact=exact)
                            for t in (same, distinct))
                    assert a == b
                    if not exact:
                        assert _bits(g.coeffs for g in a.y.factors) == \
                            _bits(g.coeffs for g in b.y.factors)
                    self._assert_same_value(a)

    def test_each_call_starts_each_factor_once(self, monkeypatch):
        params, eta = kingman_model(), (1, 2, 1)
        g, h = SetFunction(1, (F(1, 3), F(2))), SetFunction.indicator(E_STAR)
        f = TensorFunction((g, h, g))
        _, traj = run_until(initial_state(f, eta), params,
                            StopRule(at_time=0.6), replica_rng(71, 0))
        starts = []
        coeffs_at = SetFunction._coeffs_at

        def counted(factor, level):
            starts.append(factor)
            return coeffs_at(factor, level)

        # each payload start reads a factor's cells once
        monkeypatch.setattr(SetFunction, "_coeffs_at", counted)
        for call in (lambda: run_until(initial_state(f, eta), params,
                                       StopRule(at_time=0.6),
                                       replica_rng(71, 0)),
                     lambda: replay(f, eta, traj, params, exact=False),
                     lambda: replay(f, eta, traj, params, exact=True)):
            starts.clear()
            call()
            assert list(map(id, starts)) == [id(g), id(h)]
            # a second call starts them again
            call()
            assert list(map(id, starts)) == [id(g), id(h)] * 2

    def test_equal_exact_blocks_share_a_set_function(self):
        # blocks that start from one factor and do not merge stay equal
        params = kingman_model()
        f, eta = indicator_power(4), (1, 2, 1, 2)
        shared = 0
        for rep in range(10):
            _, traj = run_until(initial_state(f, eta), params,
                                StopRule(at_time=0.3), replica_rng(53, rep))
            factors = replay(f, eta, traj, params).y.factors
            assert len(set(map(id, factors))) == len(set(factors))
            shared += len(factors) - len(set(factors))
        assert shared > 0


class TestChainStates:
    """The states of `run_until`, `replay` and `dual_generator_value` are
    built without re-checks; each equals what the validating constructors
    build from the same parts."""

    @staticmethod
    def _assert_checked(state):
        lp = state.lp
        assert LabeledPartition(lp.partition, lp.labels) == lp
        for g in state.y.factors:
            assert type(g.coeffs) is tuple
            assert SetFunction(g.level, g.coeffs) == g

    @given(case=replay_case())
    @settings(max_examples=40, deadline=None)
    def test_replay_and_run_until_states(self, case):
        params, f, eta, traj, _ = case
        for exact in (True, False):
            self._assert_checked(replay(f, eta, traj, params, exact=exact))
        state, _ = run_until(initial_state(f, eta), params,
                             StopRule(at_time=0.4), random.Random(3))
        self._assert_checked(state)

    def test_dual_generator_states(self, monkeypatch):
        states = []
        chain_state = simulator._Chain.state

        def keep(chain):
            states.append(chain_state(chain))
            return states[-1]

        monkeypatch.setattr(simulator._Chain, "state", keep)
        base = TestFlatPayload.FINE_BASE
        params = ModelParams(SWEEP, MutationSpec(F(1), base=base), F(1),
                             F(2), 6)
        f = TensorFunction((SetFunction(1, (F(1, 3), F(2))),
                            SetFunction.constant(F(3, 7)),
                            SetFunction.indicator(E_STAR),
                            SetFunction(2, (F(1), F(1), F(2), F(2)))))
        mu = (BaseMeasure.uniform(), base)
        dual_generator_value(f, (1, 1, 2, 1), mu, params)
        # the four partitions of colony 1's three ranks that merge, and
        # one migration per block
        assert len(states) == 8
        for state in states:
            self._assert_checked(state)


class TestDualGenerator:
    def test_matches_scalar_generator_on_monomials(self):
        # route 1: the simulator's generator applied to the duality
        # functional; route 2: the moment engine's linear form evaluated
        # at the same measures
        from xistep.moments import generator_on_monomial
        params = kingman_model(u1=F(2), u2=F(1))
        mu1 = BaseMeasure(1, (F(3, 2), F(1, 2)))
        mu2 = BaseMeasure(1, (F(1, 2), F(3, 2)))
        sp = kingman_scalar(u1=F(2), u2=F(1))
        for n, m in [(1, 0), (2, 0), (1, 1), (2, 1)]:
            f, eta = indicator_power(n + m), (1,) * n + (2,) * m
            lhs = dual_generator_value(f, eta, (mu1, mu2), params)
            vals = {(i, j): mu1.measure(E_STAR) ** i * mu2.measure(E_STAR) ** j
                    for i in range(5) for j in range(5)}
            rhs = generator_on_monomial((n, m), sp).evaluate(vals)
            assert lhs == rhs

    @pytest.mark.parametrize("name", ["atom", "sweep", "mc_stationary"])
    def test_matches_scalar_generator_with_multiple_mergers(self, name):
        # atom measures: multiple and simultaneous mergers reach both
        # routes, the exact chain with the rate table and the moment
        # engine's drop rates
        from xistep.moments import generator_on_monomial
        xi = {"atom": ATOM_HALF_QUARTER, "sweep": SWEEP,
              "mc_stationary": XiMeasure(F(1, 2),
                                         ATOM_HALF_QUARTER.atoms)}[name]
        base = BaseMeasure.uniform()
        params = ModelParams(xi, MutationSpec(F(1), base=base), F(2), F(1),
                             5)
        sp = ScalarParams.from_rate_table(build_rate_table(xi, 5), F(1),
                                          base.measure(E_STAR), F(2), F(1))
        mu1 = BaseMeasure(1, (F(3, 2), F(1, 2)))
        mu2 = BaseMeasure(1, (F(1, 4), F(7, 4)))
        vals = {(i, j): mu1.measure(E_STAR) ** i * mu2.measure(E_STAR) ** j
                for i in range(6) for j in range(6)}
        for n, m in [(2, 0), (3, 0), (2, 1), (4, 0), (2, 2), (3, 2)]:
            f, eta = indicator_power(n + m), (1,) * n + (2,) * m
            lhs = dual_generator_value(f, eta, (mu1, mu2), params)
            assert lhs == generator_on_monomial((n, m), sp).evaluate(vals)

    def test_colony_past_b_max_refused(self):
        # the partitions' rates come from the model's table, which covers
        # b_max blocks per colony: a split of more blocks is read from it,
        # a colony of more is refused naming b_max
        mu = (BaseMeasure.uniform(), BaseMeasure.uniform())
        f = indicator_power(4)
        assert dual_generator_value(f, (1, 1, 2, 2), mu,
                                    kingman_model(b_max=2)) \
            == dual_generator_value(f, (1, 1, 2, 2), mu, kingman_model())
        with pytest.raises(ValueError, match="b_max=3"):
            dual_generator_value(f, (1, 1, 1, 1), mu, kingman_model(b_max=3))
