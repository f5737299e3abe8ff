import bisect
import functools
import hashlib
import math
import random
import statistics
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from xistep import (BaseMeasure, DyadicSet, ModelParams, MutationSpec,
                    SetFunction, StopRule, TensorFunction, XiMeasure,
                    estimate_Qt, estimate_stationary, evaluate_dual,
                    initial_state, replay, run_until, solve_stationary)
from xistep import build_rate_table, simulator
from xistep.simhelpers import (coupling_linearity_holds, normalization_holds,
                               random_model, random_xi)
from xistep.partitions import COLONY_1, COLONY_2, singleton_partition
from xistep.setfun import decay_factor, float_sum
from xistep.simulator import (EventRecord, Trajectory, dual_generator_value,
                              genealogical_evaluate, replica_rng)

from conftest import ATOM_HALF_QUARTER, E_STAR, KINGMAN, STAR, SWEEP, \
    indicator_power, kingman_model, kingman_scalar, seeded

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
    lists = tuple(g._coeffs_at(level) for g in factors)
    floats = all(type(c) is float for g in lists for c in g)
    return (level, lists,
            base.float_integrator(level) if floats
            else functools.partial(base.integrate_cells, level))


class _FrozenChain:
    """The float payload or skeleton run of the frozen loop."""

    def __init__(self, state, params, start):
        self.blocks, self.labels = state.lp.partition, tuple(state.lp.labels)
        self.theta = params._tables[2]
        if start is None:
            self.factors, self.segments = None, []
        else:
            self.level, self.factors, self.integral = start
            self.ints = None
        self.clock, self.events = state.clock, state.events

    def advance(self, dt):
        if self.factors is None:
            self.segments.append((self.blocks, dt))
        else:
            p = math.exp(-self.theta * dt / 2.0)
            q = 1 - p
            if self.ints is None:
                self.ints = [self.integral(g) for g in self.factors]
            self.factors = [[p * v + b for v in g]
                            for g, b in zip(self.factors,
                                            [q * c for c in self.ints])]
        self.clock += dt

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
            merged = []
            for group in groups:
                g = self.factors[group[0]]
                for j in group[1:]:
                    g = [x * y for x, y in zip(g, self.factors[j])]
                merged.append(g)
            self.factors = merged
            self.ints = None


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
            values.append(simulator._leaf_value(chain, leaves, mu, theta,
                                                spec.base, rng))
        else:
            value = 1
            for g, label in zip(chain.factors, chain.labels):
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
    """Stream whose uniform draws all return the largest float below 1."""

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
        expected = SetFunction.indicator(c).axpy(p, (1 - p) * F(1, 2)) \
            .multiply(SetFunction.indicator(d).axpy(p, (1 - p) * F(1, 2)))
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
            chain = simulator._Chain(start, params, simulator._start(
                start.y.factors, params.mutation.base))
            events, truncated = simulator._run(
                chain, params, replica_rng(3, 0), t, t is None,
                simulator.EVENT_CAP, record)
            runs.append((events, truncated, chain.state()))
        (recorded, trunc_a, state_a), (unrecorded, trunc_b, state_b) = runs
        assert len(recorded) == state_a.events > 0 and unrecorded == []
        assert (trunc_a, state_a) == (trunc_b, state_b)

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
    """`run_until` and `replay(exact=False)` on a Fraction tensor: the
    payload turns float once, at the first advance. The digest of the
    states, records and replays on the mc_transition model was taken when
    every advance went through Fraction's float fallback instead, so it
    pins that the conversion keeps every bit."""

    DIGEST = ("8106c6d675c9174b1f4a164782554f561baee4a89a99c04f9c69cf0558f7"
              "1806")

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

    def test_unadvanced_start_stays_rational(self):
        # absorbed at the start: no advance, the Fractions are returned
        state, _ = run_until(initial_state(indicator_power(1), (2,)),
                             kingman_model(), StopRule(at_absorption=True),
                             random.Random(0))
        assert state.y.factors == indicator_power(1).factors
        assert all(type(c) is F for c in state.y.factors[0].coeffs)


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
    measure at 10 and 20 start blocks."""

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
                    state, traj = run_until(state0, params, stop,
                                            replica_rng(7, rep))
                    chain = _FrozenChain(state0, params, _frozen_start(
                        f.factors, params.mutation.base))
                    events, truncated = _frozen_run(
                        chain, params, replica_rng(7, rep), stop.at_time,
                        stop.at_absorption, stop.max_events, record=True)
                    assert [_hexed(r) for r in traj.events] == \
                        [_hexed(r) for r in events]
                    assert traj.truncated == truncated
                    assert state.lp.partition == chain.blocks
                    assert state.lp.labels == chain.labels
                    assert (state.clock.hex(), state.events) == \
                        (chain.clock.hex(), chain.events)
                    assert _bits(g.coeffs for g in state.y.factors) == \
                        _bits(SetFunction(chain.level, tuple(g)).coeffs
                              for g in chain.factors)
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
        for skeleton in (False, True):
            args = (f, eta, mu, t, params, 3, skeleton, 5, 45)
            assert [v.hex() for v in simulator._replica_values(*args)] == \
                [v.hex() for v in _frozen_replica_values(*args)]

    @pytest.mark.parametrize("name", ["atom", "sweep10"])
    def test_skeleton_segments_equal_frozen_loop(self, name):
        params, eta = _frozen_model(name)
        state0 = initial_state(indicator_power(len(eta)), eta)
        for t in (None, 0.0, 0.3, 2.0):
            for rep in range(12):
                chain = simulator._Chain(state0, params, None)
                simulator._run(chain, params, replica_rng(9, rep), t,
                               t is None, simulator.EVENT_CAP)
                frozen = _FrozenChain(state0, params, None)
                _frozen_run(frozen, params, replica_rng(9, rep), t,
                            t is None, simulator.EVENT_CAP)
                assert [(b, dt.hex()) for b, dt in chain.segments] == \
                    [(b, dt.hex()) for b, dt in frozen.segments]
                assert (chain.blocks, tuple(chain.labels)) == \
                    (frozen.blocks, frozen.labels)

    def test_rounding_branch_equals_frozen_loop(self):
        # every uniform at the top: the first coalescence takes the branch
        # where colony 2 has no coalescence rate and rounding leaves pick
        # at rates[2]
        params, eta = _rounding_model()
        state0 = initial_state(indicator_power(3), eta)
        state, traj = run_until(state0, params, StopRule(
            at_time=math.inf, max_events=6), _TopUniform(1))
        chain = _FrozenChain(state0, params, _frozen_start(
            state0.y.factors, params.mutation.base))
        events, truncated = _frozen_run(chain, params, _TopUniform(1),
                                        math.inf, False, 6, record=True)
        assert traj.events[0].kind == "coalescence" and truncated
        assert [_hexed(r) for r in traj.events] == \
            [_hexed(r) for r in events]
        assert state.lp.labels == chain.labels


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
        g = SetFunction.constant(F(2)) + SetFunction.indicator(c).scale(F(3))
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

    def test_zero_mass_refused(self):
        xi = XiMeasure()
        params = ModelParams(xi, MutationSpec(F(1), base=BaseMeasure.uniform()),
                             F(1), F(1), 4)
        with pytest.raises(ValueError):
            estimate_stationary(indicator_power(2), (1, 1),
                                BaseMeasure.uniform(), 10, params, seed=0)


# finite floats whose sample variance stays finite, subnormals included
_FINITE = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False,
                    allow_infinity=False)
_TINY = st.floats(min_value=-1e-300, max_value=1e-300, allow_nan=False)


class TestStdev:
    """The standard error's standard deviation is exact up to one
    rounding on every interpreter, so seeded reports agree under Python
    3.10 and 3.11+."""

    def test_pinned_case_where_python_310_differs(self):
        # `statistics.stdev` of 3.10 gives 0x1.bfd8df179b0bdp-3 here
        assert simulator._stdev([0.082, 0.365, 0.6, 0.458]).hex() == \
            "0x1.bfd8df179b0bep-3"

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="statistics.stdev rounds correctly from 3.11")
    @given(xs=st.one_of(
        st.lists(_FINITE, min_size=2, max_size=40),
        st.lists(_TINY, min_size=2, max_size=40),
        st.lists(st.floats(0, 1), min_size=2, max_size=3),
        st.tuples(_FINITE, st.integers(2, 9)).map(lambda c: [c[0]] * c[1])))
    @settings(max_examples=400, deadline=None)
    def test_equals_statistics_stdev(self, xs):
        assert simulator._stdev(xs) == statistics.stdev(xs)

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="statistics.stdev rounds correctly from 3.11")
    def test_equals_statistics_stdev_on_replica_values(self):
        values = simulator._replica_values(
            indicator_power(4), (1, 1, 2, 2), (BaseMeasure.uniform(),) * 2,
            None, _frozen_model("atom")[0], 4, False, 0, 500)
        assert simulator._stdev(values) == statistics.stdev(values)


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
                    f, eta, laws, t, params, seed, False, 0,
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


class TestReplayRefusesRecords:
    """A record that would replay as a counted event changing nothing is
    refused, on both payloads (Kingman, eta (1, 2))."""

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
        with pytest.raises(ValueError, match=message):
            replay(indicator_power(2), (1, 2), Trajectory((record,)),
                   kingman_model(), exact=exact)

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
                g = g.multiply(factors[j])
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
