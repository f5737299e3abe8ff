"""The labeled-coalescent dual as a simulatable jump chain, with duality
functional evaluation and Monte Carlo moment estimators.

The pieces, and the tests in `tests/test_simulator.py` that hold them:

- `_Chain` is the mutable state of one run: colony labels (a list that
  events change in place), the blocks in least-element order where a
  caller reads them, the clock, the event count and one payload, what
  rides on the blocks. A payload has `advance(dt)` over a holding time
  and `merge(groups)` by one colony's merge groups
  (`partitions.merge_groups`); nothing else of it is read, so it never
  changes the path (`TestPayloadStream`).
- `_run` is the one event loop, behind `run_until` and the estimators;
  a `StopRule` says when it stops. Per event it reads the jump rates
  that `ModelParams` tabulates per pair of colony block counts, draws as
  the stdlib's `expovariate`, `randrange` and `shuffle` do on
  `replica_rng`'s streams, and moves a block or unites merge groups.
  `TestFrozenLoop` holds its records, payload bits, replica values,
  skeleton segments and generator state to a frozen loop that calls the
  stdlib helpers, and `TestEventMix` holds its event mix, absorption time
  and multiple mergers to the exact block-count chain.
- The payloads, which no other module builds. `_FloatPayload`, from
  `_start`, which rounds a rational start once (`TestRationalStart`),
  runs in `run_until`, the estimators and `replay(exact=False)`;
  `_ExactPayload`, integer numerators over one denominator per block, in
  `replay(exact=True)` and `dual_generator_value` (`TestDualGenerator`);
  `_Skeleton` keeps each holding time and each coalescence's merge groups
  for `genealogical_evaluate` (`TestGenealogical`). The two coefficient
  payloads (`_Cells`) hold the blocks' cells one after another at the
  run's grid level (`_run_level`; `TestFlatPayload`), start each distinct
  factor object once per call (`TestRepeatedFactors`), and defer the
  uniform-jump mutation flow to the next coalescence or read, since
  T_s T_t = T_{s+t}; the exact flows compose exactly (`TestDeferredFlow`).
- `replay` drives a fresh payload along a recorded `Trajectory`.
  `_decode` checks its records through `_Chain.apply` once per trajectory
  and eta and keeps the decoded path on the trajectory
  (`TestDecodedPaths`); a bad record is refused on every call
  (`TestReplayRefusesRecords`).
- States. `DualState`, `LabeledPartition`, `TensorFunction` and reduced
  `SetFunction`s are built only where a public function takes or returns
  them, and a chain builds its state without re-checks
  (`TestChainStates`). `evaluate_dual` pairs a rational state on
  integers and builds one Fraction (`TestIntegerPairing`).
- Estimators. `_replica_values` serves `estimate_Qt`,
  `estimate_stationary` and `genealogical_evaluate`: once per call it
  builds the float start and each colony law's pairing (`_float_pairing`)
  or the skeleton's leaf coefficients, then runs each replica on its own
  stream `replica_rng(seed, rep)` and raises when one reaches `EVENT_CAP`
  events instead of returning a value from a truncated path
  (`TestReplicaDriver`). Every seeded report is reproducible, and
  `TestPinnedOutput` in `tests/test_cli.py` pins their digests.
"""

import functools
import math
import random
import statistics
from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction

from .partitions import (COLONY_1, COLONY_2, LabeledPartition, canonical,
                         coagulate, colony_merging, enumerate_partitions,
                         merge_groups, profile_of, singleton_partition,
                         validate_labels, validate_partition)
from .setfun import (SetFunction, TensorFunction, _lift, _reduce_cells,
                     apply_generator_uniform, cell_index, float_sum,
                     weighted_sum)
from .rationals import integer_numerators
from .records import Record, set_field
from .simplex import build_rate_table

# events one run may take: the estimators raise when a replica reaches it,
# and it is `StopRule`'s default cap
EVENT_CAP = 100_000


class ModelParams(Record):
    """Everything the dual generator needs: `xi` (an `XiMeasure`),
    `mutation` (a `MutationSpec`), the migration rates and `b_max`. The
    collision rates of up to `b_max` blocks are tabulated from `xi`
    (`table`, a `RateTable`), and from them the jump rates of every split
    of up to `b_max` blocks between the colonies."""

    _fields = ("xi", "mutation", "u1", "u2", "b_max")

    def __init__(self, xi, mutation, u1, u2, b_max):
        rates = []
        for name, u in (("u1", u1), ("u2", u2)):
            u = Fraction(u)
            if u <= 0:
                raise ValueError(f"migration rate {name} must be positive, "
                                 f"got {u}")
            rates.append(u)
        u1, u2 = rates
        table = build_rate_table(xi, b_max)
        profs = {}
        for b in range(2, b_max + 1):
            rows = [(prof, float(rate * mult))
                    for prof, rate, mult in table.profiles(b)
                    if rate > 0]
            cum, acc = [], 0.0
            for _, w in rows:
                acc += w
                cum.append(acc)
            profs[b] = ([p for p, _ in rows], cum, acc)
        fu1, fu2 = float(u1), float(u2)
        jump = []
        for n1 in range(b_max + 1):
            row = []
            for n2 in range(b_max + 1 - n1):
                rates = (n2 * fu1, n1 * fu2,
                         profs[n1][2] if n1 >= 2 else 0.0,
                         profs[n2][2] if n2 >= 2 else 0.0)
                row.append((rates,
                            rates[0] + rates[1] + rates[2] + rates[3]))
            jump.append(row)
        set_field(self, "xi", xi)
        set_field(self, "mutation", mutation)
        set_field(self, "u1", u1)
        set_field(self, "u2", u2)
        set_field(self, "b_max", b_max)
        set_field(self, "table", table)
        # per colony block counts (`[n1][n2]`) the four float event rates
        # (migration out of colony 2, u1 per block, and out of colony 1, u2
        # per block; coalescence in colony 1 and in colony 2) and their sum
        # added left to right, the jump rate; per block count the
        # positive-rate coalescence profiles with cumulative float weights;
        # the float mutation rate
        set_field(self, "_tables", (jump, profs, float(mutation.theta)))


class DualState(Record):
    """A labeled partition `lp` and the tensor `y` on its blocks, at
    `clock` after `events` events."""

    _fields = ("lp", "y", "clock", "events")

    def __init__(self, lp, y, clock=0.0, events=0):
        _check_arity(y, lp.block_count)
        set_field(self, "lp", lp)
        set_field(self, "y", y)
        set_field(self, "clock", clock)
        set_field(self, "events", events)


def _check_arity(f, blocks):
    if f.arity != blocks:
        raise ValueError("tensor arity must equal block count")


def initial_state(f, eta):
    """Dual started from n singleton blocks labeled by eta carrying f."""
    lp = LabeledPartition(singleton_partition(len(eta)), tuple(eta))
    return DualState(lp, f)


# kind is "coalescence" or "migration"; colony is the colony coalescing,
# or the colony of origin; detail is the concrete pi_prime, or the 1-based
# block index; block_count is the count after the event
EventRecord = namedtuple("EventRecord", "time dt kind colony detail "
                         "block_count")


class McEstimate(Record):
    _fields = ("mean", "std_error", "replicas", "seed")

    def __init__(self, mean, std_error, replicas, seed):
        set_field(self, "mean", mean)
        set_field(self, "std_error", std_error)
        set_field(self, "replicas", replicas)
        set_field(self, "seed", seed)


def replica_rng(seed, replica):
    """Independent deterministic stream per replica."""
    return random.Random(f"xistep:{seed}:{replica}")


def _run_level(factors, base):
    """A run's grid level: the highest of the factors' levels and the
    base's."""
    return max(base.grid_level, *(g.level for g in factors))


def _start(factors, base, exact=False):
    """The start of a payload for a tensor's factors under the mutation
    base `base`: the run's level, the factors' cells at it one block after
    another, the base's integral of one block and each block's integral
    once per cell (and, if `exact`, each block's denominator and the base
    weights'; `_ExactPayload`), in one pass over the factors that starts
    each distinct factor object once; nothing is kept after the call. A
    float start rounds cells to float once; a rational factor's integral
    is paired on integers (`integral_ratio`) and rounded once, as `n / d`,
    which has the bits of `float(Fraction(n, d))`, and a float one's takes
    `float_integrator`. That gives the bits of advancing a rational start:
    `p * v` for a float p and a Fraction v is `p * float(v)`. Payloads may
    share a start: advance and merge build new lists."""
    level = _run_level(factors, base)
    if exact:
        weights, scale = base.exact_weights(level)
        integral = functools.partial(weighted_sum, weights)
    else:
        integral = base.float_integrator(level)
    cells, dens, ints, done = [], [], [], {}
    for g in factors:
        # a tensor may repeat one factor, as an indicator power does
        start = done.get(id(g))
        if start is None:
            coeffs = g._coeffs_at(level)
            if exact:
                cs, den = integer_numerators(coeffs)
                start = cs, den, integral(cs)
            elif any(type(c) is float for c in coeffs):
                start = [float(c) for c in coeffs], None, integral(coeffs)
            else:
                n, d = base.integral_ratio(level, coeffs)
                start = [float(c) for c in coeffs], None, n / d
            done[id(g)] = start
        cells += start[0]
        dens.append(start[1])
        ints += [start[2]] * len(start[0])
    return (level, cells, integral, ints) + ((dens, scale) if exact else ())


class _Cells:
    """A coefficient payload: the blocks' coefficient lists one after
    another in `cells`, `width` cells each at the run's grid level, `ints`,
    each block's base integral once per cell, and the deferred flow:
    `advance` only adds to `pending`, and the first `merge` or `factors`
    after it runs the flow once (`flow`), which keeps `ints`."""

    __slots__ = ("level", "width", "cells", "ints", "integral", "theta",
                 "pending")

    def merge(self, groups):
        """The blocks united by `groups` (see `merge_groups`) after the
        pending flow: per group the cellwise product of its blocks, in
        block order. A block that merges with no other keeps its
        integral; a merged group's is computed (`integral`)."""
        if self.pending != self.idle:
            self.flow()
        cells, ints, width = self.cells, self.ints, self.width
        merged, merged_ints = [], []
        for group in groups:
            i = group[0] * width
            if len(group) == 1:
                merged += cells[i:i + width]
                merged_ints += ints[i:i + width]
                continue
            g = cells[i:i + width]
            for j in group[1:]:
                j *= width
                g = [x * y for x, y in zip(g, cells[j:j + width])]
            merged += g
            merged_ints += [self.integral(g)] * width
        self.cells, self.ints = merged, merged_ints

    def factors(self):
        """The coefficient list of each block after the pending flow, in
        block order."""
        if self.pending != self.idle:
            self.flow()
        w = self.width
        return [self.cells[i:i + w] for i in range(0, len(self.cells), w)]


class _FloatPayload(_Cells):
    """The float payload of `run_until`, the estimators and
    `replay(exact=False)`, from a start (`_start`) under the float
    mutation rate `theta`; `pending` is the time since the last flow."""

    __slots__ = ()
    idle = 0.0

    def __init__(self, start, theta):
        self.level, self.cells, self.integral, self.ints = start
        self.width, self.theta, self.pending = 1 << self.level, theta, 0.0

    def advance(self, dt):
        """The mutation semigroup over dt, deferred: the flows of
        consecutive holding times compose to the flow of their sum."""
        self.pending += dt

    def flow(self):
        """The mutation semigroup over the pending time s,
        g -> p g + (1 - p) <base, g> with p = exp(-theta s / 2), cell by
        cell. Each block's integral is invariant under the flow (a convex
        combination with that same integral), so `ints` stays."""
        p = math.exp(-self.theta * self.pending / 2.0)
        q = 1 - p
        self.cells = [p * v + q * c for v, c in zip(self.cells, self.ints)]
        self.pending = 0.0

    def set_functions(self):
        """The payload as reduced `SetFunction`s, in block order, each
        reduced once (`_reduce_cells`) and built without a re-check."""
        level, reduced = self.level, SetFunction._reduced
        return tuple(reduced(*_reduce_cells(level, g))
                     for g in self.factors())


class _ExactPayload(_Cells):
    """The exact payload of `replay(exact=True)` and
    `dual_generator_value`: per block, integer numerators N_i over one
    integer denominator D, read as the coefficients N_i / D. Its start
    (`_start`) converts coefficients exactly (`integer_numerators`;
    floats are dyadic rationals). The base integral is J / (D K), J the
    integer dot product (`weighted_sum`) with the base's `exact_weights`
    over their denominator K; `ints` holds J. A float decay factor is the
    dyadic rational a / 2^k, and `pending` is (A, T), the product of the
    pending holding times' a / 2^k, (1, 1) when none is. Fractions are
    built only by `set_functions`."""

    __slots__ = ("scale", "dens")
    idle = (1, 1)

    def __init__(self, start, theta):
        (self.level, self.cells, self.integral, self.ints, self.dens,
         self.scale) = start
        self.width, self.theta, self.pending = 1 << self.level, theta, (1, 1)

    def advance(self, dt):
        """The mutation semigroup over dt, deferred: the decay factors of
        consecutive holding times multiply exactly."""
        # p = exp(-theta dt / 2) = a / 2^k
        a, two_k = math.exp(-self.theta * float(dt) / 2.0) \
            .as_integer_ratio()
        A, T = self.pending
        self.pending = (A * a, T * two_k)

    def flow(self):
        """g -> p g + (1 - p) <base, g> with p = A / T as
        N -> A K N + (T - A) J over D -> T K D; the integral stays, so its
        numerator over the new D K is T K J."""
        A, T = self.pending
        a, b, tk = A * self.scale, T - A, T * self.scale
        self.cells = [a * v + b * j for v, j in zip(self.cells, self.ints)]
        self.ints = [tk * j for j in self.ints]
        self.dens = [tk * d for d in self.dens]
        self.pending = self.idle

    def merge(self, groups):
        """`_Cells.merge`, then per group the product of its blocks'
        denominators."""
        super().merge(groups)
        self.dens = [math.prod([self.dens[j] for j in g]) for g in groups]

    def set_functions(self):
        """The payload as reduced `SetFunction`s, in block order. A block's
        numerators share one denominator, so equal numerators are equal
        coefficients: the grid level is reduced on the integers, and one
        Fraction is built per cell kept. Blocks with equal numerators and
        denominator share one `SetFunction`: the flow is the same for
        every block, so blocks that started from one factor and have not
        merged since stay equal. The reduction is the one the set function
        needs, so it is built without a re-check."""
        made, out = {}, []
        for g, d in zip(self.factors(), self.dens):
            key = (d, *g)
            if key not in made:
                level, nums = _reduce_cells(self.level, g)
                made[key] = SetFunction._reduced(
                    level, tuple([Fraction(n, d) for n in nums]))
            out.append(made[key])
        return tuple(out)


class _Skeleton(list):
    """The genealogical skeleton's payload: the run's segments, each
    holding time and, after each coalescence, its merge groups."""

    advance = merge = list.append


class _Chain:
    """Mutable state of one run of the dual (see the module docstring):
    labels, blocks, clock, event count and the payload. The labels are a
    list that events change in place; the blocks are kept by `apply`, and
    by `_run` only when it records."""

    def __init__(self, blocks, labels, payload, clock=0.0, events=0):
        self.blocks, self.labels, self.payload = blocks, list(labels), payload
        self.clock, self.events = clock, events

    @classmethod
    def of(cls, state, payload):
        """A chain from a `DualState`, with `payload` on its blocks."""
        return cls(state.lp.partition, state.lp.labels, payload,
                   state.clock, state.events)

    def advance(self, dt):
        """The payload advanced over dt, a time of at least 0."""
        # `not >=` also refuses NaN
        if not dt >= 0:
            raise ValueError(f"holding time must be at least 0, got {dt}")
        self.payload.advance(dt)
        self.clock += dt

    def advance_to(self, t):
        self.advance(t - self.clock)
        self.clock = t

    def apply(self, kind, colony, detail):
        """A recorded event: migrate block `detail` (1-based) out of
        `colony`, or coalesce `colony`'s blocks by the partition `detail`
        of their ranks, uniting each merge group's blocks and merging the
        payload by the groups. A detail that is not a partition of the
        colony's ranks 1..b, and a record that would change nothing, a
        migration of a block that is not in `colony` or a partition that
        merges no blocks, are refused before the chain changes."""
        labels = self.labels
        if kind == "migration":
            if not 1 <= detail <= len(labels):
                raise IndexError(f"label position {detail} out of range")
            if labels[detail - 1] != colony:
                raise ValueError(
                    f"migration record out of colony {colony}: block "
                    f"{detail} is in colony {labels[detail - 1]}")
            labels[detail - 1] = COLONY_1 if colony == COLONY_2 else COLONY_2
        else:
            try:
                validate_partition(detail)
                merging = colony_merging(labels, colony, detail)
            except ValueError as err:
                raise ValueError(f"coalescence record in colony {colony}: "
                                 f"{detail} is not a partition of its "
                                 f"ranks: {err}") from None
            if not merging:
                raise ValueError(f"coalescence record in colony {colony}: "
                                 f"partition {detail} merges nothing")
            groups = merge_groups(len(labels), merging)
            labels[:] = [labels[g[0]] for g in groups]
            self.blocks = coagulate(self.blocks, groups)
            self.payload.merge(groups)
        self.events += 1

    def state(self):
        """The chain's `DualState`: its blocks are canonical and its labels
        colonies, so the labeled partition is built without a re-check."""
        return DualState(
            LabeledPartition._canonical(self.blocks, tuple(self.labels)),
            TensorFunction(self.payload.set_functions()), self.clock,
            self.events)


def _run(chain, params, rng, stop, record=False):
    """The dual's event loop under the `StopRule` `stop`: it stops at one
    block (`at_absorption`), after `max_events` events (truncated), or at
    `at_time`; returns the event records (kept only when `record`) and
    whether the run was truncated. The chain's blocks are kept only when
    recording, for the state `run_until` returns; otherwise None is
    written back.

    Per event it draws a holding time at the jump rate tabulated for the
    colony block counts, then one uniform picks a migration (per block)
    or a coalescence (per colony, then profile); a migration draws the
    block, a coalescence shuffles the colony's block positions and unites
    consecutive chunks of the profile's merge sizes, a uniform partition
    with that profile. The canonical partition of the colony's ranks that
    `EventRecord.detail` holds is built only when recording. The payload
    is advanced over each holding time and merged by each coalescence's
    groups, and nothing else of it is read.

    The draws are the stdlib helpers' bodies, made on the generator's own
    `random` and `getrandbits` calls in the helpers' order, without their
    frames: the holding time is `expovariate(total)`, -log(1 - U) /
    total; a block index k below m is `randrange(m)`, k drawn as
    `getrandbits` of m's bit length again while k >= m; the shuffle is
    `shuffle`, Fisher-Yates from the last position down to the second,
    the partner of position i drawn below i + 1 that way. They equal the
    helpers of CPython 3.11 to 3.13 for a `random.Random` whose
    `_randbelow` is the getrandbits one: `replica_rng`'s streams, and any
    subclass that does not override `random` without also defining
    `getrandbits`. The frozen loop of the simulator tests, which calls the
    helpers, holds the records, the payload bits and the generator's state
    after the run to them."""
    labels = chain.labels
    if len(labels) > params.b_max:
        raise ValueError(f"{len(labels)} blocks exceed b_max="
                         f"{params.b_max}; migration can gather "
                         "every block in one colony")
    jump, profs, _ = params._tables
    random_, getrandbits, log = rng.random, rng.getrandbits, math.log
    at_time, absorb = stop.at_time, stop.at_absorption
    end = math.inf if at_time is None else at_time
    # `chain.events` counts the events of the chain's whole path
    cap = (math.inf if stop.max_events is None
           else chain.events + stop.max_events)
    # the chain's state in locals, written back when the run ends (the
    # labels are the chain's own list), and the count of colony-1 blocks
    clock, events = chain.clock, chain.events
    n1 = labels.count(COLONY_1)
    blocks = chain.blocks if record else None
    advance, merge = chain.payload.advance, chain.payload.merge
    records = []
    try:
        while True:
            n = len(labels)
            if absorb and n == 1:
                return records, False
            if events >= cap:
                return records, True
            rates, total = jump[n1][n - n1]
            dt = -log(1.0 - random_()) / total
            if clock + dt >= end:
                break
            pick = random_() * total
            advance(dt)
            clock += dt
            events += 1
            migration = rates[0] + rates[1]
            if pick < migration:
                if pick < rates[0]:
                    colony, target, m = COLONY_2, COLONY_1, n - n1
                    n1 += 1
                else:
                    colony, target, m = COLONY_1, COLONY_2, n1
                    n1 -= 1
                bits = m.bit_length()
                k = getrandbits(bits)
                while k >= m:
                    k = getrandbits(bits)
                # the k-th block (0-based) of that colony, in block order
                i = labels.index(colony)
                for _ in range(k):
                    i = labels.index(colony, i + 1)
                labels[i] = target
                kind, detail = "migration", i + 1
            else:
                pick -= migration
                # rounding can leave pick at rates[2] when colony 2 has no
                # coalescence rate; a colony without one is never picked
                if pick < rates[2] or rates[3] == 0:
                    colony, b = COLONY_1, n1
                else:
                    colony, b, pick = COLONY_2, n - n1, pick - rates[2]
                rows, cum, _ = profs[b]
                prof = rows[bisect_right(cum, pick, 0, len(rows) - 1)]
                # the shuffle of the colony's ranks 1..b, applied to their
                # positions: its draws depend only on b
                order = [j for j, c in enumerate(labels) if c == colony]
                if record:
                    rank = {j: r for r, j in enumerate(order, start=1)}
                for i in range(b - 1, 0, -1):
                    bits = (i + 1).bit_length()
                    j = getrandbits(bits)
                    while j > i:
                        j = getrandbits(bits)
                    order[i], order[j] = order[j], order[i]
                merging, at = [], 0
                for size in prof.merge_sizes:
                    merging.append(order[at:at + size])
                    at += size
                if record:
                    detail = canonical(
                        [[rank[j] for j in g] for g in merging]
                        + [[rank[j]] for j in order[at:]])
                groups = merge_groups(n, merging)
                if colony == COLONY_1:
                    n1 -= n - len(groups)
                labels[:] = [labels[g[0]] for g in groups]
                if record:
                    blocks = coagulate(blocks, groups)
                merge(groups)
                kind = "coalescence"
            if record:
                records.append(EventRecord(clock, dt, kind, colony, detail,
                                           len(labels)))
    finally:
        chain.clock, chain.events, chain.blocks = clock, events, blocks
    chain.advance_to(at_time)
    return records, False


class StopRule(Record):
    """Stop at a fixed time of at least 0 or at absorption (one block),
    exactly one of the two; max_events caps the run and sets `truncated`
    when exhausted first."""

    _fields = ("at_time", "at_absorption", "max_events")

    def __init__(self, at_time=None, at_absorption=False,
                 max_events=EVENT_CAP):
        if (at_time is None) != bool(at_absorption):
            raise ValueError("stop rule needs exactly one target: a time "
                             "or absorption")
        # `not >=` also refuses NaN
        if at_time is not None and not at_time >= 0:
            raise ValueError(f"at_time must be at least 0, got {at_time}")
        set_field(self, "at_time", at_time)
        set_field(self, "at_absorption", at_absorption)
        set_field(self, "max_events", max_events)


class Trajectory(Record):
    """Recorded events; `stop_time` is set when a time stop ended the run,
    which advanced the tensor past the last event up to that time."""

    _fields = ("events", "truncated", "stop_time")

    def __init__(self, events, truncated=False, stop_time=None):
        set_field(self, "events", events)
        set_field(self, "truncated", truncated)
        set_field(self, "stop_time", stop_time)
        # per start labels, the path as `replay` decoded it (`_decode`); not
        # part of ==, hash or repr, not pickled, and empty in a
        # `records.replace` copy
        set_field(self, "_decoded", {})

    def __getstate__(self):
        return dict(self.__dict__, _decoded={})


def run_until(state, params, stop, rng):
    """Run the jump chain; on a time stop the tensor is advanced by the
    remaining holding time so Y is evaluated exactly at the stop time. A
    stop time before the state's clock is refused before any draw."""
    if params.xi.total_mass == 0 and stop.at_absorption and stop.max_events is None:
        raise ValueError("absorption needs an event cap when xi has no mass")
    if stop.at_time is not None and stop.at_time < state.clock:
        raise ValueError(f"stop time {stop.at_time} is before the state's "
                         f"clock {state.clock}")
    chain = _Chain.of(state, _FloatPayload(
        _start(state.y.factors, params.mutation.base), params._tables[2]))
    events, truncated = _run(chain, params, rng, stop, record=True)
    return chain.state(), Trajectory(tuple(events), truncated,
                                     None if truncated else stop.at_time)


def _decode(trajectory, labels):
    """The path of `trajectory` from singleton blocks labeled `labels` (a
    checked tuple): its skeleton (`_Skeleton`: each holding time, up to
    the stop time if any, and each coalescence's merge groups), final
    labeled partition, clock and event count. The records go through
    `_Chain.apply` once per trajectory and labels and are kept on the
    trajectory; a path with a bad record raises on every call and is not
    kept."""
    decoded = trajectory._decoded.get(labels)
    if decoded is None:
        chain = _Chain(singleton_partition(len(labels)), labels, _Skeleton())
        for ev in trajectory.events:
            chain.advance(ev.dt)
            chain.apply(ev.kind, ev.colony, ev.detail)
        if trajectory.stop_time is not None:
            chain.advance_to(trajectory.stop_time)
        decoded = trajectory._decoded[labels] = (
            chain.payload,
            LabeledPartition._canonical(chain.blocks, tuple(chain.labels)),
            chain.clock, chain.events)
    return decoded


def replay(f, eta, trajectory, params, exact=True):
    """Re-apply a recorded event stream, up to its stop time if any, to a
    fresh initial tensor. Uses the recorded holding times, so two replays
    share identical semigroup factors; linearity checks then hold exactly
    in rational mode. The labels and the arity are checked as
    `initial_state` checks them, before any event is applied.

    The records are checked and decoded once per trajectory and eta
    (`_decode`), from singleton blocks labeled by eta; each replay then
    drives its payload along the decoded skeleton, advancing it over each
    holding time and merging it by each coalescence's groups, the same
    calls with the same arguments as applying the records. The state's
    partition is the decoded one, and its set functions are built without
    a re-check (`SetFunction._reduced`)."""
    labels = tuple(eta)
    validate_labels(labels)
    _check_arity(f, len(labels))
    skeleton, lp, clock, events = _decode(trajectory, labels)
    base, theta = params.mutation.base, params._tables[2]
    payload = (_ExactPayload if exact else _FloatPayload)(
        _start(f.factors, base, exact), theta)
    advance, merge = payload.advance, payload.merge
    for step in skeleton:
        if type(step) is list:
            merge(step)
        else:
            advance(step)
    return DualState(lp, TensorFunction(payload.set_functions()), clock,
                     events)


def evaluate_dual(state, mu):
    """<mu_eta, Y>: the product over blocks of the factor integrated
    against the block label's colony measure. A state with a float
    coefficient multiplies the blocks' integrals left to right from 1. A
    rational state multiplies each block's integral as two integers
    (`BaseMeasure.integral_ratio`, at the finer of the factor's and the
    measure's grid levels, as `integrate` pairs them, once per distinct
    factor object and colony) and builds one Fraction, the same value as
    the product of the blocks' Fractions."""
    mu1, mu2 = mu
    factors, labels = state.y.factors, state.lp.labels
    if any(type(c) is float for g in factors for c in g.coeffs):
        value = 1
        for g, label in zip(factors, labels):
            value *= (mu1 if label == COLONY_1 else mu2).integrate(g)
        return value
    num = den = 1
    ratios = {}
    for g, label in zip(factors, labels):
        # once per distinct factor object and colony
        key = (id(g), label)
        if key not in ratios:
            m = mu1 if label == COLONY_1 else mu2
            level = max(m.grid_level, g.level)
            ratios[key] = m.integral_ratio(level, g._coeffs_at(level))
        n, d = ratios[key]
        num *= n
        den *= d
    return Fraction(num, den)


def _mc(values, replicas, seed):
    """The mean of the replica values, added left to right
    (`float_sum`), and its standard error `statistics.stdev / sqrt(n)`,
    0 for one replica."""
    if replicas < 1:
        raise ValueError(f"replicas must be at least 1, got {replicas}")
    mean = float_sum(values) / replicas
    if replicas > 1:
        se = statistics.stdev(values) / math.sqrt(replicas)
    else:
        se = 0.0
    return McEstimate(float(mean), float(se), replicas, seed)


def _float_pairing(law, level):
    """`law.integrate` of the reduced `SetFunction` of a float coefficient
    list at run level `level`, to the bit, without building it: the list
    is reduced no further than the law's grid level and integrated there,
    or lifted to that level when the law is finer than the run."""
    lo = law.grid_level
    if lo >= level:
        integral = law.float_integrator(lo)
        if lo == level:
            return integral
        return lambda g: integral(_lift(g, level, lo))

    integrals = [law.float_integrator(lvl) for lvl in range(lo, level + 1)]

    def pair(g):
        lvl = level
        while lvl > lo and g[::2] == g[1::2]:
            g = g[::2]
            lvl -= 1
        return integrals[lvl - lo](g)

    return pair


def _leaf_value(chain, leaves, mu, theta, base, rng):
    """Genealogical reading of a skeleton run from singleton blocks: types
    drawn at the top of the genealogy from the colony laws, then the
    segments read backwards. A holding time d runs a mutation path down
    each lineage (it keeps its type with probability exp(-theta d / 2),
    else draws a fresh one from `base`; none when theta is None); a
    coalescence's merge groups hand each block's type to the blocks it
    united. f is evaluated at the leaves by position (`leaves`: each
    factor's level and float coefficients)."""
    mu1, mu2 = mu
    types = [(mu1 if label == COLONY_1 else mu2).sample(rng)
             for label in chain.labels]
    for step in reversed(chain.payload):
        if type(step) is list:
            before = [None] * sum(map(len, step))
            for x, group in zip(types, step):
                for i in group:
                    before[i] = x
            types = before
        elif step > 0 and theta is not None:
            keep = math.exp(-theta * step / 2.0)
            types = [x if rng.random() < keep else base.sample(rng)
                     for x in types]
    value = 1.0
    for (level, coeffs), x in zip(leaves, types):
        value *= coeffs[cell_index(level, x)]
    return value


def _replica_stop(t, params):
    """The `StopRule` of the estimators' replicas: to time t, or to
    absorption when t is None, capped at `EVENT_CAP` (read per call, so
    that a patched cap holds). A time below 0, and absorption under a xi
    without mass, which migration alone never reaches, are refused here,
    before any replica is drawn or any worker is started."""
    stop = StopRule(at_time=t, at_absorption=t is None, max_events=EVENT_CAP)
    if t is None and params.xi.total_mass == 0:
        raise ValueError("absorption needs coalescence (xi mass > 0)")
    return stop


def _replica_values(f, eta, mu, stop, params, seed, skeleton, lo, hi):
    """Values of replicas lo..hi-1, each on stream `replica_rng(seed, rep)`
    and run under `stop` (see `_replica_stop`): the mu-pairing of the
    surviving float factors, or on the skeleton the leaf value of f. What
    does not depend on the replica is built once per call."""
    lp = initial_state(f, eta).lp
    spec, theta = params.mutation, params._tables[2]
    if skeleton:
        leaves = [(g.level, [float(c) for c in g.coeffs]) for g in f.factors]
        leaf_theta = theta if spec.theta > 0 else None
    else:
        start = _start([SetFunction(g.level, tuple(map(float, g.coeffs)))
                        for g in f.factors], spec.base)
        pair = {label: _float_pairing(m, start[0])
                for label, m in zip((COLONY_1, COLONY_2), mu)}
    values = []
    for rep in range(lo, hi):
        rng = replica_rng(seed, rep)
        payload = _Skeleton() if skeleton else _FloatPayload(start, theta)
        chain = _Chain(lp.partition, lp.labels, payload)
        _, truncated = _run(chain, params, rng, stop)
        if truncated:
            goal = ("absorption" if stop.at_absorption
                    else f"time {stop.at_time}")
            raise RuntimeError(f"replica {rep} reached the event cap of "
                               f"{stop.max_events} before {goal}")
        if skeleton:
            values.append(_leaf_value(chain, leaves, mu, leaf_theta,
                                      spec.base, rng))
        else:
            value = 1
            for g, label in zip(payload.factors(), chain.labels):
                value *= pair[label](g)
            values.append(float(value))
    return values


def _fan_out(fn, args, replicas, workers):
    """Split the replica index range across workers; per-replica seeding
    makes the merged result identical to a sequential run."""
    if workers <= 1 or replicas < 2 * workers:
        return fn(*args, 0, replicas)
    # imported here: no other path needs it, and it slows every import
    import concurrent.futures
    chunk = -(-replicas // workers)
    spans = [(lo, min(lo + chunk, replicas))
             for lo in range(0, replicas, chunk)]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
        futures = [ex.submit(fn, *args, lo, hi) for lo, hi in spans]
        return [v for fut in futures for v in fut.result()]


def estimate_Qt(f, eta, mu, t, replicas, params, seed, workers=1):
    """Monte Carlo transition moment at time t via the duality identity."""
    if t is None:
        raise ValueError("transition moment needs a time t")
    values = _fan_out(_replica_values,
                      (f, eta, mu, _replica_stop(t, params), params, seed,
                       False), replicas, workers)
    return _mc(values, replicas, seed)


def estimate_stationary(f, eta, pi_tilde, replicas, params, seed,
                        workers=1):
    """Runs each replica to absorption and pairs the single surviving
    factor with the mutation-invariant measure."""
    values = _fan_out(_replica_values,
                      (f, eta, (pi_tilde, pi_tilde),
                       _replica_stop(None, params), params, seed, False),
                      replicas, workers)
    return _mc(values, replicas, seed)


def genealogical_evaluate(f, eta, mu, t, replicas, params, seed):
    """Unbiased sampler for the same dual expectations: runs the chain with
    the skeleton payload up to t or, when t is None, to absorption, draws
    types at the top of the genealogy from the colony laws mu = (mu1, mu2)
    and runs mutation paths down each lineage segment; f (a tensor of
    indicator-style factors) is evaluated at the leaves."""
    values = _replica_values(f, eta, mu, _replica_stop(t, params), params,
                             seed, True, 0, replicas)
    return _mc(values, replicas, seed)


def dual_generator_value(f, eta, mu, params):
    """Exact action of the dual generator on G_mu(f, eta): mutation term
    plus coalescence differences over colony partitions plus per-block
    migration differences. Each difference applies one event to a fresh
    chain and a fresh payload from one exact start; the partitions' rates
    come from `params.table`, where the singleton partition, which merges
    nothing, has rate 0. A colony of more than `b_max` blocks is refused."""
    base_state = initial_state(f, eta)
    lp = base_state.lp
    counts = [lp.labels.count(colony) for colony in (COLONY_1, COLONY_2)]
    if max(counts) > params.b_max:
        raise ValueError(f"a colony of {max(counts)} blocks exceeds "
                         f"b_max={params.b_max}")
    g0 = evaluate_dual(base_state, mu)
    total = Fraction(0)
    # mutation: sum over variables of <A g_k> with the other factors fixed
    for k in range(f.arity):
        factors = list(f.factors)
        factors[k] = apply_generator_uniform(factors[k], params.mutation)
        total += evaluate_dual(DualState(lp, TensorFunction(tuple(factors))),
                               mu)
    # coalescence within each colony, per partition, and migration, per
    # block: (rate, kind, colony, detail)
    events = [(params.table.rate_of(*profile_of(pi)), "coalescence",
               colony, pi)
              for colony, b in zip((COLONY_1, COLONY_2), counts) if b >= 2
              for pi in enumerate_partitions(b)]
    events += [(params.u1 if label == COLONY_2 else params.u2, "migration",
                label, pos) for pos, label in enumerate(lp.labels, start=1)]
    start = _start(f.factors, params.mutation.base, exact=True)
    for rate, kind, colony, detail in events:
        if rate:
            chain = _Chain.of(base_state,
                              _ExactPayload(start, params._tables[2]))
            chain.apply(kind, colony, detail)
            total += rate * (evaluate_dual(chain.state(), mu) - g0)
    return total
