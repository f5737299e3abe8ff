"""The labeled-coalescent dual as a simulatable jump chain, with duality
functional evaluation and Monte Carlo moment estimators.

One kernel runs the chain. `_Chain` is the mutable state of one run:
colony labels (a list that events change in place), the blocks in
least-element order where some caller reads them, the clock, the event
count and one payload, what rides on the blocks. A payload has two
operations, `advance(dt)` over a holding time and `merge(groups)` by the
merge groups of one colony's blocks (`partitions.merge_groups`); nothing
else of it is read, so it never changes the path. The float payload
(`_FloatPayload`, from `_start`, which rounds a rational start once) runs
in `run_until`, the estimators and `replay(exact=False)`, the exact one
(`_ExactPayload`) in `replay(exact=True)` and `dual_generator_value`.
The genealogical skeleton (`_Skeleton`) is a list whose advance and merge
append each holding time and each coalescence's merge groups.

The two coefficient payloads (`_Cells`) hold each block's coefficients
one block after another, one per cell of the run's grid level
(`_run_cells`); flow and merge act cell by cell and never refine or
reduce that level, and one pass over the list flows every block. A merge
multiplies the factors of each group's blocks in block order. Under
uniform-jump mutation the flow g -> p g + (1 - p) <base, g> is the same
in both colonies and T_s T_t = T_{s+t}, so both payloads defer it:
`advance` only adds to a pending time (float) or multiplies a pending
decay factor (exact), and the flow over it runs once, at the next
coalescence or when the factors are read, once per coalescence instead
of once per event, most of which are migrations. The flow keeps each
block's base integral, so both payloads keep their integrals and compute
one only for a block that a coalescence unites from several. The exact
flows compose exactly, so its results equal those of eager flows.

Events come from the RNG in `_run`, the one loop behind `run_until` and
the estimators, or from a recorded `Trajectory` in `replay`. A `StopRule`
is the one description of when `_run` stops: at a time of at least 0 or
at absorption, capped at `max_events`. `run_until` passes its caller's;
the estimators build one per call (`_replica_stop`).
`_Chain.apply` turns a recorded event (and `dual_generator_value`'s
enumerated ones) into a migration or a coalescence.
Per event `_run` looks its rates up in the jump rates `ModelParams`
tabulates per pair of colony block counts, draws, and moves a block or
unites the merge groups. It keeps the run's clock, event count, count of
colony-1 blocks and blocks in locals, with the payload's advance and
merge bound to locals, and writes clock, count and blocks back to the
chain when the run ends. Its draws are the stdlib's `expovariate`,
`randrange` and `shuffle` written out on the generator's `random` and
`getrandbits`, the same calls in the same order, so streams and results
are those of the helpers for a `random.Random` whose `_randbelow` is the
getrandbits one, as `replica_rng`'s streams are (see `_run`). The frozen
loop of the simulator tests calls the helpers and holds `_run`'s records,
payload bits, replica values, skeleton segments and generator state
after the run to its own. `_run` builds the canonical partition that
`EventRecord.detail` holds, keeps `EventRecord`s at all and keeps the
blocks, only for `run_until`, which returns them. Block contents exist
where they are read: the states `run_until`, `replay` and
`dual_generator_value` build. The estimators' chains carry none:
absorption is one label left, and the skeleton's leaf values read merge
groups and leaves by position. `DualState`, `LabeledPartition`,
`TensorFunction` and (reduced) `SetFunction`s are built only where a
public function takes or returns them.

One replica driver, `_replica_values`, serves the three estimators. Per
call it builds what does not depend on the replica: the float start
(`_start`), the pairing of a coefficient list with each colony law
(`_float_pairing`, the bits of `evaluate_dual` without building
`SetFunction`s) and, on the skeleton, the float leaf coefficients of f.
Each replica runs a `_Chain` with a float payload from that start, or
with a skeleton, to t or to absorption and yields the mu-pairing of its
surviving factors or the genealogical leaf value. No run may exceed
`EVENT_CAP` events: a replica that reaches it raises instead of returning
a value from a truncated path. Replicas draw independent random streams
derived deterministically from a master seed, so every reported number is
reproducible.
"""

import copy
import functools
import math
import operator
import random
import statistics
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .partitions import (COLONY_1, COLONY_2, LabeledPartition, canonical,
                         coagulate, colony_merging, enumerate_partitions,
                         merge_groups, profile_of, singleton_partition)
from .setfun import (SetFunction, TensorFunction, _lift,
                     apply_generator_uniform, cell_index, float_sum)
from .rationals import integer_numerators
from .simplex import build_rate_table

# events one run may take: the estimators raise when a replica reaches it,
# and it is `StopRule`'s default cap
EVENT_CAP = 100_000


@dataclass(frozen=True)
class ModelParams:
    """Everything the dual generator needs; the collision rates of up to
    `b_max` blocks are tabulated from `xi` (`table`), and from them the
    jump rates of every split of up to `b_max` blocks between the
    colonies."""

    xi: object            # XiMeasure
    mutation: object      # MutationSpec
    u1: Fraction
    u2: Fraction
    b_max: int
    table: object = field(init=False, compare=False, repr=False)  # RateTable
    # per colony block counts (`[n1][n2]`) the four float event rates
    # (migration out of colony 2, u1 per block, and out of colony 1, u2 per
    # block; coalescence in colony 1 and in colony 2) and their sum added
    # left to right, the jump rate; per block count the positive-rate
    # coalescence profiles with cumulative float weights; the float
    # mutation rate
    _tables: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for name in ("u1", "u2"):
            u = Fraction(getattr(self, name))
            if u <= 0:
                raise ValueError(f"migration rate {name} must be positive, "
                                 f"got {u}")
            object.__setattr__(self, name, u)
        table = build_rate_table(self.xi, self.b_max)
        object.__setattr__(self, "table", table)
        profs = {}
        for b in range(2, self.b_max + 1):
            rows = [(prof, float(rate * mult))
                    for prof, rate, mult in table.profiles(b)
                    if rate > 0]
            cum, acc = [], 0.0
            for _, w in rows:
                acc += w
                cum.append(acc)
            profs[b] = ([p for p, _ in rows], cum, acc)
        fu1, fu2 = float(self.u1), float(self.u2)
        jump = []
        for n1 in range(self.b_max + 1):
            row = []
            for n2 in range(self.b_max + 1 - n1):
                rates = (n2 * fu1, n1 * fu2,
                         profs[n1][2] if n1 >= 2 else 0.0,
                         profs[n2][2] if n2 >= 2 else 0.0)
                row.append((rates,
                            rates[0] + rates[1] + rates[2] + rates[3]))
            jump.append(row)
        object.__setattr__(self, "_tables",
                           (jump, profs, float(self.mutation.theta)))


@dataclass(frozen=True)
class DualState:
    lp: LabeledPartition
    y: TensorFunction
    clock: float = 0.0
    events: int = 0

    def __post_init__(self):
        if self.y.arity != self.lp.block_count:
            raise ValueError("tensor arity must equal block count")


def initial_state(f, eta):
    """Dual started from n singleton blocks labeled by eta carrying f."""
    lp = LabeledPartition(singleton_partition(len(eta)), tuple(eta))
    return DualState(lp, f)


class EventRecord(NamedTuple):
    time: float
    dt: float
    kind: str             # "coalescence" | "migration"
    colony: int           # colony coalescing, or colony of origin
    detail: object        # concrete pi_prime, or 1-based block index
    block_count: int      # after the event


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    replicas: int
    seed: int


def replica_rng(seed, replica):
    """Independent deterministic stream per replica."""
    return random.Random(f"xistep:{seed}:{replica}")


def _per_cell(cells, width, integral):
    """Each block's `integral`, once per cell of the block: the blocks are
    `cells` cut into runs of `width`."""
    out = []
    for i in range(0, len(cells), width):
        out += [integral(cells[i:i + width])] * width
    return out


def _run_cells(factors, base):
    """A run's grid level, the highest of the factors' levels and the
    base's, and the factors' coefficients at it, one block after another
    in one list."""
    level = max(base.grid_level, *(g.level for g in factors))
    return level, [c for g in factors for c in g._coeffs_at(level)]


def _start(factors, base):
    """The start of a float payload (`_FloatPayload`), for a tensor's
    factors under the mutation base `base`: the run's level and cells
    (`_run_cells`), the base's float integral of one block and the blocks'
    integrals (`_per_cell`). `integrate_cells` integrates each block,
    exactly when it is rational, and cells and integrals are rounded to
    float once. That gives the bits of advancing a rational start: `p * v`
    for a float p and a Fraction v is `p * float(v)`. Payloads may share a
    start: advance and merge build new lists and never change it."""
    level, cells = _run_cells(factors, base)
    ints = _per_cell(cells, 1 << level,
                     functools.partial(base.integrate_cells, level))
    return (level, [float(c) for c in cells], base.float_integrator(level),
            [float(j) for j in ints])


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
        """The payload as reduced `SetFunction`s, in block order."""
        return tuple(SetFunction(self.level, tuple(g))
                     for g in self.factors())


class _ExactPayload(_Cells):
    """The exact payload of `replay(exact=True)` and
    `dual_generator_value`: per block, integer numerators N_i over one
    integer denominator D, read as the coefficients N_i / D. Start
    coefficients (Fractions, ints or floats, which are dyadic rationals)
    are converted exactly (`integer_numerators`). The base integral is
    J / (D K), J an integer dot product with the base's `exact_weights`
    over their denominator K; `ints` holds J. A float decay factor is the
    dyadic rational a / 2^k, and `pending` is (A, T), the product of the
    pending holding times' a / 2^k, (1, 1) when none is. Fractions are
    built only by `set_functions`."""

    __slots__ = ("scale", "dens")
    idle = (1, 1)

    def __init__(self, factors, base, theta):
        level, cells = _run_cells(factors, base)
        self.level, self.width, self.theta = level, 1 << level, theta
        weights, self.scale = base.exact_weights(level)
        self.integral = lambda g: sum(map(operator.mul, g, weights))
        nums, self.dens = [], []
        for i in range(0, len(cells), self.width):
            block, den = integer_numerators(cells[i:i + self.width])
            nums += block
            self.dens.append(den)
        self.cells, self.pending = nums, self.idle
        self.ints = _per_cell(nums, self.width, self.integral)

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
        return tuple(SetFunction(self.level,
                                 tuple(Fraction(n, d) for n in g))
                     for g, d in zip(self.factors(), self.dens))


class _Skeleton(list):
    """The genealogical skeleton's payload: the run's segments, each
    holding time and, after each coalescence, its merge groups."""

    advance = merge = list.append


class _Chain:
    """Mutable state of one run of the dual (see the module docstring),
    from `state` with one payload: labels, blocks, clock, event count and
    the payload. The labels are a list that events change in place; the
    blocks start as the state's and are kept by `apply`, and by `_run`
    only when it records."""

    def __init__(self, state, payload):
        self.blocks = state.lp.partition
        self.labels = list(state.lp.labels)
        self.payload = payload
        self.clock, self.events = state.clock, state.events

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
        payload by the groups. A record that would change nothing, a
        migration of a block that is not in `colony` or a partition that
        merges no blocks, is refused before the chain changes."""
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
            merging = colony_merging(labels, colony, detail)
            if not merging:
                raise ValueError(f"coalescence record in colony {colony}: "
                                 f"partition {detail} merges nothing")
            groups = merge_groups(len(labels), merging)
            labels[:] = [labels[g[0]] for g in groups]
            self.blocks = coagulate(self.blocks, groups)
            self.payload.merge(groups)
        self.events += 1

    def state(self):
        return DualState(LabeledPartition(self.blocks, tuple(self.labels)),
                         TensorFunction(self.payload.set_functions()),
                         self.clock, self.events)


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


@dataclass(frozen=True)
class StopRule:
    """Stop at a fixed time of at least 0 or at absorption (one block),
    exactly one of the two; max_events caps the run and sets `truncated`
    when exhausted first."""

    at_time: float = None
    at_absorption: bool = False
    max_events: int = EVENT_CAP

    def __post_init__(self):
        if (self.at_time is None) != bool(self.at_absorption):
            raise ValueError("stop rule needs exactly one target: a time "
                             "or absorption")
        # `not >=` also refuses NaN
        if self.at_time is not None and not self.at_time >= 0:
            raise ValueError(f"at_time must be at least 0, got "
                             f"{self.at_time}")


@dataclass(frozen=True)
class Trajectory:
    """Recorded events; `stop_time` is set when a time stop ended the run,
    which advanced the tensor past the last event up to that time."""

    events: tuple
    truncated: bool = False
    stop_time: float = None


def run_until(state, params, stop, rng):
    """Run the jump chain; on a time stop the tensor is advanced by the
    remaining holding time so Y is evaluated exactly at the stop time. A
    stop time before the state's clock is refused before any draw."""
    if params.xi.total_mass == 0 and stop.at_absorption and stop.max_events is None:
        raise ValueError("absorption needs an event cap when xi has no mass")
    if stop.at_time is not None and stop.at_time < state.clock:
        raise ValueError(f"stop time {stop.at_time} is before the state's "
                         f"clock {state.clock}")
    chain = _Chain(state, _FloatPayload(
        _start(state.y.factors, params.mutation.base), params._tables[2]))
    events, truncated = _run(chain, params, rng, stop, record=True)
    return chain.state(), Trajectory(tuple(events), truncated,
                                     None if truncated else stop.at_time)


def replay(f, eta, trajectory, params, exact=True):
    """Re-apply a recorded event stream, up to its stop time if any, to a
    fresh initial tensor. Uses the recorded holding times, so two replays
    share identical semigroup factors; linearity checks then hold exactly
    in rational mode."""
    base, theta = params.mutation.base, params._tables[2]
    payload = (_ExactPayload(f.factors, base, theta) if exact
               else _FloatPayload(_start(f.factors, base), theta))
    chain = _Chain(initial_state(f, eta), payload)
    for ev in trajectory.events:
        chain.advance(ev.dt)
        chain.apply(ev.kind, ev.colony, ev.detail)
    if trajectory.stop_time is not None:
        chain.advance_to(trajectory.stop_time)
    return chain.state()


def evaluate_dual(state, mu):
    """<mu_eta, Y>: the product over blocks of the factor integrated
    against the block label's colony measure."""
    mu1, mu2 = mu
    value = 1
    for g, label in zip(state.y.factors, state.lp.labels):
        m = mu1 if label == COLONY_1 else mu2
        value *= m.integrate(g)
    return value


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
    state = initial_state(f, eta)
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
        chain = _Chain(state, payload)
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
    chain with a copy of one exact payload; the partitions' rates come from
    `params.table`, where the singleton partition, which merges nothing,
    has rate 0. A colony of more than `b_max` blocks is refused."""
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
    # a merge builds new lists, so the copies never change `start`
    start = _ExactPayload(f.factors, params.mutation.base, params._tables[2])
    for rate, kind, colony, detail in events:
        if rate:
            chain = _Chain(base_state, copy.copy(start))
            chain.apply(kind, colony, detail)
            total += rate * (evaluate_dual(chain.state(), mu) - g0)
    return total
