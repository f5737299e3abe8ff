"""The labeled-coalescent dual as a simulatable jump chain, with duality
functional evaluation and Monte Carlo moment estimators.

One kernel runs the chain. `_Chain` is the mutable state of one run:
colony labels (a list that events change in place, with the count of
colony-1 blocks kept beside it), the blocks in least-element order where
some caller reads them, and a payload, which is one plain list of
coefficients or, for the genealogical skeleton, none: that records
lineage segments. The list holds each block's coefficients one block
after another, one per cell of one grid level per run, the highest of the
start factors' levels and the mutation base's `grid_level`; advance and
merge act cell by cell and never refine or reduce that level, and one
pass over the list advances every block. The base integrals are cached
until a coalescence, which recomputes all of them: a float payload
through the base's cached `float_integrator`, the float branch of
`integrate_cells`. (Reusing the integrals of blocks that did not merge
would skip work but could change the last bits of a float payload, so it
is not done.) `_Chain.advance` runs the mutation semigroup,
`_Chain.migrate` moves one block and `_Chain.coalesce` unites merge
groups of one colony's blocks (`partitions.merge_groups`), multiplying
their factors.

Events come from the RNG in `_run`, the one loop behind `run_until` and
the estimators, or from a recorded `Trajectory` in `replay`, the one path
with exact semigroup factors; `_Chain.apply` turns a recorded event (and
`dual_generator_value`'s enumerated ones) into the same two operations.
Per event `_run` looks its rates up in the jump rates `ModelParams`
tabulates per pair of colony block counts, draws, and hands the chain the
block to move or the merge groups; it builds the canonical partition that
`EventRecord.detail` holds, and keeps `EventRecord`s at all, only for
`run_until`, which returns them. Block contents exist where they are read:
the states `run_until`, `replay` and `dual_generator_value` build, and the
skeleton's segments and leaf values; the float chains of `estimate_Qt`
and `estimate_stationary` carry none, and absorption is one label left.
With `exact=True`, `replay` runs `_ExactChain`, whose payload is, per
block, integer numerators over one integer denominator: each float decay
factor is the dyadic rational it represents, the base integral is an
integer dot product with the base's `exact_weights`, and Fractions are
built only for the state it returns. `DualState`, `LabeledPartition`,
`TensorFunction` and (reduced) `SetFunction`s are built only where a
public function takes or returns them.

One replica driver, `_replica_values`, serves the three estimators. Per
call it builds what does not depend on the replica: the float start
payload (`_start`), the pairing of a coefficient list with each colony
law (`_float_pairing`, the bits of `evaluate_dual` without building
`SetFunction`s) and, on the skeleton, the float leaf coefficients of f.
Each replica runs a `_Chain` from that payload to t or to absorption and
yields the mu-pairing of its surviving factors or, on the skeleton, the
genealogical leaf value. No run may exceed `EVENT_CAP` events: a replica
that reaches it raises instead of returning a value from a truncated
path. Replicas draw independent random streams derived deterministically
from a master seed, so every reported number is reproducible.
"""

import concurrent.futures
import functools
import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .partitions import (COLONY_1, COLONY_2, LabeledPartition, canonical,
                         coagulate, colony_merging, enumerate_partitions,
                         merge_groups, singleton_partition)
from .setfun import (SetFunction, TensorFunction, _lift,
                     apply_generator_uniform, cell_index, float_sum)
from .simplex import build_rate_table, per_partition_rate

# events one run may take: the estimators raise when a replica reaches it,
# and it is `StopRule`'s default cap
EVENT_CAP = 100_000


@dataclass(frozen=True)
class ModelParams:
    """Everything the dual generator needs; the collision rates of up to
    `b_max` blocks are tabulated from `xi`, and from them the jump rates
    of every split of up to `b_max` blocks between the colonies."""

    xi: object            # XiMeasure
    mutation: object      # MutationSpec
    u1: Fraction
    u2: Fraction
    b_max: int
    # per colony block counts (`[n1][n2]`) the four float event rates
    # (migration out of colony 2, u1 per block, and out of colony 1, u2 per
    # block; coalescence in colony 1 and in colony 2) and their sum added
    # left to right, the jump rate; per block count the positive-rate
    # coalescence profiles with cumulative float weights; the float
    # mutation rate
    _tables: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "u1", Fraction(self.u1))
        object.__setattr__(self, "u2", Fraction(self.u2))
        if self.u1 <= 0 or self.u2 <= 0:
            raise ValueError("migration rates must be positive")
        table = build_rate_table(self.xi, self.b_max)
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


def _start(factors, base):
    """The payload a run starts from, for a tensor's factors under the
    mutation base `base`: the run's grid level, the factors' coefficients
    at that level one block after another in one list, the base integral
    of one block's coefficients, the blocks' integrals (`_per_cell`) and
    None; a rational start has no integrals yet and ends with the float
    integral it switches to. Runs may share it: advance and merge build
    new lists and never change it.

    A rational start (`run_until` on a Fraction tensor) is integrated
    exactly by `integrate_cells` at its first advance, which then turns
    the cells and integrals into floats once (`_Chain._to_float`). That
    keeps the bits: `p * v` for a float p and a Fraction v is
    `p * float(v)`. From then on it is integrated as a float payload is."""
    level = max(base.grid_level, *(g.level for g in factors))
    cells = [c for g in factors for c in g._coeffs_at(level)]
    # a float payload stays float: integrate it with the float branch of
    # `integrate_cells` directly
    if all(type(c) is float for c in cells):
        integral = base.float_integrator(level)
        return level, cells, integral, _per_cell(cells, 1 << level,
                                                 integral), None
    return (level, cells, functools.partial(base.integrate_cells, level),
            None, base.float_integrator(level))


class _Chain:
    """Mutable state of one run of the dual (see the module docstring),
    from `state` with the payload `start` (see `_start`), or none (the
    skeleton). The labels are a list that events change in place, with
    the count `n1` of colony-1 blocks kept beside it; the block contents
    are kept only when `blocks` is true. The payload `cells` holds the
    blocks' coefficient lists one after another, `width` cells each, and
    `ints` each block's base integral once per cell, so that one pass
    over the cells advances every block."""

    def __init__(self, state, params, start, blocks=True):
        self.blocks = state.lp.partition if blocks else None
        self.labels = list(state.lp.labels)
        self.n1 = self.labels.count(COLONY_1)
        self.theta = params._tables[2]
        if start is None:
            self.cells, self.segments = None, []
        else:
            (self.level, self.cells, self.integral, self.ints,
             self.to_float) = start
            self.width = 1 << self.level
        self.clock, self.events = state.clock, state.events

    def advance(self, dt):
        """Mutation semigroup over dt: g -> p g + (1 - p) <base, g>. Each
        factor's base integral is invariant under the flow (a convex
        combination with that same integral), so it is computed once and
        carried forward."""
        if self.cells is None:
            self.segments.append((self.blocks, dt))
        else:
            if dt < 0:
                raise ValueError("negative time")
            # `decay_factor`, inlined
            p = math.exp(-self.theta * dt / 2.0)
            q = 1 - p
            if self.ints is None:
                self.ints = _per_cell(self.cells, self.width, self.integral)
                if self.to_float is not None:
                    self._to_float()
            self.cells = [p * v + q * c for v, c in zip(self.cells,
                                                        self.ints)]
        self.clock += dt

    def _to_float(self):
        """Turn a rational payload, just integrated exactly, into floats,
        cells and integrals; from now on the float integral `_start` gave
        integrates it."""
        self.cells = [float(c) for c in self.cells]
        self.ints = [float(c) for c in self.ints]
        self.integral, self.to_float = self.to_float, None

    def factors(self):
        """The coefficient list of each block, in block order."""
        w = self.width
        return [self.cells[i:i + w] for i in range(0, len(self.cells), w)]

    def advance_to(self, t):
        self.advance(t - self.clock)
        self.clock = t

    def migrate(self, i, target):
        """Move block i (0-based) to colony `target`."""
        self.n1 += (target == COLONY_1) - (self.labels[i] == COLONY_1)
        self.labels[i] = target
        self.events += 1

    def coalesce(self, colony, merging):
        """Unite each position list of `merging` (see `merge_groups`), all
        blocks of `colony`, multiplying factors in block order."""
        labels = self.labels
        groups = merge_groups(len(labels), merging)
        if colony == COLONY_1:
            self.n1 -= len(labels) - len(groups)
        labels[:] = [labels[g[0]] for g in groups]
        if self.blocks is not None:
            self.blocks = coagulate(self.blocks, groups)
        if self.cells is not None:
            self._merge(groups)
        self.events += 1

    def apply(self, kind, colony, detail):
        """A recorded event: migrate block `detail` (1-based) out of
        `colony`, or coalesce `colony`'s blocks by the partition `detail`
        of their ranks. A record that would change nothing, a migration of
        a block that is not in `colony` or a partition that merges no
        blocks, is refused before the chain changes."""
        if kind == "migration":
            if not 1 <= detail <= len(self.labels):
                raise IndexError(f"label position {detail} out of range")
            if self.labels[detail - 1] != colony:
                raise ValueError(
                    f"migration record out of colony {colony}: block "
                    f"{detail} is in colony {self.labels[detail - 1]}")
            self.migrate(detail - 1,
                         COLONY_1 if colony == COLONY_2 else COLONY_2)
        else:
            merging = colony_merging(self.labels, colony, detail)
            if not merging:
                raise ValueError(f"coalescence record in colony {colony}: "
                                 f"partition {detail} merges nothing")
            self.coalesce(colony, merging)

    def _merge(self, groups):
        cells, w = self.cells, self.width
        merged = []
        for group in groups:
            i = group[0] * w
            g = cells[i:i + w]
            for j in group[1:]:
                j *= w
                g = [x * y for x, y in zip(g, cells[j:j + w])]
            merged += g
        self.cells = merged
        self.ints = None

    def set_functions(self):
        """The payload as reduced `SetFunction`s, in block order."""
        return tuple(SetFunction(self.level, tuple(g))
                     for g in self.factors())

    def state(self):
        return DualState(LabeledPartition(self.blocks, tuple(self.labels)),
                         TensorFunction(self.set_functions()), self.clock,
                         self.events)


class _ExactChain(_Chain):
    """A run with the exact payload of `replay(exact=True)`: per block,
    integer numerators N_i over one integer denominator D, read as the
    coefficients N_i / D. Start coefficients (Fractions, ints or floats,
    which are dyadic rationals) are converted exactly. A float decay
    factor p is the dyadic rational a / 2^k; the base integral J / (D K)
    is an integer dot product with the base's `exact_weights` (J) over
    their denominator (K). Fractions are built only by `set_functions`."""

    def __init__(self, state, params):
        base = params.mutation.base
        factors = state.y.factors
        level = max(base.grid_level, *(g.level for g in factors))
        self.weights, self.scale = base.exact_weights(level)
        cells, self.dens = [], []
        for g in factors:
            ratios = [c.as_integer_ratio() for c in g._coeffs_at(level)]
            den = math.lcm(*(d for _, d in ratios))
            cells += [n * (den // d) for n, d in ratios]
            self.dens.append(den)
        # no float integral: `advance` integrates with the weights
        super().__init__(state, params, (level, cells, None, None, None))

    def advance(self, dt):
        """g -> p g + (1 - p) <base, g> as N -> a N + (2^k - a) J and
        D -> 2^k D, with J the integral's numerator over D; right after a
        coalescence the integrals are J / (D K), so N and D take a factor
        K first. J is kept as taken then; `growth` is the power of two
        that D has gained since, by which J is scaled."""
        if dt < 0:
            raise ValueError("negative time")
        # `decay_factor(theta, dt, exact=True)`: a / 2^k
        a, two_k = math.exp(-self.theta * float(dt) / 2.0) \
            .as_integer_ratio()
        b = two_k - a
        if self.ints is None:
            self.ints = _per_cell(
                self.cells, self.width,
                lambda g: sum(v * w for v, w in zip(g, self.weights)))
            self.dens = [d * self.scale for d in self.dens]
            a *= self.scale
            self.growth = 1
        b *= self.growth
        self.cells = [a * v + b * j for v, j in zip(self.cells, self.ints)]
        self.dens = [d * two_k for d in self.dens]
        self.growth *= two_k
        self.clock += dt

    def _merge(self, groups):
        dens = []
        for group in groups:
            d = self.dens[group[0]]
            for j in group[1:]:
                d *= self.dens[j]
            dens.append(d)
        super()._merge(groups)
        self.dens = dens

    def set_functions(self):
        return tuple(SetFunction(self.level,
                                 tuple(Fraction(n, d) for n in g))
                     for g, d in zip(self.factors(), self.dens))


def _run(chain, params, rng, at_time, absorb, max_events, record=False):
    """The dual's event loop. Stops at one block (when `absorb`), after
    `max_events` events (truncated), or at `at_time`; returns the event
    records (kept only when `record`) and whether the run was truncated.

    Per event it draws a holding time at the jump rate tabulated for the
    colony block counts, then one uniform picks a migration (per block)
    or a coalescence (per colony, then profile); a migration draws the
    block, a coalescence shuffles the colony's block positions and unites
    consecutive chunks of the profile's merge sizes, a uniform partition
    with that profile. The canonical partition of the colony's ranks that
    `EventRecord.detail` holds is built only when recording."""
    labels = chain.labels
    if len(labels) > params.b_max:
        raise ValueError(f"{len(labels)} blocks exceed b_max="
                         f"{params.b_max}; migration can gather "
                         "every block in one colony")
    jump, profs, _ = params._tables
    random_, expovariate = rng.random, rng.expovariate
    randrange, shuffle = rng.randrange, rng.shuffle
    stop = math.inf if at_time is None else at_time
    # `chain.events` counts the events of the chain's whole path
    cap = math.inf if max_events is None else chain.events + max_events
    events = []
    while True:
        n = len(labels)
        if absorb and n == 1:
            return events, False
        if chain.events >= cap:
            return events, True
        n1 = chain.n1
        rates, total = jump[n1][n - n1]
        dt = expovariate(total)
        if chain.clock + dt >= stop:
            chain.advance_to(at_time)
            return events, False
        pick = random_() * total
        migration = rates[0] + rates[1]
        if pick < migration:
            if pick < rates[0]:
                colony, target, k = COLONY_2, COLONY_1, randrange(n - n1)
            else:
                colony, target, k = COLONY_1, COLONY_2, randrange(n1)
            # the k-th block (0-based) of that colony, in block order
            i = labels.index(colony)
            for _ in range(k):
                i = labels.index(colony, i + 1)
            chain.advance(dt)
            chain.migrate(i, target)
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
            shuffle(order)
            merging, at = [], 0
            for size in prof.merge_sizes:
                merging.append(order[at:at + size])
                at += size
            if record:
                detail = canonical(
                    [[rank[j] for j in g] for g in merging]
                    + [[rank[j]] for j in order[at:]])
            chain.advance(dt)
            chain.coalesce(colony, merging)
            kind = "coalescence"
        if record:
            events.append(EventRecord(chain.clock, dt, kind, colony, detail,
                                      len(labels)))


@dataclass(frozen=True)
class StopRule:
    """Stop at a fixed time or at absorption (one block), exactly one of
    the two; max_events caps the run and sets `truncated` when exhausted
    first."""

    at_time: float = None
    at_absorption: bool = False
    max_events: int = EVENT_CAP

    def __post_init__(self):
        if (self.at_time is None) != bool(self.at_absorption):
            raise ValueError("stop rule needs exactly one target: a time "
                             "or absorption")


@dataclass(frozen=True)
class Trajectory:
    """Recorded events; `stop_time` is set when a time stop ended the run,
    which advanced the tensor past the last event up to that time."""

    events: tuple
    truncated: bool = False
    stop_time: float = None


def run_until(state, params, stop, rng):
    """Run the jump chain; on a time stop the tensor is advanced by the
    remaining holding time so Y is evaluated exactly at the stop time."""
    if params.xi.total_mass == 0 and stop.at_absorption and stop.max_events is None:
        raise ValueError("absorption needs an event cap when xi has no mass")
    chain = _Chain(state, params, _start(state.y.factors,
                                         params.mutation.base))
    events, truncated = _run(chain, params, rng, stop.at_time,
                             stop.at_absorption, stop.max_events, record=True)
    return chain.state(), Trajectory(tuple(events), truncated,
                                     None if truncated else stop.at_time)


def replay(f, eta, trajectory, params, exact=True):
    """Re-apply a recorded event stream, up to its stop time if any, to a
    fresh initial tensor. Uses the recorded holding times, so two replays
    share identical semigroup factors; linearity checks then hold exactly
    in rational mode."""
    state = initial_state(f, eta)
    chain = (_ExactChain(state, params) if exact
             else _Chain(state, params, _start(f.factors,
                                               params.mutation.base)))
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


def _sqrt_of_ratio(n, m):
    """sqrt(n / m) for integers n >= 0 and m > 0, correctly rounded: an
    integer square root of at least 55 bits with a sticky last bit (round
    to odd), then one correctly rounded integer division."""
    q = (n.bit_length() - m.bit_length() - 109) // 2
    if q >= 0:
        m <<= 2 * q
        a = math.isqrt(n // m)
        return ((a | (a * a * m != n)) << q) / 1
    n <<= -2 * q
    a = math.isqrt(n // m)
    return (a | (a * a * m != n)) / (1 << -q)


def _stdev(values):
    """Sample standard deviation of at least two floats, exact up to one
    rounding: the values as integers over their largest denominator (a
    power of two), the variance as one integer ratio and its correctly
    rounded square root. This is the value `statistics.stdev` returns
    from Python 3.11 on; under 3.10 that one can differ in the last bit."""
    den = max(x.as_integer_ratio()[1] for x in values)
    k = sx = sxx = 0
    for x in values:
        n, d = x.as_integer_ratio()
        n *= den // d
        k += 1
        sx += n
        sxx += n * n
    return _sqrt_of_ratio(k * sxx - sx * sx, k * (k - 1) * den * den)


def _mc(values, replicas, seed):
    if replicas < 1:
        raise ValueError(f"replicas must be at least 1, got {replicas}")
    mean = float_sum(values) / replicas
    if replicas > 1:
        sd = _stdev(values)
        se = sd / math.sqrt(replicas)
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
    """Genealogical reading of a skeleton run: types drawn at the top of
    the genealogy from the colony laws, mutation paths run down each
    lineage segment (a segment of length d keeps its type with probability
    exp(-theta d / 2), else draws a fresh one from `base`; none when theta
    is None), and f evaluated at the leaves (`leaves`: each factor's level
    and float coefficients)."""
    mu1, mu2 = mu
    top = chain.blocks
    types = [(mu1 if label == COLONY_1 else mu2).sample(rng)
             for label in chain.labels]
    for blocks, duration in reversed(chain.segments):
        if blocks != top:
            # a coalescence: each block inherits the type of the later
            # block that holds it
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


def _replica_values(f, eta, mu, t, params, seed, skeleton, lo, hi):
    """Values of replicas lo..hi-1, each on stream `replica_rng(seed, rep)`
    and run to time t, or to absorption when t is None: the mu-pairing of
    the surviving float factors, or on the skeleton the leaf value of f.
    What does not depend on the replica is built once per call."""
    state = initial_state(f, eta)
    spec = params.mutation
    if skeleton:
        start = None
        leaves = [(g.level, [float(c) for c in g.coeffs]) for g in f.factors]
        theta = params._tables[2] if spec.theta > 0 else None
    else:
        start = _start([SetFunction(g.level, tuple(map(float, g.coeffs)))
                        for g in f.factors], spec.base)
        pair = {label: _float_pairing(m, start[0])
                for label, m in zip((COLONY_1, COLONY_2), mu)}
    values = []
    for rep in range(lo, hi):
        rng = replica_rng(seed, rep)
        chain = _Chain(state, params, start, blocks=skeleton)
        _, truncated = _run(chain, params, rng, t, t is None, EVENT_CAP)
        if truncated:
            goal = "absorption" if t is None else f"time {t}"
            raise RuntimeError(f"replica {rep} reached the event cap of "
                               f"{EVENT_CAP} before {goal}")
        if skeleton:
            values.append(_leaf_value(chain, leaves, mu, theta, spec.base,
                                      rng))
        else:
            value = 1
            for g, label in zip(chain.factors(), chain.labels):
                value *= pair[label](g)
            values.append(float(value))
    return values


def _fan_out(fn, args, replicas, workers):
    """Split the replica index range across workers; per-replica seeding
    makes the merged result identical to a sequential run."""
    if workers <= 1 or replicas < 2 * workers:
        return fn(*args, 0, replicas)
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
    values = _fan_out(_replica_values, (f, eta, mu, t, params, seed, False),
                      replicas, workers)
    return _mc(values, replicas, seed)


def estimate_stationary(f, eta, pi_tilde, replicas, params, seed,
                        workers=1):
    """Runs each replica to absorption and pairs the single surviving
    factor with the mutation-invariant measure."""
    if params.xi.total_mass == 0:
        raise ValueError("stationary estimate needs coalescence (xi mass > 0)")
    values = _fan_out(_replica_values,
                      (f, eta, (pi_tilde, pi_tilde), None, params, seed,
                       False), replicas, workers)
    return _mc(values, replicas, seed)


def genealogical_evaluate(f, eta, mu, t, replicas, params, seed):
    """Unbiased sampler for the same dual expectations: runs the skeleton
    chain (no payload) up to t or, when t is None, to absorption, draws
    types at the top of the genealogy from the colony laws mu = (mu1, mu2)
    and runs mutation paths down each lineage segment; f (a tensor of
    indicator-style factors) is evaluated at the leaves."""
    values = _replica_values(f, eta, mu, t, params, seed, True, 0, replicas)
    return _mc(values, replicas, seed)


def dual_generator_value(f, eta, mu, params):
    """Exact action of the dual generator on G_mu(f, eta): mutation term
    plus coalescence differences over nontrivial colony partitions plus
    per-block migration differences."""
    base_state = initial_state(f, eta)
    lp = base_state.lp
    start = _start(f.factors, params.mutation.base)
    g0 = evaluate_dual(base_state, mu)
    total = Fraction(0)
    # mutation: sum over variables of <A g_k> with the other factors fixed
    for k in range(f.arity):
        factors = list(f.factors)
        factors[k] = apply_generator_uniform(factors[k], params.mutation)
        total += evaluate_dual(DualState(lp, TensorFunction(tuple(factors))),
                               mu)
    # coalescence within each colony
    for colony in (COLONY_1, COLONY_2):
        b = lp.labels.count(colony)
        if b >= 2:
            for pi_prime in enumerate_partitions(b, skip_singleton=True):
                lam = per_partition_rate(params.xi, pi_prime)
                if lam == 0:
                    continue
                chain = _Chain(base_state, params, start)
                chain.apply("coalescence", colony, pi_prime)
                total += lam * (evaluate_dual(chain.state(), mu) - g0)
    # migration per block
    for pos, label in enumerate(lp.labels, start=1):
        u = params.u1 if label == COLONY_2 else params.u2
        chain = _Chain(base_state, params, start)
        chain.apply("migration", label, pos)
        total += u * (evaluate_dual(chain.state(), mu) - g0)
    return total
