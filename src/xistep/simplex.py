"""Finite measures on the infinite simplex and exact coalescence rates.

A measure is a Kingman mass at the zero sequence plus finitely many atoms
with finitely many positive coordinates, so every collision rate is an
exact rational.

The rates of an atom come from one integer scan of its coordinates for a
whole table (`_paintbox_scan`, cached per coordinates and block count):
its states are the multiset of merge sizes placed and the number l of
coordinates taken by untouched blocks, each counted once as a set. A
(n; k1..kr; s) rate then reads the states of its merge sizes, times
mult_k! for each size k that mult_k groups share and s!/(s - l)! for the
untouched blocks that take the l coordinates. `build_rate_table` and
`collision_rate` both read their rates from it.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType

from .partitions import iter_profiles, profile_multiplicity
from .rationals import integer_numerators

# largest block count a rate table (hence b_max and an exact order) covers
MAX_BLOCKS = 20

# the named collision rates of up to four lineages ->
# (block count, merge sizes, untouched blocks)
NAMED_RATES = {"a2": (2, (2,), 0), "a21": (3, (2,), 1), "a3": (3, (3,), 0),
               "a211": (4, (2,), 2), "a22": (4, (2, 2), 0),
               "a31": (4, (3,), 1), "a4": (4, (4,), 0)}
# the consistency identities among them: rate = sum of rates
_NAMED_IDENTITIES = (("a2", ("a21", "a3")), ("a3", ("a31", "a4")),
                     ("a21", ("a211", "a22", "a31")))


@dataclass(frozen=True)
class SimplexAtom:
    """A point of the simplex with finite support, carrying a weight."""

    coords: tuple  # non-increasing positive Fractions, sum <= 1
    weight: Fraction

    def __post_init__(self):
        coords = tuple(Fraction(c) for c in self.coords)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "weight", Fraction(self.weight))
        if not coords:
            raise ValueError("atom needs at least one coordinate; "
                             "use kingman_mass for the zero point")
        if any(c <= 0 for c in coords):
            raise ValueError("atom coordinates must be positive")
        if list(coords) != sorted(coords, reverse=True):
            raise ValueError("atom coordinates must be non-increasing")
        if sum(coords) > 1:
            raise ValueError("atom coordinate sum exceeds 1")
        if self.weight <= 0:
            raise ValueError("atom weight must be positive")


@dataclass(frozen=True)
class XiMeasure:
    """Kingman mass plus finitely many simplex atoms."""

    kingman_mass: Fraction = Fraction(0)
    atoms: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "kingman_mass", Fraction(self.kingman_mass))
        object.__setattr__(self, "atoms", tuple(self.atoms))
        if self.kingman_mass < 0:
            raise ValueError("kingman_mass must be nonnegative")

    @property
    def total_mass(self):
        return self.kingman_mass + sum(a.weight for a in self.atoms)

    def scaled(self, c):
        c = Fraction(c)
        return XiMeasure(self.kingman_mass * c,
                         tuple(SimplexAtom(a.coords, a.weight * c)
                               for a in self.atoms))


@dataclass(frozen=True)
class CollisionProfile:
    """(n; k1,...,kr; s): n blocks collide into r merged groups of sizes
    k1 >= ... >= kr >= 2 while s blocks stay untouched."""

    n: int
    merge_sizes: tuple
    s: int

    def __post_init__(self):
        ks = tuple(self.merge_sizes)
        object.__setattr__(self, "merge_sizes", ks)
        if not ks or any(k < 2 for k in ks):
            raise ValueError("merge sizes must all be >= 2 and nonempty")
        if list(ks) != sorted(ks, reverse=True):
            raise ValueError("merge sizes must be non-increasing")
        if self.s < 0 or self.n != self.s + sum(ks):
            raise ValueError("need n = s + sum(k_i) with s >= 0")

    @property
    def block_drop(self):
        return sum(k - 1 for k in self.merge_sizes)

    @property
    def multiplicity(self):
        return profile_multiplicity(self.n, self.merge_sizes, self.s)


@lru_cache(maxsize=128)
def _paintbox_scan(coords, b_max):
    """Unnormalized paintbox rates of one atom with coordinates x for
    every (n; k1..kr; s) collision with n <= b_max, each divided by
    sum x^2. Each block picks coordinate i with probability x_i or lands
    in the dust with probability 1 - sum x: the r merge groups must take r
    distinct coordinates, and each of the s untouched blocks takes a
    coordinate of its own or the dust.

    One scan over the coordinates serves every profile. A state is the
    multiset of merge sizes placed so far (a non-increasing tuple) and the
    number l of coordinates taken by untouched blocks, counted as a set;
    coordinate x stays unused, takes a group of size k (times x^k) or one
    untouched block (times x). Its weight E[ks, l] counts each placement
    once, so a profile reads

        prod_k mult_k(ks)! * sum_l s!/(s - l)! E[ks, l] (1 - sum x)^(s - l)

    where mult_k(ks) is the number of groups of size k: equal-sized groups
    are interchangeable in the state but distinct in the collision, and
    s!/(s - l)! picks which untouched blocks take the l coordinates.

    The scan runs on integers: with x_i = c_i / D, D the lcm of the
    coordinates' denominators, the weight of state (ks, l) is an integer
    over the implied denominator D^(sum ks + l), and the dust is D - sum c
    over D. Every term of an n-block profile is then over D^n. Returns
    (D, sum c^2, totals): the rate of the profile keyed (n, merge_sizes,
    s) is totals[key] * D^2 / (D^n sum c^2), and absent keys are 0."""
    cs, den = integer_numerators(coords)
    weights = {((), 0): 1}
    grow = {}                     # (sizes, k) -> sizes with k inserted
    for c in cs:
        powers = [c ** k for k in range(b_max + 1)]
        grown = dict(weights)
        for (sizes, ell), w in weights.items():
            room = b_max - sum(sizes) - ell
            for k in range(2, room + 1):
                key = grow.get((sizes, k))
                if key is None:
                    key = grow[sizes, k] = tuple(sorted(sizes + (k,),
                                                        reverse=True))
                key = (key, ell)
                grown[key] = grown.get(key, 0) + w * powers[k]
            if room:
                key = (sizes, ell + 1)
                grown[key] = grown.get(key, 0) + w * c
        weights = grown
    dust = den - sum(cs)
    dusts = [dust ** j for j in range(b_max + 1)]
    rates = {}
    for (sizes, ell), w in weights.items():
        if not sizes:
            continue
        placed = sum(sizes)
        # prod_k mult_k!: the orders of the equal-sized groups
        orders = math.prod(math.factorial(sizes.count(k))
                           for k in set(sizes))
        # the untouched blocks this state serves: s >= l, n = placed + s
        for s in range(ell, b_max - placed + 1):
            key = (placed + s, sizes, s)
            term = math.perm(s, ell) * w * dusts[s - ell] * orders
            rates[key] = rates.get(key, 0) + term
    # read-only: the cache hands this one mapping to every caller
    return den, sum(c * c for c in cs), MappingProxyType(rates)


def _atom_rates(xi, b_max):
    """Per atom of xi, its weight and its `_paintbox_scan` up to b_max
    blocks."""
    return [(atom.weight,) + _paintbox_scan(atom.coords, b_max)
            for atom in xi.atoms]


def _rates(xi, atom_rates, b, keys):
    """The rates under xi of the b-block profiles keyed (b, merge_sizes,
    s), from its `_atom_rates`. An atom of weight w adds
    w * total / (D^(b - 2) sum c^2); every rate is summed as an integer
    over the lcm of these denominators and the Kingman mass's, and
    reduced once. The Kingman mass contributes only to the pairwise
    profile (r, k1) = (1, 2)."""
    kingman = xi.kingman_mass
    dens = [weight.denominator * den ** (b - 2) * norm
            for weight, den, norm, _ in atom_rates]
    common = math.lcm(kingman.denominator, *dens)
    pairwise = kingman.numerator * (common // kingman.denominator)
    factors = [(weight.numerator * (common // d), totals)
               for (weight, _, _, totals), d in zip(atom_rates, dens)]
    out = []
    for key in keys:
        total = pairwise if key[1] == (2,) else 0
        for factor, totals in factors:
            total += factor * totals.get(key, 0)
        out.append(Fraction(total, common))
    return out


def collision_rate(xi, profile):
    """Exact rate of a (n; k1..kr; s)-collision under xi."""
    key = (profile.n, profile.merge_sizes, profile.s)
    return _rates(xi, _atom_rates(xi, profile.n), profile.n, [key])[0]


@dataclass(frozen=True)
class RateTable:
    """Per block count b: every achievable profile with its per-partition
    rate and multiplicity. Immutable and freely shareable; the lookups
    below are built on first use."""

    b_max: int
    # rows[b] = tuple of (CollisionProfile, rate, multiplicity)
    rows: dict = field(default_factory=dict)

    def _covers(self, b):
        if b > self.b_max:
            raise ValueError(f"block count {b} exceeds table b_max={self.b_max}")

    def profiles(self, b):
        self._covers(b)
        return self.rows.get(b, ())

    @cached_property
    def _rate_index(self):
        return {(b, prof.merge_sizes, prof.s): rate
                for b, row in self.rows.items() for prof, rate, _ in row}

    def rate_of(self, b, merge_sizes, s):
        self._covers(b)
        return self._rate_index.get((b, tuple(merge_sizes), s), Fraction(0))

    @cached_property
    def _drop_rates(self):
        out = {}
        for b, row in self.rows.items():
            sums = {}
            for prof, rate, mult in row:
                drop = prof.block_drop
                sums[drop] = sums.get(drop, 0) + mult * rate
            out[b] = tuple((drop, total)
                           for drop, total in sorted(sums.items()) if total)
        return out

    def drop_rates(self, b):
        """(block drop, sum of multiplicity * rate over the profiles that
        drop that many blocks) for b blocks, nonzero sums only: the rate at
        which b blocks become b - drop."""
        self._covers(b)
        return self._drop_rates.get(b, ())

    @cached_property
    def _drop_numerators(self):
        drops = self._drop_rates
        nums, den = integer_numerators([total for row in drops.values()
                                        for _, total in row])
        nums = iter(nums)
        out = {}
        for b, row in drops.items():
            pairs = tuple((drop, next(nums)) for drop, _ in row)
            out[b] = (pairs, sum(num for _, num in pairs))
        return den, out

    @property
    def drop_denominator(self):
        """L, the lcm of the denominators of every `drop_rates` sum."""
        return self._drop_numerators[0]

    def drop_numerators(self, b):
        """`drop_rates(b)` on integers over `drop_denominator`: the (block
        drop, numerator) pairs and the numerator of their total, the rate
        at which b blocks see any collision at all."""
        self._covers(b)
        return self._drop_numerators[1].get(b, ((), 0))

    @cached_property
    def _negative_rate(self):
        return next(((prof, rate) for row in self.rows.values()
                     for prof, rate, _ in row if rate < 0), None)

    def check_nonnegative(self):
        """Raise ValueError naming the first profile whose rate is
        negative. The rows are scanned once per table."""
        if self._negative_rate is not None:
            prof, rate = self._negative_rate
            raise ValueError(f"negative rate {rate} for {prof}")


def build_rate_table(xi, b_max=8):
    """Tabulate rates and multiplicities for all profiles with n <= b_max.
    Each atom's coordinates are scanned once for the whole table
    (`_paintbox_scan`): the scan's states count equal-sized merge groups
    and the untouched blocks' coordinates as sets, and every profile reads
    its rate from them with the factors mult_k! and s!/(s - l)!. The rates
    of one block count are summed over the atoms on integers
    (`_rates`)."""
    if b_max < 1:
        raise ValueError("b_max must be >= 1")
    if b_max > MAX_BLOCKS:
        raise ValueError(f"b_max={b_max} exceeds the cap of {MAX_BLOCKS} "
                         "blocks")
    atom_rates = _atom_rates(xi, b_max)
    rows = {}
    for b in range(2, b_max + 1):
        profiles = iter_profiles(b)
        rates = _rates(xi, atom_rates, b, [(b, ks, s) for ks, s in profiles])
        rows[b] = tuple((CollisionProfile(b, ks, s), rate,
                         profile_multiplicity(b, ks, s))
                        for (ks, s), rate in zip(profiles, rates))
    return RateTable(b_max, rows)


@dataclass(frozen=True)
class ConsistencyReport:
    checks: tuple  # (name, lhs, rhs, passed)

    @property
    def all_pass(self):
        return all(p for _, _, _, p in self.checks)


def check_consistency(table):
    """Verify the sampling-consistency identities exactly: restricting the
    (b+1)-block chain to [b] must reproduce the b-block rates. Each
    identity is checked once. The named identities among `NAMED_RATES`
    come first: a2 = a21 + a3, a3 = a31 + a4, a21 = a211 + a22 + a31.
    They are the restrictions of the profiles of a2, a3 and a21, which the
    restriction checks that follow therefore skip."""
    if table.b_max < 4:
        raise ValueError("consistency check needs a table covering b <= 4")
    checks = []
    for lhs, terms in _NAMED_IDENTITIES:
        rate = table.rate_of(*NAMED_RATES[lhs])
        rhs = sum(table.rate_of(*NAMED_RATES[t]) for t in terms)
        checks.append((f"{lhs} = {' + '.join(terms)}", rate, rhs, rate == rhs))
    named = {NAMED_RATES[lhs] for lhs, _ in _NAMED_IDENTITIES}
    for b in range(2, table.b_max):
        for prof, rate, _ in table.profiles(b):
            if (b, prof.merge_sizes, prof.s) in named:
                continue
            rhs = table.rate_of(b + 1, prof.merge_sizes, prof.s + 1)
            ks = list(prof.merge_sizes)
            for i in range(len(ks)):
                grown = tuple(sorted(ks[:i] + [ks[i] + 1] + ks[i + 1:],
                                     reverse=True))
                rhs += table.rate_of(b + 1, grown, prof.s)
            if prof.s >= 1:
                paired = tuple(sorted(ks + [2], reverse=True))
                rhs += prof.s * table.rate_of(b + 1, paired, prof.s - 1)
            name = f"restriction b={b} profile {prof.merge_sizes};{prof.s}"
            checks.append((name, rate, rhs, rate == rhs))
    return ConsistencyReport(tuple(checks))
