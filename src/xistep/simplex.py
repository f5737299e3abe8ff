"""Finite measures on the infinite simplex and exact coalescence rates.

A measure is a Kingman mass at the zero sequence plus finitely many atoms
with finitely many positive coordinates, so every collision rate is an
exact rational.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .partitions import (iter_profiles, profile_multiplicity, profile_of,
                         is_singleton_partition)

MAX_ATOM_SUPPORT = 8
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
        if len(coords) > MAX_ATOM_SUPPORT:
            raise ValueError(f"atom support larger than {MAX_ATOM_SUPPORT}")
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
    def r(self):
        return len(self.merge_sizes)

    @property
    def block_drop(self):
        return sum(k - 1 for k in self.merge_sizes)

    @property
    def multiplicity(self):
        return profile_multiplicity(self.n, self.merge_sizes, self.s)


def _atom_rate(atom, profile):
    """Unnormalized paintbox rate of one atom x for a (n; k1..kr; s)
    collision, divided by sum x^2. Each block picks coordinate i with
    probability x_i or lands in the dust with probability 1 - sum x: the r
    merge groups must take r distinct coordinates, and each of the s
    untouched blocks takes a coordinate of its own or the dust.

    The coordinates are scanned once. A state is the bitmask of merge groups
    placed and the count l of untouched blocks placed so far; coordinate x
    stays unused, is taken by an unplaced group of size k (times x^k) or by
    one of the s - l unplaced untouched blocks (times x (s - l)). The rate
    sums, over states with every group placed, weight (1 - sum x)^(s - l).

    The recurrence runs on integers: with x_i = c_i / D, D the lcm of the
    coordinates' denominators, the weight of state (mask, l) is an integer
    over the implied denominator D^(sum of k in mask + l), and the dust is
    D - sum c over D. Every full-mask term is then over D^n, so the one
    Fraction built is total * D^2 / (D^n sum c^2)."""
    ks = profile.merge_sizes
    s = profile.s
    den = math.lcm(*(x.denominator for x in atom.coords))
    cs = [x.numerator * (den // x.denominator) for x in atom.coords]
    weights = {(0, 0): 1}
    for c in cs:
        powers = [c ** k for k in ks]
        grown = dict(weights)
        for (mask, ell), w in weights.items():
            for j, ck in enumerate(powers):
                if not mask >> j & 1:
                    key = (mask | 1 << j, ell)
                    grown[key] = grown.get(key, 0) + w * ck
            if ell < s:
                key = (mask, ell + 1)
                grown[key] = grown.get(key, 0) + w * c * (s - ell)
        weights = grown
    full = (1 << len(ks)) - 1
    dust = den - sum(cs)
    total = sum(w * dust ** (s - ell)
                for (mask, ell), w in weights.items() if mask == full)
    return Fraction(total * den * den,
                    den ** profile.n * sum(c * c for c in cs))


def collision_rate(xi, profile):
    """Exact rate of a (n; k1..kr; s)-collision under xi. The Kingman mass
    contributes only to the pairwise profile (r, k1) = (1, 2)."""
    rate = Fraction(0)
    if profile.r == 1 and profile.merge_sizes == (2,):
        rate += xi.kingman_mass
    for atom in xi.atoms:
        rate += atom.weight * _atom_rate(atom, profile)
    return rate


def per_partition_rate(xi, pi_prime):
    """Rate of the collision induced by a concrete partition of [b];
    zero for the singleton (no-collision) partition."""
    if is_singleton_partition(pi_prime):
        return Fraction(0)
    n, merge_sizes, s = profile_of(pi_prime)
    return collision_rate(xi, CollisionProfile(n, merge_sizes, s))


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
    def _total_drop_rates(self):
        return {b: sum(total for _, total in drops)
                for b, drops in self._drop_rates.items()}

    def total_drop_rate(self, b):
        """The sum of `drop_rates(b)`: the rate at which b blocks see any
        collision at all."""
        self._covers(b)
        return self._total_drop_rates.get(b, 0)


def build_rate_table(xi, b_max=8):
    """Tabulate rates and multiplicities for all profiles with n <= b_max."""
    if b_max < 1:
        raise ValueError("b_max must be >= 1")
    if b_max > MAX_BLOCKS:
        raise ValueError(f"b_max={b_max} exceeds the cap of {MAX_BLOCKS} "
                         "blocks")
    rows = {}
    for b in range(2, b_max + 1):
        entries = []
        for merge_sizes, s in iter_profiles(b):
            prof = CollisionProfile(b, merge_sizes, s)
            entries.append((prof, collision_rate(xi, prof), prof.multiplicity))
        rows[b] = tuple(entries)
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
