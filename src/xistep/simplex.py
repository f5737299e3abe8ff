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
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType

from .partitions import iter_profiles, profile_multiplicity
from .rationals import integer_numerators
from .records import Record, set_field

# largest block count a rate table (hence b_max and an exact order) covers
MAX_BLOCKS = 20

# the named collision rates of up to four lineages ->
# (block count, merge sizes, untouched blocks)
NAMED_RATES = {"a2": (2, (2,), 0), "a21": (3, (2,), 1), "a3": (3, (3,), 0),
               "a211": (4, (2,), 2), "a22": (4, (2, 2), 0),
               "a31": (4, (3,), 1), "a4": (4, (4,), 0)}


class SimplexAtom(Record):
    """A point of the simplex with finite support, carrying a weight: its
    `coords` are non-increasing positive Fractions of sum at most 1."""

    _fields = ("coords", "weight")

    def __init__(self, coords, weight):
        coords = tuple(Fraction(c) for c in coords)
        weight = Fraction(weight)
        if not coords:
            raise ValueError("atom needs at least one coordinate; "
                             "use kingman_mass for the zero point")
        if any(c <= 0 for c in coords):
            raise ValueError("atom coordinates must be positive")
        if list(coords) != sorted(coords, reverse=True):
            raise ValueError("atom coordinates must be non-increasing")
        if sum(coords) > 1:
            raise ValueError("atom coordinate sum exceeds 1")
        if weight <= 0:
            raise ValueError("atom weight must be positive")
        set_field(self, "coords", coords)
        set_field(self, "weight", weight)


class XiMeasure(Record):
    """Kingman mass plus finitely many simplex atoms."""

    _fields = ("kingman_mass", "atoms")

    def __init__(self, kingman_mass=Fraction(0), atoms=()):
        kingman_mass, atoms = Fraction(kingman_mass), tuple(atoms)
        if kingman_mass < 0:
            raise ValueError("kingman_mass must be nonnegative")
        set_field(self, "kingman_mass", kingman_mass)
        set_field(self, "atoms", atoms)

    @property
    def total_mass(self):
        return self.kingman_mass + sum(a.weight for a in self.atoms)


class CollisionProfile(Record):
    """(n; k1,...,kr; s): n blocks collide into r merged groups of sizes
    k1 >= ... >= kr >= 2 while s blocks stay untouched."""

    _fields = ("n", "merge_sizes", "s")

    def __init__(self, n, merge_sizes, s):
        ks = tuple(merge_sizes)
        if not ks or any(k < 2 for k in ks):
            raise ValueError("merge sizes must all be >= 2 and nonempty")
        if list(ks) != sorted(ks, reverse=True):
            raise ValueError("merge sizes must be non-increasing")
        if s < 0 or n != s + sum(ks):
            raise ValueError("need n = s + sum(k_i) with s >= 0")
        set_field(self, "n", n)
        set_field(self, "merge_sizes", ks)
        set_field(self, "s", s)

    @property
    def block_drop(self):
        return sum(k - 1 for k in self.merge_sizes)


@lru_cache(maxsize=MAX_BLOCKS)
def _profiles(b):
    """Every achievable collision profile of b blocks (`iter_profiles`'s
    order) with its multiplicity, validated once per block count: the
    profiles are immutable, so every rate table shares them."""
    return tuple((CollisionProfile(b, ks, s), profile_multiplicity(b, ks, s))
                 for ks, s in iter_profiles(b))


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


class RateTable(Record):
    """Per block count b: every achievable profile with its per-partition
    rate and multiplicity, `rows[b]`, a tuple of (CollisionProfile, rate,
    multiplicity). Immutable and freely shareable; the lookups below are
    built on first use."""

    _fields = ("b_max", "rows")

    def __init__(self, b_max, rows=None):
        set_field(self, "b_max", b_max)
        set_field(self, "rows", {} if rows is None else rows)

    def __hash__(self):
        # `rows` is a dict: equal tables hold the same items in any order
        return hash((self.b_max, frozenset(self.rows.items())))

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
    def _drop_numerators(self):
        """Every row's rate as an integer over one denominator, then per
        (b, block drop) the integer sum of multiplicity * numerator;
        dividing the denominator and the sums by their gcd leaves the lcm
        form of the sums. Zero sums are dropped."""
        nums, den = integer_numerators([rate for row in self.rows.values()
                                        for _, rate, _ in row])
        nums = iter(nums)
        sums = {}
        for b, row in self.rows.items():
            per_drop = {}
            for (prof, _, mult), num in zip(row, nums):
                drop = prof.block_drop
                per_drop[drop] = per_drop.get(drop, 0) + mult * num
            sums[b] = sorted((drop, total)
                             for drop, total in per_drop.items() if total)
        g = math.gcd(den, *[total for row in sums.values()
                            for _, total in row])
        out = {}
        for b, row in sums.items():
            pairs = tuple((drop, total // g) for drop, total in row)
            out[b] = (pairs, sum(num for _, num in pairs))
        return den // g, out

    @property
    def drop_denominator(self):
        """L, the lcm of the denominators of every drop rate: the sums of
        multiplicity * rate over the profiles of b blocks that drop the
        same number of blocks."""
        return self._drop_numerators[0]

    def drop_numerators(self, b):
        """The drop rates of b blocks on integers over `drop_denominator`:
        the (block drop, numerator) pairs, nonzero ones only, for the rate
        at which b blocks become b - drop, and the numerator of their
        total, the rate at which b blocks see any collision at all."""
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
    (`_rates`), for the profiles and multiplicities every table shares
    (`_profiles`)."""
    if b_max < 1:
        raise ValueError("b_max must be >= 1")
    if b_max > MAX_BLOCKS:
        raise ValueError(f"b_max={b_max} exceeds the cap of {MAX_BLOCKS} "
                         "blocks")
    atom_rates = _atom_rates(xi, b_max)
    rows = {}
    for b in range(2, b_max + 1):
        profiles = _profiles(b)
        rates = _rates(xi, atom_rates, b,
                       [(b, prof.merge_sizes, prof.s) for prof, _ in profiles])
        rows[b] = tuple((prof, rate, mult)
                        for (prof, mult), rate in zip(profiles, rates))
    return RateTable(b_max, rows)


class ConsistencyReport(Record):
    """`checks` holds (name, lhs, rhs, passed) tuples."""

    _fields = ("checks",)

    def __init__(self, checks):
        set_field(self, "checks", checks)

    @property
    def all_pass(self):
        return all(p for _, _, _, p in self.checks)


def check_consistency(table):
    """Verify the sampling-consistency identities exactly: restricting the
    (b+1)-block chain to [b] must reproduce the b-block rates, once per
    profile of b blocks. A check whose rate and every right-side rate are
    `NAMED_RATES` is named by them, the terms sorted: a2 = a21 + a3,
    a21 = a211 + a22 + a31 and a3 = a31 + a4."""
    if table.b_max < 4:
        raise ValueError("consistency check needs a table covering b <= 4")
    names = {key: name for name, key in NAMED_RATES.items()}
    checks = []
    for b in range(2, table.b_max):
        for prof, rate, _ in table.profiles(b):
            ks, s = prof.merge_sizes, prof.s
            terms = [(b + 1, ks, s + 1)]
            terms += [(b + 1, tuple(sorted(ks[:i] + (k + 1,) + ks[i + 1:],
                                           reverse=True)), s)
                      for i, k in enumerate(ks)]
            rhs = table.rate_of(*terms[0])
            for key in terms[1:]:
                rhs += table.rate_of(*key)
            if s >= 1:
                terms.append((b + 1, tuple(sorted(ks + (2,), reverse=True)),
                              s - 1))
                rhs += s * table.rate_of(*terms[-1])
            lhs = names.get((b, ks, s))
            right = lhs and [names.get(key) for key in terms]
            name = (f"{lhs} = {' + '.join(sorted(right))}"
                    if right and None not in right else
                    f"restriction b={b} profile {ks};{s}")
            checks.append((name, rate, rhs, rate == rhs))
    return ConsistencyReport(tuple(checks))
