"""Set partitions of [n], colony-labeled partitions, and merge bookkeeping.

Partitions are tuples of blocks; each block is a sorted tuple of 1-based
integers and blocks are ordered by least element, which makes equality
canonical.
"""

import math
import operator

from .records import Record, set_field

# Bell(12) = 4 213 597 partitions is as far as enumeration goes
MAX_ENUMERATION_SIZE = 12

COLONY_1 = 1
COLONY_2 = 2


def canonical(blocks):
    """Sort block contents and order blocks by least element."""
    bs = [tuple(sorted(b)) for b in blocks]
    bs.sort(key=lambda b: b[0])
    return tuple(bs)


def validate_partition(pi):
    """Check that pi is a canonical partition of [n], n its element count:
    nonempty, strictly increasing blocks, disjoint, ordered by least
    element and covering [n]. One pass over the blocks; a block's own
    faults are reported first, then the order, then the cover."""
    seen, least, ordered = set(), -math.inf, True
    for b in pi:
        if not b:
            raise ValueError("empty block")
        if not all(map(operator.lt, b, b[1:])):
            if sorted(b) != list(b):
                raise ValueError(f"block {b} not sorted")
            raise ValueError(f"block {b} repeats an element")
        count = len(seen)
        seen.update(b)
        if len(seen) != count + len(b):
            raise ValueError("blocks not disjoint")
        ordered = ordered and least <= b[0]
        least = b[0]
    if not ordered:
        raise ValueError("blocks not ordered by least element")
    if seen != set(range(1, len(seen) + 1)):
        raise ValueError(f"blocks do not cover [{len(seen)}]")


def validate_labels(labels):
    """Check that every label is colony 1 or 2."""
    if any(c not in (COLONY_1, COLONY_2) for c in labels):
        raise ValueError("labels must be colony 1 or 2")


def singleton_partition(n):
    return tuple((i,) for i in range(1, n + 1))


def profile_of(pi_prime):
    """Collision profile (n; k1..kr; s) induced by a partition of [b]:
    merge_sizes are the block sizes >= 2, s counts singletons."""
    n = sum(len(b) for b in pi_prime)
    merge_sizes = tuple(sorted((len(b) for b in pi_prime if len(b) >= 2),
                               reverse=True))
    s = sum(1 for b in pi_prime if len(b) == 1)
    return n, merge_sizes, s


class LabeledPartition(Record):
    """A partition with one colony label (1 or 2) per block."""

    _fields = ("partition", "labels")

    def __init__(self, partition, labels):
        validate_partition(partition)
        if len(labels) != len(partition):
            raise ValueError("one label per block required")
        validate_labels(labels)
        set_field(self, "partition", partition)
        set_field(self, "labels", labels)

    @classmethod
    def _canonical(cls, partition, labels):
        """A labeled partition built without `__init__`'s checks, for
        the dual's chains: their blocks start as a checked partition and
        change only by `coagulate`, which keeps them canonical, and their
        labels start checked and change only to colony 1 or 2."""
        lp = object.__new__(cls)
        set_field(lp, "partition", partition)
        set_field(lp, "labels", labels)
        return lp

    @property
    def block_count(self):
        return len(self.partition)


def colony_merging(labels, colony, pi_prime):
    """The merging of the blocks labeled `colony` by pi_prime, a partition
    of their ranks among that colony's blocks: per block of pi_prime with
    at least two ranks, the 0-based positions of the blocks it unites."""
    positions = [i for i, c in enumerate(labels) if c == colony]
    if len(positions) != sum(len(b) for b in pi_prime):
        raise ValueError(
            f"pi_prime covers {sum(len(b) for b in pi_prime)} blocks, "
            f"colony {colony} has {len(positions)}")
    return [[positions[k - 1] for k in b] for b in pi_prime if len(b) > 1]


def merge_groups(n, merging):
    """Per new block, the 0-based positions of the n old blocks it unites,
    ascending, in least-element order: each position list of `merging`
    (disjoint, of at least two positions, in any order) is one group and
    every other position is a group of its own."""
    groups = [sorted(g) for g in merging]
    taken = {i for g in merging for i in g}
    groups += [[i] for i in range(n) if i not in taken]
    # old blocks are in least-element order, so new ones sort by position
    groups.sort()
    return groups


def coagulate(blocks, groups):
    """The blocks that `groups` (see `merge_groups`) unite; a block that
    merges with no other is already sorted."""
    return tuple(tuple(sorted(x for i in g for x in blocks[i]))
                 if len(g) > 1 else blocks[g[0]] for g in groups)


def enumerate_partitions(b):
    """All Bell(b) partitions of [b] via restricted growth strings."""
    if b > MAX_ENUMERATION_SIZE:
        raise ValueError(f"b={b} exceeds cap {MAX_ENUMERATION_SIZE}")
    if b < 1:
        raise ValueError("b must be >= 1")
    out = []
    rgs = [0] * b

    def rec(i, maxval):
        if i == b:
            blocks = [[] for _ in range(maxval + 1)]
            for elem, g in enumerate(rgs, start=1):
                blocks[g].append(elem)
            out.append(tuple(tuple(blk) for blk in blocks))
            return
        for v in range(maxval + 2):
            rgs[i] = v
            rec(i + 1, max(maxval, v))

    rgs[0] = 0
    rec(1, 0)
    return out


def profile_multiplicity(b, merge_sizes, s):
    """Number of partitions of [b] realizing the profile:
    b! / (prod k_i! * prod_j m_j!) with m_j counting blocks of size j.
    merge_sizes is non-increasing, as in a CollisionProfile, so equal
    sizes come in runs: multiplying by each size's place in its run gives
    m_j! for every size j."""
    denom = math.factorial(s)
    run, prev = 0, None
    for k in merge_sizes:
        run = run + 1 if k == prev else 1
        denom *= math.factorial(k) * run
        prev = k
    return math.factorial(b) // denom


def iter_profiles(b):
    """All collision profiles (merge_sizes, s) achievable from b blocks,
    excluding the trivial no-collision profile, in sorted order. Generated
    as integer partitions of b with at least one part >= 2: each
    non-increasing run of parts >= 2 with sum at most b is one profile,
    its remainder the untouched blocks."""
    profiles = []

    def rec(remaining, max_part, merge_sizes):
        if merge_sizes:
            profiles.append((merge_sizes, remaining))
        for k in range(min(remaining, max_part), 1, -1):
            rec(remaining - k, k, merge_sizes + (k,))

    rec(b, b, ())
    return sorted(profiles)
