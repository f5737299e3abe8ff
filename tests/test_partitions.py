import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from xistep import (COLONY_1, COLONY_2, DualState, LabeledPartition,
                    SetFunction, TensorFunction, enumerate_partitions,
                    profile_of)
from xistep.partitions import (colony_merging, profile_multiplicity,
                               singleton_partition, validate_partition)
from xistep.simulator import _Chain, _FloatPayload, _start

from conftest import kingman_model
# the frozen event loop's operations on labels and blocks, and its draw,
# which `simulator._run` must match to the bit
from test_simulator import (_coag_colony, _relabel,
                            random_partition_with_profile)

PARAMS = kingman_model()
# block i of a chain starts with the constant factor PRIMES[i], so each
# factor after a merge is the product that names the blocks it unites
PRIMES = (2, 3, 5, 7, 11, 13, 17)


def _start_at(blocks, labels):
    """The dual at (blocks, labels) with block i carrying PRIMES[i], and
    its start payload."""
    f = TensorFunction(tuple(SetFunction.constant(p)
                             for p in PRIMES[:len(blocks)]))
    return (DualState(LabeledPartition(blocks, tuple(labels)), f),
            _start(f.factors, PARAMS.mutation.base))


def _chain_at(start):
    """A chain from `start` (see `_start_at`) with its float payload."""
    state, payload = start
    return _Chain.of(state, _FloatPayload(payload, PARAMS._tables[2]))


def kernel_event(start, kind, colony, detail):
    """One recorded event through the kernel's own route, `_Chain.apply`,
    from `start` (see `_start_at`): the blocks, labels and factors after
    it."""
    chain = _chain_at(start)
    chain.apply(kind, colony, detail)
    assert chain.events == 1
    return (chain.blocks, tuple(chain.labels),
            [g for g, in chain.payload.factors()])


def assert_refused(start, kind, colony, detail, reason):
    """`_Chain.apply` refuses the record, naming its kind, colony and
    detail, and leaves the chain as it was."""
    chain = _chain_at(start)
    before = (chain.blocks, list(chain.labels), chain.payload.cells)
    with pytest.raises(ValueError, match=reason) as err:
        chain.apply(kind, colony, detail)
    assert f"{kind} record" in str(err.value)
    assert f"colony {colony}" in str(err.value)
    assert str(detail) in str(err.value)
    assert (chain.blocks, chain.labels, chain.payload.cells) == before
    assert chain.events == 0


def kernel_migrate(blocks, labels, k, colony):
    """Block k (1-based) migrating out of `colony`."""
    return kernel_event(_start_at(blocks, labels), "migration", colony, k)


def kernel_coag(blocks, labels, colony, pi_prime):
    """`colony`'s blocks coagulated by pi_prime, a partition of their
    ranks."""
    return kernel_event(_start_at(blocks, labels), "coalescence", colony,
                        pi_prime)


def coag(pi, pi_prime):
    """Coagulation of an unlabeled partition: every block in colony 1. By
    the all-singletons pi_prime it is pi itself, which the kernel does not
    replay: such a record merges nothing, and it is checked to be
    refused."""
    labels = (COLONY_1,) * len(pi)
    if all(len(b) == 1 for b in pi_prime):
        assert_refused(_start_at(pi, labels), "coalescence", COLONY_1,
                       pi_prime, "merges nothing")
        return pi
    return kernel_coag(pi, labels, COLONY_1, pi_prime)[0]


def partitions_with_profile(b, merge_sizes, s):
    """Concrete partitions of [b] realizing a collision profile, by
    enumeration: the oracle for `random_partition_with_profile`."""
    want = (b, tuple(sorted(merge_sizes, reverse=True)), s)
    return [pi for pi in enumerate_partitions(b) if profile_of(pi) == want]


class TestCoag:
    def test_singletons_reproduce_pi_prime(self):
        assert coag(((1,), (2,), (3,)), ((1, 3), (2,))) == ((1, 3), (2,))

    def test_identity(self):
        pi = ((1, 4), (2,), (3,))
        assert coag(pi, singleton_partition(3)) == pi

    def test_merge_with_reorder(self):
        assert coag(((1, 4), (2,), (3,)), ((1, 2), (3,))) == ((1, 2, 4), (3,))

    def test_associativity_random(self):
        rng = random.Random(11)
        for _ in range(200):
            b = rng.randint(2, 6)
            pi = rng.choice(enumerate_partitions(b))
            pi2 = rng.choice(enumerate_partitions(len(pi)))
            pi3 = rng.choice(enumerate_partitions(len(pi2)))
            assert coag(coag(pi, pi2), pi3) == coag(pi, coag(pi2, pi3))


class TestLabeled:
    def test_relabel(self):
        def migrate(labels, k, colony):
            return kernel_migrate(singleton_partition(len(labels)), labels,
                                  k, colony)[1]

        assert migrate((1, 2, 2), 2, COLONY_2) == (1, 1, 2)
        assert migrate((1,), 1, COLONY_1) == (2,)
        assert migrate((2, 2), 1, COLONY_2) == (1, 2)
        for k in (0, 3):
            with pytest.raises(IndexError, match=f"position {k} out"):
                migrate((2, 2), k, COLONY_2)

    def test_coag_labeled_colony1(self):
        blocks, labels, _ = kernel_coag(singleton_partition(4), (1, 1, 2, 2),
                                        COLONY_1, ((1, 2),))
        assert blocks == ((1, 2), (3,), (4,))
        assert labels == (1, 2, 2)

    def test_coag_labeled_trivial(self):
        # used to replay as a counted event that changed nothing
        assert_refused(_start_at(singleton_partition(4), (1, 1, 2, 2)),
                       "coalescence", COLONY_2, singleton_partition(2),
                       "merges nothing")

    @pytest.mark.parametrize("labels,detail,reason", [
        ((1, 1), ((1, 1),), "repeats an element"),
        ((1, 2, 1, 1), ((1, 2, 2),), "repeats an element"),
        ((1, 2, 1, 1), ((1, 2, 2), (3,)), "repeats an element"),
        ((1, 2, 1, 1), ((1, 3), (3,)), "blocks not disjoint"),
        ((1, 2, 1, 1), ((1, 2),), "covers 2 blocks, colony 1 has 3")],
        ids=["repeat", "repeat_in_block", "repeat_and_cover", "overlap",
             "rank_count"])
    def test_detail_not_a_partition_refused(self, labels, detail, reason):
        # "repeat", "repeat_in_block" and "overlap" have as many ranks as
        # the colony has blocks, so only the partition check refuses them;
        # they used to replay as some other event (a repeated rank squared
        # its block's factor)
        assert_refused(_start_at(singleton_partition(len(labels)), labels),
                       "coalescence", COLONY_1, detail, reason)

    def test_migration_from_the_wrong_colony_refused(self):
        # block 2 is in colony 2; a record moving it out of colony 1 used
        # to replay as a counted event that changed nothing
        assert_refused(_start_at(singleton_partition(3), (1, 2, 2)),
                       "migration", COLONY_1, 2, "block 2 is in colony 2")

    def test_coag_labeled_reorders_by_least_element(self):
        blocks, labels, _ = kernel_coag(singleton_partition(3), (2, 1, 2),
                                        COLONY_2, ((1, 2),))
        assert blocks == ((1, 3), (2,))
        assert labels == (2, 1)

    # the factors name the merge groups: 2 * 3 unites blocks 0 and 1

    def test_merge_groups(self):
        out = kernel_coag(singleton_partition(4), (1, 1, 2, 2), COLONY_1,
                          ((1, 2),))
        assert out == (((1, 2), (3,), (4,)), (1, 2, 2), [2 * 3, 5, 7])

    def test_merge_groups_trivial(self):
        # a partition that merges nothing gives no merge groups, and the
        # record is refused with the factors untouched
        assert colony_merging((1, 2, 1), COLONY_1,
                              singleton_partition(2)) == []
        assert_refused(_start_at(singleton_partition(3), (1, 2, 1)),
                       "coalescence", COLONY_1, singleton_partition(2),
                       "merges nothing")

    def test_merge_groups_interleaved(self):
        out = kernel_coag(((1, 4), (2,), (3,)), (2, 1, 2), COLONY_2,
                          ((1, 2),))
        assert out == (((1, 3, 4), (2,)), (2, 1), [2 * 5, 3])


def test_canonical_builder_equals_the_constructor():
    # the dual's chains build their labeled partitions without a re-check
    for pi, labels in _labelled_partitions(5):
        built = LabeledPartition._canonical(pi, labels)
        assert built == LabeledPartition(pi, labels)
        assert built.block_count == len(pi)


def _labelled_partitions(max_n=6):
    """Every partition of [n], n <= max_n, with every colony labelling."""
    for n in range(1, max_n + 1):
        for pi in enumerate_partitions(n):
            for labels in itertools.product((COLONY_1, COLONY_2),
                                            repeat=len(pi)):
                yield pi, labels


class TestAgainstOracles:
    """The kernel's own route (`_Chain.apply`: a migration moves one block
    out of its colony, a coalescence runs `colony_merging`, `merge_groups` and `coagulate`
    and multiplies the united factors) against the frozen loop's
    `_relabel` and `_coag_colony`, on every labelled partition of up to 6
    blocks."""

    def test_relabel(self):
        for pi, labels in _labelled_partitions():
            factors = list(PRIMES[:len(pi)])
            start = _start_at(pi, labels)
            for k, colony in enumerate(labels, start=1):
                other = COLONY_1 if colony == COLONY_2 else COLONY_2
                assert kernel_event(start, "migration", colony, k) == (
                    pi, _relabel(labels, k, other), factors)
                assert_refused(start, "migration", other, k,
                               f"block {k} is in colony {colony}")

    def test_coag_colony(self):
        calls = 0
        for pi, labels in _labelled_partitions():
            start = _start_at(pi, labels)
            for colony in (COLONY_1, COLONY_2):
                count = labels.count(colony)
                if count == 0:
                    continue
                for pi_prime in enumerate_partitions(count):
                    calls += 1
                    if all(len(b) == 1 for b in pi_prime):
                        assert_refused(start, "coalescence", colony,
                                       pi_prime, "merges nothing")
                        continue
                    blocks, new_labels, groups = _coag_colony(
                        pi, labels, colony, pi_prime)
                    factors = [math.prod(PRIMES[i] for i in g)
                               for g in groups]
                    assert kernel_event(start, "coalescence", colony,
                                        pi_prime) == (blocks, new_labels,
                                                      factors)
        assert calls == 19_852


class TestEnumeration:
    def test_bell_numbers(self):
        assert len(enumerate_partitions(1)) == 1
        assert len(enumerate_partitions(3)) == 5
        assert len(enumerate_partitions(4)) == 15
        assert len(enumerate_partitions(6)) == 203

    def test_partitions_canonical_and_unique(self):
        parts = enumerate_partitions(5)
        assert len(set(parts)) == len(parts)
        for pi in parts:
            firsts = [b[0] for b in pi]
            assert firsts == sorted(firsts)
            assert sorted(x for b in pi for x in b) == list(range(1, 6))


class TestProfiles:
    def test_multiplicity_formula(self):
        assert profile_multiplicity(4, (2,), 2) == 6
        assert profile_multiplicity(4, (2, 2), 0) == 3
        assert profile_multiplicity(4, (3,), 1) == 4
        assert profile_multiplicity(4, (4,), 0) == 1
        assert profile_multiplicity(3, (2,), 1) == 3

    def test_multiplicity_counts_partitions(self):
        for b in range(2, 7):
            by_profile = {}
            for pi in enumerate_partitions(b):
                _, merge_sizes, s = profile_of(pi)
                by_profile[(merge_sizes, s)] = \
                    by_profile.get((merge_sizes, s), 0) + 1
            for (merge_sizes, s), count in by_profile.items():
                assert profile_multiplicity(b, merge_sizes, s) == count

    def test_random_partition_has_profile(self):
        rng = random.Random(5)
        for _ in range(100):
            pi = random_partition_with_profile(5, (2, 2), 1, rng)
            assert profile_of(pi) == (5, (2, 2), 1)

    def test_random_partition_uniform(self):
        # chi-squared-style sanity: all 15 (4;2;2)-partitions... there are
        # 6 of them; each should get about 1/6 of the draws
        rng = random.Random(9)
        counts = {}
        n = 6000
        for _ in range(n):
            pi = random_partition_with_profile(4, (2,), 2, rng)
            counts[pi] = counts.get(pi, 0) + 1
        assert set(counts) == set(partitions_with_profile(4, (2,), 2))
        expected = n / 6
        for c in counts.values():
            assert abs(c - expected) < 5 * math.sqrt(expected)


@given(st.integers(min_value=1, max_value=7), st.randoms())
@settings(max_examples=30, deadline=None)
def test_coag_block_count(b, rnd):
    pi = rnd.choice(enumerate_partitions(b))
    pi2 = rnd.choice(enumerate_partitions(len(pi)))
    assert len(coag(pi, pi2)) == len(pi2)


def test_partition_size_cap():
    with pytest.raises(ValueError):
        enumerate_partitions(13)


@pytest.mark.parametrize("make,message", [
    (lambda: validate_partition(((1,), ())), "empty block"),
    (lambda: validate_partition(((2, 1),)), r"block \(2, 1\) not sorted"),
    (lambda: validate_partition(((1, 1),)),
     r"block \(1, 1\) repeats an element"),
    (lambda: validate_partition(((1, 2, 2), (3,))),
     r"block \(1, 2, 2\) repeats an element"),
    (lambda: LabeledPartition(((1, 1),), (1,)),
     r"block \(1, 1\) repeats an element"),
    (lambda: validate_partition(((1, 2), (2,))), "blocks not disjoint"),
    (lambda: validate_partition(((2,), (1,))),
     "blocks not ordered by least element"),
    (lambda: validate_partition(((1,), (3,))), r"blocks do not cover \[2\]"),
    (lambda: LabeledPartition(singleton_partition(2), (1,)),
     "one label per block required"),
    (lambda: LabeledPartition(singleton_partition(1), (3,)),
     "labels must be colony 1 or 2")],
    ids=["empty_block", "unsorted_block", "repeated_element",
         "repeated_element_covering", "labeled_repeated_element",
         "overlapping_blocks",
         "blocks_out_of_order", "gap", "label_count", "unknown_colony"])
def test_invalid_partition_refused(make, message):
    with pytest.raises(ValueError, match=message):
        make()
