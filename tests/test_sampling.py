import math
import re
from collections import Counter
from itertools import combinations, islice, product

import numpy as np
import pytest

import varbatch.sampling as sampling
from helpers import dense_sample_without_replacement, dict_loop_batch
from varbatch import (
    Batch,
    BatchSizeRule,
    EnumerationCapError,
    EpsilonSchedule,
    FiniteSumProblem,
    LearningRateSchedule,
    RunConfig,
    Scheme,
    SeededRng,
    VarianceCap,
    analytic_variance,
    analytic_variance_with_replacement,
    analytic_variance_without_replacement,
    average_batch_covariance,
    batch_bound_without_replacement,
    batch_probability,
    count_batches,
    empirical_batch_variance,
    enumerate_batches,
    exact_batch_variance,
    make_batch,
    min_batch_with_replacement,
    min_batch_without_replacement,
    sample_with_replacement,
    sample_without_replacement,
)
from varbatch.sampling import _LOOP_FREE_MIN_SIZE, _fisher_yates_batch

WITH = Scheme.WITH_REPLACEMENT
WITHOUT = Scheme.WITHOUT_REPLACEMENT


def test_batch_canonical_form_enforced():
    with pytest.raises(ValueError):
        Batch((2, 1), WITHOUT)
    with pytest.raises(ValueError):
        Batch((1, 1), WITHOUT)
    with pytest.raises(ValueError):
        Batch((2, 1), WITH)
    with pytest.raises(ValueError):
        Batch((), WITHOUT)
    with pytest.raises(ValueError):
        Batch((-1, 2), WITHOUT)
    # A scheme's flag, or anything else but a Scheme, is refused, not read as
    # with replacement.
    for scheme in ("without", "with", None):
        with pytest.raises(ValueError, match="Scheme"):
            Batch((1, 1), scheme)
    with pytest.raises(ValueError, match="Scheme"):
        make_batch([2, 1], "x")
    assert Batch((1, 1, 3), WITH).size == 3


def test_batch_rejects_indices_outside_the_index_type():
    # Floats are refused, not truncated, and booleans are not read as 0/1.
    for indices in [(1.5, 2), (0, 2**63), (2**63,), (2**70,), ("a",), (False, True)]:
        with pytest.raises(ValueError, match="integers"):
            Batch(indices, WITH)
    for indices in ([0.5, 2], [True, False], np.array([1, 2], np.uint64)):
        with pytest.raises(ValueError, match="integers"):
            make_batch(indices, WITH)


def test_batch_views_agree_and_are_built_once():
    # Sampled and checked batches hold the array, enumerated ones the tuple;
    # a missing view is built on first read, read-only, and kept.
    rng = SeededRng(3)
    built = [
        sample_with_replacement(rng, 50, 7),
        sample_without_replacement(rng, 50, 7),
        sample_without_replacement(rng, 500, _LOOP_FREE_MIN_SIZE),
        next(enumerate_batches(5, 3, WITH)),
        Batch((1, 4, 4), WITH),
    ]
    for batch in built:
        assert batch.array.dtype == np.intp and not batch.array.flags.writeable
        assert batch.array.tolist() == list(batch.indices)
        assert batch.indices is batch.indices and batch.array is batch.array
        assert batch.size == len(batch.indices)
        assert batch == Batch(batch.indices, batch.scheme)
        assert hash(batch) == hash(Batch(batch.indices, batch.scheme))
        assert repr(batch) == f"Batch(indices={batch.indices!r}, scheme={batch.scheme!r})"
    # Any sequence or 1-D integer array gives the same batch, of Python ints;
    # a checked batch holds a copy of the caller's array and leaves it writeable.
    array = np.array([1, 4])
    expected = Batch((1, 4), WITHOUT)
    for indices in [[1, 4], range(1, 5, 3), array, (np.int64(1), np.int64(4))]:
        batch = Batch(indices, WITHOUT)
        assert batch == expected and hash(batch) == hash(expected)
        assert repr(batch) == repr(expected)
        assert all(type(i) is int for i in batch.indices)
    assert array.flags.writeable and not np.shares_memory(array, Batch(array, WITHOUT).array)


def test_make_batch_sorts():
    assert make_batch([4, 0, 2], WITHOUT).indices == (0, 2, 4)
    assert make_batch([3, 1, 3], WITH).indices == (1, 3, 3)
    array = np.array([3, 1, 3])
    for indices in [(3, 1, 3), array, [np.int64(3), np.int64(1), 3]]:
        assert make_batch(indices, WITH) == Batch((1, 3, 3), WITH)
    assert make_batch(range(3, 0, -1), WITHOUT).indices == (1, 2, 3)
    assert array.tolist() == [3, 1, 3] and array.flags.writeable


def test_sample_with_replacement_single_item_population():
    rng = SeededRng(0)
    batch = sample_with_replacement(rng, 1, 6)
    assert batch.indices == (0,) * 6


def test_sample_without_replacement_full_population():
    rng = SeededRng(0)
    batch = sample_without_replacement(rng, 7, 7)
    assert batch.indices == tuple(range(7))


def test_sparse_sampler_stream_matches_dense_reference():
    # Same batches and, through the interleaved with-replacement draws, the
    # same generator state after every call; 2**32 + 5 and 2**62 take
    # numpy's 64-bit bounded path, the others its 32-bit one. Sizes
    # threshold - 1 .. threshold + 1 sit around the sampler's loop-free
    # threshold, and (2**62, 70), whose keys r_j * k + j would pass int64,
    # takes the kernel's argsort route. The dense reference takes about 3 ms at
    # (1000, 1000) and 50 ms at (30000, 20000), so the larger shapes run for
    # every 8th and every 100th seed.
    threshold = _LOOP_FREE_MIN_SIZE
    cases = (
        (1, 1), (2, 2), (9, 3), (50, 50), (1000, 37), (10**5, 500), (2**32 + 5, 40),
        (120, 99), (120, 100), (120, 101),
        (120, threshold - 1), (120, threshold), (120, threshold + 1),
        (2**62, 3), (2**62, 70),
    )
    large = ((1000, 1000), (2**32 + 5, 500))
    for seed in range(200):
        sparse, dense = SeededRng(seed), SeededRng(seed)
        shapes = cases + (large if seed % 8 == 0 else ())
        for n, size in shapes + (((30000, 20000),) if seed % 100 == 0 else ()):
            expected = dense_sample_without_replacement(dense, n, size)
            assert sample_without_replacement(sparse, n, size) == expected
            assert sample_with_replacement(sparse, n, 3) == sample_with_replacement(dense, n, 3)
        assert sparse.integers(0, 2**62) == dense.integers(0, 2**62)


def test_loop_free_batch_matches_dict_loop_on_crafted_offsets():
    # Offsets that PCG draws almost never produce: no swaps at all, one
    # chain through every prefix slot (the longest pointer-doubling case),
    # every step hitting the last slot, a reversal, and full populations.
    # Where N >= 2k: distinct outer offsets, whose batch is the sorted
    # offsets themselves, and the same with one outer slot hit twice (no
    # early exit), with one step hitting prefix slot k - 1, or with a
    # self-hit at the last step (still distinct, so they exit). Both key
    # routes, packed and argsort, must give the dict loop's batch.
    for size in (1, 2, 3, 100, 101, 1000, 1025):
        steps = np.arange(size)
        for n in (size, size + 1, 2 * size, 2**40):
            crafted = [
                steps,
                np.minimum(steps + 1, n - 1),
                np.full(size, n - 1),
                np.maximum(steps, n - 1 - steps),
            ]
            if n >= 2 * size:
                outer = n - 1 - steps
                repeated, prefix_hit, self_hit = outer.copy(), outer.copy(), outer.copy()
                repeated[-1] = outer[0]
                prefix_hit[0] = size - 1
                self_hit[-1] = size - 1
                crafted += [outer, repeated, prefix_hit, self_hit]
                assert _fisher_yates_batch(outer, np.arange(size)).tolist() == sorted(outer)
            for offsets in crafted:
                expected = dict_loop_batch(offsets)
                for packed in (True, False):
                    kernel = _fisher_yates_batch(offsets, np.arange(size), packed)
                    assert kernel.tolist() == expected
    full = SeededRng(3).integers(np.arange(500), 500)
    kernel = _fisher_yates_batch(full, np.arange(500)).tolist()
    assert kernel == dict_loop_batch(full) == list(range(500))
    # The property tests of the sampler draw sizes up to 200; both paths
    # must be inside that range.
    assert 1 < _LOOP_FREE_MIN_SIZE <= 200


class FixedOffsets:
    """A stand-in generator whose one bounded draw returns given offsets."""

    def __init__(self, offsets):
        self.offsets = offsets

    def integers(self, low, high):
        assert low.tolist() == list(range(self.offsets.size)) and high > self.offsets.max()
        return self.offsets.copy()


def test_sampler_routes_draws_past_the_int64_key_limit_to_the_argsort_kernel():
    # The kernel's packed keys r_j * k + j reach N * k - 1. At
    # N = (2**63 - 1) // k they all fit in int64 and the packed kernel must
    # give the dict loop's batch; one component more, N * k passes
    # 2**63 - 1 and the sampler must order the steps by a stable argsort of
    # the offsets instead. Offsets at the top slot make the largest keys,
    # which would wrap around if packed; drawn offsets check the typical case.
    for size in (100, 1025):
        below = (2**63 - 1) // size
        for n in (below, below + 1):
            top = np.full(size, n - 1)
            drawn = [SeededRng(seed).integers(np.arange(size), n) for seed in range(5)]
            for offsets in (top, np.maximum(np.arange(size), n - 1 - np.arange(size)), *drawn):
                expected = dict_loop_batch(offsets)
                batch = sample_without_replacement(FixedOffsets(offsets), n, size)
                assert batch.indices == tuple(expected)
                if n == below:
                    assert _fisher_yates_batch(offsets, np.arange(size)).tolist() == expected
                kernel = _fisher_yates_batch(offsets, np.arange(size), packed=False)
                assert kernel.tolist() == expected


def test_sample_without_replacement_huge_population():
    # A pool of 10**12 indices cannot be built; the sparse draw needs O(k).
    indices = sample_without_replacement(SeededRng(0), 10**12, 5).indices
    assert len(indices) == 5
    assert 0 <= indices[0] and indices[-1] < 10**12
    assert all(a < b for a, b in zip(indices, indices[1:]))


def test_seeded_rng_integers_array_bounds():
    low = np.arange(6)
    for high in (7, 2**40):
        vector, scalar = SeededRng(11), SeededRng(11)
        out = vector.integers(low, high)
        assert isinstance(out, np.ndarray)
        expected = [scalar.integers(j, high) for j in range(6)]
        assert all(type(value) is int for value in expected)
        assert out.tolist() == expected
        assert vector.integers(0, high) == scalar.integers(0, high)


def test_seeded_rng_refuses_negative_and_non_integral_seeds():
    for seed in (-1, 1.5, 2.0, np.int64(-3), "4", None, True, False):
        with pytest.raises(ValueError, match="seed"):
            SeededRng(seed)
    for seed in (np.int64(5), np.uint32(5)):
        assert SeededRng(seed).seed == 5
        assert SeededRng(seed).integers(0, 100, size=4).tolist() == (
            SeededRng(5).integers(0, 100, size=4).tolist()
        )


def test_samplers_validate_sizes():
    rng = SeededRng(0)
    with pytest.raises(ValueError):
        sample_with_replacement(rng, 5, 0)
    with pytest.raises(ValueError):
        sample_without_replacement(rng, 5, 6)
    with pytest.raises(ValueError):
        sample_without_replacement(rng, 5, 0)


def test_same_seed_reproduces_draw_sequence():
    a = SeededRng(123456)
    b = SeededRng(123456)
    for _ in range(50):
        assert sample_with_replacement(a, 9, 4) == sample_with_replacement(b, 9, 4)
        assert sample_without_replacement(a, 9, 3) == sample_without_replacement(b, 9, 3)


def test_with_replacement_slot_frequencies():
    # 1e5 draws of size 2 from 5 items: each index fills a fifth of the slots.
    rng = SeededRng(77)
    counts = Counter()
    draws = 100_000
    for _ in range(draws):
        counts.update(sample_with_replacement(rng, 5, 2).indices)
    for i in range(5):
        assert counts[i] / (2 * draws) == pytest.approx(0.2, abs=0.01)


def test_count_batches_small_values():
    assert count_batches(5, 2, WITHOUT) == 10
    assert count_batches(5, 2, WITH) == 15
    assert count_batches(5, 5, WITHOUT) == 1
    assert count_batches(4, 6, WITH) == math.comb(9, 6)


def test_count_batches_validates():
    with pytest.raises(ValueError):
        count_batches(5, 6, WITHOUT)
    with pytest.raises(ValueError):
        count_batches(5, 0, WITH)
    with pytest.raises(ValueError):
        count_batches(0, 1, WITH)


def test_enumerate_without_replacement_listing():
    batches = list(enumerate_batches(3, 2, WITHOUT))
    assert [b.indices for b in batches] == [(0, 1), (0, 2), (1, 2)]


def test_enumerate_with_replacement_listing():
    batches = list(enumerate_batches(3, 2, WITH))
    assert [b.indices for b in batches] == [
        (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2),
    ]


def test_enumeration_cap_raised_eagerly():
    with pytest.raises(EnumerationCapError):
        enumerate_batches(100, 10, WITHOUT, cap=1000)


@pytest.mark.parametrize("scheme", [WITHOUT, WITH])
def test_enumeration_cardinality_matches_count(scheme):
    for n in range(1, 13):
        top = n if scheme is WITHOUT else n
        for size in range(1, top + 1):
            expected = count_batches(n, size, scheme)
            observed = sum(1 for _ in enumerate_batches(n, size, scheme, cap=None))
            assert observed == expected


def test_membership_identity_without_replacement():
    # Each index appears in C(n-1, k-1) of the size-k subsets.
    for n in range(2, 13):
        for size in range(1, n + 1):
            counts = Counter()
            for batch in enumerate_batches(n, size, WITHOUT, cap=None):
                counts.update(batch.indices)
            expected = math.comb(n - 1, size - 1)
            assert all(counts[i] == expected for i in range(n))


def test_membership_identity_worked_value():
    counts = Counter()
    for batch in enumerate_batches(5, 2, WITHOUT):
        counts.update(batch.indices)
    assert all(counts[i] == 4 for i in range(5))


@pytest.mark.parametrize("scheme", [WITHOUT, WITH])
def test_batch_probabilities_sum_to_one(scheme):
    for n, size in ((1, 1), (4, 2), (5, 3), (6, 6)):
        total = sum(batch_probability(b, n) for b in enumerate_batches(n, size, scheme))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_batch_probability_validates_range():
    with pytest.raises(ValueError):
        batch_probability(make_batch([0, 5], WITHOUT), 5)


def test_multiset_weights_match_ordered_tuple_enumeration():
    # Any statistic averaged over weighted canonical multisets must agree
    # with the plain average over all n**k ordered draws.
    n, size = 4, 3
    values = np.array([0.5, -1.5, 2.0, 3.25])

    def batch_mean(indices):
        return sum(values[i] for i in indices) / len(indices)

    weighted = sum(
        batch_probability(b, n) * batch_mean(b.indices)
        for b in enumerate_batches(n, size, WITH)
    )
    brute = np.mean([batch_mean(t) for t in product(range(n), repeat=size)])
    assert weighted == pytest.approx(brute, abs=1e-14)

    weighted_sq = sum(
        batch_probability(b, n) * batch_mean(b.indices) ** 2
        for b in enumerate_batches(n, size, WITH)
    )
    brute_sq = np.mean([batch_mean(t) ** 2 for t in product(range(n), repeat=size)])
    assert weighted_sq == pytest.approx(brute_sq, abs=1e-14)


def test_without_replacement_inclusion_probability():
    rng = SeededRng(5)
    draws = 20_000
    counts = Counter()
    for _ in range(draws):
        counts.update(sample_without_replacement(rng, 6, 2).indices)
    for i in range(6):
        assert counts[i] / draws == pytest.approx(2 / 6, abs=0.02)


def test_trusted_batches_pass_the_public_checks():
    # Enumeration and both samplers skip Batch's checks; every batch they
    # build must be one that Batch(...) accepts and compares equal to. The
    # last shapes are large enough for the loop-free subset path.
    rng = SeededRng(17)
    shapes = [(n, size) for n in range(1, 7) for size in range(1, n + 1)]
    for n, size in shapes + [(100, 100), (1000, 101), (2**32 + 5, 500)]:
        built = [
            *(sample_without_replacement(rng, n, size) for _ in range(20)),
            *(sample_with_replacement(rng, n, size) for _ in range(20)),
        ]
        if n <= 6:
            built += [*enumerate_batches(n, size, WITHOUT), *enumerate_batches(n, size, WITH)]
        for batch in built:
            assert type(batch) is Batch
            assert all(type(i) is int for i in batch.indices)
            assert batch == Batch(batch.indices, batch.scheme)


def test_cap_refusal_for_spaces_with_huge_counts():
    # C(20000, 10000) has over 6000 digits, past Python's limit for turning
    # an int into a string; the refusal must not depend on printing it.
    with pytest.raises(EnumerationCapError, match="more than 1000000"):
        enumerate_batches(20000, 10000, WITHOUT)
    with pytest.raises(EnumerationCapError, match="more than 1000000"):
        enumerate_batches(20000, 10000, WITH)


def test_rank_limit_is_exact_and_its_tables_hold():
    # The largest populations whose k-subsets int64 ranks index: 86,250 for
    # k = 3 and 213 for k = 10. Their first rows read the largest table
    # entries, so an overflow there would show in them.
    for size, population in ((3, 86_250), (10, 213)):
        limit = (2**63 - 1) // population
        assert math.comb(population, size) <= limit
        assert math.comb(population + 1, size) > (2**63 - 1) // (population + 1)
        assert sampling._subset_population(population, size, WITHOUT, ranked=True) == population
        with pytest.raises(EnumerationCapError, match="int64"):
            sampling._subset_population(population + 1, size, WITHOUT, ranked=True)
        with pytest.raises(EnumerationCapError, match="int64"):
            sampling._subset_population(population + 2 - size, size, WITH, ranked=True)
        # Unranked, the same space is only checked against the cap.
        assert sampling._subset_population(population + 1, size, WITHOUT) == population + 1
        idx = next(sampling._subset_blocks(population, size, 50))
        assert [tuple(row) for row in idx.tolist()] == list(
            islice(combinations(range(population), size), 50)
        )


def test_cap_refusal_does_not_count_the_space(monkeypatch):
    # C(10**6, 5*10**5) alone takes seconds; a space far above the cap must
    # be refused after a few steps of a running count, never the exact one.
    real_comb = math.comb

    def small_comb(n, k):
        if min(k, n - k) > 64:
            raise AssertionError("computed the exact size of a space above the cap")
        return real_comb(n, k)

    def no_count(*args):
        raise AssertionError("counted the whole batch space")

    monkeypatch.setattr(sampling.math, "comb", small_comb)
    monkeypatch.setattr(sampling, "count_batches", no_count)
    for scheme in (WITHOUT, WITH):
        with pytest.raises(EnumerationCapError, match="more than 1000000"):
            enumerate_batches(10**6, 5 * 10**5, scheme)
    with pytest.raises(EnumerationCapError, match="more than 7"):
        enumerate_batches(10**6, 5 * 10**5, WITHOUT, cap=7)


def test_cap_admits_spaces_at_the_cap():
    assert len(list(enumerate_batches(10, 5, WITHOUT, cap=252))) == 252
    assert len(list(enumerate_batches(5, 3, WITH, cap=35))) == 35
    with pytest.raises(EnumerationCapError, match="more than 251"):
        enumerate_batches(10, 5, WITHOUT, cap=251)
    with pytest.raises(EnumerationCapError, match="more than 34"):
        enumerate_batches(5, 3, WITH, cap=34)


def test_batch_probability_of_a_large_subset_underflows_to_zero():
    # 1 / C(30000, 15000) is far below the smallest float; the count itself
    # is too large to convert to one.
    batch = sample_without_replacement(SeededRng(0), 30000, 15000)
    assert batch_probability(batch, 30000) == 0.0


def test_batch_probability_unchanged_on_small_subsets():
    for n in range(1, 13):
        for size in range(1, n + 1):
            batch = Batch(tuple(range(n - size, n)), WITHOUT)
            assert batch_probability(batch, n) == 1.0 / math.comb(n, size)


def _problem(n):
    """A one-dimensional problem over ``n`` components, g_i(x) = x - i."""
    return FiniteSumProblem(1, n, lambda i, x: 0.0, lambda i, x: x - float(i))


_X = np.array([0.5])
_BAD_COUNTS = (0, -1, 2.5, 2.0, "3", None, True, False)


# Every entry point that takes a population size N or a batch size N_S, as
# call(N, N_S), with what it reads: "N", "N_S", or both, where "without"
# admits N_S <= N only and "with" any N_S; and the least N_S it admits.
# The problem-based ones read N from the problem they are called on.
_SIZE_ENTRY_POINTS = {
    "sample_with_replacement": (
        lambda n, k: sample_with_replacement(SeededRng(0), n, k), "with", 1),
    "sample_without_replacement": (
        lambda n, k: sample_without_replacement(SeededRng(0), n, k), "without", 1),
    "analytic_variance_with_replacement": (
        lambda n, k: analytic_variance_with_replacement(2.0, k), "N_S", 1),
    "analytic_variance_without_replacement": (
        lambda n, k: analytic_variance_without_replacement(2.0, n, k), "without", 1),
    "analytic_variance": (
        lambda n, k: analytic_variance(WITHOUT, 2.0, n, k), "without", 1),
    # The floor bounds sizes that never exceed N, whatever the scheme.
    "BatchSizeRule": (
        lambda n, k: BatchSizeRule(WITH, VarianceCap(1.0), n, floor=k), "without", 1),
    "batch_bound_without_replacement": (
        lambda n, k: batch_bound_without_replacement(1.0, n, 0.1), "N", 1),
    "min_batch_with_replacement": (
        lambda n, k: min_batch_with_replacement(1.0, 0.1, n), "N", 1),
    "min_batch_without_replacement": (
        lambda n, k: min_batch_without_replacement(1.0, n, 0.1), "N", 1),
    "batch_probability": (
        lambda n, k: batch_probability(Batch((0, 1), WITHOUT), n), "N", 1),
    "count_batches_with": (lambda n, k: count_batches(n, k, WITH), "with", 1),
    "count_batches_without": (lambda n, k: count_batches(n, k, WITHOUT), "without", 1),
    "enumerate_batches_with": (
        lambda n, k: list(enumerate_batches(n, k, WITH)), "with", 1),
    "enumerate_batches_without": (
        lambda n, k: list(enumerate_batches(n, k, WITHOUT)), "without", 1),
    "exact_batch_variance_with": (
        lambda n, k: exact_batch_variance(_problem(n), _X, k, WITH), "with", 1),
    "exact_batch_variance_without": (
        lambda n, k: exact_batch_variance(_problem(n), _X, k, WITHOUT), "without", 1),
    "empirical_batch_variance_with": (
        lambda n, k: empirical_batch_variance(_problem(n), _X, k, WITH, 2, SeededRng(0)),
        "with", 1),
    "empirical_batch_variance_without": (
        lambda n, k: empirical_batch_variance(_problem(n), _X, k, WITHOUT, 2, SeededRng(0)),
        "without", 1),
    "average_batch_covariance": (
        lambda n, k: average_batch_covariance(_problem(n), _X, k), "without", 2),
}


def _refused(message):
    return pytest.raises(ValueError, match=f"^{re.escape(message)}$")


@pytest.mark.parametrize(
    ("call", "reads", "least"), _SIZE_ENTRY_POINTS.values(), ids=_SIZE_ENTRY_POINTS
)
def test_every_size_check_refuses_with_one_message_per_fact(call, reads, least):
    # N and N_S are integers of at least 1 (2 for pairs), a float refused
    # even when integral; without replacement N_S is also at most N. Each
    # fact has one message, whichever entry point reads the size.
    if reads != "N_S":
        for bad in _BAD_COUNTS:
            with _refused(f"population size must be an integer >= 1, got {bad!r}"):
                call(bad, 2)
    if reads != "N":
        for bad in _BAD_COUNTS + tuple(range(1, least)):
            with _refused(f"batch size must be an integer >= {least}, got {bad!r}"):
                call(5, bad)
    if reads == "without":
        with _refused("batch size must be in [1, 5], got 6"):
            call(5, 6)
    elif reads == "with":
        call(5, 6)
    # numpy integers are counts too, and give the same result.
    assert call(np.int64(5), np.int64(2)) == call(5, 2)


@pytest.mark.parametrize(
    ("call", "name", "least"),
    [
        (lambda v: FiniteSumProblem(v, 3, None, None), "problem dimension", 1),
        (lambda v: RunConfig(
            BatchSizeRule(WITH, VarianceCap(1.0), 3),
            EpsilonSchedule.geometric(),
            LearningRateSchedule.constant(),
            max_iters=v,
        ), "max_iters", 1),
        (lambda v: empirical_batch_variance(_problem(3), _X, 1, WITH, v, SeededRng(0)),
         "draws", 2),
    ],
    ids=["dim", "max_iters", "draws"],
)
def test_every_other_count_shares_the_check(call, name, least):
    for bad in (least - 1, -1, 2.5, 2.0, "3", None, True, False):
        with _refused(f"{name} must be an integer >= {least}, got {bad!r}"):
            call(bad)
    call(np.int64(least + 1))


def test_numpy_population_sizes_do_not_wrap_in_probabilities():
    # N**N_S past int64: 2**64 must not wrap around to 0 or worse.
    multiset = Batch((0,) * 64, WITH)
    assert batch_probability(multiset, np.int64(2)) == batch_probability(multiset, 2) == 2.0**-64
