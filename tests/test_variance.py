import functools
import math
import sys
import tracemalloc
from collections import deque
from itertools import combinations, combinations_with_replacement, islice

import numpy as np
import pytest

import varbatch.sampling as sampling
import varbatch.variance as variance
from helpers import (
    loop_average_batch_covariance,
    loop_empirical_batch_variance,
    loop_exact_batch_variance,
)
from varbatch import (
    Batch,
    EnumerationCapError,
    FiniteSumProblem,
    Scheme,
    SeededRng,
    analytic_variance,
    analytic_variance_with_replacement,
    analytic_variance_without_replacement,
    average_batch_covariance,
    batch_gradient,
    batch_probability,
    component_gradient_variance,
    empirical_batch_variance,
    enumerate_batches,
    exact_batch_variance,
    exact_batch_variances,
    full_gradient,
    make_least_squares,
    make_logistic,
)

WITH = Scheme.WITH_REPLACEMENT
WITHOUT = Scheme.WITHOUT_REPLACEMENT
X0 = np.array([0.0])


def test_analytic_with_replacement_values():
    assert analytic_variance_with_replacement(2.0, 2) == 1.0
    assert analytic_variance_with_replacement(2.0, 1) == 2.0
    assert analytic_variance_with_replacement(0.0, 3) == 0.0
    with pytest.raises(ValueError):
        analytic_variance_with_replacement(-1.0, 2)
    with pytest.raises(ValueError):
        analytic_variance_with_replacement(1.0, 0)


def test_analytic_without_replacement_values():
    assert analytic_variance_without_replacement(2.0, 5, 2) == 0.75
    assert analytic_variance_without_replacement(2.0, 5, 5) == 0.0
    assert analytic_variance_without_replacement(2.0, 5, 1) == 2.0
    assert analytic_variance_without_replacement(7.3, 1, 1) == 0.0
    with pytest.raises(ValueError):
        analytic_variance_without_replacement(1.0, 5, 6)


def test_exact_variance_worked_values(ls5):
    assert exact_batch_variance(ls5, X0, 2, WITHOUT) == pytest.approx(0.75, abs=1e-12)
    assert exact_batch_variance(ls5, X0, 2, WITH) == pytest.approx(1.0, abs=1e-12)
    assert exact_batch_variance(ls5, X0, 5, WITHOUT) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("scheme", [WITHOUT, WITH])
def test_exact_variance_matches_closed_form(random_ls, scheme):
    for n in range(1, 8):
        problem = random_ls(n, d=2, seed=100 + n)
        x = np.array([0.4, -0.3])
        var_comp = component_gradient_variance(problem, x)
        for size in range(1, n + 1):
            oracle = exact_batch_variance(problem, x, size, scheme)
            formula = analytic_variance(scheme, var_comp, n, size)
            assert oracle == pytest.approx(formula, abs=1e-10)


def test_finite_population_correction_ratio():
    var_comp = 3.7
    for n in range(2, 11):
        for size in range(1, n + 1):
            with_repl = analytic_variance_with_replacement(var_comp, size)
            without_repl = analytic_variance_without_replacement(var_comp, n, size)
            expected = with_repl * (n - size) / (n - 1)
            assert without_repl == pytest.approx(expected, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("scheme", [WITHOUT, WITH])
def test_enumeration_mean_is_unbiased(random_ls, scheme):
    for n in range(1, 7):
        problem = random_ls(n, d=2, seed=40 + n)
        x = np.array([-0.8, 1.1])
        target = full_gradient(problem, x)
        for size in range(1, n + 1):
            mean = np.zeros(2)
            for batch in enumerate_batches(n, size, scheme):
                mean += batch_probability(batch, n) * batch_gradient(problem, x, batch)
            assert np.max(np.abs(mean - target)) < 1e-12


def test_average_covariance_worked_values(ls5):
    for size in range(2, 6):
        assert average_batch_covariance(ls5, X0, size) == pytest.approx(-0.5, abs=1e-12)


def test_average_covariance_zero_for_identical_components():
    problem = make_least_squares(np.ones((4, 1)), np.full(4, 3.0))
    assert average_batch_covariance(problem, np.array([1.0]), 3) == pytest.approx(0.0, abs=1e-15)


def test_average_covariance_identity_and_recomposition(random_ls):
    for n in range(2, 9):
        problem = random_ls(n, d=2, seed=60 + n)
        x = np.array([0.2, 0.9])
        var_comp = component_gradient_variance(problem, x)
        for size in range(2, n + 1):
            cov = average_batch_covariance(problem, x, size)
            assert cov == pytest.approx(-var_comp / (n - 1), abs=1e-10)
            recomposed = var_comp / size + ((size - 1) / size) * cov
            direct = exact_batch_variance(problem, x, size, WITHOUT)
            assert recomposed == pytest.approx(direct, abs=1e-10)


def test_average_covariance_requires_pairs(ls5):
    with pytest.raises(ValueError):
        average_batch_covariance(ls5, X0, 1)


def test_full_population_covariance_cancels_variance(ls5):
    # Plugging the n = size covariance back into the decomposition gives 0.
    n = 5
    var_comp = component_gradient_variance(ls5, X0)
    cov = average_batch_covariance(ls5, X0, n)
    assert var_comp / n + ((n - 1) / n) * cov == pytest.approx(0.0, abs=1e-12)


def test_empirical_variance_converges(ls5):
    value = empirical_batch_variance(ls5, X0, 2, WITHOUT, 100_000, SeededRng(9))
    assert value == pytest.approx(0.75, rel=0.05)


def test_empirical_variance_zero_spread_population():
    problem = make_least_squares(np.ones((4, 1)), np.full(4, 1.0))
    value = empirical_batch_variance(problem, np.array([0.0]), 2, WITHOUT, 100, SeededRng(1))
    assert value == 0.0


def test_batched_monte_carlo_equals_per_draw_loop(monkeypatch):
    # At 64 indices per chunk the draws span several gradient calls, and the
    # last chunk is short; the draws and the sum must not notice. One call
    # over many rows can round a row's matrix product differently in the
    # last bit than one call per batch (BLAS blocks by row count), so the
    # sums agree to a few float64 roundings, not bit for bit.
    for n, sizes in ((5, (1, 2, 5)), (12, (1, 2, 9, 12))):
        for problem, x in oracle_problems(n):
            for size in sizes:
                for scheme in (WITHOUT, WITH):
                    expected = loop_empirical_batch_variance(
                        problem, x, size, scheme, 150, SeededRng(size)
                    )
                    for chunk_indices in (variance._CHUNK_INDICES, 64):
                        monkeypatch.setattr(variance, "_CHUNK_INDICES", chunk_indices)
                        observed = empirical_batch_variance(
                            problem, x, size, scheme, 150, SeededRng(size)
                        )
                        assert observed == pytest.approx(expected, rel=1e-13, abs=1e-15)


def test_batched_monte_carlo_evaluates_each_drawn_index_once(monkeypatch):
    evaluated = []

    def gradient(i, x):
        evaluated.append(i)
        return np.array([float(i)]) - x

    problem = FiniteSumProblem(1, 7, lambda i, x: 0.0, gradient)
    monkeypatch.setattr(variance, "_CHUNK_INDICES", 10)
    empirical_batch_variance(problem, np.array([0.5]), 3, WITH, 11, SeededRng(4))
    # Seven full-gradient evaluations, then the 11 draws of 3 indices each.
    assert len(evaluated) == 7 + 11 * 3
    rng = SeededRng(4)
    drawn = [sampling.sample_with_replacement(rng, 7, 3).indices for _ in range(11)]
    assert evaluated[7:] == [i for batch in drawn for i in batch]


def test_empirical_variance_deterministic(ls5):
    first = empirical_batch_variance(ls5, X0, 2, WITH, 1000, SeededRng(42))
    second = empirical_batch_variance(ls5, X0, 2, WITH, 1000, SeededRng(42))
    assert first == second


def test_empirical_variance_needs_two_draws(ls5):
    with pytest.raises(ValueError):
        empirical_batch_variance(ls5, X0, 2, WITH, 1, SeededRng(0))


@pytest.mark.parametrize("scheme", [WITHOUT, WITH])
def test_empirical_variance_refuses_batches_below_one(ls5, scheme):
    # The shared batch-size check's error, for 0 as for -1.
    for size in (0, -1):
        with pytest.raises(ValueError, match="batch size must be"):
            empirical_batch_variance(ls5, X0, size, scheme, 2, SeededRng(0))


@pytest.mark.parametrize("scheme", [WITHOUT, WITH])
def test_empirical_variance_refuses_before_evaluating_or_drawing(scheme):
    evaluated = []

    def gradient(i, x):
        evaluated.append(i)
        return x - float(i)

    problem = FiniteSumProblem(1, 5, lambda i, x: 0.0, gradient)
    rng = SeededRng(3)
    bad = [(0, 10), (2.5, 10), (2.0, 10), (2, 1)]
    if scheme is WITHOUT:
        bad.append((6, 10))
    for size, draws in bad:
        with pytest.raises(ValueError):
            empirical_batch_variance(problem, X0, size, scheme, draws, rng)
    assert evaluated == []
    # Nothing was drawn: the stream goes on as a fresh generator's would.
    fresh = SeededRng(3)
    assert rng.integers(0, 2**62, size=4).tolist() == fresh.integers(0, 2**62, size=4).tolist()


@pytest.mark.parametrize("scheme", [WITHOUT, WITH])
def test_analytic_variance_strictly_decreasing_in_batch_size(scheme):
    n = 12
    values = [analytic_variance(scheme, 5.0, n, size) for size in range(1, n + 1)]
    assert all(a > b for a, b in zip(values, values[1:]))


def oracle_problems(n):
    """Least squares in 1 and 9 dimensions and a logistic problem, N = n."""
    rng = np.random.default_rng(500 + n)
    for d in (1, 9):
        problem = make_least_squares(rng.normal(size=(n, d)), rng.normal(size=n))
        yield problem, rng.normal(size=d)
    labels = np.where(rng.normal(size=n) > 0, 1.0, -1.0)
    yield make_logistic(rng.normal(size=(n, 2)), labels), rng.normal(size=2)


@functools.cache
def loop_oracle(n, case, size, scheme):
    """``loop_exact_batch_variance`` on ``oracle_problems(n)``'s case ``case``, once a session."""
    problem, x = list(oracle_problems(n))[case]
    return loop_exact_batch_variance(problem, x, size, scheme)


def test_chunked_oracles_equal_per_batch_loop(monkeypatch):
    # At 64 indices per chunk the larger batch spaces span several chunks;
    # the sums must not notice where the boundaries fall.
    chunk_sizes = (variance._CHUNK_INDICES, 64)
    cases = [case for n in range(1, 8) for case in oracle_problems(n)]
    # With one gradient entry numpy sums eight or more rows pairwise: N = 8, d = 1.
    cases.append(next(oracle_problems(8)))
    for problem, x in cases:
        for size in range(1, problem.n_components + 1):
            expected = [
                loop_exact_batch_variance(problem, x, size, scheme)
                for scheme in (WITHOUT, WITH)
            ]
            if size >= 2:
                expected.append(loop_average_batch_covariance(problem, x, size))
            for chunk_indices in chunk_sizes:
                monkeypatch.setattr(variance, "_CHUNK_INDICES", chunk_indices)
                observed = [
                    exact_batch_variance(problem, x, size, scheme)
                    for scheme in (WITHOUT, WITH)
                ]
                if size >= 2:
                    observed.append(average_batch_covariance(problem, x, size))
                assert observed == expected


def test_both_oracle_paths_equal_per_batch_loop_past_eight_rows(monkeypatch):
    # N = 9, N_S = 8 and 9: with one gradient entry numpy sums the rows
    # pairwise and the chunked decode takes every space; with two or nine
    # the prefix tree takes the with-replacement spaces (12,870 and 24,310
    # batches), and at 64 indices, where a tree block holds at most M nodes,
    # each spans many blocks. The narrow subset spaces are decoded.
    for case, (problem, x) in enumerate(oracle_problems(9)):
        for size in (8, 9):
            expected = [loop_oracle(9, case, size, scheme) for scheme in (WITHOUT, WITH)]
            for chunk_indices in (variance._CHUNK_INDICES, 64):
                monkeypatch.setattr(variance, "_CHUNK_INDICES", chunk_indices)
                observed = [
                    exact_batch_variance(problem, x, size, scheme)
                    for scheme in (WITHOUT, WITH)
                ]
                assert observed == expected


def test_exact_variance_walks_the_tree_only_where_prefixes_are_shared(monkeypatch):
    # The walk is taken with two or more gradient entries and columns, where
    # 2 * N_S <= M + 1 and the space holds more indices than one chunk (64
    # here); every other space is decoded in chunks.
    monkeypatch.setattr(variance, "_CHUNK_INDICES", 64)
    decoded = []
    subset_blocks = variance._subset_blocks

    def spy(*args):  # a generator: it records a space once a block is read
        decoded.append(1)
        yield from subset_blocks(*args)

    monkeypatch.setattr(variance, "_subset_blocks", spy)

    def decodes(problem, x, size, scheme):
        decoded.clear()
        exact_batch_variance(problem, x, size, scheme)
        return bool(decoded)

    trees = 0
    for problem, x in oracle_problems(8):
        for size in range(1, 9):
            for scheme in (WITHOUT, WITH):
                space = 8 + size - 1 if scheme is WITH else 8
                tree = (
                    problem.dim >= 2
                    and 2 <= size <= (space + 1) // 2
                    and math.comb(space, size) * size > 64
                )
                assert decodes(problem, x, size, scheme) != tree
                trees += tree
    assert trees == 2 * (2 + 7)  # two problems with d >= 2: without N_S = 3, 4; with 2..8
    # Weights in Python integers walk the tree too, forced here: past
    # N_S = 22 every space wide enough for the walk (N >= N_S) is far above
    # the cap.
    monkeypatch.setattr(variance, "_EXACT_FLOATS", 1)
    assert variance._weight_rule(8, 5, WITH)[0] is object
    for problem, x in list(oracle_problems(8))[1:]:
        assert not decodes(problem, x, 5, WITH)
        assert not decodes(problem, x, 4, WITHOUT)
        oracle = exact_batch_variance(problem, x, 5, WITH)
        assert oracle == loop_exact_batch_variance(problem, x, 5, WITH)


def test_prefix_tree_memory_stays_within_a_block_per_level():
    # 1,144,066 multisets of 10 from 14 components. The walk holds at most
    # one partly expanded block per level, each of at most max(M, 16384 // 10)
    # nodes of four arrays (last index, d-entry sum, run place, product),
    # and one block of the next level being built: far less than one float
    # per batch.
    rng = np.random.default_rng(3)
    problem = make_least_squares(rng.normal(size=(14, 2)), rng.normal(size=14))
    x = rng.normal(size=2)
    size = 10
    block = max(14 + size - 1, variance._CHUNK_INDICES // size) * 8 * (2 + 3)
    tracemalloc.start()
    try:
        oracle = exact_batch_variance(problem, x, size, WITH, cap=None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (size + 2) * block < 1_144_066 * 8
    var_comp = component_gradient_variance(problem, x)
    assert oracle == pytest.approx(var_comp / size, abs=1e-10)


def test_prefix_tree_deeper_than_the_recursion_limit(monkeypatch):
    # Subsets of all but one of N values, one tree level per column. Such
    # narrow spaces are decoded in chunks; the walk is forced onto this one.
    monkeypatch.setattr(variance, "_walks_tree", lambda *args: True)
    size = sys.getrecursionlimit() + 500
    rng = np.random.default_rng(4)
    problem = make_least_squares(rng.normal(size=(size + 1, 2)), rng.normal(size=size + 1))
    x = rng.normal(size=2)
    oracle = exact_batch_variance(problem, x, size, WITHOUT)
    assert oracle == loop_exact_batch_variance(problem, x, size, WITHOUT)


def test_every_size_oracle_equals_per_size_oracles_and_loop(monkeypatch):
    # One walk gives every size up to N, but with one gradient entry only the
    # sizes below eight, which numpy sums row by row. At 64 indices a level
    # of the larger spaces spans several blocks. (The per-size oracle's
    # results do not depend on its chunks; the tests above show it.)
    for n in range(1, 10):
        for case, (problem, x) in enumerate(oracle_problems(n)):
            depth = n if problem.dim > 1 else min(n, 7)
            for scheme in (WITHOUT, WITH):
                sizes = range(1, depth + 1)
                expected = [loop_oracle(n, case, size, scheme) for size in sizes]
                assert [exact_batch_variance(problem, x, k, scheme) for k in sizes] == expected
                for chunk_indices in (variance._CHUNK_INDICES, 64):
                    monkeypatch.setattr(variance, "_CHUNK_INDICES", chunk_indices)
                    assert exact_batch_variances(problem, x, scheme) == expected


def test_every_size_oracle_weighs_each_level_by_its_own_rule(monkeypatch):
    # Below 16 the odd parts of 1! .. 5! (at most 15) weigh in float64 and
    # those of 6! .. 9! in Python integers: one walk holds both.
    monkeypatch.setattr(variance, "_EXACT_FLOATS", 16)
    assert [variance._weight_rule(9, size, WITH)[0] for size in (5, 6)] == [np.float64, object]
    for problem, x in list(oracle_problems(9))[1:]:
        walked = exact_batch_variances(problem, x, WITH)
        assert walked == [exact_batch_variance(problem, x, size, WITH) for size in range(1, 10)]


def test_every_size_oracle_stops_at_the_first_size_over_the_cap(monkeypatch):
    # N = 8 holds C(8, k) = 8, 28, 56, 70, ... subsets and C(7 + k, k) = 8,
    # 36, 120, ... multisets. A cap between two counts stops the walk at the
    # smaller; the rest are refused, or, past C(8, 4), narrow again.
    levels = []
    tree_levels = variance._tree_levels

    def spy(*args, **kwargs):
        for level in tree_levels(*args, **kwargs):
            levels.append(level[0])
            yield level

    monkeypatch.setattr(variance, "_tree_levels", spy)
    problem, x = list(oracle_problems(8))[1]
    for scheme, cap, depth in (
        (WITHOUT, 7, 0), (WITHOUT, 8, 1), (WITHOUT, 55, 2), (WITHOUT, 56, 3),
        (WITHOUT, 69, 3), (WITHOUT, 70, 8), (WITH, 35, 1), (WITH, 36, 2),
        (WITH, 119, 2), (WITH, 120, 3), (WITH, None, 8),
    ):
        levels.clear()
        walked = exact_batch_variances(problem, x, scheme, cap=cap)
        assert max(levels, default=0) == depth == len(walked)
        sizes = range(1, depth + 1)
        assert walked == [exact_batch_variance(problem, x, k, scheme, cap=cap) for k in sizes]
        if depth < 8:
            with pytest.raises(EnumerationCapError):
                exact_batch_variance(problem, x, depth + 1, scheme, cap=cap)


def test_every_size_walk_memory_stays_within_a_block_per_level():
    # Every subset of 20 components (1,048,575 batches over 20 levels), and
    # every multiset of up to 10 of 14 (1,961,255 over 10): the walk holds at
    # most one partly expanded block per level, each of at most
    # max(N, 16384 // depth) nodes of at most four arrays, and one block
    # being built: far less than one float per batch.
    rng = np.random.default_rng(5)
    for n, scheme, cap, depth, batches in (
        (20, WITHOUT, None, 20, 1_048_575),
        (14, WITH, 1_144_066, 10, 1_961_255),
    ):
        problem = make_least_squares(rng.normal(size=(n, 2)), rng.normal(size=n))
        x = rng.normal(size=2)
        block = max(n, variance._CHUNK_INDICES // depth) * 8 * (2 + 3)
        tracemalloc.start()
        try:
            oracles = exact_batch_variances(problem, x, scheme, cap=cap)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(oracles) == depth
        assert peak < (depth + 2) * block < batches * 8
        var_comp = component_gradient_variance(problem, x)
        for size, oracle in enumerate(oracles, 1):
            closed = analytic_variance(scheme, var_comp, n, size)
            assert oracle == pytest.approx(closed, abs=1e-10)


def test_oracles_never_call_closed_forms(monkeypatch, random_ls):
    def closed_form(*args, **kwargs):
        raise AssertionError("an enumeration oracle called a closed form")

    for name in (
        "analytic_variance",
        "analytic_variance_with_replacement",
        "analytic_variance_without_replacement",
    ):
        monkeypatch.setattr(variance, name, closed_form)
    problem = random_ls(5, d=2, seed=3)
    x = np.array([0.3, -0.7])
    for size in range(1, 6):
        for scheme in (WITHOUT, WITH):
            exact_batch_variance(problem, x, size, scheme)
        if size >= 2:
            average_batch_covariance(problem, x, size)
    with pytest.raises(AssertionError):
        variance.analytic_variance(WITH, 1.0, 5, 2)


@pytest.mark.parametrize("scheme", [WITHOUT, WITH])
def test_chunk_weights_equal_batch_probability(monkeypatch, scheme):
    monkeypatch.setattr(variance, "_CHUNK_INDICES", 7)
    for n in range(1, 7):
        for size in range(1, (n if scheme is WITHOUT else 6) + 1):
            chunks = list(variance._weighted_chunks(n, size, scheme, None))
            batches = list(enumerate_batches(n, size, scheme))
            rows = [tuple(row) for idx, _ in chunks for row in idx.tolist()]
            weights = [w for _, chunk in chunks for w in chunk.tolist()]
            assert rows == [b.indices for b in batches]
            assert weights == [batch_probability(b, n) for b in batches]


@pytest.mark.parametrize("scheme", [WITHOUT, WITH])
@pytest.mark.parametrize("chunk_indices", [variance._CHUNK_INDICES, 1, 13])
def test_shared_source_is_the_itertools_space(monkeypatch, scheme, chunk_indices):
    # One index per chunk gives one row per chunk; 13 indices is prime, so
    # for every batch size but 1 the chunks end partway through the space.
    monkeypatch.setattr(variance, "_CHUNK_INDICES", chunk_indices)
    space = combinations if scheme is WITHOUT else combinations_with_replacement
    for n in range(1, 8):
        for size in range(1, (n if scheme is WITHOUT else 7) + 1):
            expected = list(space(range(n), size))
            assert [b.indices for b in enumerate_batches(n, size, scheme)] == expected
            chunks = [idx for idx, _ in variance._weighted_chunks(n, size, scheme, None)]
            rows = max(1, chunk_indices // size)
            assert [len(idx) for idx in chunks[:-1]] == [rows] * (len(chunks) - 1)
            assert 1 <= len(chunks[-1]) <= rows
            assert [tuple(row) for idx in chunks for row in idx.tolist()] == expected


def test_oracles_build_no_batches(monkeypatch, random_ls):
    problem = random_ls(6, d=2, seed=8)
    x = np.array([0.1, 0.6])
    sizes = range(1, 7)
    expected = [
        [loop_exact_batch_variance(problem, x, size, scheme) for size in sizes]
        for scheme in (WITHOUT, WITH)
    ] + [[loop_average_batch_covariance(problem, x, size) for size in sizes[1:]]]

    def build_batch(*args, **kwargs):
        raise AssertionError("an enumeration oracle built a Batch")

    monkeypatch.setattr(sampling, "_canonical", build_batch)
    monkeypatch.setattr(Batch, "__init__", build_batch)
    observed = [
        [exact_batch_variance(problem, x, size, scheme) for size in sizes]
        for scheme in (WITHOUT, WITH)
    ] + [[average_batch_covariance(problem, x, size) for size in sizes[1:]]]
    assert observed == expected
    with pytest.raises(AssertionError):
        list(enumerate_batches(6, 2, WITH))
    with pytest.raises(AssertionError):
        Batch((0, 1), WITH)


def test_oracles_refuse_space_above_cap_before_evaluating():
    evaluated = []

    def gradient(i, x):
        evaluated.append(i)
        return np.array([float(i)])

    problem = FiniteSumProblem(1, 10, lambda i, x: 0.0, gradient)
    x = np.array([0.0])
    # C(10, 5) = 252 subsets and C(14, 5) = 2002 multisets, both above 100.
    for scheme in (WITHOUT, WITH):
        with pytest.raises(EnumerationCapError):
            exact_batch_variance(problem, x, 5, scheme, cap=100)
        # Size 1 alone is 10 batches: the every-size walk has no size to take.
        assert exact_batch_variances(problem, x, scheme, cap=9) == []
    with pytest.raises(EnumerationCapError):
        average_batch_covariance(problem, x, 5, cap=100)
    assert evaluated == []


@pytest.mark.parametrize("cap", [float("nan"), 1.5, True, "10", 0, -1])
def test_oracles_refuse_a_cap_that_is_not_a_count_before_evaluating(cap):
    # No comparison holds for NaN: an unchecked NaN cap would turn off both
    # the cap and the int64 rank limit, and C(3000, 1500) subsets would
    # reach the rank decode.
    def gradient(i, x):
        raise AssertionError("evaluated a gradient")

    for n, size in ((10, 5), (3000, 1500)):
        problem = FiniteSumProblem(1, n, lambda i, x: 0.0, gradient)
        for scheme in (WITHOUT, WITH):
            with pytest.raises(ValueError, match="enumeration cap"):
                exact_batch_variance(problem, X0, size, scheme, cap=cap)
            with pytest.raises(ValueError, match="enumeration cap"):
                exact_batch_variances(problem, X0, scheme, cap=cap)
            with pytest.raises(ValueError, match="enumeration cap"):
                enumerate_batches(n, size, scheme, cap=cap)
        with pytest.raises(ValueError, match="enumeration cap"):
            average_batch_covariance(problem, X0, size, cap=cap)


@pytest.mark.parametrize(("n", "size"), [(2, 64), (3, 40), (2, 600)])
def test_chunk_weights_stay_exact_for_long_batches(n, size):
    # k! overflows 64-bit integers from k = 21 on; the weights must not.
    weights = np.concatenate(
        [w for _, w in variance._weighted_chunks(n, size, WITH, None)]
    )
    assert np.isfinite(weights).all() and (weights > 0).all()
    assert abs(math.fsum(weights) - 1.0) <= 1e-12
    problem = make_least_squares(np.eye(n, 2), np.arange(1.0, n + 1))
    x = np.array([0.5, -0.25])
    oracle = exact_batch_variance(problem, x, size, WITH, cap=None)
    var_comp = component_gradient_variance(problem, x)
    assert abs(oracle - var_comp / size) <= 1e-10


def test_oracles_refuse_spaces_with_huge_counts():
    # C(20000, 10000) is too large to print; the oracles must still refuse
    # the space with the cap error, before any gradient is evaluated.
    def gradient(i, x):
        raise AssertionError("evaluated a gradient")

    problem = FiniteSumProblem(1, 20000, lambda i, x: 0.0, gradient)
    for scheme in (WITHOUT, WITH):
        with pytest.raises(EnumerationCapError, match="more than"):
            exact_batch_variance(problem, X0, 10000, scheme)
    with pytest.raises(EnumerationCapError, match="more than"):
        average_batch_covariance(problem, X0, 10000)


@pytest.mark.parametrize("scheme", [WITHOUT, WITH])
def test_numpy_chunks_match_itertools_and_batch_probability(scheme):
    space = combinations if scheme is WITHOUT else combinations_with_replacement
    for size in range(1, 10):
        chunks = list(variance._weighted_chunks(9, size, scheme, None))
        rows = [tuple(row) for idx, _ in chunks for row in idx.tolist()]
        assert rows == list(space(range(9), size))
        weights = [w for _, chunk in chunks for w in chunk.tolist()]
        assert weights == [batch_probability(b, 9) for b in enumerate_batches(9, size, scheme)]


@pytest.mark.parametrize(
    ("n", "size", "python_ints"),
    [(7, 18, False), (8, 18, False), (9, 18, True), (5, 22, False), (2, 23, True)],
)
def test_chunk_weights_exact_on_both_sides_of_the_float_path(monkeypatch, n, size, python_ints):
    # 7**18, 8**18 = 2**54 and 5**22 are floats, and so are k! up to 22! =
    # 2**19 * 2.1e15 and all their divisors: these spaces weigh in float64.
    # 9**18 is not a float, and the odd part of 23! is above 2**53: these
    # weigh in Python integers.
    # The blocks are the space's first and last chunks, built by itertools
    # (the rank decode that builds them otherwise is tested above), so the
    # millions of rows between are not decoded.
    rows = variance._CHUNK_INDICES // size
    tail = math.comb(n + size - 1, size) % rows or rows
    # The multisets whose least index is at least `low` close the space.
    low = max(t for t in range(n) if math.comb(n - t + size - 1, size) >= tail)
    ends = [
        list(islice(combinations_with_replacement(range(n), size), rows)),
        list(deque(combinations_with_replacement(range(low, n), size), maxlen=tail)),
    ]
    blocks = [np.array(batches) + np.arange(size) for batches in ends]
    monkeypatch.setattr(variance, "_subset_blocks", lambda *args: iter(blocks))
    assert (variance._weight_rule(n, size, WITH)[0] is object) == python_ints
    chunks = list(variance._weighted_chunks(n, size, WITH, None))
    assert len(chunks) == 2
    for batches, (idx, weights) in zip(ends, chunks):
        assert [tuple(row) for row in idx.tolist()] == batches
        assert weights.tolist() == [batch_probability(Batch(b, WITH), n) for b in batches]


def test_python_int_weights_give_the_float_path_oracles(monkeypatch):
    # Every with-replacement cell of verify --n-max 6, on the same problems,
    # first weighed in float64, then with every space forced onto Python
    # integers.
    rng = SeededRng(0)
    cells = []
    for n in range(1, 7):
        problem = make_least_squares(rng.normal(size=(n, 2)), rng.normal(size=n))
        x = rng.normal(size=2)
        cells += [(problem, x, size) for size in range(1, n + 1)]
    rule, dtypes = variance._weight_rule, []

    def spy(*args):
        dtype, weigh = rule(*args)
        dtypes.append(dtype)
        return dtype, weigh

    monkeypatch.setattr(variance, "_weight_rule", spy)
    oracles = [exact_batch_variance(problem, x, size, WITH) for problem, x, size in cells]
    assert len(dtypes) == len(cells) and set(dtypes) == {np.float64}
    dtypes.clear()
    monkeypatch.setattr(variance, "_EXACT_FLOATS", 1)
    assert [exact_batch_variance(problem, x, size, WITH) for problem, x, size in cells] == oracles
    assert len(dtypes) == len(cells) and set(dtypes) == {object}


@pytest.mark.parametrize(("n", "size"), [(2, 100), (3, 40), (4, 27)])
def test_python_int_chunk_weights_equal_batch_probability(n, size):
    # Past k = 22 the odd part of k! is above 2**53, so these spaces' run
    # places and their products are Python integers; every row and weight
    # must still be those of enumerate_batches and batch_probability.
    assert variance._weight_rule(n, size, WITH)[0] is object
    chunks = list(variance._weighted_chunks(n, size, WITH, None))
    rows = [tuple(row) for idx, _ in chunks for row in idx.tolist()]
    assert rows == list(combinations_with_replacement(range(n), size))
    weights = [w for _, chunk in chunks for w in chunk.tolist()]
    batches = enumerate_batches(n, size, WITH, cap=None)
    assert weights == [batch_probability(b, n) for b in batches]


def test_first_chunk_of_a_large_space_stays_small():
    # The whole space of 10**6 one-index batches is 8 MB of indices; the
    # first chunk must come without building it.
    tracemalloc.start()
    try:
        idx, weights = next(variance._weighted_chunks(10**6, 1, WITHOUT, None))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(idx) == len(weights) <= variance._CHUNK_INDICES
    assert idx.ravel().tolist() == list(range(len(idx)))
    assert peak < 1_000_000


def test_batches_with_more_columns_than_the_recursion_limit():
    # Multisets over two values, and subsets of all but two of the values.
    size = sys.getrecursionlimit() + 500
    for n, scheme, space in (
        (2, WITH, combinations_with_replacement),
        (size + 2, WITHOUT, combinations),
    ):
        idx, weights = next(variance._weighted_chunks(n, size, scheme, None))
        expected = list(islice(space(range(n), size), len(idx)))
        assert [tuple(row) for row in idx.tolist()] == expected
        batches = islice(enumerate_batches(n, size, scheme, cap=None), len(idx))
        assert weights.tolist() == [batch_probability(b, n) for b in batches]


def test_oracles_refuse_spaces_past_int64_ranks_without_a_cap():
    # C(3000, 1500) is about 10**901 subsets and C(3999, 1500) multisets,
    # more than int64 ranks can index.
    def gradient(i, x):
        raise AssertionError("evaluated a gradient")

    problem = FiniteSumProblem(1, 3000, lambda i, x: 0.0, gradient)
    for scheme in (WITHOUT, WITH):
        with pytest.raises(EnumerationCapError, match="int64"):
            exact_batch_variance(problem, X0, 1500, scheme, cap=None)
    with pytest.raises(EnumerationCapError, match="int64"):
        average_batch_covariance(problem, X0, 1500, cap=None)
