import math

import numpy as np
import pytest

import varbatch.variance as variance
from helpers import loop_average_batch_covariance, loop_exact_batch_variance
from varbatch import (
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


def test_empirical_variance_deterministic(ls5):
    first = empirical_batch_variance(ls5, X0, 2, WITH, 1000, SeededRng(42))
    second = empirical_batch_variance(ls5, X0, 2, WITH, 1000, SeededRng(42))
    assert first == second


def test_empirical_variance_needs_two_draws(ls5):
    with pytest.raises(ValueError):
        empirical_batch_variance(ls5, X0, 2, WITH, 1, SeededRng(0))


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


def test_chunked_oracles_equal_per_batch_loop(monkeypatch):
    # At 64 indices per chunk the larger batch spaces span several chunks;
    # the sums must not notice where the boundaries fall.
    chunk_sizes = (variance._CHUNK_INDICES, 64)
    for n in range(1, 8):
        for problem, x in oracle_problems(n):
            for size in range(1, n + 1):
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


@pytest.mark.parametrize(("n", "size"), [(2, 64), (3, 40)])
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
