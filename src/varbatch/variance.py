"""Variance of batch-gradient estimates under both sampling schemes.

Closed forms: with replacement the estimator variance is Var/N_S; without
replacement it shrinks by the finite population correction (N - N_S)/(N - 1),
reaching zero when the batch is the whole population. The exact enumeration
estimators here average over the entire batch space and act as independent
oracles for those formulas at small scale; a Monte Carlo estimator covers
populations past the enumeration cap.
"""
from __future__ import annotations

from dataclasses import dataclass

from .finite_sum import (
    FiniteSumProblem,
    batch_gradient,
    component_gradient_variance,
    full_gradient,
    gradient_matrix,
)
from .sampling import (
    DEFAULT_ENUMERATION_CAP,
    Scheme,
    SeededRng,
    batch_probability,
    enumerate_batches,
    sample_with_replacement,
    sample_without_replacement,
)


@dataclass(frozen=True)
class VarianceReport:
    """Analytic batch-gradient variance next to its enumeration oracle."""

    scheme: Scheme
    n_components: int
    batch_size: int
    analytic_variance: float
    oracle_variance: float | None = None
    average_covariance: float | None = None

    def __post_init__(self):
        if self.analytic_variance < 0:
            raise ValueError("variance cannot be negative")


def analytic_variance_with_replacement(var_comp: float, batch_size: int) -> float:
    """Var / N_S: independent draws average down the component variance."""
    if var_comp < 0:
        raise ValueError("component variance cannot be negative")
    if batch_size < 1:
        raise ValueError("batch size must be at least 1")
    return var_comp / batch_size


def analytic_variance_without_replacement(
    var_comp: float, n_components: int, batch_size: int
) -> float:
    """(Var / N_S) * (N - N_S) / (N - 1): shrunk by the finite population correction.

    A one-component population is degenerate (the only batch is the
    population itself), so the variance is defined as 0 there.
    """
    if var_comp < 0:
        raise ValueError("component variance cannot be negative")
    if n_components < 1:
        raise ValueError("population must contain at least one component")
    if not 1 <= batch_size <= n_components:
        raise ValueError(
            f"batch size must be in [1, {n_components}], got {batch_size}"
        )
    if n_components == 1:
        return 0.0
    return (var_comp / batch_size) * (n_components - batch_size) / (n_components - 1)


def analytic_variance(
    scheme: Scheme, var_comp: float, n_components: int, batch_size: int
) -> float:
    """Scheme dispatch for the closed-form batch-gradient variance."""
    if scheme is Scheme.WITH_REPLACEMENT:
        return analytic_variance_with_replacement(var_comp, batch_size)
    return analytic_variance_without_replacement(var_comp, n_components, batch_size)


def exact_batch_variance(
    problem: FiniteSumProblem,
    x,
    batch_size: int,
    scheme: Scheme,
    cap: int | None = DEFAULT_ENUMERATION_CAP,
) -> float:
    """E ||grad_S F(x) - grad F(x)||^2 by exhaustive enumeration.

    Every batch in the scheme's space contributes its exact probability
    weight, so the result is the estimator variance under the true sampling
    measure, not an approximation. Only feasible while the batch space is
    within ``cap``.
    """
    grads = gradient_matrix(problem, x)
    center = grads.mean(axis=0)
    total = 0.0
    for batch in enumerate_batches(problem.n_components, batch_size, scheme, cap=cap):
        weight = batch_probability(batch, problem.n_components)
        dev = grads[list(batch.indices)].mean(axis=0) - center
        total += weight * float(dev @ dev)
    return total


def empirical_batch_variance(
    problem: FiniteSumProblem,
    x,
    batch_size: int,
    scheme: Scheme,
    draws: int,
    rng: SeededRng,
) -> float:
    """Monte Carlo mean of ||grad_S F(x) - grad F(x)||^2 over sampled batches."""
    if draws < 2:
        raise ValueError("need at least two draws")
    center = full_gradient(problem, x)
    total = 0.0
    for _ in range(draws):
        if scheme is Scheme.WITH_REPLACEMENT:
            batch = sample_with_replacement(rng, problem.n_components, batch_size)
        else:
            batch = sample_without_replacement(rng, problem.n_components, batch_size)
        dev = batch_gradient(problem, x, batch) - center
        total += float(dev @ dev)
    return total / draws


def average_batch_covariance(
    problem: FiniteSumProblem,
    x,
    batch_size: int,
    cap: int | None = DEFAULT_ENUMERATION_CAP,
) -> float:
    """Mean within-batch covariance of centered component gradients.

    For each without-replacement batch, average the inner products over all
    ordered pairs of distinct members (there are N_S * (N_S - 1) of them),
    then average uniformly over the batch space. Distinct components drawn
    together are anti-correlated: the result equals -Var/(N - 1).

    A batch's pair sum is ||sum c||^2 - sum ||c||^2 over its centered rows c:
    the square of the sum is every ordered pair plus the N_S self-products.
    """
    if batch_size < 2:
        raise ValueError("covariance needs batches of at least two indices")
    centered = gradient_matrix(problem, x)
    centered -= centered.mean(axis=0)
    pair_count = batch_size * (batch_size - 1)
    total = 0.0
    for batch in enumerate_batches(
        problem.n_components, batch_size, Scheme.WITHOUT_REPLACEMENT, cap=cap
    ):
        weight = batch_probability(batch, problem.n_components)
        rows = centered[list(batch.indices)]
        row_sum = rows.sum(axis=0)
        pair_sum = float(row_sum @ row_sum - (rows * rows).sum())
        total += weight * (pair_sum / pair_count)
    return total


def variance_report(
    problem: FiniteSumProblem,
    x,
    batch_size: int,
    scheme: Scheme,
    cap: int | None = DEFAULT_ENUMERATION_CAP,
    include_oracle: bool = True,
    include_covariance: bool = False,
) -> VarianceReport:
    """Bundle the closed-form variance with its enumeration oracle values."""
    var_comp = component_gradient_variance(problem, x)
    analytic = analytic_variance(scheme, var_comp, problem.n_components, batch_size)
    oracle = (
        exact_batch_variance(problem, x, batch_size, scheme, cap=cap)
        if include_oracle
        else None
    )
    covariance = None
    if include_covariance:
        if scheme is not Scheme.WITHOUT_REPLACEMENT:
            raise ValueError("average batch covariance applies without replacement only")
        covariance = average_batch_covariance(problem, x, batch_size, cap=cap)
    return VarianceReport(
        scheme=scheme,
        n_components=problem.n_components,
        batch_size=batch_size,
        analytic_variance=analytic,
        oracle_variance=oracle,
        average_covariance=covariance,
    )
