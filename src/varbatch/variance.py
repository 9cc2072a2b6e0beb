"""Variance of batch-gradient estimates under both sampling schemes.

Closed forms: with replacement the estimator variance is Var/N_S; without
replacement it shrinks by the finite population correction (N - N_S)/(N - 1),
reaching zero when the batch is the whole population. The exact enumeration
estimators here average over the entire batch space and act as independent
oracles for those formulas at small scale; a Monte Carlo estimator covers
populations past the enumeration cap.

The oracles read :func:`~varbatch.sampling.enumerate_batches` in chunks of
consecutive batches, each an ``(m, N_S)`` index array holding at most
``_CHUNK_INDICES`` indices, so memory stays bounded whatever the size of the
batch space. Each batch is weighted by its exact
:func:`~varbatch.sampling.batch_probability`, and the weighted terms are
added one at a time in enumeration order, so a result is bit-identical to a
per-batch Python loop over the same batches.
"""
from __future__ import annotations

from itertools import islice
from operator import attrgetter

import numpy as np

from .finite_sum import (
    FiniteSumProblem,
    batch_gradient,
    full_gradient,
    gradient_matrix,
)
from .sampling import (
    DEFAULT_ENUMERATION_CAP,
    Batch,
    Scheme,
    SeededRng,
    batch_probability,
    enumerate_batches,
    sample_with_replacement,
    sample_without_replacement,
)

# Indices per enumeration chunk (2048 batches of 8): a chunk's index array
# stays within 128 kB and its gathered gradient rows within 128*d kB.
_CHUNK_INDICES = 16_384


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


def _weighted_chunks(n_components: int, batch_size: int, scheme: Scheme, cap):
    """The batch space as ``(idx, weights)`` chunks, in enumeration order.

    ``idx`` stacks consecutive batches from :func:`enumerate_batches` as an
    ``(m, batch_size)`` index array, and ``weights[i]`` is the exact
    :func:`batch_probability` of row i. A batch's probability depends only on
    where its runs of equal indices start (every row starts a run at each
    index without replacement), so it is computed once per run pattern.
    """
    batches = enumerate_batches(n_components, batch_size, scheme, cap=cap)
    rows = max(1, _CHUNK_INDICES // batch_size)
    row_type = np.dtype((np.intp, batch_size))
    by_pattern: dict[bytes, float] = {}
    while True:
        chunk = islice(batches, rows)
        idx = np.fromiter(map(attrgetter("indices"), chunk), dtype=row_type)
        if not len(idx):
            return
        starts = np.packbits(np.diff(idx, axis=1, prepend=-1) != 0, axis=1)
        patterns = starts.view(np.dtype((np.void, starts.shape[1]))).ravel().tolist()
        for i, pattern in enumerate(patterns):
            if pattern not in by_pattern:
                batch = Batch(tuple(idx[i].tolist()), scheme)
                by_pattern[pattern] = batch_probability(batch, n_components)
        yield idx, np.array([by_pattern[pattern] for pattern in patterns])


def _add_in_order(total: float, terms: np.ndarray) -> float:
    """``total + terms[0] + terms[1] + ...``, rounded after each addition."""
    return float(np.cumsum(np.concatenate(([total], terms)))[-1])


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
    for idx, weights in _weighted_chunks(problem.n_components, batch_size, scheme, cap):
        dev = grads[idx].mean(axis=1) - center
        total = _add_in_order(total, weights * np.vecdot(dev, dev))
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
    for idx, weights in _weighted_chunks(
        problem.n_components, batch_size, Scheme.WITHOUT_REPLACEMENT, cap
    ):
        rows = centered[idx]
        row_sum = rows.sum(axis=1)
        pair_sum = np.vecdot(row_sum, row_sum) - (rows * rows).sum(axis=(1, 2))
        total = _add_in_order(total, weights * (pair_sum / pair_count))
    return total
