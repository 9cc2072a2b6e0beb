"""Variance of batch-gradient estimates under both sampling schemes.

Closed forms: with replacement the estimator variance is Var/N_S; without
replacement it shrinks by the finite population correction (N - N_S)/(N - 1),
reaching zero when the batch is the whole population. The exact enumeration
estimators here average over the entire batch space and act as independent
oracles for those formulas at small scale; a Monte Carlo estimator covers
populations past the enumeration cap. Each checks its sizes, as
:mod:`varbatch.sampling` does, before it evaluates anything.

The oracles read the batch space in the order of
:func:`~varbatch.sampling.enumerate_batches`, but as numpy index chunks
rather than ``Batch`` objects: column-major ``(m, N_S)`` arrays of at most
``_CHUNK_INDICES`` indices, so memory stays bounded whatever the size of the
batch space, and decoding, weighing and gathering read whole columns. Each
batch is weighted by its exact
:func:`~varbatch.sampling.batch_probability`, which with replacement is
computed per chunk in float64 wherever that is exact (see
:func:`_weighted_chunks`), and the weighted terms are added one at a time in
enumeration order, so a result is bit-identical to a per-batch Python loop
over the same batches.

Every batch mean, and the full-gradient mean each estimate is centred on,
adds its rows in index order, with the reduction that
:func:`~varbatch.finite_sum.full_gradient` and
:func:`~varbatch.finite_sum.batch_gradient` use, read along a strided
batch axis; with one gradient entry (d = 1) it sums a contiguous copy.
"""
from __future__ import annotations

import math

import numpy as np

from .finite_sum import (
    FiniteSumProblem,
    _as_point,
    _gradient_mean,
    _row_sum,
    _rows,
    full_gradient,
    gradient_matrix,
)
from .sampling import (
    DEFAULT_ENUMERATION_CAP,
    Scheme,
    SeededRng,
    _check_count,
    _index_probability,
    _multiset_probability,
    _subset_blocks,
    _subset_population,
    sample_with_replacement,
    sample_without_replacement,
)

# Indices per enumeration chunk (2048 batches of 8): a chunk's index array
# stays within 128 kB and its gathered gradient rows within 128*d kB.
_CHUNK_INDICES = 16_384
# An integer is exactly a float64 when its odd part is below 2**53; while the
# odd part of k! is (k <= 22), every divisor of k! is one too.
_EXACT_FLOATS = 2**53


def analytic_variance_with_replacement(var_comp: float, batch_size: int) -> float:
    """Var / N_S: independent draws average down the component variance."""
    if var_comp < 0:
        raise ValueError("component variance cannot be negative")
    _check_count(batch_size, "batch size", 1)
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
    _subset_population(n_components, batch_size, Scheme.WITHOUT_REPLACEMENT)
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

    ``idx`` holds m = ``max(1, _CHUNK_INDICES // batch_size)`` consecutive
    batches, fewer in the last chunk, column-major as ``_subset_blocks``
    yields it; ``weights[i]`` is the exact
    :func:`~varbatch.sampling.batch_probability` of row i. The cap, and the
    limit of the chunks' int64 rank decode, are checked at the call, before
    any chunk is built.

    With replacement a multiset's weight is k! / prod(multiplicity!) / N**k.
    While the odd part of k! is below 2**53 (k <= 22) and N**k is a float64,
    each chunk's weights come in float64 from the rows' run positions, read
    along its contiguous columns, equal to ``batch_probability`` bit for
    bit. Otherwise the rows are keyed by where their runs start, and each
    new key's weight is computed in Python integers from one of its rows.
    """
    population = _subset_population(n_components, batch_size, scheme, cap, ranked=True)
    rows = max(1, _CHUNK_INDICES // batch_size)
    chunks = _subset_blocks(population, batch_size, rows)
    if scheme is Scheme.WITHOUT_REPLACEMENT:
        # Every subset has the probability of the first, range(batch_size).
        weight = _index_probability(range(batch_size), scheme, n_components)
        return ((idx, np.full(len(idx), weight)) for idx in chunks)
    offsets = np.arange(batch_size)
    orderings = math.factorial(batch_size)
    draws = int(n_components) ** batch_size  # a numpy N would wrap in int64
    odd = orderings >> (orderings & -orderings).bit_length() - 1
    if odd < _EXACT_FLOATS and float(draws) == draws:
        orderings, draws = float(orderings), float(draws)

        def weigh(idx: np.ndarray) -> tuple:
            idx -= offsets  # multisets from subsets of range(N + k - 1): b_j = a_j - j
            # Column j's place in its run is 1 where the run starts, else one
            # more than column j - 1's; the product P of the places is
            # prod(multiplicity!), which divides k!. So every partial product
            # and k! / P are exact integers, and the one division by N**k
            # rounds as the integer division in batch_probability does.
            columns = idx.T
            place = np.ones(len(idx))
            product = np.ones(len(idx))
            for same in columns[1:] == columns[:-1]:
                place *= same
                place += 1
                product *= place
            return idx, orderings / product / draws

        return map(weigh, chunks)
    # A multiset's probability depends only on the columns where its runs of
    # equal indices start, so it is computed once per such pattern and call.
    by_key: dict = {}

    def weigh(idx: np.ndarray) -> tuple:
        idx -= offsets
        keys, first, inverse = np.unique(
            _run_keys(idx), return_index=True, return_inverse=True
        )
        keys = keys.tolist()
        # Every row with a key has that key's probability; read the first.
        for key, i in zip(keys, first.tolist()):
            if key not in by_key:
                by_key[key] = _multiset_probability(idx[i].tolist(), orderings, draws)
        return idx, np.array([by_key[key] for key in keys]).take(inverse)

    return map(weigh, chunks)


def _run_keys(idx: np.ndarray) -> np.ndarray:
    """One key per sorted row of ``idx``, equal exactly when its runs start alike.

    A key is the row's run-start flags, one byte per column; column 0
    starts a run in every row.
    """
    starts = np.ones(idx.shape, bool)
    np.not_equal(idx[:, 1:], idx[:, :-1], out=starts[:, 1:])
    return starts.view(np.dtype((np.void, idx.shape[1])))[:, 0]


def _add_in_order(total: float, terms: np.ndarray) -> float:
    """``total + terms[0] + terms[1] + ...``, rounded after each addition; overwrites ``terms``."""
    terms[0] += total
    return float(np.add.accumulate(terms)[-1])


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
    within ``cap``, and even under ``cap=None`` within ``(2**63 - 1) // M``
    batches (M = N, or N + N_S - 1 with replacement); a larger space raises
    before anything is evaluated.

    A chunk's rows are gathered once by its columns, a contiguous
    ``(N_S, m, d)`` block, and its ``(m, N_S, d)`` transpose is summed over
    the batch axis, so each batch still adds its rows in index order.
    """
    chunks = _weighted_chunks(problem.n_components, batch_size, scheme, cap)
    grads = gradient_matrix(problem, x)
    center = _row_sum(grads) / len(grads)
    total = 0.0
    for idx, weights in chunks:
        dev = _row_sum(_rows(grads, idx.T).transpose(1, 0, 2)) / batch_size - center
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
    """Monte Carlo mean of ||grad_S F(x) - grad F(x)||^2 over sampled batches.

    Batches are drawn one at a time, so the draws and the generator stream
    are those of repeated sampler calls, but evaluated in chunks: the drawn
    batches' index arrays are joined, one gather per chunk of at most
    ``_CHUNK_INDICES`` indices, and the m batch means are taken over the
    ``(m, N_S)`` rows in index order, as ``batch_gradient`` takes one.
    """
    _check_count(draws, "draws", 2)
    _subset_population(problem.n_components, batch_size, scheme)
    if scheme is Scheme.WITH_REPLACEMENT:
        sample = sample_with_replacement
    else:
        sample = sample_without_replacement
    x = _as_point(problem, x)
    center = full_gradient(problem, x)
    rows = max(1, _CHUNK_INDICES // batch_size)
    total = 0.0
    for start in range(0, draws, rows):
        m = min(rows, draws - start)
        idx = np.concatenate(
            [sample(rng, problem.n_components, batch_size).array for _ in range(m)]
        )
        dev = _gradient_mean(problem, idx, x, (m, batch_size)) - center
        total = _add_in_order(total, np.vecdot(dev, dev))
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
    A space too large is refused as :func:`exact_batch_variance` refuses it.
    """
    _check_count(batch_size, "batch size", 2)
    chunks = _weighted_chunks(
        problem.n_components, batch_size, Scheme.WITHOUT_REPLACEMENT, cap
    )
    centered = gradient_matrix(problem, x)
    centered -= _row_sum(centered) / len(centered)
    pair_count = batch_size * (batch_size - 1)
    total = 0.0
    for idx, weights in chunks:
        rows = _rows(centered, idx)
        batch_sum = _row_sum(rows)
        pair_sum = np.vecdot(batch_sum, batch_sum) - (rows * rows).sum(axis=(1, 2))
        total = _add_in_order(total, weights * (pair_sum / pair_count))
    return total
