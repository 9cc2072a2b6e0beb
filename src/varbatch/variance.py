"""Variance of batch-gradient estimates under both sampling schemes.

Closed forms: with replacement the estimator variance is Var/N_S; without
replacement it shrinks by the finite population correction (N - N_S)/(N - 1),
reaching zero when the batch is the whole population. The exact enumeration
estimators here average over the entire batch space and act as independent
oracles for those formulas at small scale; a Monte Carlo estimator covers
populations past the enumeration cap. Each checks its sizes, as
:mod:`varbatch.sampling` does, before it evaluates anything.

The oracles read the batch space in the order of
:func:`~varbatch.sampling.enumerate_batches`, as numpy blocks rather than
``Batch`` objects, so memory stays bounded whatever the size of the batch
space. Each batch is weighted by its exact
:func:`~varbatch.sampling.batch_probability`, which with replacement is
computed in float64 wherever that is exact (see :func:`_weight_factors`),
and the weighted terms are added one at a time in enumeration order, so a
result is bit-identical to a per-batch Python loop over the same batches.

:func:`exact_batch_variance` walks the space as a prefix tree
(:func:`_tree_sums`) wherever its reference adds a batch's rows one at a
time, which numpy does with two or more gradient entries, the float
weights are exact, and the space is wide and holds more indices than one
chunk (see :func:`_walks_tree`): batches that share a prefix share its row
sum and its run places, each computed once. Elsewhere it reads the space
as index chunks
(:func:`_weighted_chunks`): column-major ``(m, N_S)`` arrays of at most
``_CHUNK_INDICES`` indices, decoded from their int64 ranks, whose rows
are gathered and summed as a block. With one gradient entry numpy sums
eight or more rows pairwise, which a running sum cannot reproduce;
weights that need Python integers are looked up by run pattern;
:func:`average_batch_covariance` sums squares in numpy's order too; and a
small or narrow space decodes in fewer numpy calls than its tree takes
blocks. So those take the chunks.

Every batch mean, and the full-gradient mean each estimate is centred on,
adds its rows in index order, with the reduction that
:func:`~varbatch.finite_sum.full_gradient` and
:func:`~varbatch.finite_sum.batch_gradient` use; with one gradient entry
(d = 1) it sums a contiguous copy.
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


def _weight_factors(n_components: int, batch_size: int) -> tuple:
    """k! and N**k for with-replacement weights: float64 where that is exact, else ints.

    A multiset's weight is k! / prod(multiplicity!) / N**k. While the odd
    part of k! is below 2**53 (k <= 22) and N**k is a float64, both come as
    floats: prod(multiplicity!) divides k!, so every partial product of run
    places and k! / P are exact integers, and the one division by N**k
    rounds as the integer division in ``batch_probability`` does.
    Otherwise both stay Python integers.
    """
    orderings = math.factorial(batch_size)
    draws = int(n_components) ** batch_size  # a numpy N would wrap in int64
    odd = orderings >> (orderings & -orderings).bit_length() - 1
    if odd < _EXACT_FLOATS and float(draws) == draws:
        return float(orderings), float(draws)
    return orderings, draws


def _weighted_chunks(n_components: int, batch_size: int, scheme: Scheme, cap):
    """The batch space as ``(idx, weights)`` chunks, in enumeration order.

    ``idx`` holds m = ``max(1, _CHUNK_INDICES // batch_size)`` consecutive
    batches, fewer in the last chunk, column-major as ``_subset_blocks``
    yields it; ``weights[i]`` is the exact
    :func:`~varbatch.sampling.batch_probability` of row i. The cap, and the
    limit of the chunks' int64 rank decode, are checked at the call, before
    any chunk is built.

    With replacement, where :func:`_weight_factors` gives floats, each
    chunk's weights come in float64 from the rows' run places, read along
    its contiguous columns, equal to ``batch_probability`` bit for bit.
    Otherwise the rows are keyed by where their runs start, and each new
    key's weight is computed in Python integers from one of its rows.
    """
    population = _subset_population(n_components, batch_size, scheme, cap, ranked=True)
    rows = max(1, _CHUNK_INDICES // batch_size)
    chunks = _subset_blocks(population, batch_size, rows)
    if scheme is Scheme.WITHOUT_REPLACEMENT:
        # Every subset has the probability of the first, range(batch_size).
        weight = _index_probability(range(batch_size), scheme, n_components)
        return ((idx, np.full(len(idx), weight)) for idx in chunks)
    offsets = np.arange(batch_size)
    orderings, draws = _weight_factors(n_components, batch_size)
    if isinstance(draws, float):

        def weigh(idx: np.ndarray) -> tuple:
            idx -= offsets  # multisets from subsets of range(N + k - 1): b_j = a_j - j
            # Column j's place in its run is 1 where the run starts, else one
            # more than column j - 1's; the product of the places is
            # prod(multiplicity!).
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


def _tree_sums(grads: np.ndarray, n_components: int, batch_size: int, scheme: Scheme):
    """The batch space as ``(sums, weights)`` blocks, by a walk of its prefix tree.

    ``sums[i]`` is the sum of a batch's gradient rows, added one at a time
    in index order from +0.0, as :func:`~varbatch.finite_sum._row_sum` adds
    them with two or more entries per row, and ``weights[i]`` (a scalar
    without replacement) its :func:`~varbatch.sampling.batch_probability`,
    computed as the float path of :func:`_weighted_chunks` computes it;
    the batches come in enumeration order. With replacement the
    :func:`_weight_factors` must be floats. The caller checks the space.

    A node at depth j is a prefix a_0 < ... < a_{j-1} of the batches'
    subsets of range(M), M as in ``_subset_population``: it holds a_{j-1},
    the sum of the prefix's rows and, with replacement, the place of its
    last row in its run and the product of its places, so each prefix is
    summed and weighed once for all the batches that share it. A block of
    nodes is expanded a level at a time: the children of a node take a_j
    from a_{j-1} + 1 to M - k + j, one ``np.repeat`` of the parents and one
    gather of rows (row a_j, or a_j - j with replacement) per level. A block
    holds at most ``max(M, _CHUNK_INDICES // k)`` nodes, so a parent's
    children always fit one; a stack of blocks, one at most per level, walks
    them depth first, each block's parents in order.
    """
    runs = scheme is Scheme.WITH_REPLACEMENT
    if runs:
        orderings, draws = _weight_factors(n_components, batch_size)
    else:
        weight = _index_probability(range(batch_size), scheme, n_components)
    population = n_components + batch_size - 1 if runs else n_components
    limit = max(population, _CHUNK_INDICES // batch_size)
    # Each entry: the depth, the block's nodes, the prefix sums of their child
    # counts (from 0) and the first parent not yet expanded. The root, the
    # empty prefix, has last index -1 and run place 0, so its children start
    # runs at place 1.
    root = (np.array([-1]), np.zeros((1, grads.shape[1])))
    if runs:
        root += (np.zeros(1), np.ones(1))
    stack = [(0, root, np.array([0, population - batch_size + 1]), 0)]
    while stack:
        depth, nodes, bounds, start = stack.pop()
        stop = bounds.searchsorted(bounds[start] + limit, "right") - 1
        if stop < len(bounds) - 1:
            stack.append((depth, nodes, bounds, stop))
        last, sums, *places = (array[start:stop] for array in nodes)
        top = population - batch_size + depth  # the largest a_depth
        counts = top - last
        ends = counts.cumsum()
        index = np.repeat(top + 1 - ends, counts)
        index += np.arange(len(index))
        sums = np.repeat(sums, counts, axis=0)
        sums += grads.take(index - depth if runs else index, axis=0)
        if runs:
            # A parent's first child, a_j = a_{j-1} + 1, repeats its multiset
            # index (b_j = a_j - j), one place further along its run; every
            # other child starts a run.
            place, product = places
            place_child = np.ones(len(index))
            place_child[ends - counts] += place
            places = (place_child, np.repeat(product, counts) * place_child)
        if depth + 1 == batch_size:
            yield sums, orderings / places[1] / draws if runs else weight
        else:
            counts = top + 1 - index
            bounds = np.zeros(len(index) + 1, counts.dtype)
            counts.cumsum(out=bounds[1:])
            stack.append((depth + 1, (index, sums, *places), bounds, 0))


def _walks_tree(dim: int, n_components: int, batch_size: int, scheme: Scheme) -> bool:
    """Whether :func:`exact_batch_variance` walks the space's prefix tree, not chunks.

    The walk needs a reference that adds a batch's rows one at a time, as
    numpy does with two or more gradient entries, and exact float weights.
    A tree level costs about two dozen numpy calls per block where a chunk
    costs a few per column, so the walk is only taken where batches share
    their prefixes widely, over more indices than one chunk holds. A space
    of C(M, k) batches has C(M + 1, k) - 1 tree nodes, about
    (M + 1) / (M - k + 1) per batch: below 2 while 2k <= M + 1. Past that the
    prefixes are long, the blocks small and many: with the tree on every
    space past one chunk, ``verify --n-max 100`` took 59 s against 30 s on
    chunks alone and 26 s with this rule (2-vCPU VM). Within one chunk the
    tree lost up to 40 us a cell. A one-column space shares no prefix, and
    its one level would be a block of N nodes.
    """
    population = _subset_population(n_components, batch_size, scheme)
    return (
        dim >= 2
        and 2 <= batch_size
        and 2 * batch_size <= population + 1
        and math.comb(population, batch_size) * batch_size > _CHUNK_INDICES
        and (
            scheme is Scheme.WITHOUT_REPLACEMENT
            or isinstance(_weight_factors(n_components, batch_size)[1], float)
        )
    )


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

    Where :func:`_walks_tree` allows it, the batches' row sums come from a
    walk of the batch space's prefix tree (:func:`_tree_sums`). Otherwise
    the space is read as :func:`_weighted_chunks`: a chunk's rows
    are gathered once by its columns, a contiguous ``(N_S, m, d)`` block,
    and its ``(m, N_S, d)`` transpose is summed over the batch axis, so each
    batch still adds its rows in index order. Either way the result is
    bit for bit the same.
    """
    n = problem.n_components
    chunks = _weighted_chunks(n, batch_size, scheme, cap)  # checks the space first
    grads = gradient_matrix(problem, x)
    center = _row_sum(grads) / len(grads)
    if _walks_tree(grads.shape[1], n, batch_size, scheme):
        blocks = _tree_sums(grads, n, batch_size, scheme)
    else:
        blocks = (
            (_row_sum(_rows(grads, idx.T).transpose(1, 0, 2)), weights)
            for idx, weights in chunks
        )
    total = 0.0
    for sums, weights in blocks:
        dev = sums / batch_size - center
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
