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
``Batch`` objects. Each batch is weighted by its exact
:func:`~varbatch.sampling.batch_probability`, which with replacement comes
from the product of its run places, in float64 where that is exact and in
Python integers otherwise (see :func:`_weight_rule`), and the weighted
terms are added one at a time in enumeration order, so a result is
bit-identical to a per-batch Python loop over the same batches.

:func:`exact_batch_variance` walks the space as a prefix tree
(:func:`_tree_levels`) wherever its reference adds a batch's rows one at a
time, which numpy does with two or more gradient entries, and the space is
wide and holds more indices than one chunk (see :func:`_walks_tree`):
batches that share a prefix share its row sum and its run places, each
computed once. Elsewhere it reads the space as index chunks
(:func:`_weighted_chunks`): column-major ``(m, N_S)`` arrays of at most
``_CHUNK_INDICES`` indices, decoded from their int64 ranks, whose rows
are gathered and summed as a block. With one gradient entry numpy sums
eight or more rows pairwise, which a running sum cannot reproduce;
:func:`average_batch_covariance` sums squares in numpy's order too; and a
small or narrow space decodes in fewer numpy calls than its tree takes
blocks. So those take the chunks.

:func:`exact_batch_variances` reads every batch size up to some j* from
one walk that does not prune: a prefix of length j is itself a size-j
batch, and level j holds every one, in enumeration order, with the row
sum and run places of the size-j space. Larger sizes are left to
per-size calls.

Besides the gradient matrix, memory does not grow with the number of
batches: a chunk holds at most ``_CHUNK_INDICES`` indices, and a walk to
depth k at most k + 1 blocks of ``max(N, _CHUNK_INDICES // k)`` nodes
each, one partly expanded block per level and the one being built.

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
    EnumerationCapError,
    Scheme,
    SeededRng,
    _check_count,
    _index_probability,
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
# With one gradient entry numpy sums this many rows or more pairwise, which a
# running sum cannot reproduce.
_PAIRWISE_ROWS = 8


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


def _weight_rule(n_components: int, batch_size: int, scheme: Scheme) -> tuple:
    """``(dtype, weigh)``: how both oracle readers weigh a block of batches.

    Without replacement every batch has the probability of the first,
    range(k), and ``weigh`` returns it for any argument. With
    replacement ``weigh(product)`` maps the batches' products of run
    places, prod(multiplicity!) held in ``dtype``, to their weights
    k! / product / N**k, equal to ``batch_probability`` bit for bit. While
    the odd part of k! is below 2**53 (k <= 22) and N**k is a float64, the
    places are float64: the product divides k!, so every partial product
    and k! / product are exact integers, and the one division by N**k
    rounds as the integer division in ``batch_probability`` does.
    Otherwise they are Python integers (``object``), and the weights are
    that division itself.
    """
    if scheme is Scheme.WITHOUT_REPLACEMENT:
        weight = _index_probability(range(batch_size), scheme, n_components)
        return None, lambda product: weight
    orderings = math.factorial(batch_size)
    draws = int(n_components) ** batch_size  # a numpy N would wrap in int64
    odd = orderings >> (orderings & -orderings).bit_length() - 1
    if odd < _EXACT_FLOATS and float(draws) == draws:
        orderings, draws = float(orderings), float(draws)
        return np.float64, lambda product: orderings / product / draws
    return object, lambda product: (orderings // product / draws).astype(float)


def _weighted_chunks(n_components: int, batch_size: int, scheme: Scheme, cap):
    """The batch space as ``(idx, weights)`` chunks, in enumeration order.

    ``idx`` holds m = ``max(1, _CHUNK_INDICES // batch_size)`` consecutive
    batches, fewer in the last chunk, column-major as ``_subset_blocks``
    yields it; ``weights[i]`` is the exact
    :func:`~varbatch.sampling.batch_probability` of row i, from the product
    of the row's run places, read along the chunk's contiguous columns
    (see :func:`_weight_rule`). The cap, and the limit of the chunks' int64
    rank decode, are checked at the call, before any chunk is built.
    """
    population = _subset_population(n_components, batch_size, scheme, cap, ranked=True)
    rows = max(1, _CHUNK_INDICES // batch_size)
    chunks = _subset_blocks(population, batch_size, rows)
    dtype, weigh = _weight_rule(n_components, batch_size, scheme)
    if scheme is Scheme.WITHOUT_REPLACEMENT:
        return ((idx, np.full(len(idx), weigh(None))) for idx in chunks)
    offsets = np.arange(batch_size)

    def weighted(idx: np.ndarray) -> tuple:
        idx -= offsets  # multisets from subsets of range(N + k - 1): b_j = a_j - j
        # Column j's place in its run is 1 where the run starts, else one
        # more than column j - 1's; the product of the places is
        # prod(multiplicity!).
        columns = idx.T
        place = np.ones(len(idx), dtype)
        product = np.ones(len(idx), dtype)
        for same in columns[1:] == columns[:-1]:
            place *= same
            place += 1
            product *= place
        return idx, weigh(product)

    return map(weighted, chunks)


def _tree_levels(
    grads: np.ndarray, n_components: int, depth: int, scheme: Scheme, dtype, pruned: bool
):
    """The batch spaces of sizes 1..depth as ``(size, sums, products)`` blocks of one walk.

    A node at level j is a batch of size j, a_0 < ... < a_{j-1} of
    range(N), or with replacement a canonical multiset b_0 <= ... <=
    b_{j-1}. It holds its last index, the sum of its gradient rows, added
    one at a time in index order from +0.0 as
    :func:`~varbatch.finite_sum._row_sum` adds them with two or more entries
    per row, and, with replacement, the place of its last row in its run and
    the product of its places, prod(multiplicity!), in ``dtype``
    (``products`` is None without replacement). So each prefix is summed
    and weighed once for all the batches that extend it. The children of a
    node take the next index from a_{j-1} + 1 (from b_{j-1} with
    replacement) to N - 1, so the blocks of each level hold every batch of
    its size, in enumeration order. A ``pruned`` walk without replacement
    stops them at N - depth + j: only prefixes of size-``depth`` batches
    are expanded, and the shallower levels are partial. The caller checks
    the spaces.

    A block of nodes is expanded a level at a time, with one ``np.repeat``
    of the parents and one gather of rows. A block holds at most
    ``max(N, _CHUNK_INDICES // depth)`` nodes, so a parent's children
    always fit one; a stack of blocks, one at most per level, walks them
    depth first, each block's parents in order.
    """
    runs = scheme is Scheme.WITH_REPLACEMENT
    prune = pruned and not runs  # with replacement every prefix extends
    limit = max(n_components, _CHUNK_INDICES // depth)
    # Each entry: the level, the block's nodes, the prefix sums of their child
    # counts (from 0) and the first parent not yet expanded. The root, the
    # empty prefix, has last index -1 (0 with replacement, where a child may
    # repeat it) and run place 0, so its children start runs at place 1.
    root = (np.array([runs - 1]), np.zeros((1, grads.shape[1])))
    if runs:
        root += (np.zeros(1, dtype), np.ones(1, dtype))
    stack = [(0, root, np.array([0, n_components - prune * (depth - 1)]), 0)]
    while stack:
        level, nodes, bounds, start = stack.pop()
        stop = bounds.searchsorted(bounds[start] + limit, "right") - 1
        if stop < len(bounds) - 1:
            stack.append((level, nodes, bounds, stop))
        last, sums, *places = (array[start:stop] for array in nodes)
        top = n_components - 1 - prune * (depth - 1 - level)  # the largest child index
        counts = top + runs - last
        ends = counts.cumsum()
        index = np.repeat(top + 1 - ends, counts)
        index += np.arange(len(index))
        sums = np.repeat(sums, counts, axis=0)
        sums += grads.take(index, axis=0)
        if runs:
            # A parent's first child repeats its last index, one place further
            # along its run; every other child starts a run.
            place, product = places
            place_child = np.ones(len(index), dtype)
            place_child[ends - counts] += place
            places = (place_child, np.repeat(product, counts) * place_child)
        yield level + 1, sums, places[1] if runs else None
        if level + 1 < depth:
            counts = top + prune + runs - index
            bounds = np.zeros(len(index) + 1, counts.dtype)
            counts.cumsum(out=bounds[1:])
            if bounds[-1]:  # unpruned, a block of last indices N - 1 has none
                stack.append((level + 1, (index, sums, *places), bounds, 0))


def _walks_tree(dim: int, n_components: int, batch_size: int, scheme: Scheme) -> bool:
    """Whether :func:`exact_batch_variance` walks the space's prefix tree, not chunks.

    The walk needs a reference that adds a batch's rows one at a time, as
    numpy does with two or more gradient entries. A tree level costs about
    two dozen numpy calls per block where a chunk costs a few per column,
    so the walk is only taken where batches share their prefixes widely,
    over more indices than one chunk holds. A space of C(M, k) batches has
    C(M + 1, k) - 1 tree nodes, about (M + 1) / (M - k + 1) per batch:
    below 2 while 2k <= M + 1. Past that the prefixes are long, the blocks
    small and many: with the tree on every space past one chunk,
    ``verify --n-max 100`` took 59 s against 30 s on chunks alone and 26 s
    with this rule (2-vCPU VM). Within one chunk the tree lost up to 40 us
    a cell. A one-column space shares no prefix, and its one level would be
    a block of N nodes.
    """
    population = _subset_population(n_components, batch_size, scheme)
    return (
        dim >= 2
        and 2 <= batch_size
        and 2 * batch_size <= population + 1
        and math.comb(population, batch_size) * batch_size > _CHUNK_INDICES
    )


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
    pruned walk of the batch space's prefix tree (:func:`_tree_levels`),
    which holds at most N_S + 1 blocks of ``max(N, _CHUNK_INDICES // N_S)``
    nodes.
    Otherwise the space is read as :func:`_weighted_chunks`: a chunk's
    rows are gathered once by its columns, a contiguous ``(N_S, m, d)``
    block, and its ``(m, N_S, d)`` transpose is summed over the batch axis,
    so each batch still adds its rows in index order. Either way the result
    is bit for bit the same.
    """
    n = problem.n_components
    chunks = _weighted_chunks(n, batch_size, scheme, cap)  # checks the space first
    grads = gradient_matrix(problem, x)
    center = _row_sum(grads) / len(grads)
    if _walks_tree(grads.shape[1], n, batch_size, scheme):
        dtype, weigh = _weight_rule(n, batch_size, scheme)
        levels = _tree_levels(grads, n, batch_size, scheme, dtype, pruned=True)
        blocks = (
            (sums, weigh(products)) for size, sums, products in levels if size == batch_size
        )
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


def exact_batch_variances(
    problem: FiniteSumProblem,
    x,
    scheme: Scheme,
    cap: int | None = DEFAULT_ENUMERATION_CAP,
) -> list[float]:
    """:func:`exact_batch_variance` at batch sizes 1, 2, ..., j*, bit for bit, from one walk.

    j* is the largest size, at most N, whose space and every smaller size's
    :func:`exact_batch_variance` accepts under ``cap``; with one gradient
    entry, at most ``_PAIRWISE_ROWS - 1``. The list is empty when size 1
    is refused. The spaces are checked before any gradient is evaluated.

    The unpruned walk (:func:`_tree_levels`) holds at most j* + 1 blocks of
    ``max(N, _CHUNK_INDICES // j*)`` nodes. Each level keeps its own
    running total and :func:`_weight_rule`; the products are held in the
    deepest level's number type, which holds every shallower level's
    exactly.
    """
    n = problem.n_components
    deepest = n if problem.dim > 1 else min(n, _PAIRWISE_ROWS - 1)
    rules = []
    for size in range(1, deepest + 1):
        try:
            _subset_population(n, size, scheme, cap, ranked=True)
        except EnumerationCapError:
            break
        rules.append(_weight_rule(n, size, scheme))
    if not rules:
        return []
    grads = gradient_matrix(problem, x)
    center = _row_sum(grads) / len(grads)
    totals = [0.0] * len(rules)
    for size, sums, products in _tree_levels(
        grads, n, len(rules), scheme, rules[-1][0], pruned=False
    ):
        dev = sums / size - center
        weights = rules[size - 1][1](products)
        totals[size - 1] = _add_in_order(totals[size - 1], weights * np.vecdot(dev, dev))
    return totals


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
