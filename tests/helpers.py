"""Independent numeric oracles shared across the test suite."""
import itertools
import math
from array import array
from unittest.mock import patch

import numpy as np

import varbatch.optimizer as optimizer
from varbatch import (
    Batch,
    DatasetFormatError,
    FiniteSumProblem,
    Scheme,
    batch_gradient,
    batch_probability,
    batch_sizes,
    enumerate_batches,
    full_gradient,
    gradient_matrix,
    run,
    sample_with_replacement,
    sample_without_replacement,
)
from varbatch.finite_sum import _RowFormula


def central_difference_gradient(func, x, h=1e-6):
    """Gradient of a scalar function by central differences, coordinate by coordinate."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for j in range(x.size):
        step = np.zeros_like(x)
        step[j] = h
        grad[j] = (func(x + step) - func(x - step)) / (2.0 * h)
    return grad


def brute_force_component_variance(problem, x):
    """Population variance straight from the definition, separate code path."""
    x = np.asarray(x, dtype=float)
    grads = [problem.component_gradient(i, x) for i in range(problem.n_components)]
    mean = sum(grads) / problem.n_components
    total = 0.0
    for g in grads:
        dev = g - mean
        total += float(np.dot(dev, dev))
    return total / problem.n_components


class IdentityPool:
    """Stands in for ``list(range(n))`` where n is too large to build.

    Slots never written hold their own index, as in the list; a prefix slice
    reads slots ``0 .. stop - 1``.
    """

    def __init__(self):
        self.slots = {}

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(i.stop)]
        return self.slots.get(i, i)

    def __setitem__(self, i, value):
        self.slots[i] = value


def dense_sample_without_replacement(rng, n_components, batch_size):
    """The dense partial Fisher-Yates shuffle, as the library first shipped it.

    Reference for the sparse sampler's stream: one scalar bounded draw per
    step, swapped through a pool of all N indices. The body is the original
    apart from the pool, which is an :class:`IdentityPool` above 10**6
    components so that 64-bit populations can be checked.
    """
    if n_components < 1:
        raise ValueError("population must contain at least one component")
    if not 1 <= batch_size <= n_components:
        raise ValueError(
            f"batch size must be in [1, {n_components}], got {batch_size}"
        )
    pool = list(range(n_components)) if n_components <= 10**6 else IdentityPool()
    for j in range(batch_size):
        r = rng.integers(j, n_components)
        pool[j], pool[r] = pool[r], pool[j]
    return Batch(tuple(sorted(pool[:batch_size])), Scheme.WITHOUT_REPLACEMENT)


def dict_loop_batch(offsets):
    """Sorted pool prefix after the sparse Fisher-Yates swaps ``offsets``.

    Reference for the sampler's loop-free path: the dict loop that
    ``sample_without_replacement`` runs on small batches, verbatim, over
    offsets ``r_j`` in ``[j, N)`` given as an array.
    """
    moved: dict[int, int] = {}
    chosen = []
    for j, r in enumerate(offsets.tolist()):
        chosen.append(moved.get(r, r))
        # Slot j is never read again, so only slot r needs the swapped value.
        moved[r] = moved.get(j, j)
    return np.sort(chosen).tolist()


def loop_exact_batch_variance(problem, x, batch_size, scheme, cap=None):
    """``exact_batch_variance`` as a per-batch loop, as the library first shipped it.

    Reference for the chunked oracle, which must match it bit for bit: one
    ``batch_probability`` and one row mean per enumerated batch, added to a
    running Python float in enumeration order.
    """
    grads = gradient_matrix(problem, x)
    center = grads.mean(axis=0)
    total = 0.0
    for batch in enumerate_batches(problem.n_components, batch_size, scheme, cap=cap):
        weight = batch_probability(batch, problem.n_components)
        dev = grads[list(batch.indices)].mean(axis=0) - center
        total += weight * float(dev @ dev)
    return total


def loop_average_batch_covariance(problem, x, batch_size, cap=None):
    """``average_batch_covariance`` as a per-batch loop, as first shipped."""
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


def loop_empirical_batch_variance(problem, x, batch_size, scheme, draws, rng):
    """``empirical_batch_variance`` as a per-draw loop, as first shipped.

    One sampler call, one ``batch_gradient`` and one squared norm per draw,
    added to a running Python float in draw order.
    """
    if scheme is Scheme.WITH_REPLACEMENT:
        sample = sample_with_replacement
    else:
        sample = sample_without_replacement
    center = full_gradient(problem, x)
    total = 0.0
    for _ in range(draws):
        dev = batch_gradient(problem, x, sample(rng, problem.n_components, batch_size)) - center
        total += float(dev @ dev)
    return total / draws


def enumerate_run(problem, config):
    """Every sampling path of ``run(problem, config)``, as (probability, record) pairs.

    The batch sizes are the first ``max_iters`` of ``batch_sizes``, which
    follow from the rule and the schedule alone, and the paths are the
    product of the sampled iterations' batch spaces. Each path drives
    ``run`` itself, its batches replayed through the sampler names
    ``optimizer`` calls, and weighs the product of its batches'
    ``batch_probability``. Every path must run all ``max_iters`` iterations
    (a tolerance of 0, say), so that it draws each of its batches.
    """
    n, scheme = problem.n_components, config.rule.scheme
    plan = itertools.islice(batch_sizes(config.rule, config.epsilon_schedule), config.max_iters)
    sizes = [size for size in plan if size < n]
    spaces = [list(enumerate_batches(n, size, scheme)) for size in sizes]
    path = iter(())

    def sampler(own):
        def replay(rng, n_components, batch_size):
            batch = next(path)
            assert (own, n_components, batch_size) == (scheme, n, batch.size)
            return batch

        return replay

    outcomes = []
    with (
        patch.object(optimizer, "sample_with_replacement", sampler(Scheme.WITH_REPLACEMENT)),
        patch.object(optimizer, "sample_without_replacement", sampler(Scheme.WITHOUT_REPLACEMENT)),
    ):
        for batches in itertools.product(*spaces):
            path = iter(batches)
            record = run(problem, config)
            assert next(path, None) is None  # every batch of the path was drawn
            probability = math.prod(batch_probability(batch, n) for batch in batches)
            outcomes.append((probability, record))
    return outcomes


def tuple_batch_gradient(problem, x, batch):
    """``batch_gradient`` as it read a batch's index tuple, before batches held arrays.

    Reference for the array path, which must match it bit for bit: the
    indices go back through ``np.fromiter`` and the rows through numpy's
    ``mean(axis=0)``. The body is the original.
    """
    x = np.asarray(x, dtype=float)
    if batch.indices[-1] >= problem.n_components:
        raise ValueError(
            f"batch index {batch.indices[-1]} out of range for "
            f"{problem.n_components} components"
        )
    indices = np.fromiter(batch.indices, np.intp, batch.size)
    return problem.gradients(indices, x).mean(axis=0)


def fancy_index_least_squares(matrix, targets):
    """``make_least_squares`` gathering its rows by fancy indexing, as first shipped.

    Reference for the ``take`` gather, which must give the same bytes: the
    formulas are the original bodies, over a C-ordered copy of the data.
    """
    A = np.array(matrix, dtype=float, order="C")
    b = np.array(targets, dtype=float)

    def values(indices, x):
        residual = A[indices] @ x - b[indices]
        return 0.5 * residual * residual

    def gradients(indices, x):
        rows = A[indices]
        return rows * (rows @ x - b[indices])[:, None]

    return FiniteSumProblem(A.shape[1], A.shape[0], _RowFormula(values), _RowFormula(gradients))


def fancy_index_logistic(matrix, labels):
    """``make_logistic`` gathering its rows by fancy indexing, as first shipped.

    Gathers ``A[indices]`` and ``y[indices]`` twice per gradient call, as
    the original did.
    """
    A = np.array(matrix, dtype=float, order="C")
    y = np.array(labels, dtype=float)

    def margins(indices, x):
        margin = y[indices] * (A[indices] @ x)
        return margin, np.exp(-np.abs(margin))

    def values(indices, x):
        margin, e = margins(indices, x)
        return np.where(margin > 0, 0.0, -margin) + np.log1p(e)

    def gradients(indices, x):
        margin, e = margins(indices, x)
        slope = np.where(margin > 0, e, 1.0) / (1.0 + e)
        return (-y[indices] * slope)[:, None] * A[indices]

    return FiniteSumProblem(A.shape[1], A.shape[0], _RowFormula(values), _RowFormula(gradients))


def reference_load_dataset(path):
    """``load_dataset`` as a per-cell ``float()`` loop, as the library first shipped it.

    Reference for the one-pass numpy parse, which must return the same bytes
    and raise the same messages on every file that both accept as ASCII
    decimal text. The body is the original.
    """
    cells = array("d")  # row-major doubles, not a Python float per cell
    width = None
    separator = None
    # Undecodable bytes become unparsable cells, so a binary file is a format error.
    with open(path, errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if width is None:
                separator = "," if "," in line else None
            parts = line.split(separator)
            try:
                values = [float(part) for part in parts]
            except ValueError:
                raise DatasetFormatError(
                    f"{path}: line {lineno}: could not parse {line!r} as numbers"
                ) from None
            if not all(map(math.isfinite, values)):
                raise DatasetFormatError(f"{path}: line {lineno}: non-finite value in {line!r}")
            if width is None:
                width = len(values)
                if width < 2:
                    raise DatasetFormatError(
                        f"{path}: line {lineno}: need at least one feature column "
                        "plus a label column"
                    )
            elif len(values) != width:
                raise DatasetFormatError(
                    f"{path}: line {lineno}: expected {width} fields, got {len(values)}"
                )
            cells.extend(values)
    if width is None:
        raise DatasetFormatError(f"{path}: no data rows")
    data = np.frombuffer(cells).reshape(-1, width)
    return data[:, :-1], data[:, -1]
