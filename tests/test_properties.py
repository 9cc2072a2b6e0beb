"""Property checks of the size rules' defining inequalities, the samplers, the
batch-mean primitives, the dataset parser and the exact variance oracle.

Examples are derandomized and no example database is kept, so the suite
stays deterministic.
"""
import tempfile
from itertools import islice
from pathlib import Path
from unittest.mock import patch

import numpy as np
from hypothesis import configuration, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import varbatch.variance as variance
from helpers import (
    dense_sample_without_replacement,
    dict_loop_batch,
    loop_exact_batch_variance,
    reference_load_dataset,
)
from varbatch import (
    BatchSizeRule,
    EpsilonSchedule,
    Scheme,
    SeededRng,
    VarianceCap,
    analytic_variance_with_replacement,
    analytic_variance_without_replacement,
    batch_sizes,
    exact_batch_variance,
    load_dataset,
    make_least_squares,
    min_batch_with_replacement,
    min_batch_without_replacement,
    sample_with_replacement,
    sample_without_replacement,
)
from varbatch.finite_sum import _row_sum
from varbatch.sampling import _fisher_yates_batch

# Ceilings snap values within 1e-9 (relative) of an integer.
SNAP = 1e-9

examples = settings(derandomize=True, database=None, deadline=None, max_examples=150)

# Hypothesis caches the constants of the loaded modules in its home directory
# (./.hypothesis by default) even without a database, and does so while
# tests are collected; keep that cache out of the working directory.
_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
configuration.set_hypothesis_home_dir(_HOME.name)

caps = st.floats(1e-6, 1e6)
tolerances = st.floats(1e-8, 1e3)
populations = st.integers(1, 10**6)


@examples
@given(cap=caps, eps=tolerances)
def test_with_replacement_size_is_minimal(cap, eps):
    size = min_batch_with_replacement(cap, eps, 1, truncate=False)
    assert analytic_variance_with_replacement(cap, size) <= eps * (1 + SNAP)
    if size > 1:
        assert analytic_variance_with_replacement(cap, size - 1) > eps * (1 - SNAP)


@examples
@given(cap=caps, eps=tolerances, n=populations)
def test_without_replacement_size_is_minimal(cap, eps, n):
    size = min_batch_without_replacement(cap, n, eps)
    assert 1 <= size <= n
    assert analytic_variance_without_replacement(cap, n, size) <= eps * (1 + SNAP)
    if size > 1:
        assert analytic_variance_without_replacement(cap, n, size - 1) > eps * (1 - SNAP)


@examples
@given(
    scheme=st.sampled_from(Scheme),
    cap=caps,
    n=populations,
    floor_share=st.floats(0, 1),
    eps0=st.floats(1e-3, 1e3),
    rho=st.floats(0.05, 0.99),
)
def test_next_batch_size_nondecreasing_within_bounds(scheme, cap, n, floor_share, eps0, rho):
    floor = max(1, round(floor_share * n))
    rule = BatchSizeRule(scheme, VarianceCap(cap), n, floor=floor)
    schedule = EpsilonSchedule.geometric(eps0, rho)
    sizes = list(islice(batch_sizes(rule, schedule), 40))
    assert floor <= sizes[0] and sizes[-1] <= n
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))


@examples
@given(
    scheme=st.sampled_from(Scheme),
    seed=st.integers(0, 2**32),
    n=st.integers(1, 10**5),
    size_share=st.floats(0, 1),
)
def test_samplers_return_canonical_batches(scheme, seed, n, size_share):
    size = max(1, round(size_share * min(n, 200)))
    if scheme is Scheme.WITH_REPLACEMENT:
        indices = sample_with_replacement(SeededRng(seed), n, size).indices
    else:
        indices = sample_without_replacement(SeededRng(seed), n, size).indices
    assert len(indices) == size
    assert 0 <= indices[0] and indices[-1] < n
    pairs = list(zip(indices, indices[1:]))
    if scheme is Scheme.WITHOUT_REPLACEMENT:
        assert all(a < b for a, b in pairs)
    else:
        assert all(a <= b for a, b in pairs)


@examples
@given(seed=st.integers(0, 2**32), n=st.integers(1, 10**5), size_share=st.floats(0, 1))
def test_sparse_sampler_matches_dense_reference(seed, n, size_share):
    size = max(1, round(size_share * min(n, 200)))
    sparse, dense = SeededRng(seed), SeededRng(seed)
    assert sample_without_replacement(sparse, n, size) == dense_sample_without_replacement(
        dense, n, size
    )
    assert sparse.integers(0, n) == dense.integers(0, n)


# Half the examples of the others: each long array costs hypothesis about 5 ms.
@settings(examples, max_examples=75)
@given(
    n=st.integers(1, 3000) | st.integers(1, 2**40),
    jumps=arrays(np.int64, st.integers(1, 2000), elements=st.integers(0, 2**40)),
)
def test_loop_free_batch_matches_dict_loop(n, jumps):
    # Every valid offset array r_j in [j, n) is j + jumps[j], clipped to n - 1
    # for a population smaller than the jump. Hypothesis fills most of a long
    # array with one value, which gives self-hits, chains and collisions.
    size = min(n, jumps.size)
    offsets = np.minimum(np.arange(size) + jumps[:size], n - 1)
    assert _fisher_yates_batch(offsets, np.arange(size)).tolist() == dict_loop_batch(offsets)


# Lossless and rounded spellings of one float, signed and exponent forms included.
CELL_FORMS = ("{!r}", "{:.17g}", "{:+.17g}", "{:.17e}", "{:.6E}", "{:.3f}")
COMMA_GAPS = (",", ", ", " ,", " , ", ",\t")
SPACE_GAPS = (" ", "\t", "  ", " \t ")
INDENTS = ("", "", " ", "\t")
SKIPPED_LINES = ("", "   ", "# note, 1, 2", "  # 3 4", "\t#")


@examples
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 12),
    width=st.integers(2, 6),
    comma=st.booleans(),
    crlf=st.booleans(),
)
def test_load_dataset_matches_float_loop(seed, rows, width, comma, crlf):
    gen = np.random.default_rng(seed)
    # Magnitudes from subnormal to 1e300, with signed zeros.
    values = gen.normal(size=(rows, width)) * 10.0 ** gen.integers(-320, 300, (rows, width))
    values[gen.random(values.shape) < 0.1] = 0.0
    values[gen.random(values.shape) < 0.05] = -0.0
    gaps = COMMA_GAPS if comma else SPACE_GAPS

    def pick(options):
        return options[gen.integers(len(options))]

    lines = []
    for row in values.tolist():
        while gen.random() < 0.2:
            lines.append(pick(SKIPPED_LINES))
        line = pick(CELL_FORMS).format(row[0])
        for v in row[1:]:
            line += pick(gaps) + pick(CELL_FORMS).format(v)
        lines.append(pick(INDENTS) + line + pick(INDENTS))
    newline = "\r\n" if crlf else "\n"
    text = newline.join(lines) + pick((newline, ""))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "data.txt")
        path.write_bytes(text.encode())
        got, want = load_dataset(path), reference_load_dataset(path)
    assert got[0].shape == want[0].shape == (rows, width - 1)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert got[0].base is got[1].base


@st.composite
def _blocks(draw):
    """Gradient-like float blocks, drawn as a shape, a scale and a seed.

    Drawing every entry through hypothesis would take seconds per test.
    Shapes are (k, d), as full_gradient and batch_gradient average them, and
    (m, k, d), as the oracles average m batches at once. Each block has one
    magnitude from 1e-150 to 1e150, and a drawn share of its rows (none,
    some or all) is all 0.0 or all -0.0.
    """
    k, d = draw(st.integers(1, 40)), draw(st.integers(1, 12))
    shape = draw(st.sampled_from([(k, d), (1, k, d), (3, k, d), (7, k, d)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    block = rng.standard_normal(shape) * 10.0 ** draw(st.integers(-150, 150))
    zero_rows = rng.random(shape[:-1]) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    block[zero_rows] = draw(st.sampled_from([0.0, -0.0]))
    return block


@examples
@given(block=_blocks())
# One column with k >= 8, where numpy sums pairwise rather than row by row.
@example(block=np.linspace(0.1, 3.7, 37)[:, None] ** 7)
@example(block=np.linspace(-1e150, 1e-150, 2 * 9 * 1).reshape(2, 9, 1))
@example(block=np.full((5, 3), -0.0))
@example(block=np.full((4, 1, 2), -0.0))
def test_batch_mean_matches_numpy_bit_for_bit(block):
    axis = block.ndim - 2
    assert _row_sum(block).tobytes() == block.sum(axis=axis).tobytes()
    assert (_row_sum(block) / block.shape[-2]).tobytes() == block.mean(axis=axis).tobytes()


@st.composite
def _table_rows(draw):
    """Feature rows gathered from an (N, d + 1) table, and per-row scales.

    The rows are a strided view, as a built-in problem's gather gives them:
    (k, d) for a batch, (m, k, d) for m Monte Carlo batches. Row values are
    standard normal; the scales have one magnitude from 1e-150 to 1e150 and
    mixed signs, and a drawn share of the rows (none, some or all) is all
    0.0 or all -0.0.
    """
    d, k = draw(st.integers(1, 64)), draw(st.integers(1, 2000))
    batches = draw(st.sampled_from([(), (1,), (3,)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    table = rng.standard_normal((k + 50, d + 1))
    zero_rows = rng.random(len(table)) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    table[zero_rows] = draw(st.sampled_from([0.0, -0.0]))
    indices = rng.integers(0, len(table), (*batches, k))
    s = rng.standard_normal(indices.shape) * 10.0 ** draw(st.integers(-150, 150))
    return table.take(indices, axis=0)[..., :d], s


# Half the examples of the others: the largest draws hold about 4 * 10**5 entries.
@settings(examples, max_examples=75)
@given(drawn=_table_rows())
@example(drawn=(np.full((4, 3), -0.0)[:, :2], np.ones(4)))
@example(drawn=(np.linspace(0.1, 3.7, 74).reshape(37, 2)[:, :1], np.linspace(-2.0, 5.0, 37)))
def test_weighted_mean_matches_numpy_bit_for_bit(drawn):
    rows, s = drawn
    block = rows * s[..., None]
    assert (_row_sum(rows, s) / rows.shape[-2]).tobytes() == block.mean(axis=-2).tobytes()
    # gradient_stats builds its block with einsum, which adds each product to
    # a zeroed output: the same bytes once a -0.0 is read as +0.0.
    einsum_block = np.einsum("...ij,...i->...ij", rows, s)
    assert (einsum_block + 0.0).tobytes() == (block + 0.0).tobytes()


@examples
@given(
    seed=st.integers(0, 2**32),
    n=st.integers(1, 6),
    size_share=st.floats(0, 1),
    scheme=st.sampled_from(Scheme),
    dim=st.sampled_from([1, 2, 5]),
    chunk_indices=st.sampled_from([7, 64, variance._CHUNK_INDICES]),
    exact_floats=st.sampled_from([1, 2**53]),
)
# Weights in Python integers (no float is exact below 1), on the prefix
# tree (d >= 2, a wide space past one chunk) and on the chunks (d = 1).
@example(seed=1, n=6, size_share=0.5, scheme=Scheme.WITH_REPLACEMENT, dim=2,
         chunk_indices=64, exact_floats=1)
@example(seed=2, n=6, size_share=1.0, scheme=Scheme.WITH_REPLACEMENT, dim=1,
         chunk_indices=7, exact_floats=1)
def test_exact_variance_matches_per_batch_loop_bit_for_bit(
    seed, n, size_share, scheme, dim, chunk_indices, exact_floats
):
    largest = n if scheme is Scheme.WITHOUT_REPLACEMENT else 6
    size = 1 + int(size_share * (largest - 1))
    rng = np.random.default_rng(seed)
    problem = make_least_squares(rng.normal(size=(n, dim)), rng.normal(size=n))
    x = rng.normal(size=dim)
    expected = loop_exact_batch_variance(problem, x, size, scheme)
    with patch.object(variance, "_CHUNK_INDICES", chunk_indices), patch.object(
        variance, "_EXACT_FLOATS", exact_floats
    ):
        assert exact_batch_variance(problem, x, size, scheme) == expected
