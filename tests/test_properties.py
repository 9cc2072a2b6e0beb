"""Property checks of the size rules' defining inequalities, the samplers and
the dataset parser.

Examples are derandomized and no example database is kept, so the suite
stays deterministic.
"""
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import configuration, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import dense_sample_without_replacement, dict_loop_batch, reference_load_dataset
from varbatch import (
    BatchSizeRule,
    EpsilonSchedule,
    Scheme,
    SeededRng,
    VarianceCap,
    analytic_variance_with_replacement,
    analytic_variance_without_replacement,
    load_dataset,
    min_batch_with_replacement,
    min_batch_without_replacement,
    next_batch_size,
    sample_with_replacement,
    sample_without_replacement,
)
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
    previous = floor
    for k in range(40):
        size = next_batch_size(rule, schedule, k, previous)
        assert previous <= size <= n
        previous = size


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
    assert _fisher_yates_batch(offsets).tolist() == dict_loop_batch(offsets)


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
