"""Property checks of the size rules' defining inequalities and the samplers.

Examples are derandomized and no example database is kept, so the suite
stays deterministic.
"""
import tempfile

from hypothesis import configuration, given, settings
from hypothesis import strategies as st

from varbatch import (
    BatchSizeRule,
    EpsilonSchedule,
    Scheme,
    SeededRng,
    VarianceCap,
    analytic_variance_with_replacement,
    analytic_variance_without_replacement,
    min_batch_with_replacement,
    min_batch_without_replacement,
    next_batch_size,
    sample_with_replacement,
    sample_without_replacement,
)

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
