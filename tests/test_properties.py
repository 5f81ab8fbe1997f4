"""Property tests drawn by hypothesis; skipped where it is not installed."""

import functools
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from astute.extremal import feedback_vertex_set, random_factor
from astute.graph import GraphParams, count_cycles


@functools.lru_cache(maxsize=None)
def fvs_size(p: GraphParams) -> int:
    return len(feedback_vertex_set(p))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(b=st.sampled_from([2, 3, 4, 6, 8, 9]), n=st.integers(1, 4),
       k=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_random_factor_cycles_within_feedback_vertex_set(b, n, k, seed):
    p = GraphParams(b, n, k)
    assume(p.num_vertices <= 512)
    factor = random_factor(p, random.Random(seed))
    assert count_cycles(factor.succ) <= fvs_size(p)
