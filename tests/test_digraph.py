"""Property tests of the digraph algorithms against a numpy transitive closure."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import digraph_facts
from treegibbs.digraph import Digraph, from_matrix, has_cycle, period, reachable, reverse, sccs, strongly_connected


@st.composite
def matrices(draw):
    n = draw(st.integers(1, 12))
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    return np.array(bits, dtype=np.int64).reshape(n, n)


def _closure(A):
    """R[v, w] is true iff w is reachable from v by a path of length >= 0."""
    R = np.eye(len(A), dtype=np.int64) | A
    while True:
        nxt = np.minimum(R @ R, 1)
        if np.array_equal(nxt, R):
            return R.astype(bool)
        R = nxt


@settings(deadline=None)
@given(matrices())
def test_sccs_are_the_mutual_reachability_classes(A):
    n = len(A)
    succ = from_matrix(A)
    assert succ == [sorted(np.flatnonzero(row).tolist()) for row in A]
    R = _closure(A)
    comps = sccs(succ)
    assert sorted(v for comp in comps for v in comp) == list(range(n))
    label = {v: i for i, comp in enumerate(comps) for v in comp}
    for v in range(n):
        for w in range(n):
            assert (label[v] == label[w]) == (R[v, w] and R[w, v])
            # reverse topological order: a component reaches none listed after it
            if label[v] < label[w]:
                assert not R[v, w]


@settings(deadline=None)
@given(matrices())
def test_period_is_the_gcd_of_closed_walk_lengths(A):
    n = len(A)
    succ = from_matrix(A)
    for comp in sccs(succ):
        sub = A[np.ix_(comp, comp)]
        walk = np.eye(len(comp), dtype=np.int64)
        lengths = []
        for k in range(1, n + 1):
            walk = np.minimum(walk @ sub, 1)
            if np.trace(walk) > 0:
                lengths.append(k)
        assert has_cycle(succ, comp) == bool(lengths)
        if not lengths:
            continue
        k, levels = period(succ, comp[0], within=set(comp))
        assert k == math.gcd(*lengths)
        assert sorted(levels) == sorted(comp)
        # cyclic classes: every arc inside the component moves one class on
        for v in comp:
            for w in succ[v]:
                if w in levels:
                    assert (levels[v] + 1 - levels[w]) % k == 0


@settings(deadline=None)
@given(matrices(), st.data())
def test_reachable_matches_the_closure(A, data):
    n = len(A)
    sources = data.draw(st.sets(st.integers(0, n - 1)))
    succ = from_matrix(A)
    R = _closure(A)
    assert reachable(succ, sources) == {w for w in range(n) if R[list(sources), w].any()}
    assert reachable(reverse(succ), sources) == {v for v in range(n) if R[v, list(sources)].any()}


@st.composite
def digraphs(draw):
    """Adjacency matrices on 0..12 nodes, from sparse to complete, so both
    verdicts of ``strongly_connected`` come up."""
    n = draw(st.integers(0, 12))
    density = draw(st.integers(1, 10))
    cells = draw(st.lists(st.integers(0, 9), min_size=n * n, max_size=n * n))
    return np.array([c < density for c in cells], dtype=np.int64).reshape(n, n)


@settings(deadline=None, derandomize=True, max_examples=300)
@given(digraphs())
def test_strongly_connected_is_one_component(A):
    succ = from_matrix(A)
    assert strongly_connected(succ) == (len(sccs(succ)) == 1)


@settings(deadline=None, derandomize=True, max_examples=300)
@given(matrices())
def test_digraph_facts_are_the_walks_each_computed_once(A):
    succ = from_matrix(A)
    dg = Digraph(succ)
    assert (dg.strong, dg.oncycle, dg.period, dg.search) == digraph_facts(succ)
    assert dg.strong == strongly_connected(succ)
    assert dg.components == sccs(succ) and dg.pred == reverse(succ)
    assert dg.search is dg.search and dg.oncycle is dg.oncycle
