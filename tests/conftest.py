import importlib.util
import math
import pathlib
import random

import pytest

from treegibbs import fixtures as fx
from treegibbs.chain import build_chain
from treegibbs.gibbs import compute_gibbs
from treegibbs.graph import graph_from_dict, propagate_orders

# fixtures whose full pipeline converges (the critical ray is the flagged
# divergence example and is exercised separately)
PIPELINE_FIXTURES = (
    "single_edge_3",
    "biregular_24",
    "biregular_44",
    "parallel_edges",
    "two_loops",
    "cusp_22",
    "cusp_24",
    "cusp_44",
    "thick_ray_5",
    "funnel_loop",
)

FINITE_FIXTURES = ("single_edge_3", "biregular_24", "biregular_44", "parallel_edges", "two_loops")
TAILED_FIXTURES = ("cusp_22", "cusp_24", "cusp_44", "thick_ray_5")

_CACHE = {}


def pipeline(name, depth=90):
    """(graph, orders, gibbs data, chain), cached per fixture name."""
    key = (name, depth)
    if key not in _CACHE:
        g = fx.get(name)
        orders = propagate_orders(g)
        gd = compute_gibbs(g, depth=depth)
        mc = build_chain(g, gd, orders)
        _CACHE[key] = (g, orders, gd, mc)
    return _CACHE[key]


def arc_rows(mat):
    """(states, rows) walked from ``continuations``: the non-funnel edges of
    ``mat`` in edge order, and per state the (j, m) of its non-funnel
    continuations, j the position in ``states``."""
    funnel = mat.funnel_edge_ids()
    states = tuple(e for e in mat.edges if e not in funnel)
    pos = {e: i for i, e in enumerate(states)}
    return states, [[(pos[f], m) for f, m in mat.continuations(e) if f in pos] for e in states]


def digraph_facts(succ):
    """(strong, oncycle, period, search) of the digraph ``succ`` from the
    ``digraph`` walks: strong connectivity by a forward and a reverse reach
    from node 0, the nodes of the Tarjan components that carry a cycle, the
    gcd of those components' periods, and the BFS from node 0."""
    from treegibbs.digraph import has_cycle, period, reachable, reverse, sccs

    n = len(succ)
    strong = n > 0 and len(reachable(succ, [0])) == n and len(reachable(reverse(succ), [0])) == n
    cyclic = [comp for comp in sccs(succ) if has_cycle(succ, comp)]
    k = 0
    for comp in cyclic:
        k = math.gcd(k, period(succ, comp[0], within=set(comp))[0])
    return strong, {v for comp in cyclic for v in comp}, k, period(succ, 0) if n else (0, {})


def _load_by_path(name, relpath):
    """The module at ``relpath`` from the repository root, loaded by path."""
    path = pathlib.Path(__file__).parents[1] / relpath
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def potential_runs():
    """``POTENTIAL_RUNS`` of scripts/artifact_digests.py: (fixture, name, tail values)."""
    return _load_by_path("artifact_digests", "scripts/artifact_digests.py").POTENTIAL_RUNS


def bench_core(n_vertices):
    """``unimodular_core(Random(1), n_vertices)`` of bench/inputs.py as a graph:
    a seeded finite core with 4 n_vertices states."""
    module = _load_by_path("bench_inputs", "bench/inputs.py")
    return graph_from_dict(module.unimodular_core(random.Random(1), n_vertices))


def write_fixtures(directory):
    """``write_all`` of scripts/write_fixtures.py: every named fixture as a
    JSON config in ``directory``, the bytes of ``fixtures/``; name -> path."""
    return _load_by_path("write_fixtures", "scripts/write_fixtures.py").write_all(directory)


@pytest.fixture(scope="session")
def single_edge_pipeline():
    return pipeline("single_edge_3")


@pytest.fixture(scope="session")
def cusp22_pipeline():
    return pipeline("cusp_22")


@pytest.fixture(scope="session")
def thick_ray_pipeline():
    return pipeline("thick_ray_5")


# shared hypothesis strategy: small random edge-indexed graphs
try:
    from hypothesis import strategies as st

    @st.composite
    def small_graphs(draw):
        from treegibbs.graph import IndexedGraph

        n = draw(st.integers(min_value=1, max_value=3))
        vertices = tuple(f"v{i}" for i in range(n))
        n_edges = draw(st.integers(min_value=1, max_value=3))
        edges, rev, orig, term, index = [], {}, {}, {}, {}
        for k in range(n_edges):
            u = draw(st.integers(min_value=0, max_value=n - 1))
            w = draw(st.integers(min_value=0, max_value=n - 1))
            e, eb = f"e{k}", f"e{k}r"
            edges += [e, eb]
            rev[e], rev[eb] = eb, e
            orig[e], term[e] = f"v{u}", f"v{w}"
            orig[eb], term[eb] = f"v{w}", f"v{u}"
            index[e] = draw(st.integers(min_value=1, max_value=4))
            index[eb] = draw(st.integers(min_value=1, max_value=4))
        return IndexedGraph(
            vertices=vertices, edges=tuple(edges), rev=rev, orig=orig, term=term, index=index
        )

    @st.composite
    def tailed_graphs(draw):
        """(graph, potential): a connected unimodular core with at most 3
        edges plus one ray tail, random edge potentials, and a tail potential
        whose prefix and period lengths are drawn apart from the tail's own."""
        from fractions import Fraction

        from treegibbs.gibbs import Potential, TailPotential
        from treegibbs.graph import IndexedGraph, TailSpec

        index_value = st.integers(min_value=1, max_value=4)
        n = draw(st.integers(min_value=1, max_value=3))
        vertices = tuple(f"v{i}" for i in range(n))
        n_edges = draw(st.integers(min_value=max(1, n - 1), max_value=3))
        edges, rev, orig, term, index = [], {}, {}, {}, {}
        # vertex orders: i(e) / i(rev e) = order(term e) / order(orig e)
        order = [Fraction(1)]
        for k in range(n_edges):
            e, eb = f"e{k}", f"e{k}r"
            if k < n - 1:
                # the first n - 1 edges form a path, so the core is connected
                u, w = k, k + 1
                index[e], index[eb] = draw(index_value), draw(index_value)
                order.append(order[u] * index[e] / index[eb])
            else:
                u = draw(st.integers(min_value=0, max_value=n - 1))
                w = draw(st.integers(min_value=0, max_value=n - 1))
                ratio = order[w] / order[u]
                m = draw(st.integers(min_value=1, max_value=3))
                index[e], index[eb] = ratio.numerator * m, ratio.denominator * m
            edges += [e, eb]
            rev[e], rev[eb] = eb, e
            orig[e], term[e] = f"v{u}", f"v{w}"
            orig[eb], term[eb] = f"v{w}", f"v{u}"
        pair = st.tuples(index_value, index_value)
        spec = TailSpec(
            attach=f"v{draw(st.integers(min_value=0, max_value=n - 1))}",
            prefix=tuple(draw(st.lists(pair, max_size=2))),
            period=tuple(draw(st.lists(pair, min_size=1, max_size=3))),
        )
        g = IndexedGraph(
            vertices=vertices, edges=tuple(edges), rev=rev, orig=orig, term=term, index=index,
            tails=(spec,), base_vertex="v0",
        )
        value = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
        vpair = st.tuples(value, value)
        F = Potential(
            {e: draw(value) for e in edges},
            (
                TailPotential(
                    prefix=tuple(draw(st.lists(vpair, max_size=2))),
                    period=tuple(draw(st.lists(vpair, min_size=1, max_size=3))),
                ),
            ),
        )
        return g, F

except ImportError:  # pragma: no cover
    pass
