import ast
import math
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treegibbs
from treegibbs import fixtures as fx
from treegibbs.counting import _is_bipartite
from treegibbs.cover import build_cover_ball
from treegibbs.errors import GraphError, NoClosedGeodesicError, NonUnimodularError
from treegibbs.graph import (
    IndexedGraph,
    TailSpec,
    edge_multiplicity,
    graph_from_dict,
    graph_to_dict,
    length_spectrum_period,
    lift_degree,
    materialize,
    propagate_orders,
    validate_graph,
)


def test_single_edge_valid():
    assert validate_graph(fx.single_edge(3, 3)).ok


def test_involution_fixpoint_flagged():
    g = IndexedGraph(
        vertices=("a", "b"),
        edges=("e",),
        rev={"e": "e"},
        orig={"e": "a"},
        term={"e": "b"},
        index={"e": 3},
    )
    rep = validate_graph(g)
    assert any(v.code == "involution-fixpoint" for v in rep.violations)


def test_disconnected_core_flagged():
    g = IndexedGraph(
        vertices=("a", "b", "c", "d"),
        edges=("e", "ebar", "f", "fbar"),
        rev={"e": "ebar", "ebar": "e", "f": "fbar", "fbar": "f"},
        orig={"e": "a", "ebar": "b", "f": "c", "fbar": "d"},
        term={"e": "b", "ebar": "a", "f": "d", "fbar": "c"},
        index={"e": 2, "ebar": 2, "f": 2, "fbar": 2},
    )
    rep = validate_graph(g)
    assert any(v.code == "core-disconnected" for v in rep.violations)


def test_multiplicity_backtrack_and_cross():
    g = fx.single_edge(3, 3)
    assert edge_multiplicity(g, "e", "ebar") == 2
    g2 = fx.single_edge(2, 5)  # i(rev e) = 5
    # continuation of ebar along e is a non-backtracking... e = rev(ebar), so cross
    # case needs a vertex of degree > 1: use parallel edges
    gp = fx.parallel_edges()
    assert edge_multiplicity(gp, "e1", "e2bar") == gp.index["e2"]
    with pytest.raises(GraphError):
        edge_multiplicity(g, "e", "e")


def test_multiplicity_row_sum_is_lift_degree_minus_one():
    for name in ("single_edge_3", "parallel_edges", "two_loops", "funnel_loop"):
        g = fx.get(name)
        mat = materialize(g, 3)
        for e in mat.edges:
            total = sum(m for _, m in mat.continuations(e))
            v = mat.term[e]
            if v in g.funnel_root_vertices():
                continue
            deg = lift_degree(g, v) if v in g.vertices else None
            if deg is None:
                meta = mat.edge_meta[e]
                t, n = meta[1], meta[2]
                spec = g.tails[t]
                deg = spec.pair(n)[0] + spec.pair(n + 1)[1]
            assert total == deg - 1


def test_lift_degrees():
    g = fx.single_edge(3, 3)
    assert lift_degree(g, "a") == 3 and lift_degree(g, "b") == 3
    g2 = fx.biregular_edge(2, 4)
    assert lift_degree(g2, "a") == 3 and lift_degree(g2, "b") == 5
    # ray of type (2, q-1), q=5: every ray vertex has cover degree q+1
    g3 = fx.thick_ray(5)
    mat = materialize(g3, 4)
    for n in range(1, 4):
        spec = g3.tails[0]
        assert spec.pair(n)[0] + spec.pair(n + 1)[1] == 6
    with pytest.raises(GraphError):
        lift_degree(g, "zz")


def test_propagate_orders_single_edge():
    g = fx.single_edge(3, 3)
    og = propagate_orders(g, base_vertex="a", base_value=3)
    assert og.vertex("a") == 3 and og.vertex("b") == 3
    assert og.edge("e") == 1 and og.edge("ebar") == 1


def test_propagate_orders_all_ones_constant():
    g = fx.two_loops()
    og = propagate_orders(g, base_value=7)
    assert all(v == 7 for v in og.vertex_order.values())


def test_propagate_orders_nonunimodular():
    # 2-cycle with i(e1)=2, i(e1bar)=3, other edge trivial
    g = IndexedGraph(
        vertices=("a", "b"),
        edges=("e1", "e1bar", "e2", "e2bar"),
        rev={"e1": "e1bar", "e1bar": "e1", "e2": "e2bar", "e2bar": "e2"},
        orig={"e1": "a", "e1bar": "b", "e2": "a", "e2bar": "b"},
        term={"e1": "b", "e1bar": "a", "e2": "b", "e2bar": "a"},
        index={"e1": 2, "e1bar": 3, "e2": 1, "e2bar": 1},
    )
    with pytest.raises(NonUnimodularError):
        propagate_orders(g)


def test_propagate_orders_rescale_from_other_base():
    g = fx.cusp_ray(2, 4)
    a = propagate_orders(g, base_vertex="a0", base_value=1)
    b = propagate_orders(g, base_vertex="b", base_value=5)
    ratios = {v: b.vertex(v) / a.vertex(v) for v in g.vertices}
    assert len(set(ratios.values())) == 1


def test_length_spectrum_periods():
    assert length_spectrum_period(fx.single_edge(3, 3)) == 2
    assert length_spectrum_period(fx.parallel_edges()) == 2
    assert length_spectrum_period(fx.two_loops()) == 1
    assert length_spectrum_period(fx.cusp_ray(2, 2)) == 2
    # triangle with index 2 everywhere: 3-cycles and backtrack 2-cycles -> gcd 1
    tri = IndexedGraph(
        vertices=("a", "b", "c"),
        edges=("ab", "ba", "bc", "cb", "ca", "ac"),
        rev={"ab": "ba", "ba": "ab", "bc": "cb", "cb": "bc", "ca": "ac", "ac": "ca"},
        orig={"ab": "a", "ba": "b", "bc": "b", "cb": "c", "ca": "c", "ac": "a"},
        term={"ab": "b", "ba": "a", "bc": "c", "cb": "b", "ca": "a", "ac": "c"},
        index={e: 2 for e in ("ab", "ba", "bc", "cb", "ca", "ac")},
    )
    assert length_spectrum_period(tri) == 1


def test_no_closed_geodesic():
    g = fx.single_edge(1, 1)
    with pytest.raises(NoClosedGeodesicError):
        length_spectrum_period(g)


def test_period_divides_every_closed_path_length():
    for name in ("single_edge_3", "parallel_edges", "two_loops", "cusp_22"):
        g = fx.get(name)
        k = length_spectrum_period(g)
        mat = materialize(g, 4)
        funnel = mat.funnel_edge_ids()
        states = [e for e in mat.edges if e not in funnel]
        # enumerate closed non-backtracking paths up to length 6
        def closed_lengths(start, max_len=6):
            out = []
            stack = [(start, 0)]
            while stack:
                e, ln = stack.pop()
                for f, m in mat.continuations(e):
                    if f in funnel:
                        continue
                    if f == start and ln + 1 >= 1:
                        out.append(ln + 1)
                    if ln + 1 < max_len:
                        stack.append((f, ln + 1))
            return out

        for s in states[:4]:
            for ln in closed_lengths(s):
                assert ln % k == 0


def test_cover_ball_sizes():
    g = fx.single_edge(3, 3)
    ball = build_cover_ball(g, "a", 2)
    assert len(ball.nodes) == 10  # 1 + 3 + 6
    assert build_cover_ball(g, "a", 0).sphere_sizes() == [1]


def test_cover_ball_children_match_multiplicities():
    for name in ("single_edge_3", "parallel_edges", "two_loops", "cusp_22", "funnel_loop"):
        g = fx.get(name)
        mat = materialize(g, 6)
        ball = build_cover_ball(g, g.base_vertex, 4)
        for idx, nd in enumerate(ball.nodes):
            if nd.depth >= ball.radius or not nd.via_edge or nd.via_edge.startswith("~f"):
                continue
            from collections import Counter

            got = Counter(ball.nodes[c].via_edge for c in nd.children)
            want = {f: m for f, m in mat.continuations(nd.via_edge)}
            for f, m in want.items():
                assert got.get(f, 0) == m, (name, nd.via_edge, f)


def test_graph_json_roundtrip():
    g = fx.cusp_ray(2, 4)
    d = graph_to_dict(g)
    g2 = graph_from_dict(d)
    assert graph_to_dict(g2) == d


# -- randomized structural invariants ---------------------------------------


from conftest import arc_rows, small_graphs


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_random_graph_invariants(g):
    rep = validate_graph(g)
    for e in g.edges:
        assert g.rev[g.rev[e]] == e and g.rev[e] != e
    if not rep.ok:
        return
    for e in g.edges:
        total = sum(edge_multiplicity(g, e, f) for f in g.out_edges(g.term[e]))
        assert total == lift_degree(g, g.term[e]) - 1
    try:
        og = propagate_orders(g, base_value=2)
    except NonUnimodularError:
        return
    for e in g.edges:
        assert og.edge(e) == og.edge(g.rev[e])
        assert og.vertex(g.term[e]) == g.index[e] * og.edge(e)


def _reference_validate_reach(g):
    # the hand-written connectivity walk validate_graph used to run
    vset = set(g.vertices)
    seen = {g.vertices[0]}
    stack = [g.vertices[0]]
    while stack:
        v = stack.pop()
        for e in g.out_edges(v):
            w = g.term.get(e)
            if w in vset and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == vset


def _reference_is_bipartite(g):
    # the two-colouring counting._is_bipartite used to run
    color = {}
    for v0 in g.vertices:
        if v0 in color:
            continue
        color[v0] = 0
        stack = [v0]
        while stack:
            v = stack.pop()
            for e in g.out_edges(v):
                w = g.term[e]
                if w not in color:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


@settings(max_examples=200, deadline=None, derandomize=True)
@given(small_graphs())
def test_digraph_walks_match_the_hand_written_ones(g):
    connected = _reference_validate_reach(g)
    codes = {v.code for v in validate_graph(g).violations}
    assert ("core-disconnected" not in codes) == connected
    if connected:
        assert _is_bipartite(g) == _reference_is_bipartite(g)


def test_arcs_are_the_nonfunnel_continuations_built_once():
    for name in sorted(fx.FIXTURES):
        mat = materialize(fx.get(name), 3)
        funnel = mat.funnel_edge_ids()
        states, src, dst, mult = mat.arc_arrays()
        assert states == tuple(e for e in mat.edges if e not in funnel)
        arcs = list(zip(src.tolist(), dst.tolist(), mult.tolist()))
        for i, e in enumerate(states):
            row = [(j, m) for s, j, m in arcs if s == i]
            want = [(f, m) for f, m in mat.continuations(e) if f not in funnel]
            assert [(states[j], m) for j, m in row] == want
            assert [j for j, _ in row] == sorted(j for j, _ in row)
        assert mat.arc_arrays() is mat.arc_arrays()


def test_arc_arrays_are_the_arcs_built_once():
    # the arrays are the flat arc list, row by row, of a walk of continuations
    for name in sorted(fx.FIXTURES):
        mat = materialize(fx.get(name), 3)
        states, src, dst, mult = mat.arc_arrays()
        assert mat.arc_arrays() is mat.arc_arrays()
        assert mat.arc_arrays()[0] is states
        want_states, rows = arc_rows(mat)
        assert states == want_states
        flat = [(i, j, m) for i, row in enumerate(rows) for j, m in row]
        assert list(zip(src.tolist(), dst.tolist(), mult.tolist())) == flat
        assert src.tolist() == sorted(src.tolist())


# modules that walk continuations themselves: graph builds the arcs, and the
# cover walk needs edge ids and funnel edges
_CONTINUATIONS_ALLOWED = {"graph", "cover"}


def _callers(name):
    """Stems of the package modules that call a function or method ``name``."""
    callers = set()
    for path in sorted(pathlib.Path(treegibbs.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                if (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) == name:
                    callers.add(path.stem)
    return callers


def test_continuations_are_walked_only_by_graph_and_cover():
    callers = _callers("continuations")
    assert "graph" in callers
    assert callers <= _CONTINUATIONS_ALLOWED, sorted(callers - _CONTINUATIONS_ALLOWED)


def test_the_package_has_no_arcs_call():
    # ``arc_arrays`` is the one arc structure: no tuple rows beside it
    assert "graph" in _callers("arc_arrays")
    assert not _callers("arcs")
