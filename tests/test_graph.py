import ast
import dataclasses
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


import numpy as np

from conftest import arc_rows, bench_core, digraph_facts, small_graphs, tailed_graphs
from treegibbs.digraph import from_arcs, reverse, sccs
from treegibbs.graph import _window_period, orders_on, tail_edge_id, tail_vertex_id


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


def _arc_windows():
    """(name, window): every fixture at depth 3, funnel_loop's bare core, every
    tailed fixture at depths 1, 2, 80 and 360, and seeded bench cores."""
    for name in sorted(fx.FIXTURES):
        yield f"{name}@3", materialize(fx.get(name), 3)
    yield "funnel_loop@0", materialize(fx.get("funnel_loop"), 0)
    for name in sorted(n for n in fx.FIXTURES if fx.get(n).tails):
        for depth in (1, 2, 80, 360):
            yield f"{name}@{depth}", materialize(fx.get(name), depth)
    for V in (10, 40, 80):
        yield f"bench_core_{V}", materialize(bench_core(V), 0)


def _assert_arcs_are_the_continuations(mat, name):
    # the states are the non-funnel edges, each row its non-funnel
    # continuations in state order
    states, _, _, _ = mat.arc_arrays()
    want_states, rows = arc_rows(mat)
    assert states == want_states, name
    assert not set(states) & mat.funnel_edge_ids(), name
    assert all(row == sorted(row) for row in rows), name


def _assert_arc_arrays_are_the_arcs(mat, name):
    # the arrays are the flat arc list, row by row, of a walk of continuations
    states, src, dst, mult = mat.arc_arrays()
    _, rows = arc_rows(mat)
    assert [a.dtype for a in (src, dst, mult)] == [np.dtype(np.intp)] * 3, name
    flat = [(i, j, m) for i, row in enumerate(rows) for j, m in row]
    assert list(zip(src.tolist(), dst.tolist(), mult.tolist())) == flat, name
    assert src.tolist() == sorted(src.tolist()), name
    assert mat.arc_arrays() is mat.arc_arrays(), name
    assert mat.arc_arrays()[0] is states, name


def test_arcs_are_the_nonfunnel_continuations_built_once():
    for name, mat in _arc_windows():
        _assert_arcs_are_the_continuations(mat, name)
        assert mat.arc_arrays() is mat.arc_arrays(), name


def test_arc_arrays_are_the_arcs_built_once():
    for name, mat in _arc_windows():
        _assert_arc_arrays_are_the_arcs(mat, name)


def _assert_window_facts(mat, name):
    states, src, dst, _ = mat.arc_arrays()
    dg = mat.arc_digraph()
    assert dg is mat.arc_digraph(), name
    assert dg.succ == from_arcs(src, dst, len(states)), name
    assert (dg.strong, dg.oncycle, dg.period, dg.search) == digraph_facts(dg.succ), name
    assert dg.components == sccs(dg.succ) and dg.pred == reverse(dg.succ), name


def test_window_digraph_facts_are_the_digraph_walks():
    for name, mat in _arc_windows():
        _assert_window_facts(mat, name)
        if mat.arc_digraph().period:
            assert _window_period(mat) == mat.arc_digraph().period, name


def _orders_level_by_level(mat, grading):
    """(vertex orders, edge orders) of ``mat``: the core grading, then each
    tail climbed one level at a time in rationals."""
    nv, ne = dict(grading.vertex_order), dict(grading.edge_order)
    for t, spec in enumerate(mat.core.tails):
        val = nv[spec.attach]
        for n in range(1, mat.depth + 1):
            iu, idn = spec.pair(n)
            val = val * Fraction(iu, idn)
            nv[tail_vertex_id(t, n)] = val
            ne[tail_edge_id(t, n, True)] = ne[tail_edge_id(t, n, False)] = val / iu
    return nv, ne


def _float_or_inf(x):
    try:
        return float(x)
    except OverflowError:
        return math.inf


def _assert_window_layout(mat, name):
    # the per-state arrays are the per-edge reads of edge_meta, and the
    # window's orders are the level-by-level rationals and their floats
    states = mat.arc_arrays()[0]
    levels = mat.tail_states()
    for t in range(len(mat.core.tails)):
        assert levels[t, 0].tolist() == [-1, -1], name
        for n in range(1, mat.depth + 1):
            ids = [tail_edge_id(t, n, up) for up in (True, False)]
            assert [states[i] for i in levels[t, n].tolist()] == ids, name
    assert mat.core_states().tolist() == [mat.edge_meta[e][0] == "core" for e in states], name
    assert mat.interior_states().tolist() == [mat.is_interior(e) for e in states], name
    grading = propagate_orders(mat.core)
    nv, ne = _orders_level_by_level(mat, grading)
    ext = orders_on(mat, grading)
    assert all(ext.vertex(v) == nv[v] for v in mat.vertices), name
    assert all(ext.edge(e) == ne[e] for e in mat.edges), name
    assert ext.edge_floats().tolist() == [_float_or_inf(ne[e]) for e in states], name


def test_window_layout_and_orders_are_the_per_edge_reads():
    for name, mat in _arc_windows():
        _assert_window_layout(mat, name)
    # orders past the float range read inf: N(e_n) = 2^(62 (n - 1)) N(attach)
    # overflows from level 18 on
    g = fx.get("thick_ray_5")
    steep = dataclasses.replace(g, tails=(TailSpec(g.tails[0].attach, (), ((2**62, 1),)),))
    mat = materialize(steep, 20)
    _assert_window_layout(mat, "steep")
    assert np.isinf(orders_on(mat, propagate_orders(steep)).edge_floats()).sum() == 6


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tailed_graphs(), st.sampled_from((0, 1, 2, 7)))
def test_random_tailed_windows_keep_the_arc_and_digraph_pins(drawn, depth):
    mat = materialize(drawn[0], depth)
    _assert_arcs_are_the_continuations(mat, f"depth {depth}")
    _assert_arc_arrays_are_the_arcs(mat, f"depth {depth}")
    _assert_window_facts(mat, f"depth {depth}")
    _assert_window_layout(mat, f"depth {depth}")


def _count_calls(monkeypatch, module, names):
    """A Counter of the calls to each function ``names`` of ``module``, every
    package module's binding of each rebound (as the unroll count of the CLI
    tests does)."""
    import sys
    from collections import Counter

    seen = Counter()
    for fname in names:
        orig = getattr(module, fname)

        def counted(*args, _orig=orig, **kwargs):
            seen[_orig.__name__] += 1
            return _orig(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod is not None and (mod_name == "treegibbs" or mod_name.startswith("treegibbs.")):
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        monkeypatch.setattr(mod, attr, counted)
    return seen


def _count_digraph_walks(monkeypatch):
    """A Counter of the calls to each ``digraph`` walk."""
    from treegibbs import digraph

    walks = ("from_arcs", "from_matrix", "period", "reverse", "reachable", "sccs", "strongly_connected")
    return _count_calls(monkeypatch, digraph, walks)


@pytest.mark.parametrize(
    "name, tarjans",
    [("single_edge_3", 1), ("parallel_edges", 1), ("funnel_loop", 1), ("bench_core_20", 0)],
)
def test_each_window_takes_one_structural_pass(monkeypatch, name, tarjans):
    # compute_gibbs -> build_chain -> renewal_constant unrolls two core windows,
    # the shadow window and the renewal's.  Each builds its successor lists,
    # its BFS from state 0 and its reverse reach once, whichever stage asks:
    # the shadow's fixed vector, the structural support, the chain's
    # connectivity and cyclic classes, the counting period and its levels.
    # Tarjan runs only where its order feeds the shadow's power run, on a
    # window of at most _LSTSQ_MAX_STATES states.
    from collections import Counter

    from treegibbs.chain import build_chain
    from treegibbs.counting import renewal_constant
    from treegibbs.gibbs import compute_gibbs

    g = bench_core(20) if name == "bench_core_20" else fx.get(name)
    orders = propagate_orders(g)
    seen = _count_digraph_walks(monkeypatch)
    mc = build_chain(g, compute_gibbs(g), orders)
    rc = renewal_constant(g, orders)
    assert mc.period == rc.period
    assert seen == Counter(from_arcs=2, period=2, reverse=2, reachable=2, sccs=tarjans)


@pytest.mark.parametrize("depth", [80, 360])
def test_each_tailed_window_takes_one_structural_pass(monkeypatch, tmp_path, depth):
    # thick_ray_5 branches at every tail level, so its chain's states and arcs
    # are the window's own.  compute_gibbs -> build_chain builds the window's
    # successor lists, its BFS from state 0 and one reverse reach once: the
    # structural support, the chain's connectivity (the interior's, through
    # the frontier levels) and its cyclic classes share them.  The junction
    # graph adds its matrix pattern and the Tarjan order of its power run.
    from collections import Counter

    from treegibbs import chain, cli, graph
    from treegibbs.gibbs import compute_gibbs

    g = fx.get("thick_ray_5")
    orders = propagate_orders(g)
    seen = _count_digraph_walks(monkeypatch)
    mc = chain.build_chain(g, compute_gibbs(g, depth=depth), orders)
    assert len(mc.states) == 2 + 2 * depth and not mc.interior.all()
    assert seen == Counter(from_matrix=1, from_arcs=2, sccs=1, period=1, reverse=1, reachable=1)
    # a count extends the orders up the tails once, for its chain: the
    # counting DP and the renewal read the base order off the core grading
    calls = _count_calls(monkeypatch, graph, ("orders_on",))
    built = _count_calls(monkeypatch, chain, ("build_chain",))
    cfg = tmp_path / "count.json"
    fixture = pathlib.Path(__file__).parents[1] / "fixtures" / "thick_ray_5.json"
    cfg.write_text(f'{{"graph": "{fixture}", "depth": {depth}}}')
    assert cli.main(["count", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert built["build_chain"] <= 1
    assert calls["orders_on"] == built["build_chain"]


# modules that walk continuations themselves: the cover walk needs edge ids
# and funnel edges (graph builds the arcs from per-edge arrays)
_CONTINUATIONS_ALLOWED = {"cover"}


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


def test_continuations_are_walked_only_by_cover():
    callers = _callers("continuations")
    assert "cover" in callers
    assert callers <= _CONTINUATIONS_ALLOWED, sorted(callers - _CONTINUATIONS_ALLOWED)


def test_the_package_has_no_arcs_call():
    # ``arc_arrays`` is the one arc structure: no tuple rows beside it
    assert "graph" in _callers("arc_arrays")
    assert not _callers("arcs")
