import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import FINITE_FIXTURES, PIPELINE_FIXTURES, arc_rows, pipeline, tailed_graphs
from treegibbs import fixtures as fx
from treegibbs.counting import (
    BiregularParams,
    biregular_params,
    error_decay_report,
    main_term,
    mgamma_ball_measure,
    nu_mass_at,
    orbit_oracle,
    renewal_constant,
    shadow_measure,
    sphere_size,
)
from treegibbs.cover import build_cover_ball, cover_census
from treegibbs.errors import GraphError
from treegibbs.gibbs import Potential
from treegibbs.graph import graph_from_dict, length_spectrum_period, materialize, propagate_orders


def test_sphere_sizes_formula():
    p = BiregularParams(2, 2)
    assert sphere_size(p, 0) == 1
    assert sphere_size(p, 1) == 6
    assert sphere_size(BiregularParams(2, 3), 2) == 54


def test_sphere_sizes_match_cover_enumeration():
    # (qd, qdp) in {2, 3}^2, j <= 6, against explicit vertex-by-vertex census
    for qd in (2, 3):
        for qdp in (2, 3):
            g = fx.single_edge(i_e=qdp + 1, i_rev=qd + 1, base_value=1)
            params = biregular_params(g)
            assert (params.qd, params.qdp) == (qd, qdp)
            census = cover_census(g, "a", 12)
            for j in range(0, 7):
                total = sum(v for (lbl, d), v in census.items() if d == 2 * j)
                assert total == sphere_size(params, j), (qd, qdp, j)


def test_ball_measure_formula():
    p = BiregularParams(2, 2)
    assert mgamma_ball_measure(p, math.log(2), 0, 2.0) == 0.5
    assert abs(mgamma_ball_measure(p, math.log(2), 1, 1.0) - 7.0) < 1e-12
    # doubling R follows the geometric law
    d = 0.37
    e2 = math.exp(2 * d)
    for R in (2, 4):
        got = mgamma_ball_measure(p, d, R, 1.0)
        want = 1.0 + 1.5 * e2 * (math.exp(2 * d * R) - 1.0) / (e2 - 1.0)
        assert abs(got - want) < 1e-12


def test_oracle_zero_and_parity(single_edge_pipeline):
    g, orders, _, _ = single_edge_pipeline
    rep = orbit_oracle(g, orders, None, "a", 9)
    assert rep.per_distance[0] == 3  # order of the base vertex
    assert all(rep.per_distance[n] == 0 for n in (1, 3, 5, 7, 9))
    assert [rep.cumulative(2 * n) for n in range(5)] == [3 * (2 * 4**n - 1) for n in range(5)]


def test_oracle_matches_cover_ball_on_all_fixtures():
    for name in PIPELINE_FIXTURES:
        g = fx.get(name)
        orders = propagate_orders(g)
        rep = orbit_oracle(g, orders, None, g.base_vertex, 4)
        ball = build_cover_ball(g, g.base_vertex, 4)
        counts = ball.label_counts()
        base_order = orders.vertex(g.base_vertex)
        for n in range(5):
            want = counts[(g.base_vertex, n)] * base_order
            assert rep.per_distance[n] == want, (name, n)


def test_oracle_exactness_flag_and_weights():
    g = fx.parallel_edges()
    orders = propagate_orders(g)
    rep = orbit_oracle(g, orders, None, "a", 6)
    assert rep.exact and isinstance(rep.per_distance[2], Fraction)
    repf = orbit_oracle(g, orders, Potential.constant(g, 0.2), "a", 6)
    assert not repf.exact
    # constant potential multiplies the distance-n stratum by exp(c n)
    for n in range(7):
        want = float(rep.per_distance[n]) * math.exp(0.2 * n)
        assert abs(repf.per_distance[n] - want) < 1e-9 * max(1.0, want)


def test_oracle_first_edge_constraint(single_edge_pipeline):
    g, orders, gd, mc = single_edge_pipeline
    full = orbit_oracle(g, orders, None, "a", 8)
    cone = orbit_oracle(g, orders, None, "a", 8, first_edge_constraint=("e",))
    # the single quotient edge at the base carries the whole sphere
    for n in range(1, 9):
        assert cone.per_distance[n] == full.per_distance[n]
    assert cone.per_distance[0] == full.per_distance[0]
    two = orbit_oracle(g, orders, None, "a", 8, first_edge_constraint=("e", "ebar"))
    assert two.per_distance[2] == Fraction(3) * 6  # 3 * i(ebar) * m(e, ebar)
    with pytest.raises(GraphError):
        orbit_oracle(g, orders, None, "a", 8, first_edge_constraint=("ebar",))
    # an id that is no edge of the graph names itself
    for path in (("nope",), ("e", "nope")):
        with pytest.raises(GraphError, match="'nope'"):
            orbit_oracle(g, orders, None, "a", 4, first_edge_constraint=path)


def test_shadow_measures(single_edge_pipeline):
    g, orders, gd, mc = single_edge_pipeline
    assert abs(shadow_measure(gd, "a", []) - 1.0) < 1e-12
    assert abs(shadow_measure(gd, "a", ["e"], per_lift=True) - 1.0 / 3.0) < 1e-12
    assert abs(shadow_measure(gd, "a", ["e"]) - 1.0) < 1e-12
    with pytest.raises(GraphError, match="'nope'"):
        shadow_measure(gd, "a", ["nope"])
    # depth-1 shadows partition the boundary on every fixture
    for name in PIPELINE_FIXTURES:
        g2, _, gd2, _ = pipeline(name)
        mat = materialize(g2, gd2.depth)
        funnel = mat.funnel_edge_ids()
        tot = sum(
            shadow_measure(gd2, g2.base_vertex, [e])
            for e in mat.out_edges(g2.base_vertex)
            if e not in funnel
        )
        assert abs(tot - 1.0) < 1e-12, name


def test_main_term_scaling(single_edge_pipeline):
    g, orders, gd, mc = single_edge_pipeline
    t5 = main_term(gd, mc.m_mass, 5, 2, 1.0, 1.0)
    t6 = main_term(gd, mc.m_mass, 6, 2, 1.0, 1.0)
    assert abs(t6.full_term / t5.full_term - math.exp(2 * gd.delta)) < 1e-12


def test_renewal_constant_exact_three_regular(single_edge_pipeline):
    g, orders, gd, mc = single_edge_pipeline
    rc = renewal_constant(g, orders)
    assert rc.exact == Fraction(6)
    assert rc.method == "perron-exact"
    # float mode agrees
    rcf = renewal_constant(g, orders, prefer_exact=False)
    assert abs(rcf.value - 6.0) < 1e-10


def test_renewal_limit_reached_by_n25(single_edge_pipeline):
    g, orders, gd, mc = single_edge_pipeline
    rep = orbit_oracle(g, orders, None, "a", 50)
    series = rep.series()
    val = float(series[50]) * math.exp(-2.0 * gd.delta * 25)
    assert abs(val - 6.0) <= 1e-9


def test_renewal_perron_vs_regression_biregular():
    g = fx.biregular_edge(2, 4)
    orders = propagate_orders(g)
    rc = renewal_constant(g, orders)
    assert rc.exact == Fraction(12, 7)
    rep = orbit_oracle(g, orders, None, "a", 50)
    series = rep.series()
    delta = 0.5 * math.log(8)
    tail_vals = [float(series[2 * n]) * math.exp(-2 * delta * n) for n in (20, 23, 25)]
    for v in tail_vals:
        assert abs(v - rc.value) < 1e-9


def test_renewal_constant_under_shift_matches_dp_limit():
    # per-stratum weights scale by exp(c m); the cumulative renewal constant
    # therefore reshapes as a geometric resummation, checked against the DP
    g = fx.single_edge(3, 3)
    orders = propagate_orders(g)
    c = 0.3
    rc = renewal_constant(g, orders, Potential.constant(g, c), prefer_exact=False)
    base = orbit_oracle(g, orders, None, "a", 64)
    delta_c = math.log(2) + c
    n = 32
    dp_val = sum(
        float(base.per_distance[m]) * math.exp(c * m) for m in range(2 * n + 1)
    ) * math.exp(-2 * n * delta_c)
    assert abs(rc.value - dp_val) < 1e-9
    # closed form for this lattice: 18 e^{2c} / (4 e^{2c} - 1)
    want = 18.0 * math.exp(2 * c) / (4.0 * math.exp(2 * c) - 1.0)
    assert abs(rc.value - want) < 1e-10


@pytest.mark.parametrize(
    "name, limit", [("cusp_22", 1.5), ("cusp_24", 1.25), ("cusp_44", 1.25), ("thick_ray_5", 0.9375)]
)
def test_tailed_cstar_is_the_main_term_limit(name, limit):
    # the DP counts are (3/2) 4^n, (5/4) 8^n and (5/4) 16^n on the cusps, and
    # tend to 15/16 e^{2 delta n} on the thick ray
    g, orders, gd, mc = pipeline(name)
    rep = error_decay_report(g, orders, None, gd, mc.m_mass, None, 10, 25)
    assert rep.renewal_method == "main-term"
    assert rep.cstar == rep.full_constant
    assert abs(rep.cstar / limit - 1.0) <= 1e-12
    # the cusp counts equal C* e^{2 delta n}, so their float residuals are
    # rounding and resolve no error exponent; the thick ray's error is real
    assert rep.kappa_hat > 0.0 and (rep.kappa_hat == math.inf) == (name != "thick_ray_5")
    with pytest.raises(GraphError, match="main_term"):
        renewal_constant(g, orders)


def test_kappa_fit_stops_at_the_rounding_plateau():
    # with this tail potential the relative residual on cusp_22 falls by about
    # 4.7 per step to 3e-13 at n = 16, then sits on a rounding plateau that
    # grows like n; fitting the plateau would pull kappa down to about 0.6
    from treegibbs.chain import build_chain
    from treegibbs.gibbs import TailPotential, compute_gibbs

    g, orders, gd0, _ = pipeline("cusp_22")
    F = Potential({e: 0.0 for e in g.edges}, (TailPotential(prefix=((0.3, 0.1),), period=((0.1, 0.1),)),))
    gd = compute_gibbs(g, F, depth=gd0.depth)
    mc = build_chain(g, gd, orders)
    rep = error_decay_report(g, orders, F, gd, mc.m_mass, None, 10, 25)
    assert abs(rep.kappa_hat - math.log(4.7)) < 0.05


@settings(deadline=None, derandomize=True, max_examples=40)
@given(tailed_graphs())
def test_one_counting_period_for_both_constants(drawn):
    # on the core of each draw: length_spectrum_period, the k of main_term
    # and of the Perron route, is the period of an irreducible counting
    # matrix, and the main-term constant with it is the Perron C*
    import dataclasses

    import numpy as np

    from treegibbs.chain import _period_and_classes, build_chain
    from treegibbs.digraph import sccs
    from treegibbs.errors import TreeGibbsError
    from treegibbs.gibbs import compute_gibbs
    from treegibbs.graph import validate_graph

    core = dataclasses.replace(drawn[0], tails=())
    assume(validate_graph(core).ok)
    try:
        orders = propagate_orders(core)
    except TreeGibbsError:
        return
    states, arcs = arc_rows(materialize(core, 0))
    if not states or len(sccs([[j for j, _ in row] for row in arcs])) != 1:
        return
    M = np.zeros((len(states), len(states)))
    for i, row in enumerate(arcs):
        for j, m in row:
            M[i, j] = m
    assert length_spectrum_period(core) == _period_and_classes(M > 0)[0]
    gd = compute_gibbs(core)
    mc = build_chain(core, gd, orders)
    rep = error_decay_report(core, orders, None, gd, mc.m_mass, None, 5, 8)
    assert abs(rep.full_constant / renewal_constant(core, orders).value - 1.0) <= 1e-12


@pytest.mark.parametrize("name", FINITE_FIXTURES + ("funnel_loop",))
def test_full_constant_equals_the_perron_cstar(name):
    g, orders, gd, mc = pipeline(name)
    rep = error_decay_report(g, orders, None, gd, mc.m_mass, None, 10, 25)
    assert abs(rep.full_constant / renewal_constant(g, orders).value - 1.0) <= 1e-12


@pytest.mark.parametrize("name", PIPELINE_FIXTURES)
def test_main_terms_match_the_counts_at_n25(name):
    g, orders, gd, mc = pipeline(name)
    rep = error_decay_report(g, orders, None, gd, mc.m_mass, None, 10, 25)
    tol = 1e-3 if name == "thick_ray_5" else 1e-12  # the thick ray converges slowly
    assert abs(rep.ratio_full[-1] - 1.0) <= tol
    assert abs(rep.ratio_cone[-1] - 1.0) <= tol


@pytest.mark.parametrize("name, cstar", [("biregular_24", 50 / 21), ("cusp_24", 9 / 10)])
def test_main_term_off_the_normalization_vertex(name, cstar):
    # at zero potential the ||nu_b||^2 factor carries the constant to b
    g, orders, gd, mc = pipeline(name)
    nu_b = nu_mass_at(gd, "b")
    t = main_term(gd, mc.m_mass, 0, length_spectrum_period(g), nu_b, nu_b)
    assert abs(t.full_constant / cstar - 1.0) <= 1e-12
    rep = error_decay_report(g, orders, None, gd, mc.m_mass, None, 20, 25, base="b")
    assert abs(rep.full_constant / cstar - 1.0) <= 1e-12
    assert abs(rep.ratio_full[-1] - 1.0) <= 1e-10


def test_error_decay_report_single_edge(single_edge_pipeline):
    g, orders, gd, mc = single_edge_pipeline
    params = biregular_params(g)
    rep = error_decay_report(g, orders, None, gd, mc.m_mass, params, 10, 25)
    assert abs(rep.kappa_hat - 2 * gd.delta) < 1e-12
    assert max(rep.ratio_full) - min(rep.ratio_full) < 1e-6
    assert abs(rep.ratio_constants - shadow_measure(gd, "a", [rep.cone_edge])) < 1e-12
    assert abs(rep.full_constant / rep.cstar - 1.0) <= 1e-12


def test_error_decay_constant_ratio_all_finite_fixtures():
    for name in ("single_edge_3", "biregular_24", "biregular_44"):
        g, orders, gd, mc = pipeline(name)
        params = biregular_params(g)
        rep = error_decay_report(g, orders, None, gd, mc.m_mass, params, 10, 25)
        assert max(rep.ratio_full) - min(rep.ratio_full) < 1e-6, name
        want = shadow_measure(gd, g.base_vertex, [rep.cone_edge])
        assert abs(rep.ratio_constants - want) < 1e-12, name
        assert abs(rep.full_constant / rep.cstar - 1.0) <= 1e-12, name


def _edge_and_tail_potential(g):
    """A non-zero potential: a value per edge and one tail potential per tail."""
    from treegibbs.gibbs import TailPotential

    values = {e: 0.05 * (7 * k % 5) - 0.1 for k, e in enumerate(sorted(g.edges))}
    tail = TailPotential(prefix=((0.1, -0.05),), period=((0.05, 0.02), (-0.03, 0.01)))
    return Potential(values, tuple(tail for _ in g.tails))


@pytest.mark.parametrize("potential", ("zero", "edges and tails"))
@pytest.mark.parametrize("name", PIPELINE_FIXTURES)
def test_the_report_counts_are_the_oracle_counts(name, potential):
    # one DP gives the full and the cone count, bit for bit those of two
    # orbit_oracle runs
    from treegibbs.chain import build_chain
    from treegibbs.gibbs import compute_gibbs

    g, orders, gd, mc = pipeline(name)
    F = None
    if potential != "zero":
        F = _edge_and_tail_potential(g)
        gd = compute_gibbs(g, F, depth=gd.depth)
        mc = build_chain(g, gd, orders)
    rep = error_decay_report(g, orders, F, gd, mc.m_mass, None, 10, 25)
    full = orbit_oracle(g, orders, F, g.base_vertex, 50).series()
    cone = orbit_oracle(g, orders, F, g.base_vertex, 50, (rep.cone_edge,), include_identity=False)
    assert rep.oracle == tuple(float(full[2 * n]) for n in rep.ns)
    assert rep.oracle_cone == tuple(float(cone.series()[2 * n]) for n in rep.ns)


@pytest.mark.parametrize("name, depths", [("thick_ray_5", {51: 1, 3: 1}), ("single_edge_3", {})])
def test_a_count_report_unrolls_its_window_once(monkeypatch, name, depths):
    # every module's binding of materialize is rebound, as the bench tracer
    # does; the counting window is depth 2 n_hi + 1 on a tailed quotient, and
    # a finite one counts on the shadow window with its operator
    import sys
    from collections import Counter

    from treegibbs import graph

    g, orders, gd, mc = pipeline(name)
    orig = graph.materialize
    seen = Counter()

    def counted(g, depth):
        seen[depth] += 1
        return orig(g, depth)

    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and (mod_name == "treegibbs" or mod_name.startswith("treegibbs.")):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, attr, counted)
    error_decay_report(g, orders, None, gd, mc.m_mass, None, 10, 25)
    assert seen == Counter(depths)


def test_constraint_cone_ratio_matches_shadow_mass():
    # restricting to a cone scales the leading asymptotics by its shadow mass
    g, orders, gd, mc = pipeline("parallel_edges")
    full = orbit_oracle(g, orders, None, "a", 40)
    cone = orbit_oracle(g, orders, None, "a", 40, first_edge_constraint=("e1",))
    om = shadow_measure(gd, "a", ["e1"])
    sf = full.series()
    sc = cone.series()
    for n in (16, 18, 20):
        ratio = float(sc[n]) / float(sf[n])
        assert abs(ratio - om) < 1e-6, n


# calls at a vertex of funnel_loop that is not in the graph, or at its funnel
# vertex f, given (g, orders, gd, mc)
BAD_BASE_CALLS = {
    "orbit_oracle": lambda g, orders, gd, mc: orbit_oracle(g, orders, None, "nope", 4),
    "renewal_constant": lambda g, orders, gd, mc: renewal_constant(g, orders, None, "nope"),
    "nu_mass_at": lambda g, orders, gd, mc: nu_mass_at(gd, "nope"),
    "nu_mass_at-funnel": lambda g, orders, gd, mc: nu_mass_at(gd, "f"),
    "shadow_measure-funnel": lambda g, orders, gd, mc: shadow_measure(gd, "f", []),
    "error_decay_report": lambda g, orders, gd, mc: error_decay_report(
        g, orders, None, gd, mc.m_mass, None, 5, 10, base="nope"
    ),
    "error_decay_report-funnel": lambda g, orders, gd, mc: error_decay_report(
        g, orders, None, gd, mc.m_mass, None, 5, 10, base="f"
    ),
}


@pytest.mark.parametrize(
    "call, message",
    [
        ("orbit_oracle", "vertex 'nope' is not in the graph"),
        ("renewal_constant", "vertex 'nope' is not in the graph"),
        ("nu_mass_at", "vertex 'nope' is not in the graph"),
        ("error_decay_report", "vertex 'nope' is not in the graph"),
        ("error_decay_report-funnel", "vertex 'f' has no non-funnel out-edge"),
        ("nu_mass_at-funnel", "vertex 'f' has no non-funnel out-edge"),
        ("shadow_measure-funnel", "vertex 'f' has no non-funnel out-edge"),
    ],
)
def test_a_bad_base_vertex_is_a_graph_error(call, message):
    with pytest.raises(GraphError, match=message):
        BAD_BASE_CALLS[call](*pipeline("funnel_loop"))


def test_resource_guards(monkeypatch):
    from treegibbs import counting, cover
    from treegibbs.errors import ResourceLimitError

    g = fx.single_edge(3, 3)
    orders = propagate_orders(g)
    monkeypatch.setattr(counting, "_DP_GUARD", 5)
    monkeypatch.setattr(cover, "NODE_LIMIT", 10)
    with pytest.raises(ResourceLimitError):
        orbit_oracle(g, orders, None, "a", 10)
    with pytest.raises(ResourceLimitError):
        build_cover_ball(g, "a", 10)


def test_random_graphs_oracle_matches_ball():
    from hypothesis import given, settings

    from conftest import small_graphs
    from treegibbs.errors import NonUnimodularError
    from treegibbs.graph import validate_graph

    @settings(max_examples=40, deadline=None)
    @given(small_graphs())
    def inner(g):
        if not validate_graph(g).ok:
            return
        try:
            orders = propagate_orders(g)
        except NonUnimodularError:
            return
        base = g.base_vertex
        rep = orbit_oracle(g, orders, None, base, 3)
        counts = build_cover_ball(g, base, 3).label_counts()
        for n in range(4):
            assert rep.per_distance[n] == counts[(base, n)] * orders.vertex(base)

    inner()


def test_multiplicity_literal_spec_value():
    # non-backtracking continuation multiplicity equals the reversed index
    g = fx.single_edge(i_e=2, i_rev=5, base_value=1)
    from treegibbs.graph import edge_multiplicity

    assert edge_multiplicity(g, "ebar", "e") == 4  # i(ebar) - 1 backtrack
    assert edge_multiplicity(g, "e", "ebar") == 1  # i(e) - 1 backtrack
    gp = fx.parallel_edges()
    # cross continuation onto an index-5 edge
    from dataclasses import replace

    idx = dict(gp.index)
    idx["e2"] = 5
    gp5 = replace(gp, index=idx)
    assert edge_multiplicity(gp5, "e1", "e2bar") == 5


def test_sphere_partial_sums_match_oracle_lift_counts():
    # on the full biregular lattice the base-labeled vertices are exactly the
    # even spheres, so the unweighted oracle cumulative equals sum_j Delta(2j)
    for qd, qdp in ((2, 2), (2, 3), (3, 3)):
        g = fx.single_edge(i_e=qdp + 1, i_rev=qd + 1, base_value=1)
        orders = propagate_orders(g)
        params = biregular_params(g)
        rep = orbit_oracle(g, orders, None, "a", 16)
        for J in range(9):
            want = sum(sphere_size(params, j) for j in range(J + 1))
            assert rep.cumulative(2 * J) == want, (qd, qdp, J)


def _core_edges(pairs):
    return [
        half
        for k, (u, v) in enumerate(pairs)
        for half in (
            {"id": f"e{k}", "rev": f"e{k}r", "from": u, "to": v, "index": 1},
            {"id": f"e{k}r", "rev": f"e{k}", "from": v, "to": u, "index": 1},
        )
    ]


# A bipartite 4-cycle a-b-c-d with a-b tripled and c-d doubled (degrees 4, 4,
# 3, 3; 14 states); lambda^2 = 6.6293... is not an integer.
CORE_4_3 = {
    "vertices": ["a", "b", "c", "d"],
    "edges": _core_edges(
        [("a", "b"), ("a", "b"), ("a", "b"), ("b", "c"), ("c", "d"), ("c", "d"), ("d", "a")]
    ),
    "tails": [],
    "funnels": [],
    "orders": {"base_vertex": "a", "base_value": "1"},
}


def test_renewal_skips_rational_elimination_at_a_non_integer_perron_value(monkeypatch):
    import treegibbs.counting as counting
    from treegibbs.gibbs import TransferOperator, spectral_radius

    g = graph_from_dict(CORE_4_3)
    orders = propagate_orders(g)
    op = TransferOperator(materialize(g, 0), Potential.zero(g))
    M = op.matrix(0.0)
    want = counting._renewal_float(op, orders, g.base_vertex, length_spectrum_period(g), M, spectral_radius(M))

    def forbidden(A):
        raise AssertionError("rational elimination at a non-integer lambda^2")

    monkeypatch.setattr(counting, "_nullspace_fraction", forbidden)
    got = renewal_constant(g, orders)
    assert got.method == "perron-float"
    assert got == want


@pytest.mark.parametrize("name, method", [("CORE_4_3", "perron-float"), ("single_edge_3", "perron-exact")])
def test_renewal_runs_one_perron_value_on_either_route(monkeypatch, name, method):
    import treegibbs.counting as counting

    calls = []
    radius = counting.spectral_radius

    def counted(T):
        calls.append(T.shape[0])
        return radius(T)

    monkeypatch.setattr(counting, "spectral_radius", counted)
    g = graph_from_dict(CORE_4_3) if name == "CORE_4_3" else fx.get(name)
    assert renewal_constant(g, propagate_orders(g)).method == method
    assert len(calls) == 1


def test_renewal_on_a_line_cover_is_no_positive_solution():
    # two geometric edges between a and b, all indices 1: the cover is a
    # line, a valid core whose counting growth rate is exactly 1
    from treegibbs.errors import NoPositiveSolutionError
    from treegibbs.graph import validate_graph

    g = graph_from_dict(
        {"vertices": ["a", "b"], "edges": _core_edges([("a", "b"), ("a", "b")]), "tails": [], "funnels": []}
    )
    assert validate_graph(g).ok
    with pytest.raises(NoPositiveSolutionError, match="at or below 1"):
        renewal_constant(g, propagate_orders(g))


@pytest.mark.parametrize(
    "name, exact, growth_sq",
    [
        ("single_edge_3", Fraction(6), Fraction(4)),
        ("biregular_24", Fraction(12, 7), Fraction(8)),
        ("biregular_44", Fraction(4, 3), Fraction(16)),
        ("two_loops", Fraction(2), Fraction(9)),
    ],
)
def test_renewal_exact_path_still_hits(name, exact, growth_sq):
    g = fx.get(name)
    rc = renewal_constant(g, propagate_orders(g))
    assert rc.method == "perron-exact"
    assert rc.exact == exact and rc.growth_sq == growth_sq
    assert rc.value == float(exact)


def test_renewal_above_the_exact_size_takes_the_float_route(monkeypatch):
    # K_10 with index 1 on every edge: 90 states, lambda = p = 8 an integer,
    # and C* = (p + 1) / (V (p - 1)) = 9 / 70
    import treegibbs.counting as counting

    def forbidden(*args):
        raise AssertionError("rational route on a core above the exact size")

    monkeypatch.setattr(counting, "_renewal_exact", forbidden)
    names = [f"v{k}" for k in range(10)]
    pairs = [(u, v) for k, u in enumerate(names) for v in names[k + 1 :]]
    g = graph_from_dict(
        {
            "vertices": names,
            "edges": _core_edges(pairs),
            "tails": [],
            "funnels": [],
            "orders": {"base_vertex": "v0", "base_value": "1"},
        }
    )
    assert len(materialize(g, 0).edges) == 90
    rc = renewal_constant(g, propagate_orders(g))
    assert rc.method == "perron-float"
    assert abs(rc.value - 9 / 70) <= 1e-12


def _reference_census(g, base, radius, node_limit=50_000_000):
    """The census as a one-pop-per-vertex DFS over (kind, payload, depth)."""
    from collections import Counter

    from treegibbs.cover import _expansion
    from treegibbs.errors import ResourceLimitError

    mat, children = _expansion(g, radius)
    counts = Counter()
    counts[(base, 0)] += 1
    total = 1
    stack = []
    if radius >= 1:
        for kind, payload in children("root", base):
            stack.append((kind, payload, 1))
    while stack:
        kind, payload, depth = stack.pop()
        total += 1
        if total > node_limit:
            raise ResourceLimitError(f"cover census exceeds {node_limit} vertices")
        if kind == "edge":
            counts[(mat.term[payload], depth)] += 1
        else:
            k, din = payload
            counts[(f"~f{k}.d{din}", depth)] += 1
        if depth == radius:
            continue
        for ck, cp in children(kind, payload):
            stack.append((ck, cp, depth + 1))
    return counts


# the two rays of type (2, 4) have 2.9 million vertices at radius 9
_CENSUS_MAX_RADIUS = {"thick_ray_5": 7, "critical_ray_5": 7}


@pytest.mark.parametrize("name", sorted(fx.FIXTURES))
def test_census_matches_the_one_pop_per_vertex_reference(name):
    g = fx.get(name)
    base = g.base_vertex
    for radius in range(_CENSUS_MAX_RADIUS.get(name, 9) + 1):
        got = cover_census(g, base, radius)
        assert got == _reference_census(g, base, radius), (name, radius)
        assert all(type(v) is int and v > 0 for v in got.values()), (name, radius)
        assert all(type(d) is int for _, d in got), (name, radius)


@pytest.mark.parametrize("name", ["single_edge_3", "funnel_loop", "cusp_24"])
def test_census_node_limit_is_the_ball_size(name, monkeypatch):
    from treegibbs import cover
    from treegibbs.errors import ResourceLimitError

    g = fx.get(name)
    base = g.base_vertex
    size = sum(cover_census(g, base, 6).values())
    monkeypatch.setattr(cover, "CENSUS_LIMIT", size - 1)
    with pytest.raises(ResourceLimitError) as got:
        cover_census(g, base, 6)
    with pytest.raises(ResourceLimitError) as want:
        _reference_census(g, base, 6, node_limit=size - 1)
    assert str(got.value) == str(want.value) == f"cover census exceeds {size - 1} vertices"
    monkeypatch.setattr(cover, "CENSUS_LIMIT", size)
    assert sum(cover_census(g, base, 6).values()) == size
    # a lone root is never checked against the limit, as in the reference
    monkeypatch.setattr(cover, "CENSUS_LIMIT", 0)
    assert cover_census(g, base, 0) == _reference_census(g, base, 0, node_limit=0)


def test_census_walks_in_blocks_not_levels():
    import tracemalloc

    g = fx.get("thick_ray_5")
    tracemalloc.start()
    try:
        census = cover_census(g, g.base_vertex, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(census.values()) == 2_929_687
    # the 2,343,750 vertices at depth 9 as one int64 array would take 18.75 MB
    assert peak < 8_000_000


def _coboundary(g, seed):
    """F(e) = h(term e) - h(orig e) for a seeded random h: on the core
    vertices, and along each tail a period-2 h from level 1 on, so each tail
    potential is a one-level prefix and a period of two pairs."""
    import random

    from treegibbs.gibbs import TailPotential

    rng = random.Random(seed)
    h = {v: rng.uniform(-0.5, 0.5) for v in g.vertices}
    tails = []
    for spec in g.tails:
        a, b = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
        first = a - h[spec.attach]
        tails.append(TailPotential(prefix=((first, -first),), period=((b - a, a - b), (a - b, b - a))))
    return Potential({e: h[g.term[e]] - h[g.orig[e]] for e in g.edges}, tuple(tails))


@pytest.mark.parametrize("name", ("parallel_edges", "biregular_24", "cusp_22", "cusp_24", "thick_ray_5"))
def test_a_coboundary_leaves_the_pipeline_unchanged(name):
    import numpy as np

    from treegibbs.chain import build_chain
    from treegibbs.gibbs import compute_gibbs

    g, orders, gd0, mc0 = pipeline(name)
    F = _coboundary(g, seed=len(name))
    gd = compute_gibbs(g, F, depth=gd0.depth)
    mc = build_chain(g, gd, orders)

    def rel(a, b):
        return abs(a - b) / abs(b)

    assert rel(gd.delta, gd0.delta) <= 1e-12
    assert mc.states == mc0.states
    assert np.max(np.abs(mc.p - mc0.p)) <= 1e-12 * np.max(np.abs(mc0.p))
    assert np.max(np.abs(mc.pi - mc0.pi)) <= 1e-12 * np.max(np.abs(mc0.pi))
    assert rel(mc.m_mass, mc0.m_mass) <= 1e-12
    counts = orbit_oracle(g, orders, F, g.base_vertex, 20).per_distance
    counts0 = orbit_oracle(g, orders, None, g.base_vertex, 20).per_distance
    assert all(rel(c, float(c0)) <= 1e-12 for c, c0 in zip(counts, counts0) if c0)
    assert all(c == 0.0 for c, c0 in zip(counts, counts0) if not c0)
    rep = error_decay_report(g, orders, F, gd, mc.m_mass, None, 5, 10)
    rep0 = error_decay_report(g, orders, None, gd0, mc0.m_mass, None, 5, 10)
    assert rel(rep.cstar, rep0.cstar) <= 1e-12


def _reference_biregular_params(g, base=None) -> BiregularParams:
    """``biregular_params`` as it was with its own depth-first 2-colouring."""
    from treegibbs.graph import lift_degree

    base = base or g.base_vertex
    deg = {v: lift_degree(g, v) for v in g.vertices}
    horizon = max([1] + [len(spec.prefix) + 2 * len(spec.period) for spec in g.tails])
    d0 = deg[base]
    # 2-coloring by parity over the core
    color = {base: 0}
    stack = [base]
    classes = {0: {d0}, 1: set()}
    while stack:
        v = stack.pop()
        for e in g.out_edges(v):
            w = g.term[e]
            cw = 1 - color[v]
            if w in color:
                if color[w] != cw:
                    if deg[w] != d0 or len({deg[x] for x in deg}) != 1:
                        raise GraphError("cover is not biregular (odd cycle with distinct degrees)")
                continue
            color[w] = cw
            classes[cw].add(deg[w])
            stack.append(w)
    for spec in g.tails:
        c = 1 - color[spec.attach]
        for n in range(1, horizon + 1):
            classes[c].add(spec.pair(n)[0] + spec.pair(n + 1)[1])
            c = 1 - c
    froots = g.funnel_root_vertices()
    for v, f in froots.items():
        c = color[v]
        for d in range(len(f.branching)):
            c = 1 - c
            classes[c].add(1 + f.children(d))
    if len(classes[0]) != 1 or (classes[1] and len(classes[1]) != 1):
        raise GraphError(f"cover is not biregular: degree classes {classes}")
    qd = d0 - 1
    qdp = (next(iter(classes[1])) - 1) if classes[1] else qd
    return BiregularParams(qd, qdp)


def _biregular_outcome(fn, g):
    try:
        return fn(g)
    except Exception as exc:  # the error class is the outcome being compared
        return type(exc)


def _assert_same_biregular_outcome(g):
    got = _biregular_outcome(biregular_params, g)
    assert got == _biregular_outcome(_reference_biregular_params, g)
    assert isinstance(got, BiregularParams) or got is GraphError


@pytest.mark.parametrize("name", sorted(fx.FIXTURES))
def test_biregular_params_matches_the_depth_first_colouring_on_fixtures(name):
    _assert_same_biregular_outcome(fx.get(name))


def test_biregular_params_matches_the_depth_first_colouring_on_random_graphs():
    from conftest import small_graphs

    @settings(max_examples=150, deadline=None)
    @given(small_graphs())
    def on_core(g):
        _assert_same_biregular_outcome(g)

    @settings(max_examples=60, deadline=None)
    @given(tailed_graphs())
    def on_tailed(case):
        _assert_same_biregular_outcome(case[0])

    # tailed_graphs draws no biregular cover; these are biregular by construction
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.sampled_from(("cusp", "thick")),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=2),
    )
    def on_biregular_tailed(kind, r, s, repeats):
        from dataclasses import replace

        g = fx.cusp_ray(r, s) if kind == "cusp" else fx.thick_ray(r)
        spec = g.tails[0]
        g = replace(g, tails=(replace(spec, prefix=spec.period * repeats),))
        got = biregular_params(g)
        assert isinstance(got, BiregularParams)
        assert got == _reference_biregular_params(g)

    on_core()
    on_tailed()
    on_biregular_tailed()


# counting at the funnel vertex f of funnel_loop: no non-funnel edge leaves
# it, so there is nothing to count along, and a count there would read 0
FUNNEL_BASE_CALLS = {
    "renewal_constant": lambda g, orders: renewal_constant(g, orders, None, "f"),
    "orbit_oracle": lambda g, orders: orbit_oracle(g, orders, None, "f", 4),
}


@pytest.mark.parametrize("call", sorted(FUNNEL_BASE_CALLS))
def test_counting_at_a_funnel_vertex_is_a_graph_error(call):
    g, orders, _, _ = pipeline("funnel_loop")
    with pytest.raises(GraphError, match="vertex 'f' has no non-funnel out-edge"):
        FUNNEL_BASE_CALLS[call](g, orders)
