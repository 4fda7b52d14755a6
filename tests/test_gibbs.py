import math

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (
    FINITE_FIXTURES,
    PIPELINE_FIXTURES,
    TAILED_FIXTURES,
    bench_core,
    pipeline,
    potential_runs,
    tailed_graphs,
)
from treegibbs import fixtures as fx
from treegibbs import gibbs
from treegibbs.errors import DivergenceError, GraphError, NoPositiveSolutionError, TreeGibbsError
from treegibbs.gibbs import (
    Potential,
    TailPotential,
    TransferOperator,
    _critical_one,
    _greens,
    compute_gibbs,
    critical_exponent,
    cusp_exponent_bound,
    potential_from_dict,
    shadow_residual,
    shadow_vector,
    spectral_radius,
    tail_critical_value,
    transfer_matrix,
)
from treegibbs.graph import (
    IndexedGraph,
    graph_from_dict,
    graph_to_dict,
    materialize,
    propagate_orders,
    tail_edge_id,
)


def test_transfer_matrix_single_edge():
    g = fx.single_edge(3, 3)
    states, T = transfer_matrix(g, None, 0.0)
    idx = {s: i for i, s in enumerate(states)}
    assert T[idx["e"], idx["ebar"]] == 2.0
    assert T[idx["ebar"], idx["e"]] == 2.0
    assert T[idx["e"], idx["e"]] == 0.0


def test_transfer_matrix_shift_homogeneity():
    g = fx.parallel_edges()
    _, T0 = transfer_matrix(g, None, 0.0)
    _, T1 = transfer_matrix(g, None, 0.7)
    assert np.allclose(T1, T0 * math.exp(-0.7))
    # constant potential c at shift s equals zero potential at s - c
    _, Tc = transfer_matrix(g, Potential.constant(g, 0.3), 0.7)
    _, Tz = transfer_matrix(g, None, 0.4)
    assert np.allclose(Tc, Tz)


def test_critical_exponent_closed_forms():
    assert abs(critical_exponent(fx.single_edge(3, 3)).delta - math.log(2)) < 1e-12
    for r, s in ((2, 4), (4, 4)):
        ce = critical_exponent(fx.biregular_edge(r, s))
        assert abs(ce.delta - 0.5 * math.log(r * s)) < 1e-10


def test_constant_potential_shifts_exponent():
    g = fx.parallel_edges()
    ce0 = critical_exponent(g)
    cec = critical_exponent(g, Potential.constant(g, 0.25))
    assert abs(cec.delta - (ce0.delta + 0.25)) < 1e-12
    assert abs(cec.delta_zero - ce0.delta) < 1e-12


def test_tailed_exponents():
    ce = critical_exponent(fx.cusp_ray(2, 2))
    assert abs(ce.delta - math.log(2)) < 1e-9
    assert abs(ce.s_tail - 0.5 * math.log(2)) < 1e-6
    ce2 = critical_exponent(fx.thick_ray(5))
    assert abs(ce2.delta - math.log(5)) < 1e-9
    # cuspidal rays in the (r+1, s+1)-biregular tree sit at half log(rs)
    ce3 = critical_exponent(fx.cusp_ray(2, 4))
    assert abs(ce3.delta - 0.5 * math.log(8)) < 1e-9


def test_critical_ray_diverges_with_tail_value():
    with pytest.raises(DivergenceError) as exc:
        critical_exponent(fx.critical_ray(5))
    assert abs(exc.value.tail_critical - math.log(5)) < 1e-6


def test_forward_backward_exponents_agree():
    for name in PIPELINE_FIXTURES:
        _, _, gd, _ = pipeline(name)
        assert abs(gd.delta - gd.delta_minus) < 1e-9


def test_shadow_single_edge():
    g = fx.single_edge(3, 3)
    u = shadow_vector(g, None, math.log(2))
    assert abs(u["e"] - 2.0 / 3.0) < 1e-12
    assert abs(u["ebar"] - 2.0 / 3.0) < 1e-12


def test_funnel_edges_carry_zero_shadow():
    _, _, gd, _ = pipeline("funnel_loop")
    assert gd.u_plus["w"] == 0.0 and gd.u_plus["wbar"] == 0.0
    assert gd.u_minus["w"] == 0.0 and gd.u_minus["wbar"] == 0.0
    assert gd.u_plus["l"] > 0


def test_cuspidal_downward_recurrence():
    g, _, gd, _ = pipeline("cusp_24")
    spec = g.tails[0]
    for n in range(2, 10):
        r_prev = spec.pair(n - 1)[0]
        lhs = gd.u_plus[tail_edge_id(0, n, False)]
        rhs = r_prev * math.exp(-gd.delta) * gd.u_plus[tail_edge_id(0, n - 1, False)]
        assert abs(lhs - rhs) < 1e-12 * max(1.0, lhs)


def test_shadow_residuals_within_tolerance():
    for name in FINITE_FIXTURES:
        _, _, gd, _ = pipeline(name)
        assert gd.residual_plus <= 1e-10 and gd.residual_minus <= 1e-10, name
    for name in TAILED_FIXTURES:
        _, _, gd, _ = pipeline(name)
        assert gd.residual_plus <= 1e-8 and gd.residual_minus <= 1e-8, name


def test_normalization_unit_mass_at_base():
    for name in PIPELINE_FIXTURES:
        g, _, gd, _ = pipeline(name)
        mat = materialize(g, gd.depth)
        funnel = mat.funnel_edge_ids()
        tot = sum(
            mat.index[mat.rev[e]] * math.exp(gd.fvals[e] - gd.delta) * gd.u_plus[e]
            for e in mat.out_edges(g.base_vertex)
            if e not in funnel
        )
        assert abs(tot - 1.0) < 1e-12, name


def test_exponent_matches_power_growth():
    for name in FINITE_FIXTURES:
        g = fx.get(name)
        ce = critical_exponent(g)
        _, T = transfer_matrix(g, None, 0.0)
        v = np.ones(T.shape[0])
        acc = 0.0
        for n in range(1, 61):
            v = T @ v
            nrm = np.linalg.norm(v, 1)
            acc += math.log(nrm)
            v /= nrm
            if n == 20:
                l20 = acc
            if n == 60:
                l60 = acc
        growth = (l60 - l20) / 40.0
        assert abs(growth - ce.delta) < 1e-9, name


def test_shadow_conformality_on_cover_ball():
    # per-cone mass of an edge seen from its tail equals exp(F - delta) u(e),
    # and splits across the children cones of the explicit cover ball
    g, _, gd, _ = pipeline("parallel_edges")
    mat = materialize(g, 0)
    for e in g.edges:
        lhs = math.exp(gd.fvals[e] - gd.delta) * gd.u_plus[e]
        rhs = sum(
            m * math.exp(gd.fvals[e] + gd.fvals[f] - 2 * gd.delta) * gd.u_plus[f]
            for f, m in mat.continuations(e)
        )
        assert abs(lhs - rhs) < 1e-13


def test_constant_shift_leaves_chain_invariant():
    from treegibbs.chain import build_chain

    g = fx.parallel_edges()
    orders = propagate_orders(g)
    gd0 = compute_gibbs(g)
    gdc = compute_gibbs(g, Potential.constant(g, 0.4))
    mc0 = build_chain(g, gd0, orders)
    mcc = build_chain(g, gdc, orders)
    assert mc0.states == mcc.states
    assert np.abs(mc0.p - mcc.p).max() < 1e-12


def test_tail_truncation_error_decays_with_depth():
    g = fx.cusp_ray(2, 2)
    ce = critical_exponent(g)
    _, _, gd, _ = pipeline("cusp_22")
    errs_delta = []
    errs_u = []
    for depth in (20, 40, 80):
        states, T = transfer_matrix(g, None, 0.0, depth=depth)
        sigma = spectral_radius(T)
        errs_delta.append(abs(math.log(sigma) - ce.delta))
        # Perron vector of the truncation, normalized like the shadow vector
        v = np.ones(len(states))
        for _ in range(20000):
            w = 0.5 * ((T @ v) / sigma + v)
            w /= np.linalg.norm(w, 1)
            if np.linalg.norm(w - v, 1) < 1e-15:
                v = w
                break
            v = w
        idx = {s: i for i, s in enumerate(states)}
        mat = materialize(g, depth)
        mass = sum(
            mat.index[mat.rev[e]] * math.exp(-math.log(sigma)) * v[idx[e]]
            for e in mat.out_edges("a0")
        )
        u_trunc = {e: v[idx[e]] / mass for e in g.edges}
        errs_u.append(max(abs(u_trunc[e] - gd.u_plus[e]) for e in g.edges))
    assert errs_delta[0] > errs_delta[1] > errs_delta[2]
    assert errs_u[0] > errs_u[1] > errs_u[2]


def test_poincare_partial_sums():
    # sum_n N(n) e^{-s n} over the orbit counts at the base, an oracle for
    # the critical exponent delta = log 2
    from treegibbs.counting import orbit_oracle

    g = fx.single_edge(3, 3)
    orders = propagate_orders(g)
    per = orbit_oracle(g, orders, None, g.base_vertex, 60).per_distance

    def partial_sum(s, n_max):
        return sum(w * math.exp(-s * n) for n, w in enumerate(per[: n_max + 1]))

    assert partial_sum(0.5, 0) == 3.0
    # s > delta: geometric convergence, increments shrink by 1/4 per two steps
    s = math.log(4)
    vals = [partial_sum(s, n) for n in (10, 12, 14)]
    inc1, inc2 = vals[1] - vals[0], vals[2] - vals[1]
    assert abs(inc2 / inc1 - 0.25) < 1e-6
    # s = delta: linear growth of the partial sums
    d = math.log(2)
    v20 = partial_sum(d, 20)
    v40 = partial_sum(d, 40)
    v60 = partial_sum(d, 60)
    assert abs((v60 - v40) - (v40 - v20)) < 1e-9 * abs(v60)


def test_cusp_exponent_bound():
    from treegibbs.graph import TailSpec

    ray_rs = TailSpec(attach="x", prefix=(), period=((2, 1), (4, 1)))
    assert abs(cusp_exponent_bound(ray_rs) - 0.25 * math.log(8)) < 1e-14
    ray_q = TailSpec(attach="x", prefix=(), period=((5, 1),))
    assert abs(cusp_exponent_bound(ray_q) - 0.5 * math.log(5)) < 1e-14
    ray_flat = TailSpec(attach="x", prefix=(), period=((1, 1),))
    assert cusp_exponent_bound(ray_flat) == float("-inf")
    with pytest.raises(GraphError):
        cusp_exponent_bound(TailSpec(attach="x", prefix=(), period=((4, 2),)))
    # potential factors enter through F(e) + F(rev e)
    tp = TailPotential(period=((0.1, 0.2),))
    assert abs(cusp_exponent_bound(ray_q, tp) - 0.5 * (math.log(5) + 0.3)) < 1e-14


def test_shadow_rejects_inconsistent_exponent():
    from treegibbs.errors import NoPositiveSolutionError

    g = fx.single_edge(3, 3)
    with pytest.raises(NoPositiveSolutionError):
        shadow_vector(g, None, math.log(2) + 0.2)


def test_funnel_cover_ball_spheres():
    from treegibbs.cover import build_cover_ball

    ball = build_cover_ball(fx.funnel_loop(), "a", 3)
    sizes = ball.sphere_sizes()
    assert sizes[:3] == [1, 5, 18]


def test_asymmetric_tail_potential_pipeline():
    # nonzero, direction-asymmetric potential on core and tail stresses the
    # reversed-potential bookkeeping: both exponents and all chain identities
    # must still line up
    from treegibbs.chain import build_chain, check_markov_property

    g = fx.cusp_ray(2, 2)
    F = Potential(
        values={"c": 0.07, "cbar": -0.04},
        tail_values=(TailPotential(period=((0.1, -0.05),)),),
    )
    gd = compute_gibbs(g, F, depth=90)
    assert abs(gd.delta - gd.delta_minus) < 1e-10
    assert gd.delta != gd.delta_zero
    assert gd.residual_plus < 1e-12 and gd.residual_minus < 1e-12
    mc = build_chain(g, gd, propagate_orders(g))
    rep = check_markov_property(mc, gd)
    assert rep.max_row_residual < 1e-12
    assert rep.max_stationarity_residual < 1e-12
    assert rep.max_cylinder_residual < 1e-12


def test_tailed_constant_shift_leaves_chain_invariant():
    from treegibbs.chain import build_chain

    g = fx.cusp_ray(2, 4)
    orders = propagate_orders(g)
    gd0 = compute_gibbs(g, None, depth=60)
    gdc = compute_gibbs(g, Potential.constant(g, 0.5), depth=60)
    assert abs(gdc.delta - (gd0.delta + 0.5)) < 1e-9
    mc0 = build_chain(g, gd0, orders)
    mcc = build_chain(g, gdc, orders)
    assert mc0.states == mcc.states
    assert np.abs(mc0.p - mcc.p).max() < 1e-9


@pytest.mark.parametrize("name", ("single_edge_3", "two_loops", "cusp_22"))
def test_shadow_names_an_exponent_off_by_more_than_the_perron_gate(name):
    # an exponent 1e-9 off fails on the dominant class's spectral radius, not
    # inside perron_vector's 1e-10 residual gate ("1.0 is not an eigenvalue")
    g = fx.get(name)
    delta = critical_exponent(g).delta
    with pytest.raises(NoPositiveSolutionError, match="component spectral radius .* exceeds 1"):
        shadow_vector(g, None, delta - 1e-9)
    with pytest.raises(NoPositiveSolutionError, match="no component with unit spectral radius"):
        shadow_vector(g, None, delta + 1e-9)


# ---------------------------------------------------------------------------
# the junction operator against the explicit construction it replaced


def _reference_junction_states(g: IndexedGraph):
    funnel = g.funnel_edge_ids()
    states = [e for e in g.edges if e not in funnel]
    for t in range(len(g.tails)):
        states.append(tail_edge_id(t, 1, True))
        states.append(tail_edge_id(t, 1, False))
    return states


def _reference_junction(g: IndexedGraph, F: Potential, s, greens):
    """Finite operator equivalent to T(s) with tail excursions resummed.

    ``greens[t]`` is the TailGreen of tail t under F at s.  Deep levels only
    enter through the resummed first-return weight on the entry state.
    """
    f_up1 = [F.tail(t).pair(1)[0] for t in range(len(g.tails))]
    states = _reference_junction_states(g)
    pos = {e: i for i, e in enumerate(states)}
    n = len(states)
    T = np.zeros((n, n))
    funnel = g.funnel_edge_ids()
    tails_at = {}
    for t, spec in enumerate(g.tails):
        tails_at.setdefault(spec.attach, []).append(t)
    for e in g.edges:
        if e in funnel:
            continue
        v = g.term[e]
        for f in g.out_edges(v):
            if f in funnel:
                continue
            m = g.index[e] - 1 if f == g.rev[e] else g.index[g.rev[f]]
            if m > 0:
                T[pos[e], pos[f]] = m * math.exp(F.values.get(f, 0.0) - s)
        for t in tails_at.get(v, []):
            iu, idn = g.tails[t].pair(1)
            T[pos[e], pos[tail_edge_id(t, 1, True)]] = idn * math.exp(f_up1[t] - s)
    for t, spec in enumerate(g.tails):
        e1 = tail_edge_id(t, 1, True)
        r1 = tail_edge_id(t, 1, False)
        T[pos[e1], pos[r1]] = greens[t].g(1)
        v = spec.attach
        for f in g.out_edges(v):
            if f in funnel:
                continue
            T[pos[r1], pos[f]] = g.index[g.rev[f]] * math.exp(F.values.get(f, 0.0) - s)
        for t2 in tails_at.get(v, []):
            iu2, idn2 = g.tails[t2].pair(1)
            m = idn2 - 1 if t2 == t else idn2
            if m > 0:
                T[pos[r1], pos[tail_edge_id(t2, 1, True)]] = m * math.exp(f_up1[t2] - s)
    return states, T


def _junction_probes(g, F):
    """delta when it exists, s_tail + 1e-3 when s_tail is finite, and the
    first upper bracket of the exponent bisection."""
    imax = max(g.index[e] for e in g.edges)
    for spec in g.tails:
        imax = max(imax, max(max(a, b) for a, b in spec.prefix + spec.period))
    fmax = max(abs(F.values.get(e, 0.0)) for e in g.edges)
    probes = [math.log(imax + 1) + fmax + 2.0]
    s_tail = max(tail_critical_value(spec, F.tail(t)) for t, spec in enumerate(g.tails))
    if math.isfinite(s_tail):
        probes.append(s_tail + 1e-3)
    try:
        probes.append(_critical_one(TransferOperator(materialize(g, 1), F))[0])
    except TreeGibbsError:
        pass
    return probes


def _assert_junction_is_the_reference(g, F):
    """The junction operator equals the explicit construction entry for entry.

    Both list the core states, then ~t<k>.e1 and ~t<k>.r1 per tail k: the
    depth-1 edges in edge order.  From 11 tails on that order would differ
    (~t1 < ~t10 < ~t2); no shipped or tested graph has that many.  Returns
    the number of probes where every tail converged.
    """
    checked = 0
    op = TransferOperator(materialize(g, 1), F)
    for s in _junction_probes(g, F):
        greens = _greens(g, F, s)
        if greens is None:
            continue
        states, T = op.states, op.matrix(s, greens)
        ref_states, R = _reference_junction(g, F, s, greens)
        pos = {e: i for i, e in enumerate(states)}
        assert sorted(pos) == sorted(ref_states)
        for a, ea in enumerate(ref_states):
            for b, eb in enumerate(ref_states):
                assert T[pos[ea], pos[eb]] == R[a, b], (s, ea, eb)
        # the same order too, so spectral_radius sees the same matrix
        assert list(states) == ref_states
        checked += 1
    return checked


def _with_second_tail(name, attach):
    d = graph_to_dict(fx.get(name))
    d["tails"].append({"attach": attach, "period": [[2, 1]]})
    return graph_from_dict(d)


def _junction_cases():
    for name in sorted(fx.FIXTURES):
        g = fx.get(name)
        if g.tails:
            yield name, g, Potential.zero(g)
    for name, pot, tail_values in potential_runs():
        g = fx.get(name)
        yield f"{name}+{pot}", g, potential_from_dict(g, {"tail_values": [dict(tail_index=0, **tail_values)]})
    for attach in ("b", "a0"):
        g = _with_second_tail("cusp_22", attach)
        yield f"cusp_22+tail@{attach}", g, Potential.zero(g)


@pytest.mark.parametrize("case", list(_junction_cases()), ids=lambda case: case[0])
def test_junction_is_the_explicit_junction_matrix(case):
    name, g, F = case
    # every probe converges; the critical ray has no delta to probe
    assert _assert_junction_is_the_reference(g, F) == (2 if name == "critical_ray_5" else 3)


@settings(deadline=None, derandomize=True, max_examples=25)
@given(tailed_graphs())
def test_junction_is_the_explicit_junction_matrix_on_random_tails(drawn):
    g, F = drawn
    _assert_junction_is_the_reference(g, F)


# ---------------------------------------------------------------------------
# the exponent bisection against a copy that reads every probe's full rho


def _reference_critical_one(g, F, tol=1e-14):
    """``_critical_one``'s tailed bisection with every junction rho run to
    convergence (``spectral_radius`` without ``versus``)."""
    op = TransferOperator(materialize(g, 1), F)

    def sr(s):
        greens = _greens(g, F, s)
        return None if greens is None else spectral_radius(op.matrix(s, greens))

    s_tail = max(tail_critical_value(spec, F.tail(t)) for t, spec in enumerate(g.tails))
    imax = max(g.index[e] for e in g.edges)
    for spec in g.tails:
        imax = max(imax, max(max(a, b) for a, b in spec.prefix + spec.period))
    fmax = max((abs(F.values.get(e, 0.0)) for e in g.edges), default=0.0)
    hi = math.log(imax + 1) + fmax + 2.0
    while True:
        r = sr(hi)
        if r is not None and r < 1.0:
            break
        hi += 2.0
    lo = (s_tail if math.isfinite(s_tail) else hi - 60.0) + 1e-9
    r = sr(lo)
    if r is None or r <= 1.0:
        raise DivergenceError("no gap", tail_critical=s_tail)
    a, b = lo, hi
    for _ in range(200):
        mid = 0.5 * (a + b)
        r = sr(mid)
        if r is None or r > 1.0:
            a = mid
        else:
            b = mid
        if b - a < tol * max(1.0, abs(b)):
            break
    return 0.5 * (a + b)


_BISECTION_POTENTIALS = (
    ("zero", None),
    ("period2", {"period": [[0.1, -0.05], [-0.2, 0.03]]}),
    ("prefix1", {"prefix": [[0.3, 0.1]], "period": [[0.1, 0.1]]}),
)


@pytest.mark.parametrize("pot", _BISECTION_POTENTIALS, ids=lambda pot: pot[0])
@pytest.mark.parametrize("name", TAILED_FIXTURES)
def test_exponent_bisection_walks_the_full_rho_path(monkeypatch, name, pot):
    # the early side decision may stop a probe's power iteration, never turn
    # a midpoint: delta, delta_minus and every TailGreen solve on the way match
    g = fx.get(name)
    F = Potential.zero(g)
    tail_values = pot[1]
    if tail_values is not None:
        F = potential_from_dict(g, {"tail_values": [dict(tail_index=0, **tail_values)]})
    ce = critical_exponent(g, F)
    built = [0]

    class CountingTailGreen(gibbs.TailGreen):
        def __init__(self, *args):
            built[0] += 1
            super().__init__(*args)

    monkeypatch.setattr(gibbs, "TailGreen", CountingTailGreen)
    for potential, delta in ((F, ce.delta), (F.reversed(g), ce.delta_minus)):
        built[0] = 0
        ref = _reference_critical_one(g, potential)
        ref_solves = built[0]
        built[0] = 0
        got = _critical_one(TransferOperator(materialize(g, 1), potential))[0]
        assert built[0] == ref_solves
        assert got.hex() == ref.hex() == delta.hex()


def test_exponent_bisection_still_finds_no_gap_on_the_critical_ray():
    g = fx.critical_ray(5)
    with pytest.raises(DivergenceError, match="no weighted spectral gap") as got:
        critical_exponent(g)
    with pytest.raises(DivergenceError) as ref:
        _reference_critical_one(g, Potential.zero(g))
    assert got.value.tail_critical == ref.value.tail_critical


def test_the_shadow_window_is_unrolled_once(monkeypatch):
    # every module's binding of materialize is rebound, as the bench tracer does
    import sys

    from treegibbs import graph
    from treegibbs.chain import build_chain
    from treegibbs.counting import error_decay_report

    name, _, tail_values = next(r for r in potential_runs() if r[:2] == ("thick_ray_5", "period2"))
    g = fx.get(name)
    F = potential_from_dict(g, {"tail_values": [dict(tail_index=0, **tail_values)]})
    orders = propagate_orders(g)
    orig = graph.materialize
    depths = []

    def counted(g, depth):
        depths.append(depth)
        return orig(g, depth)

    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and (mod_name == "treegibbs" or mod_name.startswith("treegibbs.")):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, attr, counted)
    gd = compute_gibbs(g, F)
    mc = build_chain(g, gd, orders)
    error_decay_report(g, orders, F, gd, mc.m_mass, None, 5, 10)
    assert depths.count(gibbs.DEFAULT_DEPTH) == 1, depths
    # one junction graph for the three exponent solves (F, its reversal,
    # zero) and both shadows
    assert depths.count(1) == 1, depths
    assert mc.mat is gd.mat


def _counted_lstsq(monkeypatch):
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
    return calls


def test_a_large_dominant_class_takes_the_power_iterate(monkeypatch):
    from treegibbs.chain import build_chain, check_markov_property

    g = bench_core(40)
    calls = _counted_lstsq(monkeypatch)
    gd = compute_gibbs(g)
    assert not calls
    assert len(gd.u_plus) == 160 > gibbs._LSTSQ_MAX_STATES
    states, T = transfer_matrix(g, None, gd.delta)
    u = np.array([gd.u_plus[e] for e in states])
    want = gibbs.perron_vector(T, 1.0)
    assert np.abs(u / u.sum() - want).max() <= 1e-9 * want.max()
    rep = check_markov_property(build_chain(g, gd, propagate_orders(g)), gd)
    assert gd.residual_plus <= 1e-10
    assert rep.max_row_residual <= 1e-10 and rep.max_stationarity_residual <= 1e-10


def test_an_iterate_off_the_gate_falls_back_to_least_squares(monkeypatch):
    g = bench_core(40)
    # every class on least squares: the route of the smaller classes
    monkeypatch.setattr(gibbs, "_LSTSQ_MAX_STATES", 10**9)
    want = compute_gibbs(g)
    monkeypatch.undo()
    run = gibbs._power_run

    def off_the_gate(T, versus):
        rho, v = run(T, versus)
        return rho, (None if v is None else np.arange(1.0, len(v) + 1.0))

    monkeypatch.setattr(gibbs, "_power_run", off_the_gate)
    calls = _counted_lstsq(monkeypatch)
    got = compute_gibbs(g)
    assert calls
    assert [v.hex() for v in got.u_plus.values()] == [v.hex() for v in want.u_plus.values()]
    assert got.residual_plus.hex() == want.residual_plus.hex()
