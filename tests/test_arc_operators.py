"""The float operators built on ``MaterializedGraph.arc_arrays`` against the
loops over arc rows they replace, bit for bit, and the exponent's power
iterate as the shadow vector on a finite quotient.

Each ``_reference_*`` is the loop that built the quantity before the arc
arrays, its arithmetic kept verbatim; it takes its rows from ``arc_rows``, a
walk of ``continuations``.  ``float.hex`` compares bits.
"""

import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings

from conftest import FINITE_FIXTURES, TAILED_FIXTURES, arc_rows, bench_core, potential_runs, tailed_graphs
from treegibbs import fixtures as fx
from treegibbs import gibbs
from treegibbs.chain import build_chain, check_markov_property
from treegibbs.counting import orbit_oracle
from treegibbs.errors import TreeGibbsError
from treegibbs.gibbs import (
    Potential,
    TransferOperator,
    _greens,
    compute_gibbs,
    potential_from_dict,
    shadow_vector,
)
from treegibbs.graph import materialize, orders_on, propagate_orders, tail_edge_id


def _reference_transfer_on(mat, fvals, s):
    states, arcs = arc_rows(mat)
    T = np.zeros((len(states), len(states)))
    for i, row in enumerate(arcs):
        for j, m in row:
            T[i, j] = m * math.exp(fvals[states[j]] - s)
    return states, T


def _reference_shadow_residual(F, delta, u, mat):
    F = F or Potential.zero(mat.core)
    fvals = F.on(mat)
    states, arcs = arc_rows(mat)
    worst = 0.0
    for e, row in zip(states, arcs):
        if not mat.is_interior(e):
            continue
        acc = 0.0
        for j, m in row:
            f = states[j]
            acc += m * math.exp(fvals[f] - delta) * u[f]
        worst = max(worst, abs(acc - u[e]))
    return worst


def _reference_p(gd, states):
    """``build_chain``'s kernel on the chain states ``states``."""
    mat = gd.mat
    arc_states, arcs = arc_rows(mat)
    delta = gd.delta
    fvals = gd.fvals
    up = gd.u_plus
    pos = {s: i for i, s in enumerate(states)}
    n = len(states)
    P = np.zeros((n, n))
    for e, row in zip(arc_states, arcs):
        if e in pos:
            for j, m in row:
                f = arc_states[j]
                if f in pos:
                    P[pos[e], pos[f]] = m * math.exp(fvals[f] - delta) * up[f] / up[e]
    return P


def _reference_max_cylinder(mc, gd):
    """``check_markov_property``'s cylinder sweep."""
    P, pi = mc.p, mc.pi
    inter = mc.interior
    max_cyl = 0.0
    mat = mc.mat
    rows, cols = np.nonzero(P)
    for i, j in zip(rows.tolist(), cols.tolist()):
        if not inter[i]:
            continue
        si, sj = mc.states[i], mc.states[j]
        direct = (
            gd.u_minus[mat.rev[si]]
            * gd.u_plus[sj]
            * math.exp(gd.fvals[si] + gd.fvals[sj] - 2.0 * gd.delta)
            * mat.multiplicity(si, sj)
            / float(mc.orders.edge(si))
        ) / mc.m_mass
        max_cyl = max(max_cyl, abs(direct - pi[i] * P[i, j]))
    return max_cyl


def _reference_orbit_counts(g, orders, F, n_max):
    """``orbit_oracle``'s float per-distance counts at the base of a finite
    quotient: the weighted path DP over ``arc_rows`` with the per-arc weight
    m exp(F(f)), identity included."""
    mat = materialize(g, 0)
    fvals = F.on(mat)
    base = g.base_vertex
    states, arcs = arc_rows(mat)
    order = float(orders_on(mat, orders).vertex(base))
    vec = [0.0] * len(states)
    for e in mat.out_edges(base):
        if e in states:
            vec[states.index(e)] = mat.index[mat.rev[e]] * math.exp(fvals[e])
    per = [order]
    for n in range(1, n_max + 1):
        tot = 0.0
        for e, v in zip(states, vec):
            if mat.term[e] == base and v != 0:
                tot = tot + v
        per.append(order * tot)
        new = [0.0] * len(states)
        for i, row in enumerate(arcs):
            if vec[i] != 0:
                for j, m in row:
                    new[j] = new[j] + vec[i] * (m * math.exp(fvals[states[j]]))
        vec = new
    return per


def _hex(M):
    return [x.hex() for x in np.asarray(M, dtype=float).ravel().tolist()]


def _first_bracket(g, F):
    """The exponent bisection's first upper bracket: one junction probe."""
    imax = max(g.index[e] for e in g.edges)
    for spec in g.tails:
        imax = max(imax, max(max(a, b) for a, b in spec.prefix + spec.period))
    fmax = max((abs(F.values.get(e, 0.0)) for e in g.edges), default=0.0)
    return math.log(imax + 1) + fmax + 2.0


def _assert_bits(g, F, depth=90):
    """T at s = 0, at delta and at one junction probe, then (when the solve
    and the chain exist) both shadow residuals, P and the cylinder residual.
    Returns the number of those that were compared."""
    op1 = TransferOperator(materialize(g, 1 if g.tails else 0), F)
    mat1, fvals1 = op1.mat, op1.fvals
    try:
        gd = compute_gibbs(g, F, depth)
    except TreeGibbsError:
        gd = None
    probe = _first_bracket(g, F)
    for s in [0.0, probe] + ([gd.delta] if gd else []):
        states, T = op1.states, op1.matrix(s)
        ref_states, R = _reference_transfer_on(mat1, fvals1, s)
        assert states == ref_states and _hex(T) == _hex(R), s
    greens = _greens(g, F, probe)
    if greens is not None:
        T = op1.matrix(probe, greens)
        _, R = _reference_transfer_on(mat1, fvals1, probe)
        for t, tg in enumerate(greens):
            e1, r1 = (arc_rows(mat1)[0].index(tail_edge_id(t, 1, up)) for up in (True, False))
            R[e1, r1] = tg.g(1)
        assert _hex(T) == _hex(R)
    if gd is None:
        return 1
    rev = F.reversed(g)
    for pot, u, got in ((F, gd.u_plus, gd.residual_plus), (rev, gd.u_minus, gd.residual_minus)):
        want = _reference_shadow_residual(pot, gd.delta, u, gd.mat)
        assert type(got) is float and got.hex() == want.hex()
    T = gd.op.matrix(gd.delta)
    assert _hex(T) == _hex(_reference_transfer_on(gd.mat, gd.fvals, gd.delta)[1])
    try:
        mc = build_chain(g, gd, propagate_orders(g))
    except TreeGibbsError:
        return 2
    assert _hex(mc.p) == _hex(_reference_p(gd, mc.states))
    got = check_markov_property(mc, gd).max_cylinder_residual
    assert type(got) is float and got.hex() == _reference_max_cylinder(mc, gd).hex()
    return 3


def _cases():
    for name in FINITE_FIXTURES + TAILED_FIXTURES + ("funnel_loop",):
        g = fx.get(name)
        yield name, g, Potential.zero(g)
    for name, pot, tail_values in potential_runs():
        g = fx.get(name)
        yield f"{name}+{pot}", g, potential_from_dict(g, {"tail_values": [dict(tail_index=0, **tail_values)]})
    g = bench_core(40)
    rng = random.Random(7)
    yield "bench_core_40+uniform", g, Potential({e: rng.uniform(-0.3, 0.3) for e in g.edges}, ())
    yield "bench_core_40", g, Potential.zero(g)


@pytest.mark.parametrize("case", list(_cases()), ids=lambda case: case[0])
def test_the_arc_array_operators_keep_the_loops_bits(case):
    _, g, F = case
    assert _assert_bits(g, F) == 3


@settings(deadline=None, derandomize=True, max_examples=25)
@given(tailed_graphs())
def test_the_arc_array_operators_keep_the_loops_bits_on_random_tails(drawn):
    g, F = drawn
    assume(not gibbs._is_zero(F))
    _assert_bits(g, F)


@pytest.mark.parametrize("name", FINITE_FIXTURES + ("bench_core_10",))
def test_the_float_orbit_counts_are_the_arc_loops(name):
    g = bench_core(10) if name == "bench_core_10" else fx.get(name)
    rng = random.Random(7)
    F = Potential({e: rng.uniform(-0.3, 0.3) for e in g.edges}, ())
    orders = propagate_orders(g)
    got = orbit_oracle(g, orders, F, g.base_vertex, 24)
    assert not got.exact
    want = _reference_orbit_counts(g, orders, F, 24)
    assert [x.hex() for x in got.per_distance] == [x.hex() for x in want]


def _counted_evaluations(monkeypatch):
    """Calls of ``Potential.on``, ``Potential.reversed`` and ``TransferOperator``'s constructor."""
    counts = Counter()
    for cls, name in ((Potential, "on"), (Potential, "reversed"), (TransferOperator, "__init__")):
        def counted(*args, _orig=getattr(cls, name), _name=name):
            counts[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(cls, name, counted)
    return counts


def _evaluation_cases():
    g = bench_core(40)
    rng = random.Random(7)
    yield "bench_core_40", g, Potential.zero(g), (1, 1, 1)
    yield "bench_core_40+uniform", g, Potential({e: rng.uniform(-0.3, 0.3) for e in g.edges}, ()), (3, 1, 3)
    g = fx.get("thick_ray_5")
    yield "thick_ray_5", g, Potential.zero(g), (2, 1, 2)
    g = fx.get("cusp_22")
    yield "cusp_22+edges", g, potential_from_dict(g, {"edges": {"c": 0.2, "cbar": 0.05}}), (5, 1, 5)


@pytest.mark.parametrize("case", list(_evaluation_cases()), ids=lambda case: case[0])
def test_a_gibbs_solve_evaluates_each_potential_once_per_window(monkeypatch, case):
    # one operator per potential solved on the junction graph (F; F reversed
    # when it differs; zero when F is not), reused as the window of a finite
    # quotient; a tailed one adds one per potential on the deep window
    _, g, F, want = case
    counts = _counted_evaluations(monkeypatch)
    compute_gibbs(g, F)
    assert (counts["on"], counts["reversed"], counts["__init__"]) == want


def _counted_power_runs(monkeypatch, replace=None):
    calls = []
    run = gibbs._power_run

    def counted(T, versus):
        calls.append(T.shape[0])
        rho, v = run(T, versus)
        return rho, (v if replace is None or v is None else replace(len(calls), v))

    monkeypatch.setattr(gibbs, "_power_run", counted)
    return calls


def test_the_exponents_iterate_is_the_shadow_on_a_large_finite_core(monkeypatch):
    g = bench_core(40)
    calls = _counted_power_runs(monkeypatch)
    gd = compute_gibbs(g)
    # one power run, the exponent's; the shadow solve makes none
    assert calls == [160]
    assert gd.residual_plus <= 1e-10


def test_the_reversed_iterate_serves_the_backward_shadow(monkeypatch):
    g = bench_core(40)
    rng = random.Random(7)
    F = Potential({e: rng.uniform(-0.3, 0.3) for e in g.edges}, ())
    assert F.reversed(g) != F
    calls = _counted_power_runs(monkeypatch)
    gd = compute_gibbs(g, F)
    # the forward, reversed and zero-potential exponents; no shadow run
    assert calls == [160, 160, 160]
    assert max(gd.residual_plus, gd.residual_minus) <= 1e-10


def test_an_exponent_iterate_off_the_gate_falls_back_to_the_shadows_own_run(monkeypatch):
    g = bench_core(40)
    # the exponent's iterate (the first run) forced off the gate
    calls = _counted_power_runs(monkeypatch, lambda k, v: np.arange(1.0, len(v) + 1.0) if k == 1 else v)
    got = compute_gibbs(g)
    assert calls == [160, 160]
    monkeypatch.undo()
    # the shadow solve as it runs without the exponent's iterate
    want = shadow_vector(g, None, got.delta)
    assert list(got.u_plus) == list(want)
    assert [v.hex() for v in got.u_plus.values()] == [v.hex() for v in want.values()]
