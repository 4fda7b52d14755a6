"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here.
"""

import math
import time
from fractions import Fraction

import numpy as np

from conftest import pipeline
from treegibbs import fixtures as fx
from treegibbs.chain import (
    check_markov_property,
    convolution_residual,
    mixing_rate_estimate,
    second_eigenvalue_modulus,
    taboo_matrix_powers,
    taboo_table,
)
from treegibbs.counting import (
    biregular_params,
    error_decay_report,
    orbit_oracle,
    renewal_constant,
    shadow_measure,
    sphere_size,
)
from treegibbs.cover import build_cover_ball, cover_census
from treegibbs.gibbs import compute_gibbs, critical_exponent, cusp_exponent_bound
from treegibbs.graph import propagate_orders, tail_edge_id
from treegibbs.wsg import degradation_probe, lemma_bound_check, search_certificate


def _report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_critical_exponents():
    checks = []
    t0 = time.perf_counter()
    d = critical_exponent(fx.single_edge(3, 3)).delta
    t_single = time.perf_counter() - t0
    checks.append(abs(d - math.log(2)) <= 1e-10 and t_single < 1.0)
    detail = [f"single edge: |delta - log 2| = {abs(d - math.log(2)):.2e} in {t_single:.3f}s"]
    for r, s in ((2, 4), (4, 4)):
        t0 = time.perf_counter()
        dd = critical_exponent(fx.biregular_edge(r, s)).delta
        dt = time.perf_counter() - t0
        err = abs(dd - 0.5 * math.log(r * s))
        checks.append(err <= 1e-10 and dt < 1.0)
        detail.append(f"({r},{s}): err {err:.2e} in {dt:.3f}s")
    _report(1, all(checks), "; ".join(detail))


def test_criterion_2_markov_property_residuals():
    worst = 0.0
    names = (
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
    for name in names:
        _, _, gd, mc = pipeline(name)
        rep = check_markov_property(mc, gd)
        worst = max(worst, rep.max_row_residual, rep.max_stationarity_residual)
    _report(2, worst <= 1e-12, f"max residual over {len(names)} fixtures = {worst:.2e}")


def test_criterion_3_cuspidal_closed_form_transitions():
    worst = 0.0
    for r, s in ((2, 2), (2, 4), (4, 4)):
        _, _, gd, mc = pipeline(f"cusp_{r}{s}")
        e2, e4 = math.exp(-2 * gd.delta), math.exp(-4 * gd.delta)
        p_odd = ((s - 1) * r * e2 + (r - 1) * r * s * e4) / ((r - 1) + (s - 1) * r * e2)
        p_even = ((r - 1) * s * e2 + (s - 1) * r * s * e4) / ((s - 1) + (r - 1) * s * e2)
        for n in range(1, 15):
            got = mc.p_of(tail_edge_id(0, n, True), tail_edge_id(0, n + 1, True))
            want = p_odd if n % 2 == 1 else p_even
            worst = max(worst, abs(got - want))
    _report(3, worst <= 1e-8, f"max |p - closed form| = {worst:.2e} over (2,2),(2,4),(4,4)")


def test_criterion_4_taboo_convolution_and_monotonicity():
    worst = 0.0
    mono_ok = True
    for name in ("single_edge_3", "parallel_edges", "two_loops"):
        _, _, _, mc = pipeline(name)
        for B in ((), (mc.states[0],), tuple(mc.states[:2])):
            pairs = [(i, j) for i in mc.states for j in mc.states]
            tab = taboo_table(mc, B, pairs, 40)
            for i, j in pairs:
                worst = max(worst, convolution_residual(tab, mc, i, j))
        small = taboo_matrix_powers(mc, (mc.states[0],), 40)
        large = taboo_matrix_powers(mc, tuple(mc.states[:2]), 40)
        for n in range(1, 41):
            if not (large[n] <= small[n] + 1e-15).all():
                mono_ok = False
    _, _, _, mc = pipeline("cusp_22")
    core = tuple(s for s in mc.states if not s.startswith("~"))
    probe_pairs = [(core[0], core[0]), (core[0], tail_edge_id(0, 2, True))]
    for B in ((), core):
        tab = taboo_table(mc, B, probe_pairs, 40)
        for i, j in probe_pairs:
            worst = max(worst, convolution_residual(tab, mc, i, j))
    _report(4, worst <= 1e-12 and mono_ok, f"max convolution residual = {worst:.2e}, monotone: {mono_ok}")


def test_criterion_5_wsg_certificates_and_taboo_bound():
    details = []
    ok = True
    for name in ("cusp_22", "cusp_24", "cusp_44", "thick_ray_5"):
        _, _, _, mc = pipeline(name)
        out = search_certificate(mc)
        got = out.feasible and out.infimum_rho < 1.0
        lem = lemma_bound_check(mc, out.certificate, 60) if got else None
        ok = ok and got and lem.violations == 0
        details.append(
            f"{name}: rho={out.infimum_rho:.6f}, violations={lem.violations if lem else 'n/a'}"
        )
    _report(5, ok, "; ".join(details))


def test_criterion_6_mixing_rates():
    details = []
    ok = True
    for name in ("parallel_edges", "two_loops"):
        _, _, _, mc = pipeline(name)
        i = mc.states[0]
        fit = mixing_rate_estimate(mc, i, i, 60)
        sec = second_eigenvalue_modulus(mc, mc.class_of(i))
        good = 0.0 < fit.theta < 1.0 and fit.r2 >= 0.99 and abs(fit.theta - sec) / sec <= 0.02
        ok = ok and good
        details.append(f"{name}: theta={fit.theta:.5f} vs |lambda_2|={sec:.5f}, R2={fit.r2:.4f}")
    _report(6, ok, "; ".join(details))


def test_criterion_7_degradation_probe():
    gamma = lambda n: 1.0 - 1.0 / (1.0 + abs(n))
    rows = degradation_probe(gamma, lambda n: 1.0, (10, 20, 40, 80))
    rhos = [r["rho"] for r in rows]
    increasing = all(b > a for a, b in zip(rhos, rhos[1:]))
    bound_ok = all(r["rho"] >= r["gamma_bound"] for r in rows)
    ok = increasing and rhos[-1] > 0.95 and bound_ok
    _report(
        7,
        ok,
        f"rho_N = {[round(r, 6) for r in rhos]}, increasing={increasing}, "
        f"last > 0.95: {rhos[-1] > 0.95}, drift floor respected: {bound_ok}",
    )


def test_criterion_8_counting_oracles():
    ok = True
    details = []
    # sphere sizes against explicit enumeration
    for qd in (2, 3):
        for qdp in (2, 3):
            g = fx.single_edge(i_e=qdp + 1, i_rev=qd + 1, base_value=1)
            params = biregular_params(g)
            census = cover_census(g, "a", 12)
            for j in range(7):
                total = sum(v for (lbl, d), v in census.items() if d == 2 * j)
                if total != sphere_size(params, j):
                    ok = False
    details.append("sphere sizes exact for (qd,qdp) in {2,3}^2, j <= 6")
    # oracle vs explicit ball on every convergent fixture
    for name in (
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
    ):
        g = fx.get(name)
        orders = propagate_orders(g)
        rep = orbit_oracle(g, orders, None, g.base_vertex, 4)
        counts = build_cover_ball(g, g.base_vertex, 4).label_counts()
        for n in range(5):
            if rep.per_distance[n] != counts[(g.base_vertex, n)] * orders.vertex(g.base_vertex):
                ok = False
    details.append("orbit oracle = ball counts (radius 4, all fixtures)")
    # renewal constant on the 3-regular lattice
    g, orders, gd, _ = pipeline("single_edge_3")
    rc = renewal_constant(g, orders)
    exact_ok = rc.exact == Fraction(6)
    series = orbit_oracle(g, orders, None, "a", 50).series()
    lim_err = abs(float(series[50]) * math.exp(-2 * gd.delta * 25) - 6.0)
    ok = ok and exact_ok and lim_err <= 1e-9
    details.append(f"C* exact = {rc.exact}, |N(50)e^(-50 delta) - 6| = {lim_err:.2e}")
    _report(8, ok, "; ".join(details))


def test_criterion_9_main_term_consistency():
    ok = True
    details = []
    for name in ("single_edge_3", "biregular_24", "biregular_44"):
        g, orders, gd, mc = pipeline(name)
        params = biregular_params(g)
        rep = error_decay_report(g, orders, None, gd, mc.m_mass, params, 10, 25)
        spread = max(rep.ratio_full) - min(rep.ratio_full)
        want = shadow_measure(gd, g, g.base_vertex, [rep.cone_edge])
        const_err = abs(rep.ratio_constants - want)
        cstar_err = abs(rep.full_constant / rep.cstar - 1.0)
        good = spread <= 1e-6 and const_err <= 1e-12 and cstar_err <= 1e-12
        ok = ok and good
        details.append(
            f"{name}: ratio spread {spread:.2e}, constant-ratio err {const_err:.2e}, "
            f"|full constant / C* - 1| {cstar_err:.2e}"
        )
    _report(9, ok, "; ".join(details))


def test_criterion_10_cusp_bound_margin():
    ok = True
    details = []
    for name in ("cusp_22", "cusp_24", "cusp_44"):
        g, _, gd, _ = pipeline(name)
        bound = cusp_exponent_bound(g.tails[0])
        margin = gd.delta - bound
        ok = ok and margin > 1e-6
        details.append(f"{name}: delta - bound = {margin:.6f}")
    _report(10, ok, "; ".join(details))
