import json
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import PIPELINE_FIXTURES, pipeline, tailed_graphs, write_fixtures
from treegibbs.chain import (
    MarkovChain,
    build_chain,
    check_markov_property,
    convolution_residual,
    correlation_decay,
    counterexample_chain,
    cyclic_classes,
    cylinder_mass,
    decay_fit,
    first_passage,
    mean_return_time,
    mixing_rate_estimate,
    periodic_classes,
    second_eigenvalue_modulus,
    taboo_matrix_powers,
    taboo_probability,
    taboo_table,
)
from treegibbs.errors import TreeGibbsError
from treegibbs import fixtures as fx
from treegibbs.gibbs import Potential, _joint_period, compute_gibbs
from treegibbs.graph import length_spectrum_period, propagate_orders, tail_edge_id, validate_graph


def test_two_state_chain(single_edge_pipeline):
    _, _, _, mc = single_edge_pipeline
    assert mc.states == ("e", "ebar")
    assert mc.p_of("e", "ebar") == 1.0 and mc.p_of("ebar", "e") == 1.0
    assert np.allclose(mc.pi, [0.5, 0.5])
    assert abs(mc.m_mass - 4.0 / 9.0) < 1e-15


def test_cuspidal_ray_closed_forms():
    # alternating up-transition probabilities on the cuspidal ray, both parities
    for (r, s) in ((2, 2), (2, 4), (4, 4)):
        g, _, gd, mc = pipeline(f"cusp_{r}{s}")
        e2 = math.exp(-2.0 * gd.delta)
        e4 = math.exp(-4.0 * gd.delta)
        p_odd = ((s - 1) * r * e2 + (r - 1) * r * s * e4) / ((r - 1) + (s - 1) * r * e2)
        p_even = ((r - 1) * s * e2 + (s - 1) * r * s * e4) / ((s - 1) + (r - 1) * s * e2)
        for n in range(1, 12):
            got = mc.p_of(tail_edge_id(0, n, True), tail_edge_id(0, n + 1, True))
            want = p_odd if n % 2 == 1 else p_even
            assert abs(got - want) < 1e-8, (r, s, n)


def test_cuspidal_downward_transitions_are_forced():
    _, _, _, mc = pipeline("cusp_24")
    for n in range(2, 12):
        assert abs(mc.p_of(tail_edge_id(0, n, False), tail_edge_id(0, n - 1, False)) - 1.0) < 1e-12


def test_markov_property_residuals_all_fixtures():
    for name in PIPELINE_FIXTURES:
        _, _, gd, mc = pipeline(name)
        rep = check_markov_property(mc, gd)
        assert rep.max_row_residual <= 1e-12, name
        assert rep.max_stationarity_residual <= 1e-12, name
        assert rep.max_cylinder_residual <= 1e-12, name
        assert rep.pi_sum_defect <= 1e-12, name


def test_corrupted_entry_is_detected_and_localized(single_edge_pipeline):
    _, _, gd, mc = single_edge_pipeline
    p_bad = mc.p.copy()
    p_bad[0, 1] += 1e-6
    bad = replace(mc, p=p_bad)
    rep = check_markov_property(bad, gd)
    assert rep.max_row_residual > 1e-7
    resid = np.abs(bad.pi @ p_bad - bad.pi)
    assert resid[1] > 1e-7 and resid[0] < 1e-14  # localized at the touched column


def test_periodic_classes_two_state(single_edge_pipeline):
    _, _, _, mc = single_edge_pipeline
    k, classes, kernels = periodic_classes(mc)
    assert k == 2
    assert sorted(map(len, classes)) == [1, 1]
    for K in kernels:
        assert np.allclose(K.sum(axis=1), 1.0)


def test_kstep_classes_are_aperiodic():
    for name in ("parallel_edges", "two_loops"):
        _, _, _, mc = pipeline(name)
        k, classes, kernels = periodic_classes(mc)
        for K in kernels:
            from treegibbs.chain import _cyclic_classes
            from treegibbs.digraph import from_arcs

            kk, _ = _cyclic_classes(from_arcs(*np.nonzero(K > 0), len(K)))
            assert kk == 1


def test_chain_period_matches_length_spectrum():
    for name in PIPELINE_FIXTURES:
        g, _, _, mc = pipeline(name)
        assert mc.period == length_spectrum_period(g), name


def test_taboo_trivial_cases(single_edge_pipeline):
    _, _, _, mc = single_edge_pipeline
    # empty taboo set reproduces plain n-step probabilities
    tab = taboo_probability(mc, (), "e", "ebar", 6)
    series = tab.p[("e", "ebar")]
    assert series[0] == 0.0 and series[1] == 1.0 and series[2] == 0.0 and series[3] == 1.0
    assert taboo_probability(mc, (), "e", "e", 4).p[("e", "e")][0] == 1.0
    # forced passage through the tabooed state kills the return
    tab2 = taboo_probability(mc, ("ebar",), "e", "e", 4)
    assert tab2.p[("e", "e")][2] == 0.0


def test_first_passage_two_state(single_edge_pipeline):
    _, _, _, mc = single_edge_pipeline
    f = first_passage(mc, (), "e", "e", 6).f[("e", "e")]
    assert f[1] == 0.0 and f[2] == 1.0 and f[3] == 0.0 and f[4] == 0.0
    f2 = first_passage(mc, (), "e", "ebar", 6).f[("e", "ebar")]
    assert f2[1] == 1.0 and f2[2] == 0.0


def test_convolution_identity_on_fixtures():
    for name in ("single_edge_3", "parallel_edges", "two_loops"):
        _, _, _, mc = pipeline(name)
        for B in ((), (mc.states[0],), tuple(mc.states[:2])):
            pairs = [(i, j) for i in mc.states for j in mc.states]
            tab = taboo_table(mc, B, pairs, 40)
            for i, j in pairs:
                assert convolution_residual(tab, mc, i, j) <= 1e-12, (name, B, i, j)


def test_convolution_identity_on_tailed_chain():
    _, _, _, mc = pipeline("cusp_22")
    core = [s for s in mc.states if not s.startswith("~")]
    some_tail = [tail_edge_id(0, 1, True), tail_edge_id(0, 2, False)]
    pairs = [(i, j) for i in core + some_tail for j in core + some_tail]
    for B in ((), tuple(core)):
        tab = taboo_table(mc, B, pairs, 40)
        for i, j in pairs:
            assert convolution_residual(tab, mc, i, j) <= 1e-12


def test_taboo_monotone_in_taboo_set():
    for name in ("parallel_edges", "two_loops"):
        _, _, _, mc = pipeline(name)
        small = taboo_matrix_powers(mc, (mc.states[0],), 25)
        large = taboo_matrix_powers(mc, tuple(mc.states[:2]), 25)
        for n in range(1, 26):
            assert (large[n] <= small[n] + 1e-15).all(), name


def test_chapman_kolmogorov():
    for name in ("single_edge_3", "two_loops", "cusp_22"):
        _, _, _, mc = pipeline(name)
        P = mc.p
        P5 = np.linalg.matrix_power(P, 5)
        P8 = np.linalg.matrix_power(P, 8)
        assert np.abs(P5 @ P8 - np.linalg.matrix_power(P, 13)).max() < 1e-12


def test_mean_return_time(single_edge_pipeline):
    _, _, _, mc = single_edge_pipeline
    mr = mean_return_time(mc, "e", 40)
    assert mr.estimate == 2.0 and mr.tail_bound == 0.0 and not mr.defective
    # positive-recurrent identity 1/mean = pi within the tail bound
    _, _, _, mc2 = pipeline("two_loops")
    mr2 = mean_return_time(mc2, "l1", 200)
    assert abs(1.0 / mr2.estimate - mc2.pi_of("l1")) <= max(mr2.tail_bound, 1e-12)
    _, _, _, mc3 = pipeline("cusp_22")
    core = [s for s in mc3.states if not s.startswith("~")]
    mr3 = mean_return_time(mc3, core[0], 70)
    assert abs(1.0 / mr3.estimate - mc3.pi_of(core[0])) <= mr3.tail_bound + 1e-12


def test_defective_return_mass_reported():
    # genuinely sub-stochastic kernel: mass escapes, return mass < 1
    P = np.array([[0.4, 0.3], [0.2, 0.5]])
    mc = MarkovChain.from_kernel(("x", "y"), P, pi=np.array([0.5, 0.5]))
    mr = mean_return_time(mc, "x", 60)
    assert mr.total_mass < 1.0 - 1e-6
    assert mr.defective


def test_mixing_two_state_exact(single_edge_pipeline):
    _, _, _, mc = single_edge_pipeline
    fit = mixing_rate_estimate(mc, "e", "e", 40)
    assert fit.exact and fit.theta == 0.0


def test_mixing_doubly_stochastic_exact():
    P = np.full((2, 2), 0.5)
    mc = MarkovChain.from_kernel(("x", "y"), P)
    fit = mixing_rate_estimate(mc, "x", "y", 30)
    assert fit.exact and fit.theta == 0.0


# the birth-death chain on 0..25 with forward probability 0.9 inside, built
# through from_kernel in a fresh interpreter, which prints the OpenBLAS core
# it runs on (read as scripts/artifact_digests.py reads it) and the law
_KERNEL_CHILD = """
import importlib.util, json, sys
import numpy as np
from treegibbs.chain import MarkovChain
spec = importlib.util.spec_from_file_location("artifact_digests", sys.argv[1])
digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(digests)
P = np.zeros((26, 26))
for i in range(1, 25):
    P[i, i + 1], P[i, i - 1] = 0.9, 1.0 - 0.9
P[0, 1] = P[25, 24] = 1.0
mc = MarkovChain.from_kernel(tuple(map(str, range(26))), P)
print(json.dumps({"core": digests.blas_core(), "pi": mc.pi.tolist()}))
"""


@pytest.mark.parametrize("core", ["Haswell", "Sandybridge"])
def test_from_kernel_law_does_not_depend_on_the_blas_kernel(core):
    import os
    import pathlib
    import subprocess
    import sys

    root = pathlib.Path(__file__).parents[1]
    env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), env.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", _KERNEL_CHILD, str(root / "scripts" / "artifact_digests.py")],
        env=env, capture_output=True, text=True, check=True,
    )
    got = json.loads(out.stdout)
    if got["core"].lower() != core.lower():
        pytest.skip(f"OpenBLAS runs {got['core']}, not {core}")
    # detailed balance: pi_{i+1} / pi_i = p(i, i+1) / p(i+1, i), true entries down to 5.6e-24
    up = [1.0] + [0.9] * 24
    down = [1.0 - 0.9] * 24 + [1.0]
    law = [1.0]
    for u, d in zip(up, down):
        law.append(law[-1] * u / d)
    law = np.array(law) / math.fsum(law)
    pi = np.array(got["pi"])
    assert pi.min() > 0.0
    assert np.max(np.abs(pi - law) / law) <= 1e-14


def test_mixing_rates_match_second_eigenvalue():
    for name, expected in (("parallel_edges", 1.0 / 9.0), ("two_loops", 1.0 / 3.0)):
        _, _, _, mc = pipeline(name)
        i = mc.states[0]
        fit = mixing_rate_estimate(mc, i, i, 60)
        sec = second_eigenvalue_modulus(mc, mc.class_of(i))
        assert 0.0 < fit.theta < 1.0
        assert fit.r2 >= 0.99
        assert abs(fit.theta - sec) / sec < 0.02
        assert abs(sec - expected) < 1e-12


def test_decay_fit_drops_points_at_their_rounding_floor():
    # the floor is 1e-13 n |scale|: n = 1 sits on it, n = 5 below it
    ns = (1, 2, 3, 4, 5)
    dists = (1e-13 * 1 * 2.0, 0.5, -0.25, 0.125, 1e-13)
    slope, intercept, r2, n_points = decay_fit(ns, dists, (2.0,) * 5)
    assert n_points == 3
    # d = 2^(1 - n) on the three points left
    assert abs(slope - math.log(0.5)) < 1e-12 and abs(intercept - math.log(2.0)) < 1e-12
    assert abs(r2 - 1.0) < 1e-12
    # scale 0 keeps every non-zero distance
    assert decay_fit(ns, dists, (0.0,) * 5)[3] == 5
    # fewer than three points above the floor give no fit
    assert decay_fit(ns, dists, (1e12,) * 5) is None
    assert decay_fit(ns[:2], dists[1:3], (0.0, 0.0)) is None


def test_mixing_requires_same_class(single_edge_pipeline):
    _, _, _, mc = single_edge_pipeline
    with pytest.raises(ValueError):
        mixing_rate_estimate(mc, "e", "ebar", 20)


def test_correlation_trivial_and_base_case():
    _, _, _, mc = pipeline("two_loops")
    cov = correlation_decay(mc, (), ("l1",), 10)
    assert all(c == 0.0 for c in cov.cov)
    # n = len(a): direct two-cylinder difference
    cov2 = correlation_decay(mc, ("l1",), ("l2",), 10)
    direct = cylinder_mass(mc, ("l1", "l2")) - cylinder_mass(mc, ("l1",)) * cylinder_mass(mc, ("l2",))
    assert abs(cov2.cov[0] - direct) < 1e-15


def test_correlation_envelope_holds():
    _, _, _, mc = pipeline("two_loops")
    fit = mixing_rate_estimate(mc, "l1", "l2", 60)
    cov = correlation_decay(mc, ("l1",), ("l2",), 40, fit)
    assert cov.envelope_ok


def test_inadmissible_word_rejected():
    _, _, _, mc = pipeline("single_edge_3")
    with pytest.raises(ValueError):
        cylinder_mass(mc, ("e", "e"))


def test_counterexample_chain_basics():
    mc = counterexample_chain(lambda n: 0.5, lambda n: 1.0, 1)
    assert np.allclose(mc.p.sum(axis=1), 1.0)
    assert abs(mc.pi @ mc.p - mc.pi).max() < 1e-15
    # mean return to the hub: 1 + sum beta/(1 - gamma)
    mr = mean_return_time(mc, "inf", 400)
    assert abs(mr.estimate - (1.0 + 1.0 / (1.0 - 0.5))) < 1e-10
    # N = 0: two-state chain
    mc0 = counterexample_chain(lambda n: 0.25, lambda n: 1.0, 0)
    assert len(mc0.states) == 2
    with pytest.raises(ValueError):
        counterexample_chain(lambda n: 1.0, lambda n: 1.0, 2)


def test_counterexample_mean_return_formula():
    gam = lambda n: 1.0 - 1.0 / (2.0 + abs(n))
    bet = lambda n: 1.0
    N = 3
    mc = counterexample_chain(gam, bet, N)
    want = sum((1.0 / (2 * N + 1)) * (1.0 / (1.0 - gam(n)) + 1.0) for n in range(-N, N + 1))
    mr = mean_return_time(mc, "inf", 3000)
    assert abs(mr.estimate - want) < 1e-9


# -- randomized kernel properties -------------------------------------------


@st.composite
def stochastic_chains(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    rows = []
    for _ in range(n):
        w = [draw(st.integers(min_value=1, max_value=9)) for _ in range(n)]
        tot = sum(w)
        rows.append([x / tot for x in w])
    return MarkovChain.from_kernel(tuple(f"s{i}" for i in range(n)), np.array(rows))


@settings(max_examples=40, deadline=None)
@given(stochastic_chains(), st.integers(min_value=0, max_value=2))
def test_random_convolution_and_monotonicity(mc, bsize):
    B = tuple(mc.states[:bsize])
    pairs = [(i, j) for i in mc.states for j in mc.states]
    tab = taboo_table(mc, B, pairs, 15)
    for i, j in pairs:
        assert convolution_residual(tab, mc, i, j) <= 1e-12
    if bsize >= 1:
        small = taboo_matrix_powers(mc, B[:1], 10)
        large = taboo_matrix_powers(mc, B[: max(1, bsize)], 10)
        for nn in range(1, 11):
            assert (large[nn] <= small[nn] + 1e-15).all()


def test_taboo_entries_stay_probabilities():
    for name in ("two_loops", "cusp_22"):
        _, _, _, mc = pipeline(name)
        mats = taboo_matrix_powers(mc, (mc.states[0],), 30)
        for M in mats:
            assert M.min() >= 0.0 and M.max() <= 1.0 + 1e-12


@settings(deadline=None, derandomize=True, max_examples=30)
@given(tailed_graphs())
def test_tail_blocks_repeat_over_the_joint_period(drawn):
    g, F = drawn
    assume(validate_graph(g).ok)
    try:
        gd = compute_gibbs(g, F, depth=40)
        mc = build_chain(g, gd, propagate_orders(g))
    except TreeGibbsError:
        return
    for t, spec in enumerate(g.tails):
        blk = mc.tails[t]
        assert (blk.start, blk.period) == _joint_period(spec, F.tail(t))
        for series in (blk.p_up, blk.p_turn, blk.p_dn, blk.p_re):
            for n in series:
                if n >= blk.start and n + blk.period in series:
                    assert abs(series[n] - series[n + blk.period]) <= 1e-11
    rep = check_markov_property(mc)
    assert rep.max_row_residual <= 1e-8
    assert rep.max_stationarity_residual <= 1e-9


def test_cyclic_classes_are_the_periodic_classes():
    for name in PIPELINE_FIXTURES:
        mc = pipeline(name)[3]
        assert cyclic_classes(mc) == periodic_classes(mc)[1], name
    mc = counterexample_chain(lambda n: 0.5, lambda n: 1.0, 3)
    assert cyclic_classes(mc) == periodic_classes(mc)[1]


@pytest.mark.parametrize("command, powers", [("chain", 0), ("mix", 1)])
def test_chain_and_mix_compute_no_unused_kernel_power(tmp_path, monkeypatch, command, powers):
    from treegibbs.cli import main

    graph = write_fixtures(str(tmp_path))["thick_ray_5"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph": graph}))
    calls = []
    matrix_power = np.linalg.matrix_power

    def counted(a, n):
        calls.append(n)
        return matrix_power(a, n)

    monkeypatch.setattr(np.linalg, "matrix_power", counted)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    # mix raises P to the period once, for second_eigenvalue_modulus
    assert len(calls) == powers


@pytest.mark.parametrize(
    "name", ["parallel_edges", "two_loops", "biregular_24", "cusp_22", "thick_ray_5", "cusp_24"]
)
def test_variational_principle(name):
    # h + sum_e pi(e) F(e) = delta for the equilibrium state of F, with the
    # entropy h = -sum pi(e) P(e, f) log(P(e, f) / m(e, f)) of the chain:
    # P and pi against the exponent solve, by a route that does not telescope
    g = fx.get(name)
    rng = random.Random(7)
    F = Potential({e: rng.uniform(-0.3, 0.3) for e in g.edges}, ())
    gd = compute_gibbs(g, F, depth=90)
    mc = build_chain(g, gd, propagate_orders(g))
    pi = mc.pi / mc.pi.sum()
    h = 0.0
    mean_f = 0.0
    for i, e in enumerate(mc.states):
        mean_f += pi[i] * gd.fvals[e]
        for j in np.nonzero(mc.p[i])[0]:
            p = mc.p[i, j]
            h -= pi[i] * p * math.log(p / mc.mat.multiplicity(e, mc.states[j]))
    assert abs(h + mean_f - gd.delta) <= 1e-12
