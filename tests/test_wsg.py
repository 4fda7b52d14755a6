import math
import random
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
from treegibbs import chain as chain_module
from treegibbs import wsg as wsg_module
from treegibbs.chain import KernelBlocks, MarkovChain, build_chain, counterexample_chain, taboo_matrix_powers
from treegibbs.digraph import from_matrix
from treegibbs.errors import NoGeometricDriftError, TreeGibbsError
from treegibbs.gibbs import compute_gibbs, potential_from_dict, spectral_radius
from treegibbs.graph import (
    graph_from_dict,
    graph_to_dict,
    propagate_orders,
    tail_edge_id,
    validate_graph,
)
from treegibbs.wsg import (
    VALUE_CAP,
    DriftCertificate,
    DriftReport,
    LemmaBoundReport,
    SearchOutcome,
    _symbolic_tail_check,
    _tail_form,
    degradation_probe,
    lemma_bound_check,
    search_certificate,
    tail_certificate,
    verify_certificate,
)


def birth_death_chain(N=30, p_fwd=1.0 / 3.0):
    states = tuple(str(i) for i in range(N + 1))
    P = np.zeros((N + 1, N + 1))
    for i in range(1, N):
        P[i, i + 1] = p_fwd
        P[i, i - 1] = 1.0 - p_fwd
    P[0, 1] = 1.0
    P[N, N - 1] = 1.0
    return MarkovChain.from_kernel(states, P)


def test_vacuous_certificate_with_full_taboo_set(single_edge_pipeline):
    _, _, _, mc = single_edge_pipeline
    cert = DriftCertificate(t_core={s: 1.0 for s in mc.states}, B=tuple(mc.states), rho=0.5)
    rep = verify_certificate(mc, cert)
    assert rep.ok and rep.max_ratio == 0.0


def test_birth_death_drift_ratio_sqrt2():
    mc = birth_death_chain()
    t = {s: 2.0 ** (int(s) / 2.0) for s in mc.states}
    cert = DriftCertificate(t_core=t, B=("0", "30"), rho=0.943)
    rep = verify_certificate(mc, cert)
    assert rep.ok
    assert abs(rep.max_ratio - 2.0 * math.sqrt(2.0) / 3.0) < 1e-12


def test_birth_death_doubling_weights_fail():
    mc = birth_death_chain()
    t = {s: 2.0 ** int(s) for s in mc.states}
    cert = DriftCertificate(t_core=t, B=("0", "30"), rho=0.999)
    rep = verify_certificate(mc, cert)
    assert not rep.ok
    assert abs(rep.max_ratio - 1.0) < 1e-12


def test_missing_weight_raises(single_edge_pipeline):
    _, _, _, mc = single_edge_pipeline
    cert = DriftCertificate(t_core={"e": 1.0}, B=(), rho=0.9)
    with pytest.raises(KeyError):
        verify_certificate(mc, cert)


def test_birth_death_lemma_bound_replay():
    mc = birth_death_chain()
    t = {s: 2.0 ** (int(s) / 2.0) for s in mc.states}
    cert = DriftCertificate(t_core=t, B=("0", "30"), rho=0.943)
    rep = lemma_bound_check(mc, cert, 60)
    assert rep.violations == 0
    assert rep.return_bound_ok


def test_tail_certificate_cuspidal():
    _, _, _, mc = pipeline("cusp_22")
    cert = tail_certificate(mc)
    assert cert.rho < 1.0
    assert cert.tails[0].form == "qbd"
    # best cuspidal ratio approaches (prod p over a period)^(1/(2L))
    blk = mc.tails[0]
    start, L = blk.start, blk.period
    prod = 1.0
    for off in range(L):
        prod *= blk.p_up[start + L + off]
    assert cert.rho >= prod ** (1.0 / (2 * L)) - 1e-9
    assert cert.rho <= prod ** (1.0 / (2 * L)) * (1.0 + 1e-6)
    assert verify_certificate(mc, cert).ok


def test_tail_certificate_thick_ray():
    _, _, _, mc = pipeline("thick_ray_5")
    cert = tail_certificate(mc)
    assert cert.rho < 1.0
    assert verify_certificate(mc, cert).ok
    rep = lemma_bound_check(mc, cert, 60)
    assert rep.violations == 0


def test_drifting_away_tail_has_no_certificate():
    # birth-death with forward probability 0.9: every geometric profile fails
    mc = birth_death_chain(N=25, p_fwd=0.9)
    out = search_certificate(mc, B0=("0",))
    assert not out.feasible


def test_search_certificate_finite_core():
    for name in ("two_loops", "parallel_edges"):
        _, _, _, mc = pipeline(name)
        out = search_certificate(mc)
        assert out.feasible and out.infimum_rho < 1.0
        assert verify_certificate(mc, out.certificate).ok, name


# every tailed run of scripts/artifact_digests.py: the tailed fixtures, the
# tail potentials and the core-edge potential on cusp_22
_TAILED_RUNS = (
    [pytest.param(name, None, id=name) for name in TAILED_FIXTURES]
    + [
        pytest.param(name, {"tail_values": [dict(tail_index=0, **values)]}, id=f"{name}+{pot}")
        for name, pot, values in potential_runs()
    ]
    + [pytest.param("cusp_22", {"edges": {"c": 0.2, "cbar": 0.05}}, id="cusp_22+edges")]
)


@pytest.mark.parametrize("depth", [80, 90])
@pytest.mark.parametrize("name, potential", _TAILED_RUNS)
def test_search_matches_analytic_on_cusp(name, potential, depth):
    # with B every core state no state is free: the search's weights are 1 on
    # B and the tail forms elsewhere, and its rho the largest tail-form ratio,
    # so wsg's analytic certificate is the search's plus 1e-9
    if potential is None:
        mc = pipeline(name, depth)[3]
    else:
        g = fx.get(name)
        gd = compute_gibbs(g, potential_from_dict(g, potential), depth=depth)
        mc = build_chain(g, gd, propagate_orders(g))
    cert = tail_certificate(mc)
    out = search_certificate(mc)
    assert out.feasible
    assert cert.rho == min(out.infimum_rho + 1e-9, 1.0 - 1e-12)
    assert cert.B == out.certificate.B
    assert cert.t_core == out.certificate.t_core
    assert cert.tails == out.certificate.tails
    assert verify_certificate(mc, out.certificate).ok


def test_search_monotone_in_taboo_set():
    _, _, _, mc = pipeline("two_loops")
    small = search_certificate(mc, B0=(mc.states[0],))
    large = search_certificate(mc, B0=tuple(mc.states[:2]))
    assert small.feasible and large.feasible
    assert large.infimum_rho <= small.infimum_rho + 1e-6


def test_lemma_bound_on_searched_certificates():
    for name in ("cusp_22", "cusp_24", "cusp_44", "thick_ray_5"):
        _, _, _, mc = pipeline(name)
        out = search_certificate(mc)
        assert out.feasible and out.infimum_rho < 1.0, name
        rep = lemma_bound_check(mc, out.certificate, 60)
        assert rep.violations == 0, name
        assert rep.return_bound_ok, name


def test_degradation_probe_increases_to_one():
    gamma = lambda n: 1.0 - 1.0 / (1.0 + abs(n))
    rows = degradation_probe(gamma, lambda n: 1.0, (10, 20, 40, 80))
    rhos = [r["rho"] for r in rows]
    assert all(b > a for a, b in zip(rhos, rhos[1:]))
    assert rhos[-1] > 0.95
    for r in rows:
        assert r["rho"] >= r["gamma_bound"]


def test_degradation_probe_constant_gamma_stabilizes():
    rows = degradation_probe(lambda n: 0.5, lambda n: 1.0, (5, 10, 20))
    rhos = [r["rho"] for r in rows]
    assert max(rhos) - min(rhos) < 1e-9
    assert abs(rhos[0] - 0.5) < 1e-3


def test_degradation_probe_single_satellite():
    rows = degradation_probe(lambda n: 0.25, lambda n: 1.0, (0,))
    assert rows[0]["feasible"]
    assert abs(rows[0]["rho"] - 0.25) < 1e-3


def test_satellite_drift_floor():
    # at any satellite the drift ratio is at least gamma_n, whatever t does
    gamma = lambda n: 1.0 - 1.0 / (1.0 + abs(n))
    mc = counterexample_chain(gamma, lambda n: 1.0, 10)
    t = {s: (100.0 if s != "inf" else 1.0) for s in mc.states}
    cert = DriftCertificate(t_core=t, B=("inf",), rho=0.95)
    rep = verify_certificate(mc, cert)
    gmax = max(gamma(n) for n in range(-10, 11))
    assert rep.max_ratio >= gmax - 1e-12


def test_lemma_bound_vacuous_with_full_taboo_set(single_edge_pipeline):
    _, _, _, mc = single_edge_pipeline
    cert = DriftCertificate(t_core={s: 1.0 for s in mc.states}, B=tuple(mc.states), rho=0.5)
    rep = lemma_bound_check(mc, cert, 20)
    assert rep.violations == 0 and rep.return_bound_ok


def test_search_with_core_subset_on_tailed_chain():
    _, _, _, mc = pipeline("cusp_22")
    core = tuple(s for s in mc.states if not s.startswith("~"))
    out = search_certificate(mc, B0=core[:1])
    assert out.feasible and out.infimum_rho < 1.0
    assert verify_certificate(mc, out.certificate).ok


# ---------------------------------------------------------------------------
# the search against its per-probe reference


def _reference_minimal_supersolution(mc, Bset, rho, t_boundary):
    """The free block and its spectral radius rebuilt at every probe."""
    t = np.ones(len(mc.states))
    for i, s in enumerate(mc.states):
        if s in Bset:
            t[i] = 1.0
        elif s in t_boundary:
            t[i] = t_boundary[s]
    free = [
        i
        for i, s in enumerate(mc.states)
        if s not in Bset and s not in t_boundary and mc.interior[i]
    ]
    if not free:
        return t
    fset = set(free)
    idx = np.array(free, dtype=int)
    other = np.array([i for i in range(len(mc.states)) if i not in fset], dtype=int)
    block = mc.p[np.ix_(idx, idx)]
    if spectral_radius(block) >= rho:
        return None
    rhs = (mc.p[np.ix_(idx, other)] @ t[other]) / rho
    try:
        sol = np.linalg.solve(np.eye(len(idx)) - block / rho, rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(sol).all() or sol.min() <= 0 or sol.max() > VALUE_CAP:
        return None
    t[idx] = sol
    return t


def _reference_free_radius(mc, Bset):
    """rho(P_ff) on the states outside B, off the tails and interior; 0 when
    there are none."""
    mat = mc.mat
    free = [
        i
        for i, s in enumerate(mc.states)
        if s not in Bset
        and not (mat is not None and mat.edge_meta[s][0] == "tail")
        and mc.interior[i]
    ]
    return spectral_radius(mc.p[np.ix_(free, free)]) if free else 0.0


def _reference_search(mc, B0=None, rho_tol=1e-6):
    """Bisection on rho with the free block's Perron value found per probe."""
    mat = mc.mat
    has_tails = bool(mat is not None and mat.core.tails)
    if B0 is not None:
        Bset = set(B0)
    elif has_tails:
        Bset = {s for s in mc.states if mat.edge_meta[s][0] == "core"}
    else:
        Bset = {mc.states[0]}

    def tail_feasible(rho):
        forms = [_tail_form(mc, t) for t in range(len(mat.core.tails))] if has_tails else []
        if any(tf is None or tf.rho > rho for tf in forms):
            return None
        return forms

    def feasible(rho):
        forms = tail_feasible(rho)
        if forms is None:
            return None
        for _ in range(8):
            boundary = {}
            if has_tails:
                for s in mc.states:
                    meta = mat.edge_meta[s]
                    if meta[0] == "tail" and s not in Bset:
                        _, t, n, up = meta
                        boundary[s] = forms[t].value(n, up)
            t_vec = _reference_minimal_supersolution(mc, Bset, rho, boundary)
            if t_vec is None:
                return None
            t_core = {
                s: float(t_vec[i])
                for i, s in enumerate(mc.states)
                if (mat is None or mat.edge_meta[s][0] == "core")
            }
            cert = DriftCertificate(t_core, tuple(sorted(Bset)), rho, tuple(forms), "search")
            if verify_certificate(mc, cert).ok:
                return cert
            if not has_tails:
                return None
            bumped = False
            for t in range(len(mat.core.tails)):
                r1 = tail_edge_id(t, 1, False)
                if r1 not in mc.states or r1 in Bset:
                    continue
                i1 = mc.pos(r1)
                acc = sum(
                    mc.p[i1, int(j)] * cert.weight(mc, mc.states[int(j)])
                    for j in np.nonzero(mc.p[i1])[0]
                )
                ratio = acc / cert.weight(mc, r1)
                if ratio > rho:
                    forms[t] = forms[t].scaled(ratio / rho * (1.0 + 1e-9))
                    bumped = True
            if not bumped:
                return None
        return None

    hi = 1.0 - 1e-9
    # the search starts at the largest tail form ratio or rho_tol above
    # rho(P_ff), whichever is larger, and bisects only when that is rejected
    forms = [_tail_form(mc, t) for t in range(len(mat.core.tails))] if has_tails else []
    rho_ff = _reference_free_radius(mc, Bset)
    lo = max([rho_ff * (1.0 + rho_tol)] + [tf.rho for tf in forms if tf is not None])
    floor = feasible(lo) if 0.0 < lo < hi else None
    if floor is not None:
        return SearchOutcome(floor, True, lo, ())
    top = feasible(hi)
    if top is None:
        return SearchOutcome(None, False, 1.0, ("no certificate even at rho ~ 1",))
    best = top
    while hi - lo > rho_tol:
        mid = 0.5 * (lo + hi)
        cand = feasible(mid)
        if cand is not None:
            best, hi = cand, mid
        else:
            lo = mid
    return SearchOutcome(best, True, hi, ())


def _random_unimodular_chain(seed):
    """Chain of a random connected core on 2..20 vertices with symmetric
    indices (so unimodular), every lift degree at least 3."""
    rng = random.Random(seed)
    V = rng.randint(2, 20)
    pairs = [(rng.randrange(v), v) for v in range(1, V)]
    pairs += [tuple(rng.sample(range(V), 2)) for _ in range(rng.randint(1, V))]
    index = [rng.randint(1, 3) for _ in pairs]
    for v in range(V):
        k = next(k for k, p in enumerate(pairs) if v in p)
        lift = sum(i for p, i in zip(pairs, index) if v in p)
        index[k] += max(0, 3 - lift)
    edges = []
    for k, ((u, v), i) in enumerate(zip(pairs, index)):
        edges += [
            {"id": f"e{k}", "rev": f"e{k}r", "from": f"v{u}", "to": f"v{v}", "index": i},
            {"id": f"e{k}r", "rev": f"e{k}", "from": f"v{v}", "to": f"v{u}", "index": i},
        ]
    g = graph_from_dict(
        {
            "vertices": [f"v{k}" for k in range(V)],
            "edges": edges,
            "tails": [],
            "funnels": [],
            "orders": {"base_vertex": "v0", "base_value": "1"},
        }
    )
    return build_chain(g, compute_gibbs(g), propagate_orders(g))


def _search_cases():
    for name in FINITE_FIXTURES:
        mc = pipeline(name)[3]
        yield name, mc, None
        yield f"{name}-B2", mc, tuple(mc.states[:2])
    gamma = lambda n: 1.0 - 1.0 / (1.0 + abs(n))
    for N in range(2, 9):
        yield f"star-{N}", counterexample_chain(gamma, lambda n: 1.0, N), ("inf",)
    for seed in range(6):
        yield f"unimodular-{seed}", _random_unimodular_chain(seed), None
    yield "birth-death", birth_death_chain(), ("0", "30")
    yield "drifting-birth-death", birth_death_chain(N=25, p_fwd=0.9), ("0",)
    # one core state in B leaves the other free; "c" steps into the tail
    for name in TAILED_FIXTURES:
        mc = pipeline(name)[3]
        for s in mc.states:
            if not s.startswith("~"):
                yield f"{name}-{s}", mc, (s,)


def test_search_matches_the_per_probe_reference(monkeypatch):
    import treegibbs.wsg as wsg

    calls = []

    def counted(T):
        calls.append(T.shape)
        return spectral_radius(T)

    monkeypatch.setattr(wsg, "spectral_radius", counted)
    for name, mc, B0 in _search_cases():
        want = _reference_search(mc, B0)
        calls.clear()
        got = search_certificate(mc, B0)
        assert len(calls) <= 1, name
        assert got.feasible == want.feasible, name
        assert got.infimum_rho == want.infimum_rho, name
        if want.certificate is None:
            assert got.certificate is None, name
            continue
        assert got.certificate.rho == want.certificate.rho, name
        assert got.certificate.t_core == want.certificate.t_core, name


def _floor_cases():
    """The finite search cases, and the star family for N = 2..48."""
    for name, mc, B0 in _search_cases():
        if mc.mat is None or not mc.mat.core.tails:
            yield name, mc, B0
    gamma = lambda n: 1.0 - 1.0 / (1.0 + abs(n))
    for N in range(9, 49):
        yield f"star-{N}", counterexample_chain(gamma, lambda n: 1.0, N), ("inf",)


def _counting_solves(monkeypatch):
    """Record (candidate, taboo block) of every ``_minimal_supersolution``
    call."""
    import treegibbs.wsg as wsg

    solves = []
    solve = wsg._minimal_supersolution

    def counted(mc, Bset, rho, t_boundary, taboo):
        solves.append((rho, taboo))
        return solve(mc, Bset, rho, t_boundary, taboo)

    monkeypatch.setattr(wsg, "_minimal_supersolution", counted)
    return solves


def test_finite_search_is_one_solve_at_the_floor(monkeypatch):
    import treegibbs.wsg as wsg

    solves = _counting_solves(monkeypatch)
    verifies = []
    verify = wsg.verify_certificate

    def counted_verify(mc, cert):
        verifies.append(cert.rho)
        return verify(mc, cert)

    monkeypatch.setattr(wsg, "verify_certificate", counted_verify)
    rho_tol, seen = 1e-6, 0
    for name, mc, B0 in _floor_cases():
        solves.clear()
        verifies.clear()
        out = search_certificate(mc, B0)
        # no free states, or rho(P_ff) = 0: the search keeps the bisection
        taboo = solves[0][1]
        rho_ff = taboo.rho_ff if taboo is not None else 0.0
        if name == "drifting-birth-death" or rho_ff == 0.0:
            continue
        seen += 1
        assert len(solves) == 1 and len(verifies) == 1, name
        assert out.feasible, name
        assert rho_ff < out.infimum_rho <= rho_ff * (1.0 + rho_tol), name
        cert = out.certificate
        assert cert.rho == out.infimum_rho, name
        assert verify_certificate(mc, cert).ok, name
        assert lemma_bound_check(mc, cert, 60).violations == 0, name
        # weights near rho(P_ff) grow like 1 / rho_tol; the cap does not bind,
        # not even as rho climbs towards 1 on the star family
        top = max(cert.t_core.values())
        assert top <= VALUE_CAP / (1000.0 if name.startswith("star") else 50.0), name
    assert seen >= 50


def _fallback_cases():
    for name in FINITE_FIXTURES:
        mc = pipeline(name)[3]
        yield name, mc, None
    gamma = lambda n: 1.0 - 1.0 / (1.0 + abs(n))
    for N in (2, 5, 8):
        yield f"star-{N}", counterexample_chain(gamma, lambda n: 1.0, N), ("inf",)
    for seed in range(3):
        yield f"unimodular-{seed}", _random_unimodular_chain(seed), None
    yield "birth-death", birth_death_chain(), ("0", "30")


def test_a_rejected_floor_falls_back_to_the_reference_bisection(monkeypatch):
    import sys

    import treegibbs.wsg as wsg

    seen = 0
    for name, mc, B0 in _fallback_cases():
        if _reference_free_radius(mc, set(B0 or mc.states[:1])) == 0.0:
            continue  # no floor to reject
        floor = search_certificate(mc, B0)
        # a cap below the floor's largest weight rejects the floor
        cap = max(floor.certificate.t_core.values()) / 10.0
        with monkeypatch.context() as m:
            m.setattr(wsg, "VALUE_CAP", cap)
            m.setattr(sys.modules[__name__], "VALUE_CAP", cap)
            want = _reference_search(mc, B0)
            got = search_certificate(mc, B0)
        seen += 1
        assert got.feasible and want.feasible, name
        assert got.infimum_rho == want.infimum_rho > floor.infimum_rho, name
        assert got.certificate.rho == want.certificate.rho, name
        assert got.certificate.t_core == want.certificate.t_core, name
        assert max(got.certificate.t_core.values()) <= cap, name
        assert verify_certificate(mc, got.certificate).ok, name
    assert seen >= 8


# ``search_certificate(mc).infimum_rho`` on these chains before the floor rule
_BISECTED_RHO = float.fromhex("0x1.fffffff768fa1p-21")


@pytest.mark.parametrize("name", ["single_edge_3", "biregular_24", "biregular_44"])
def test_chains_without_a_taboo_perron_value_keep_the_bisection(name, monkeypatch):
    mc = pipeline(name)[3]
    assert _reference_free_radius(mc, {mc.states[0]}) == 0.0
    solves = _counting_solves(monkeypatch)
    out = search_certificate(mc)
    # hi = 1 - 1e-9, then 20 halvings down to rho_tol
    assert len(solves) == 21
    assert out.infimum_rho == out.certificate.rho == _BISECTED_RHO
    want = _reference_search(mc)
    assert out.infimum_rho == want.infimum_rho
    assert out.certificate.t_core == want.certificate.t_core
    assert verify_certificate(mc, out.certificate).ok


def test_tail_certificate_takes_no_tail_index():
    import inspect

    assert "tail_index" not in inspect.signature(tail_certificate).parameters
    mc = _two_cusp_chain("b")
    cert = tail_certificate(mc)
    assert all(tf is not None for tf in cert.tails) and len(cert.tails) == 2


# ---------------------------------------------------------------------------
# verification and replay against their per-nonzero and list references


def _reference_verify(mc, cert, tol=1e-10):
    """Drift ratios by a loop over each row's nonzeros, reading a weight at
    every use."""
    Bset = set(cert.B)
    ratios = {}
    worst = ("", 0.0)
    for i, s in enumerate(mc.states):
        if s in Bset or not mc.interior[i]:
            continue
        ti = cert.weight(mc, s)
        if ti <= 0:
            return DriftReport(False, float("inf"), s, ratios, notes=(f"t({s}) <= 0",))
        acc = 0.0
        for j in np.nonzero(mc.p[i])[0]:
            acc += mc.p[i, int(j)] * cert.weight(mc, mc.states[int(j)])
        r = float(acc / ti)
        ratios[s] = r
        if r > worst[1]:
            worst = (s, r)
    symbolic_ok, notes = _symbolic_tail_check(mc, cert, tol)
    ok = worst[1] <= cert.rho + tol and symbolic_ok
    return DriftReport(ok, worst[1], worst[0], ratios, symbolic_ok, tuple(notes))


def _reference_lemma(mc, cert, n_max):
    """The taboo-bound replay over the full list of taboo matrix powers."""
    Bset = set(cert.B)
    weights = np.array([cert.weight(mc, s) for s in mc.states])
    mats = taboo_matrix_powers(mc, cert.B, n_max)
    rows = [i for i, s in enumerate(mc.states) if s not in Bset and mc.interior[i]]
    bcols = [i for i, s in enumerate(mc.states) if s in Bset]
    M = max(1.0 / weights[j] for j in bcols) if bcols else 0.0
    viol = 0
    max_slack = 0.0
    ret_ok = True
    for n in range(1, n_max + 1):
        Pn = mats[n]
        rho_n = cert.rho**n
        bound = np.outer(weights[rows], 1.0 / weights) * rho_n
        diff = Pn[rows] - bound
        if (diff > 1e-12).any():
            viol += int((diff > 1e-12).sum())
        max_slack = max(max_slack, float(np.fmax.reduce(diff, axis=None)) if diff.size else 0.0)
        if bcols:
            ret = Pn[np.ix_(rows, bcols)].sum(axis=1)
            if (ret > M * weights[rows] * rho_n + 1e-12).any():
                ret_ok = False
    return LemmaBoundReport(n_max, viol, max_slack, ret_ok)


def _bits(value):
    """``value`` with every float replaced by its hex form, so == is bit
    equality (signed zeros included); dicts become their item lists, so key
    order counts."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, dict):
        return [(_bits(k), _bits(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if hasattr(value, "__dataclass_fields__"):
        return [(name, _bits(getattr(value, name))) for name in value.__dataclass_fields__]
    return value


@dataclass(frozen=True)
class _RecordingCertificate(DriftCertificate):
    """A certificate that records every weight it is asked for."""

    reads: list = field(default_factory=list, compare=False)

    def weight(self, mc, state):
        self.reads.append(state)
        return super().weight(mc, state)


def _recording(cert):
    return _RecordingCertificate(cert.t_core, cert.B, cert.rho, cert.tails, cert.provenance)


def _certificate_cases():
    """(name, chain, certificate): searched and analytic certificates."""
    for name in FINITE_FIXTURES:
        mc = pipeline(name)[3]
        yield name, mc, search_certificate(mc).certificate
        yield f"{name}-B2", mc, search_certificate(mc, tuple(mc.states[:2])).certificate
    for seed in range(6):
        mc = _random_unimodular_chain(seed)
        yield f"unimodular-{seed}", mc, search_certificate(mc).certificate
    # 160 states: past the size of every fixture and of the cores above
    g = bench_core(40)
    mc = build_chain(g, compute_gibbs(g), propagate_orders(g))
    yield "bench-core-160", mc, search_certificate(mc).certificate
    gamma = lambda n: 1.0 - 1.0 / (1.0 + abs(n))
    for N in range(2, 9):
        mc = counterexample_chain(gamma, lambda n: 1.0, N)
        yield f"star-{N}", mc, search_certificate(mc, ("inf",)).certificate
    for name in TAILED_FIXTURES:
        mc = pipeline(name)[3]
        yield f"{name}-analytic", mc, tail_certificate(mc)
        yield f"{name}-search", mc, search_certificate(mc).certificate


def _assert_verify_matches(mc, cert, name):
    want_cert, got_cert = _recording(cert), _recording(cert)
    want = _reference_verify(mc, want_cert)
    got = verify_certificate(mc, got_cert)
    assert _bits(got) == _bits(want), name
    # each weight is read once, in the order the loop first reads it
    assert got_cert.reads == list(dict.fromkeys(want_cert.reads)), name


def test_verify_matches_the_per_nonzero_reference():
    for name, mc, cert in _certificate_cases():
        assert cert is not None, name
        _assert_verify_matches(mc, cert, name)
        # a tighter rho moves only the verdict
        _assert_verify_matches(mc, replace(cert, rho=0.5 * cert.rho), f"{name}-tight")


def test_verify_stops_at_a_nonpositive_weight_like_the_reference():
    mc = _random_unimodular_chain(3)
    cert = search_certificate(mc).certificate
    checked = [s for i, s in enumerate(mc.states) if s not in cert.B and mc.interior[i]]
    assert len(checked) > 4
    bad = checked[len(checked) // 2]
    for value in (0.0, -1.0, -0.0):
        t_core = dict(cert.t_core)
        t_core[bad] = value
        edited = _recording(replace(cert, t_core=t_core))
        _reference_verify(mc, edited)
        # the loop returns at ``bad``; drop a weight it never reads
        unread = [s for s in t_core if s not in edited.reads]
        assert unread
        del t_core[unread[-1]]
        edited = replace(cert, t_core=t_core)
        _assert_verify_matches(mc, edited, f"t = {value}")
        got = verify_certificate(mc, edited)
        assert not got.ok and got.worst_state == bad and got.max_ratio == float("inf")
        assert 0 < len(got.ratios) < len(checked)


def test_verify_raises_the_reference_key_error_for_a_missing_weight():
    mc = _random_unimodular_chain(3)
    cert = search_certificate(mc).certificate
    checked = [s for i, s in enumerate(mc.states) if s not in cert.B and mc.interior[i]]
    for missing in (checked[:1], checked[-1:], checked[1:3], list(cert.B)):
        t_core = {s: v for s, v in cert.t_core.items() if s not in missing}
        edited = replace(cert, t_core=t_core)
        with pytest.raises(KeyError) as want:
            _reference_verify(mc, edited)
        with pytest.raises(KeyError) as got:
            verify_certificate(mc, edited)
        assert str(got.value) == str(want.value), missing


def test_lemma_replay_matches_the_list_reference():
    slack_seen = violations_seen = return_failures_seen = False
    for name, mc, cert in _certificate_cases():
        n_max = 40
        want = _reference_lemma(mc, cert, n_max)
        assert _bits(lemma_bound_check(mc, cert, n_max)) == _bits(want), name
        # shrink rho until the replay finds violations of both bounds
        shrunk = cert
        for _ in range(60):
            shrunk = replace(shrunk, rho=0.5 * shrunk.rho)
            want = _reference_lemma(mc, shrunk, n_max)
            if want.violations and not want.return_bound_ok:
                break
        assert _bits(lemma_bound_check(mc, shrunk, n_max)) == _bits(want), name
        violations_seen |= want.violations > 0
        slack_seen |= want.max_slack > 0
        return_failures_seen |= not want.return_bound_ok
    assert violations_seen and slack_seen and return_failures_seen


@pytest.fixture(scope="module")
def core_320():
    """``bench_core(80)``'s chain (320 states) and its searched certificate:
    the replay's exact check there runs in more than one chunk."""
    g = bench_core(80)
    mc = build_chain(g, compute_gibbs(g), propagate_orders(g))
    return mc, search_certificate(mc).certificate


def _replay_paths(mc, cert, n_max):
    """Per step n of the dense reference, whether the replay's bound clears
    it (the largest entry below rho^n min t_i / max t_j, less a relative
    1e-13), and whether a violation and the step's largest slack lie in a
    checked row past the first column chunk."""
    weights = np.array([cert.weight(mc, s) for s in mc.states])
    rows = [i for i, s in enumerate(mc.states) if s not in set(cert.B) and mc.interior[i]]
    span = wsg_module.REPLAY_CHUNK // len(mc.states)
    lo = weights[rows].min() / weights.max()
    mats = taboo_matrix_powers(mc, cert.B, n_max)
    cleared, late = [], []
    for n in range(1, n_max + 1):
        pn = mats[n][rows]
        cleared.append(pn.max() < cert.rho**n * lo * (1.0 - 1e-13))
        diff = pn - np.outer(weights[rows], 1.0 / weights) * cert.rho**n
        late.append(diff[span:].max() == diff.max() > 1e-12)
    return cleared, late


def test_lemma_replay_matches_the_list_reference_in_chunks(core_320):
    mc, cert = core_320
    rows = [i for i, s in enumerate(mc.states) if s not in set(cert.B) and mc.interior[i]]
    assert len(mc.states) * len(rows) > 2 * wsg_module.REPLAY_CHUNK
    # the searched certificate: the bound clears most steps
    want = _reference_lemma(mc, cert, 20)
    assert _bits(lemma_bound_check(mc, cert, 20)) == _bits(want)
    cleared, late = _replay_paths(mc, cert, 20)
    assert sum(cleared) >= 15 and not any(late)
    # rho shrunk: violations, with the largest slack of some step past the
    # first chunk; at 0.999 rho the bound still clears most steps
    for factor, clears in ((0.999, 15), (0.5, 0)):
        shrunk = replace(cert, rho=factor * cert.rho)
        want = _reference_lemma(mc, shrunk, 20)
        assert want.violations and want.max_slack > 0
        assert _bits(lemma_bound_check(mc, shrunk, 20)) == _bits(want), factor
        cleared, late = _replay_paths(mc, shrunk, 20)
        assert sum(cleared) >= clears and any(late), factor
        assert not any(c and l for c, l in zip(cleared, late)), factor


def test_lemma_replay_matches_the_list_reference_where_rho_n_underflows(single_edge_pipeline):
    mc = single_edge_pipeline[3]
    cert = search_certificate(mc).certificate
    assert cert.rho**60 == 0.0
    assert _bits(lemma_bound_check(mc, cert, 60)) == _bits(_reference_lemma(mc, cert, 60))


@pytest.mark.parametrize("value", [math.inf, 0.0])
def test_lemma_replay_counts_violations_beside_a_nan_bound(core_320, value):
    # one checked state's weight at inf or 0 puts 0 x inf, a nan, in the
    # bound table of every step: the entries above 1e-12 elsewhere still
    # count, and so does their slack
    mc, cert = core_320
    edited = replace(cert, t_core={**cert.t_core, mc.states[5]: value})
    with np.errstate(divide="ignore", invalid="ignore"):
        want = _reference_lemma(mc, edited, 20)
        got = lemma_bound_check(mc, edited, 20)
    assert want.violations > 0
    assert got.max_slack > 0
    assert _bits(got) == _bits(want)


def _traced_peak(f, *args):
    import tracemalloc

    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_replay_holds_one_power_buffer_and_the_gathered_rows(core_320):
    mc, cert = core_320
    mc.blocks()
    rows = [i for i, s in enumerate(mc.states) if s not in set(cert.B) and mc.interior[i]]
    # the power buffer and the gathered rows are n x n_rows each; the bound
    # table, its scratch and a second power buffer would add three more
    assert _traced_peak(lemma_bound_check, mc, cert, 20) < 3 * len(mc.states) * len(rows) * 8


def test_the_search_holds_one_matrix_on_its_taboo_block(core_320):
    mc, _ = core_320
    n = len(mc.states)
    # I - P_ff / rho, or the power loop's T + I, one at a time; P_ff itself
    # is a view of P
    assert _traced_peak(search_certificate, mc) < 1.5 * n * n * 8


# ---------------------------------------------------------------------------
# the block replay on kernels of any pattern


def _kernel_certificate(rows, B, t):
    """A chain on the kernel ``rows`` and the certificate (t, B, rho) at its
    drift value: rho the largest (P t)_i / t_i over the checked rows.

    A row summing to less than 1 is a truncation frontier: its state is not
    interior, so the replay does not check it, but its row stays in the
    taboo kernel.
    """
    p = np.array(rows, dtype=float)
    states = tuple(f"s{i}" for i in range(len(p)))
    mc = MarkovChain.from_kernel(states, p, np.full(len(p), 1.0 / len(p)))
    mc = replace(mc, interior=np.abs(p.sum(axis=1) - 1.0) < 1e-12)
    ratios = [float(p[i] @ t / t[i]) for i in range(len(p)) if i not in B and mc.interior[i]]
    t_core = dict(zip(states, (float(x) for x in t)))
    cert = DriftCertificate(t_core, tuple(states[i] for i in sorted(B)), max(ratios, default=0.5))
    return mc, cert


def _assert_replay_matches(mc, cert, n_max=12):
    """The replay against ``_reference_lemma`` at rho, then at rho halved
    until both bounds are violated."""
    for _ in range(40):
        want = _reference_lemma(mc, cert, n_max)
        assert _bits(lemma_bound_check(mc, cert, n_max)) == _bits(want), cert.rho
        if want.violations and not want.return_bound_ok:
            return
        cert = replace(cert, rho=0.5 * cert.rho)


@st.composite
def sparse_kernels(draw):
    """(rows, B, t): a kernel on at most 12 states whose zero pattern is
    random, so its blocks are rarely bicliques, with some rows scaled below 1
    (frontier states), a taboo set of 1-3 states and positive weights."""
    n = draw(st.integers(min_value=1, max_value=12))
    rows = []
    for i in range(n):
        w = [draw(st.integers(min_value=1, max_value=9)) * draw(st.booleans()) for _ in range(n)]
        if not any(w):
            w[(i + 1) % n] = 1
        scale = draw(st.sampled_from([1.0, 1.0, 1.0, 0.75, 0.5]))
        rows.append([scale * x / sum(w) for x in w])
    B = draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=min(3, n)))
    t = np.array([draw(st.integers(min_value=1, max_value=64)) / 8.0 for _ in range(n)])
    return rows, B, t


@settings(deadline=None, derandomize=True, max_examples=200)
@given(sparse_kernels())
def test_the_block_replay_matches_the_list_reference_on_sparse_kernels(drawn):
    _assert_replay_matches(*_kernel_certificate(*drawn))


def _one_column_kernel(seed):
    """Frontier states s0, s1 and s2 step only to s3, which no other state
    enters: a block of one column and three rows.  s4 lies in B, and the
    other rows have random weights off column 3."""
    rng = random.Random(seed)
    rows = [[0.0] * 10 for _ in range(3)]
    for row in rows:
        row[3] = rng.randint(20, 90) / 100
    for _ in range(7):
        w = [rng.randint(5, 100) for _ in range(10)]
        w[3] = 0
        rows.append([x / sum(w) for x in w])
    return rows


REPLAY_KERNELS = {
    # s0 has no in-arc: its column is zero, and it lies in no block
    "zero column": ([[0, 0.5, 0.5, 0], [0, 0, 0.3, 0.7], [0, 0.6, 0, 0.4], [0, 0.2, 0.8, 0]], {1}),
    # s3's only predecessors s0 and s1 lie in B, so its column dies after one step
    "B holds the only predecessors": (
        [[0, 0.5, 0, 0.5], [0.3, 0, 0.2, 0.5], [0.4, 0.6, 0, 0], [0.1, 0.2, 0.7, 0]],
        {0, 1},
    ),
    # every entry positive: the whole kernel is one block
    "dense": ([[(1 + (i * 7 + j * 3) % 5) / 15 for j in range(5)] for i in range(5)], {2}),
    # s1 is the one checked row; the frontier states s2 and s3 stay in the kernel
    "one checked row": (
        [[0.2, 0.3, 0.1, 0.4], [0.6, 0.1, 0.2, 0.1], [0.15, 0.35, 0.2, 0.1], [0.3, 0.25, 0.15, 0.05]],
        {0},
    ),
    # with t(s3) large the largest slack is a sum of three products in column 3
    "one-column block": (_one_column_kernel(1), {4}),
}


@pytest.mark.parametrize("name", REPLAY_KERNELS)
def test_the_block_replay_matches_the_list_reference_on_edge_cases(name):
    rows, B = REPLAY_KERNELS[name]
    n = len(rows)
    heavy = np.ones(n)
    heavy[3] = 2.0**20
    for t in (np.ones(n), np.array([1.0 + 0.375 * i for i in range(n)]), heavy):
        _assert_replay_matches(*_kernel_certificate(rows, B, t), n_max=20)
    blocks = MarkovChain.from_kernel(tuple(range(n)), np.array(rows), np.ones(n) / n).blocks()
    if name == "zero column":
        assert blocks.order[-1] == 0 and all(0 not in C for _, C in blocks.groups)
    if name == "dense":
        ((R, C),) = blocks.groups
        assert R.tolist() == C.tolist() == [list(range(n))]
    if name == "one-column block":
        assert [R.tolist() for R, C in blocks.groups if C.shape[1] == 1] == [[[0, 1, 2]]]


def test_the_chain_builds_its_blocks_once(monkeypatch):
    builds = []
    real = chain_module._kernel_blocks

    def counted(src, dst, n):
        builds.append(n)
        return real(src, dst, n)

    monkeypatch.setattr(chain_module, "_kernel_blocks", counted)
    mc = _random_unimodular_chain(3)
    cert = search_certificate(mc).certificate
    first = lemma_bound_check(mc, cert, 20)
    assert _bits(lemma_bound_check(mc, cert, 20)) == _bits(first)
    assert builds == [len(mc.states)]
    assert mc.blocks() is mc.blocks()
    # a chain of the same kernel builds its own
    assert replace(mc).blocks() is not mc.blocks() and len(builds) == 2


# ---------------------------------------------------------------------------
# the support arcs and the blocks built from them


def _reference_blocks(p):
    """The ``KernelBlocks`` of the nonzero pattern of p by a union-find over
    a dense pattern scan, blocks by least column."""
    n = len(p)
    out = from_matrix(p)
    root = list(range(n))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    # union the columns of each row; a root is its set's least column
    for cols in out:
        if cols:
            a = find(cols[0])
            for j in cols[1:]:
                b = find(j)
                if a != b:
                    a, b = min(a, b), max(a, b)
                    root[b] = a
    blocks = {}
    covered = sorted({j for cols in out for j in cols})
    for j in covered:
        blocks.setdefault(find(j), ([], []))[1].append(j)
    for i, cols in enumerate(out):
        if cols:
            blocks[find(cols[0])][0].append(i)
    shapes = {}
    for block in blocks.values():
        shapes.setdefault((len(block[1]), len(block[0])), []).append(block)
    order = [j for bs in shapes.values() for _, cs in bs for j in cs]
    order += sorted(set(range(n)).difference(covered))
    position = [0] * n
    for k, j in enumerate(order):
        position[j] = k
    gather = [position[i] for bs in shapes.values() for rs, _ in bs for i in rs]
    groups = tuple(
        (np.array([rs for rs, _ in bs], dtype=np.intp), np.array([cs for _, cs in bs], dtype=np.intp))
        for bs in shapes.values()
    )
    order, position, gather = (np.array(x, dtype=np.intp) for x in (order, position, gather))
    return KernelBlocks(order, position, gather, groups)


def _assert_pattern_and_blocks(mc, name):
    """``mc.arcs`` is ``np.nonzero(mc.p)`` and ``mc.blocks()`` the reference's."""
    for got, want in zip(mc.arcs, np.nonzero(mc.p)):
        assert got.dtype == want.dtype and got.tolist() == want.tolist(), name
    got, want = mc.blocks(), _reference_blocks(mc.p)
    for a, b in zip((got.order, got.position, got.gather), (want.order, want.position, want.gather)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tolist() == b.tolist(), name
    assert len(got.groups) == len(want.groups), name
    for pair, ref in zip(got.groups, want.groups):
        for a, b in zip(pair, ref):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tolist() == b.tolist(), name


def test_the_chain_arcs_are_its_pattern_and_the_blocks_the_dense_reference():
    for depth in (80, 360):
        for name in PIPELINE_FIXTURES:
            _assert_pattern_and_blocks(pipeline(name, depth)[3], f"{name} at depth {depth}")
    for V in (20, 40, 80):
        g = bench_core(V)
        _assert_pattern_and_blocks(build_chain(g, compute_gibbs(g), propagate_orders(g)), f"bench core {V}")
    for name, (rows, _) in REPLAY_KERNELS.items():
        n = len(rows)
        _assert_pattern_and_blocks(MarkovChain.from_kernel(range(n), np.array(rows), np.ones(n) / n), name)
    empty = MarkovChain.from_kernel(range(3), np.zeros((3, 3)), np.ones(3) / 3)
    _assert_pattern_and_blocks(empty, "no arcs")


@settings(deadline=None, derandomize=True, max_examples=200)
@given(sparse_kernels())
def test_kernel_chains_carry_their_pattern_and_its_blocks(drawn):
    mc, _ = _kernel_certificate(*drawn)
    _assert_pattern_and_blocks(mc, "sparse kernel")


def test_a_finite_pipeline_reads_its_pattern_off_the_arcs(monkeypatch):
    """Above the least-squares size, the shadow solve, the chain, the search,
    the verification and the replay scan no dense n x n pattern: the shadow
    solve's T > 0 is the window's arcs.  No Tarjan runs either: the window is
    strongly connected, which two walks show."""
    from treegibbs import digraph
    from treegibbs import gibbs as gibbs_module
    from treegibbs import graph as graph_module

    g = bench_core(20)
    orders = propagate_orders(g)
    n = 4 * 20
    stage = ["compute_gibbs"]
    scans, tarjans = [], []
    nonzero, sccs = np.nonzero, digraph.sccs

    def counted_nonzero(a):
        a = np.asarray(a)
        if a.ndim == 2 and a.size == n * n:
            scans.append(stage[0])
        return nonzero(a)

    def counted_sccs(succ):
        tarjans.append(stage[0])
        return sccs(succ)

    monkeypatch.setattr(np, "nonzero", counted_nonzero)
    for module in (digraph, chain_module, gibbs_module, graph_module):
        if hasattr(module, "sccs"):
            monkeypatch.setattr(module, "sccs", counted_sccs)
    gd = compute_gibbs(g)
    stage[0] = "chain"
    mc = build_chain(g, gd, orders)
    assert len(mc.states) == n > gibbs_module._LSTSQ_MAX_STATES
    found = search_certificate(mc)
    assert verify_certificate(mc, found.certificate).ok
    assert lemma_bound_check(mc, found.certificate, 20).violations == 0
    assert scans == []
    assert tarjans == []


def _thick_ray_period2_chain():
    g = fx.get("thick_ray_5")
    F = potential_from_dict(
        g, {"tail_values": [{"tail_index": 0, "period": [[0.1, -0.05], [-0.2, 0.03]]}]}
    )
    return build_chain(g, compute_gibbs(g, F), propagate_orders(g))


def test_search_finds_each_geometric_profile_once(monkeypatch):
    import treegibbs.wsg as wsg

    calls = Counter()

    def counted(mc, t):
        calls[t] += 1
        return _tail_form(mc, t)

    monkeypatch.setattr(wsg, "_tail_form", counted)
    chains = [(name, pipeline(name)[3]) for name in TAILED_FIXTURES]
    chains.append(("thick_ray_5+period2", _thick_ray_period2_chain()))
    for name, mc in chains:
        core = [s for s in mc.states if not s.startswith("~")]
        for B0 in [None] + [(s,) for s in core]:
            calls.clear()
            out = search_certificate(mc, B0)
            assert out.feasible, (name, B0)
            assert max(calls.values(), default=0) <= 1, (name, B0)
            # every probe needs the form of every tail
            assert calls[0] == 1, (name, B0)


# ---------------------------------------------------------------------------
# tail certificates at the weighted spectral gap

# the tail potentials of the potential runs in scripts/artifact_digests.py
_TAIL_POTENTIALS = {
    "cusp_22+period2": ("cusp_22", {"period": [[0.1, -0.05], [0.02, 0.03]]}),
    "cusp_22+prefix1": ("cusp_22", {"prefix": [[0.3, 0.1]], "period": [[0.1, 0.1]]}),
    "thick_ray_5+period2": ("thick_ray_5", {"period": [[0.1, -0.05], [-0.2, 0.03]]}),
}


def _tailed_run(name):
    """(gibbs data, chain) of a tailed fixture or of a potential run."""
    if name in TAILED_FIXTURES:
        return pipeline(name)[2:]
    fixture, tail_values = _TAIL_POTENTIALS[name]
    g = fx.get(fixture)
    F = potential_from_dict(g, {"tail_values": [dict(tail_index=0, **tail_values)]})
    gd = compute_gibbs(g, F)
    return gd, build_chain(g, gd, propagate_orders(g))


@pytest.mark.parametrize("name", TAILED_FIXTURES + tuple(_TAIL_POTENTIALS))
def test_tail_certificates_reach_the_weighted_spectral_gap(name):
    gd, mc = _tailed_run(name)
    # the tail's decay parameter; s_tail is a bisection value, so rho may
    # sit a little below it
    gap = math.exp(gd.s_tail - gd.delta)
    cert = tail_certificate(mc)
    out = search_certificate(mc)
    assert out.feasible
    for rho in (cert.rho, out.infimum_rho, out.certificate.rho):
        assert abs(rho / gap - 1.0) <= 1e-6, (name, rho, gap)
    for c in (cert, out.certificate):
        assert verify_certificate(mc, c).ok
        assert lemma_bound_check(mc, c, 60).violations == 0


@pytest.mark.parametrize("name", ["cusp_22", "cusp_44", "thick_ray_5"])
def test_period_one_tail_form_meets_its_closed_form(name):
    mc = pipeline(name)[3]
    blk = mc.tails[0]
    assert blk.period == 1
    n = blk.start + 1
    pu, pt, pd, pr = blk.p_up[n], blk.p_turn[n], blk.p_dn[n], blk.p_re[n]
    rho_star = math.sqrt(pu * pd) + math.sqrt(pt * pr)
    form = _tail_form(mc, 0)
    # the form sits 1e-7 below the minimiser z* = sqrt(p_dn / p_up) of chi
    z = form.z * (1.0 + 1e-7)
    assert abs(z / math.sqrt(pd / pu) - 1.0) <= 1e-6
    chi = np.linalg.eigvals([[pu * z, pt], [pr, pd / z]]).real.max()
    assert abs(chi - rho_star) <= 1e-9
    assert rho_star - 1e-12 <= form.rho <= rho_star * (1.0 + 2e-7)


def _two_cusp_chain(attach):
    """``cusp_22`` with both core indices 2 and a second (2, 1) tail at
    ``attach``."""
    d = graph_to_dict(fx.get("cusp_22"))
    for edge in d["edges"]:
        edge["index"] = 2
    d["tails"].append({"attach": attach, "prefix": [], "period": [[2, 1]]})
    g = graph_from_dict(d)
    return build_chain(g, compute_gibbs(g), propagate_orders(g))


def test_two_cusp_quotient_is_certified_at_its_gap():
    mc = _two_cusp_chain("b")
    assert len(mc.tails) == 2
    core = [s for s in mc.states if not s.startswith("~")]
    cert = tail_certificate(mc)
    found = [search_certificate(mc, B0).certificate for B0 in [None] + [(s,) for s in core]]
    for c in [cert] + found:
        assert verify_certificate(mc, c).ok
        assert lemma_bound_check(mc, c, 60).violations == 0
        assert abs(c.rho - 0.7071068) <= 1e-6


def _prefixed_cusp_chain(prefix, period):
    d = graph_to_dict(fx.get("cusp_22"))
    d["tails"][0].update(prefix=prefix, period=period)
    g = graph_from_dict(d)
    gd = compute_gibbs(g)
    return gd, build_chain(g, gd, propagate_orders(g))


@pytest.mark.parametrize(
    "prefix, period",
    [
        # a prefix level that re-ascends below a cuspidal period
        ([[2, 2]], [[2, 1]]),
        ([[2, 3], [3, 2]], [[2, 1]]),
        # the chain turns back at levels 1 and 2 and never climbs past them
        ([[4, 1], [4, 1]], [[1, 1]]),
    ],
)
def test_prefix_levels_that_need_a_larger_ratio_are_certified(prefix, period):
    gd, mc = _prefixed_cusp_chain(prefix, period)
    cert = tail_certificate(mc)
    assert math.exp(gd.s_tail - gd.delta) < cert.rho < 1.0
    assert lemma_bound_check(mc, cert, 60).violations == 0
    out = search_certificate(mc)
    assert out.feasible and abs(out.infimum_rho - cert.rho) <= 1e-6
    assert verify_certificate(mc, out.certificate).ok


@settings(deadline=None, derandomize=True, max_examples=30)
@given(tailed_graphs())
def test_random_tailed_graphs_are_certified(drawn):
    g, F = drawn
    assume(validate_graph(g).ok)
    try:
        gd = compute_gibbs(g, F, depth=40)
        mc = build_chain(g, gd, propagate_orders(g))
    except TreeGibbsError:
        return
    cert = tail_certificate(mc)
    # no tail certificate goes below the tail's decay parameter
    assert cert.rho >= math.exp(gd.s_tail - gd.delta) * (1.0 - 1e-6)
    assert lemma_bound_check(mc, cert, 30).violations == 0
