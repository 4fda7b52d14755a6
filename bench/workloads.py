"""The benchmark's workloads: op lists and per-op correctness checks.

An op is one CLI command run in-process through ``treegibbs.cli.main`` or
one library pipeline call on one input.  ``build`` generates and validates a
workload's inputs and returns its fixed op list; ``Op.run`` is the timed part
and ``Op.check`` inspects the result afterwards, untimed.  A check returns
``None`` when the outcome is the expected one and a message otherwise.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from inputs import bipartite_core, check_graph_file, load_checked, unimodular_core

WORKLOADS = ("tail_cli", "finite")


@dataclass
class Op:
    name: str
    run: Callable[[str], Any]  # argument: this pass's scratch directory
    check: Callable[[Any, dict], str | None]  # arguments: result, pass state
    memo: dict = field(default_factory=dict)  # facts kept across passes


def build(workload, tg, seed, root, workdir, smoke=False):
    """Generate, write and validate the inputs; return the op list.

    ``root`` is the checkout holding ``fixtures/``; inputs go to ``workdir``.
    """
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](tg, rng, root, workdir, smoke)


def _rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _reference_delta(tg, g, memo):
    """log of the Perron value of the depth-0 transfer matrix, by dense eig."""
    if "delta_ref" not in memo:
        import numpy as np

        _, T = tg.transfer_matrix(g, None, 0.0, depth=0)
        memo["delta_ref"] = math.log(float(max(abs(np.linalg.eigvals(T)))))
    return memo["delta_ref"]


# ---------------------------------------------------------------------------
# tail_cli: the shipped fixtures through the CLI front door

# (command, fixture, extra config, expected exit code).  Commands on the
# tailed fixtures, whose time goes to tail resummation (one unrolled to depth
# 360), four on the fixture whose tail is exactly critical (documented exit
# 3), the one-edge lattice whose answers are known in closed form, and one
# command on each other finite fixture.
TAIL_CLI_OPS = (
    ("analyze", "thick_ray_5", {}, 0),
    ("wsg", "thick_ray_5", {}, 0),
    ("count", "thick_ray_5", {}, 0),
    ("chain", "thick_ray_5", {"depth": 360}, 0),
    ("analyze", "critical_ray_5", {}, 3),
    ("chain", "critical_ray_5", {}, 3),
    ("wsg", "critical_ray_5", {}, 3),
    ("count", "critical_ray_5", {}, 3),
    ("analyze", "single_edge_3", {}, 0),
    ("count", "single_edge_3", {}, 0),
    ("chain", "two_loops", {}, 0),
    ("wsg", "parallel_edges", {}, 0),
    ("count", "biregular_44", {}, 0),
    ("analyze", "funnel_loop", {}, 0),
)
TAIL_CLI_SMOKE = (
    ("analyze", "critical_ray_5", {}, 3),
    ("analyze", "single_edge_3", {}, 0),
    ("count", "single_edge_3", {}, 0),
    ("chain", "two_loops", {}, 0),
)


def _artifact_digests(outdir):
    out = {}
    for name in sorted(os.listdir(outdir)) if os.path.isdir(outdir) else ():
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _load_json(outdir, name):
    with open(os.path.join(outdir, name), encoding="utf-8") as fh:
        return json.load(fh)


def _check_artifacts(cmd, fixture, outdir):
    """Command-specific invariants read back from the written artifacts."""
    if cmd == "analyze":
        rep = _load_json(outdir, "analyze.json")
        if max(rep["residual_plus"], rep["residual_minus"]) > 1e-8:
            return f"shadow residuals {rep['residual_plus']}, {rep['residual_minus']}"
        if fixture == "single_edge_3" and _rel_err(rep["delta"], math.log(2.0)) > 1e-9:
            return f"delta {rep['delta']!r} != log 2"
    elif cmd == "count":
        rep = _load_json(outdir, "count.json")
        if fixture == "single_edge_3" and rep["cstar_exact"] != "6":
            return f"C* exact {rep['cstar_exact']!r} != 6"
        if not math.isfinite(rep["cstar"]) or rep["cstar"] <= 0:
            return f"C* {rep['cstar']!r}"
    elif cmd == "wsg":
        rep = _load_json(outdir, "certificate.json")
        if not rep["verified"] or rep["lemma_violations"]:
            return f"certificate verified={rep['verified']}, violations={rep['lemma_violations']}"
    elif cmd == "chain":
        rep = _load_json(outdir, "chain.json")
        worst = max(rep["max_row_residual"], rep["max_stationarity_residual"])
        if worst > 1e-9:
            return f"markov residual {worst}"
    return None


def _cli_op(tg, cfg_path, cmd, fixture, expect):
    label = f"{cmd}:{fixture}"

    def run(passdir):
        outdir = os.path.join(passdir, label.replace(":", "_"))
        with contextlib.redirect_stderr(io.StringIO()):
            code = tg.cli.main([cmd, "--config", cfg_path, "--out", outdir])
        return code, outdir

    def check(result, state):
        code, outdir = result
        if code != expect:
            return f"exit {code}, expected {expect}"
        digests = _artifact_digests(outdir)
        if code == 0:
            problem = _check_artifacts(cmd, fixture, outdir)
            if problem:
                return problem
        # artifacts must be byte-identical across passes within a run
        first = op.memo.setdefault("digests", digests)
        if first != digests:
            return "artifacts differ from the first pass"
        return None

    op = Op(label, run, check)
    return op


def _build_tail_cli(tg, rng, root, workdir, smoke):
    fixtures_dir = os.path.join(root, "fixtures")
    specs = list(TAIL_CLI_SMOKE if smoke else TAIL_CLI_OPS)
    rng.shuffle(specs)  # the seed sets the op order; the inputs are shipped
    cfg_dir = os.path.join(workdir, "configs")
    os.makedirs(cfg_dir, exist_ok=True)
    ops = []
    for cmd, fixture, extra, expect in specs:
        gpath = os.path.join(fixtures_dir, f"{fixture}.json")
        check_graph_file(tg, gpath)
        cfg_path = os.path.join(cfg_dir, f"{cmd}_{fixture}.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump({"graph": gpath, **extra}, fh, sort_keys=True)
        ops.append(_cli_op(tg, cfg_path, cmd, fixture, expect))
    return ops


# ---------------------------------------------------------------------------
# finite, first half: the library pipeline on random finite cores, and the probe

FINITE_SIZES = (40,) * 6 + (80,) * 6
FINITE_SMOKE_SIZES = (8, 12)
PROBE_NS = (4, 6)
PROBE_SMOKE_NS = (3, 4)


def _pipeline_op(tg, name, g, orders):
    def run(_passdir):
        gd = tg.compute_gibbs(g)
        mc = tg.build_chain(g, gd, orders)
        markov = tg.check_markov_property(mc, gd)
        found = tg.search_certificate(mc)
        verified = tg.verify_certificate(mc, found.certificate) if found.feasible else None
        lemma = tg.lemma_bound_check(mc, found.certificate, 20) if found.feasible else None
        s = mc.states[min(mc.classes[0])]
        fit = tg.mixing_rate_estimate(mc, s, s, 40)
        return gd, markov, found, verified, lemma, fit

    def check(result, state):
        gd, markov, found, verified, lemma, fit = result
        ref = _reference_delta(tg, g, op.memo)
        if _rel_err(gd.delta, ref) > 1e-9:
            return f"delta {gd.delta!r} vs dense eig {ref!r}"
        if max(gd.residual_plus, gd.residual_minus) > 1e-8:
            return f"shadow residuals {gd.residual_plus}, {gd.residual_minus}"
        worst = max(markov.max_row_residual, markov.max_stationarity_residual,
                    markov.max_cylinder_residual)
        if worst > 1e-9:
            return f"markov residual {worst}"
        if not found.feasible or not verified.ok:
            return "no verified drift certificate"
        if lemma.violations:
            return f"{lemma.violations} taboo-bound violations"
        if not 0.0 <= fit.theta < 1.0:
            return f"mixing rate {fit.theta}"
        return None

    op = Op(name, run, check)
    return op


def _gamma(n):
    return 1.0 - 1.0 / (1.0 + abs(n))


def _beta(n):
    return 1.0


def _probe_op(tg, N):
    def run(_passdir):
        return tg.degradation_probe(_gamma, _beta, (N,))

    def check(result, state):
        (row,) = result
        if not row["feasible"] or row["rho"] < row["gamma_bound"]:
            return f"rho {row['rho']} below the drift floor {row['gamma_bound']}"
        prev = state.get("probe_rho")
        state["probe_rho"] = row["rho"]
        if prev is not None and not row["rho"] > prev:
            return f"rho {row['rho']} not above the previous truncation's {prev}"
        return None

    return Op(f"probe:N={N}", run, check)


def _build_finite_chain(tg, rng, root, workdir, smoke):
    ops = []
    for k, V in enumerate(FINITE_SMOKE_SIZES if smoke else FINITE_SIZES):
        g, orders = load_checked(
            tg, unimodular_core(rng, V), os.path.join(workdir, "inputs", f"core{k}_V{V}.json")
        )
        ops.append(_pipeline_op(tg, f"pipeline:V={V}#{k}", g, orders))
    ops += [_probe_op(tg, N) for N in (PROBE_SMOKE_NS if smoke else PROBE_NS)]
    return ops


# ---------------------------------------------------------------------------
# finite, second half: orbit counts, renewal constants and cover censuses

BIPARTITE_SIZES = (8, 8, 12, 12, 12, 12, 16, 16)
COUNT_FIXTURES = ("single_edge_3", "biregular_24", "biregular_44", "parallel_edges")
ORACLE_N = 80
CENSUS_RADIUS = 9


def _counting_op(tg, name, g, orders, radius, with_report):
    """orbit_oracle -> renewal_constant -> cover_census on one input; on the
    biregular fixtures also compute_gibbs -> build_chain -> error_decay_report."""
    base = g.base_vertex

    def run(_passdir):
        oracle = tg.orbit_oracle(g, orders, None, base, ORACLE_N)
        rc = tg.renewal_constant(g, orders)
        census = tg.cover_census(g, base, radius)
        report = None
        if with_report:
            gd = tg.compute_gibbs(g)
            mc = tg.build_chain(g, gd, orders)
            report = tg.error_decay_report(
                g, orders, None, gd, mc.m_mass, tg.biregular_params(g), 10, 25
            )
        return oracle, rc, census, report

    def check(result, state):
        oracle, rc, census, report = result
        if not oracle.exact:
            return "zero-potential oracle fell back to floats"
        series = oracle.series()
        delta = _reference_delta(tg, g, op.memo)
        err = abs(float(series[ORACLE_N]) * math.exp(-ORACLE_N * delta) / rc.value - 1.0)
        if err > 1e-8:
            return f"|N({ORACLE_N}) e^(-{ORACLE_N} delta) / C* - 1| = {err:.2e}"
        if name == "single_edge_3" and (rc.exact != 6 or _rel_err(delta, math.log(2.0)) > 1e-9):
            return f"C* exact {rc.exact}, delta {delta!r}"
        nb = orders.vertex(base)
        bad = [n for n in range(radius + 1) if oracle.per_distance[n] != census[(base, n)] * nb]
        if bad:
            return f"oracle != census at distances {bad}"
        if report is not None:
            if report.cstar != rc.value:
                return f"report C* {report.cstar!r} != renewal C* {rc.value!r}"
            if any(o != float(series[2 * n]) for n, o in zip(report.ns, report.oracle)):
                return "report oracle column differs from the orbit oracle"
        return None

    op = Op(f"count:{name}", run, check)
    return op


def _build_counting(tg, rng, root, workdir, smoke):
    ops = []
    sizes = (8,) if smoke else BIPARTITE_SIZES
    radius = 4 if smoke else CENSUS_RADIUS
    for k, V in enumerate(sizes):
        g, orders = load_checked(
            tg, bipartite_core(rng, V), os.path.join(workdir, "inputs", f"bip{k}_V{V}.json")
        )
        ops.append(_counting_op(tg, f"bip{k}_V{V}", g, orders, radius, False))
    for name in COUNT_FIXTURES[:1] if smoke else COUNT_FIXTURES:
        g, orders = check_graph_file(tg, os.path.join(root, "fixtures", f"{name}.json"))
        ops.append(_counting_op(tg, name, g, orders, radius, True))
    return ops


def _build_finite(tg, rng, root, workdir, smoke):
    return (_build_finite_chain(tg, rng, root, workdir, smoke)
            + _build_counting(tg, rng, root, workdir, smoke))


_BUILDERS = {
    "tail_cli": _build_tail_cli,
    "finite": _build_finite,
}
