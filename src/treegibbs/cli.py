"""Batch front door.

    treegibbs <analyze|chain|wsg|mix|count|probe> --config cfg.json
              [--out DIR] [--nmax N] [--tol X]

Runs the pipeline stages on a graph config and emits deterministic CSV/JSON
artifacts plus a human-readable summary.  Exit codes: 0 ok, 2 config error,
3 numeric non-convergence, 4 resource guard.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field

from . import __version__
from .chain import (
    build_chain,
    check_markov_property,
    correlation_decay,
    cyclic_classes,
    mean_return_time,
    mixing_rate_estimate,
    second_eigenvalue_modulus,
    taboo_table,
)
from .counting import biregular_params, error_decay_report, mgamma_ball_measure, sphere_size
from .errors import (
    ConfigError,
    DivergenceError,
    GraphError,
    NoGeometricDriftError,
    NoPositiveSolutionError,
    NormalizationMismatchError,
    ReducibleChainError,
    ResourceLimitError,
    ZeroShadowError,
)
from .gibbs import Potential, compute_gibbs, cusp_exponent_bound, potential_from_json
from .graph import (
    _is_int,
    _is_number,
    graph_from_json,
    length_spectrum_period,
    propagate_orders,
    validate_graph,
)
from .wsg import lemma_bound_check, search_certificate, tail_certificate, verify_certificate

COMMANDS = ("analyze", "chain", "wsg", "mix", "count", "probe")

NUMERIC_ERRORS = (
    DivergenceError,
    NoPositiveSolutionError,
    ReducibleChainError,
    NoGeometricDriftError,
    ZeroShadowError,
    NormalizationMismatchError,
    OverflowError,  # e.g. exp of a large finite potential value
)


@dataclass(frozen=True)
class RunConfig:
    command: str
    graph_path: str = None
    potential_path: str = None
    n_max: int = 40
    radius: int = 4
    tol: float = 1e-10
    depth: int = 80
    truncations: tuple = (10, 20, 40, 80)
    out: str = "out"
    probe_gamma: dict = field(default_factory=lambda: {"kind": "one_minus_inv"})
    probe_beta: dict = field(default_factory=lambda: {"kind": "uniform"})
    input_hash: str = ""

    def require_graph(self):
        if not self.graph_path:
            raise ConfigError(f"command {self.command!r} requires a graph config")


_CONFIG_FIELDS = {
    "graph",
    "potential",
    "n_max",
    "radius",
    "tol",
    "depth",
    "truncations",
    "out",
    "probe",
}


def parse_config(argv=None):
    ap = argparse.ArgumentParser(prog="treegibbs", description=__doc__)
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", default=None)
    ap.add_argument("--nmax", type=int, default=None)
    ap.add_argument("--tol", type=float, default=None)
    ns = ap.parse_args(argv)
    if not os.path.exists(ns.config):
        raise ConfigError(f"config file not found: {ns.config}")
    with open(ns.config, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{ns.config}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{ns.config}: must be a JSON object")
    unknown = set(raw) - _CONFIG_FIELDS
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    cdir = os.path.dirname(os.path.abspath(ns.config))

    def resolve(p):
        if p is None:
            return None
        return p if os.path.isabs(p) else os.path.join(cdir, p)

    def nonneg_int(name, default):
        val = raw.get(name, default)
        if not _is_int(val) or val < 0:
            raise ConfigError(f"{name}: must be a nonnegative integer, got {val!r}")
        return val

    tol = raw.get("tol", 1e-10) if ns.tol is None else ns.tol
    if not _is_number(tol) or tol <= 0:
        raise ConfigError(f"tol: must be a positive number, got {tol!r}")
    n_max = nonneg_int("n_max", 40) if ns.nmax is None else ns.nmax
    if n_max < 0 or n_max > 10_000:
        raise ConfigError("n_max: outside the resource guard")
    depth = nonneg_int("depth", 80)
    if depth > 10_000:
        raise ConfigError("depth: outside the resource guard")
    depth = max(depth, n_max + 8)
    for name in ("graph", "potential", "out"):
        if not isinstance(raw.get(name, ""), (str, type(None))):
            raise ConfigError(f"{name}: must be a path, got {raw[name]!r}")
    truncations = raw.get("truncations", [10, 20, 40, 80])
    if not isinstance(truncations, list):
        raise ConfigError(f"truncations: must be a list, got {truncations!r}")
    for k, N in enumerate(truncations):
        if not _is_int(N) or N < 0:
            raise ConfigError(f"truncations[{k}]: must be a nonnegative integer, got {N!r}")
    probe = raw.get("probe", {})
    if not isinstance(probe, dict):
        raise ConfigError(f"probe: must be an object, got {probe!r}")
    for name in ("gamma", "beta"):
        prof = probe.get(name, {})
        if not isinstance(prof, dict):
            raise ConfigError(f"probe.{name}: must be an object, got {prof!r}")
        if not _is_number(prof.get("value", 0.5)):
            raise ConfigError(f"probe.{name}.value: must be a number, got {prof['value']!r}")
    pieces = [json.dumps(raw, sort_keys=True).encode()]
    for p in (resolve(raw.get("graph")), resolve(raw.get("potential"))):
        if p and os.path.exists(p):
            with open(p, "rb") as fh:
                pieces.append(fh.read())
    digest = hashlib.sha256(b"\x00".join(pieces)).hexdigest()
    return RunConfig(
        command=ns.command,
        graph_path=resolve(raw.get("graph")),
        potential_path=resolve(raw.get("potential")),
        n_max=n_max,
        radius=nonneg_int("radius", 4),
        tol=float(tol),
        depth=depth,
        truncations=tuple(truncations),
        out=ns.out or raw.get("out", "out"),
        probe_gamma=probe.get("gamma", {"kind": "one_minus_inv"}),
        probe_beta=probe.get("beta", {"kind": "uniform"}),
        input_hash=digest,
    )


# ---------------------------------------------------------------------------
# artifact helpers


def _dump_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _dump_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(row[h]) for h in header) + "\n")


def _cell(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def emit_report(results, outdir, cfg):
    """Write JSON/CSV artifacts plus summary.txt; deterministic bytes."""
    os.makedirs(outdir, exist_ok=True)
    stamp = {"tool_version": __version__, "input_hash": cfg.input_hash, "command": cfg.command}
    written = []
    for name, payload in sorted(results.items()):
        if name == "summary":
            continue
        if name.endswith(".csv"):
            path = os.path.join(outdir, name)
            _dump_csv(path, payload["header"], payload["rows"])
        else:
            path = os.path.join(outdir, name)
            _dump_json(path, {"meta": stamp, **payload})
        written.append(path)
    lines = [f"treegibbs {cfg.command} (tool {__version__})", f"input hash: {cfg.input_hash}"]
    lines += results.get("summary", [])
    path = os.path.join(outdir, "summary.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    written.append(path)
    return written


def _progress(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# pipeline pieces shared by commands


def _load_inputs(cfg):
    cfg.require_graph()
    g = graph_from_json(cfg.graph_path)
    report = validate_graph(g)
    if not report.ok:
        raise ConfigError(f"graph config invalid:\n{report}")
    F = potential_from_json(g, cfg.potential_path) if cfg.potential_path else Potential.zero(g)
    return g, F, report


def _pipeline(cfg):
    g, F, report = _load_inputs(cfg)
    orders = propagate_orders(g)
    gd = compute_gibbs(g, F, depth=cfg.depth)
    mc = build_chain(g, gd, orders)
    return g, F, report, orders, gd, mc


# ---------------------------------------------------------------------------
# commands


def _cmd_analyze(cfg):
    g, F, report = _load_inputs(cfg)
    orders = propagate_orders(g)
    k = length_spectrum_period(g)
    gd = compute_gibbs(g, F, depth=cfg.depth)
    cusp_bounds = []
    for t, spec in enumerate(g.tails):
        if spec.is_cuspidal():
            cusp_bounds.append(
                {"tail": t, "bound": cusp_exponent_bound(spec, F.tail(t)), "delta": gd.delta}
            )
    payload = {
        "delta": gd.delta,
        "delta_minus": gd.delta_minus,
        "delta_zero": gd.delta_zero,
        "length_spectrum_period": k,
        "residual_plus": gd.residual_plus,
        "residual_minus": gd.residual_minus,
        "normalization": gd.normalization,
        "warnings": [w.message for w in report.warnings],
        "cusp_bounds": cusp_bounds,
        "u_plus_core": {e: gd.u_plus[e] for e in g.edges if e in gd.u_plus},
    }
    summary = [
        f"delta = {gd.delta!r} (zero potential: {gd.delta_zero!r})",
        f"length spectrum period k = {k}",
        f"shadow residuals: {gd.residual_plus:.3e} / {gd.residual_minus:.3e}",
    ]
    summary += [f"cusp bound tail {c['tail']}: {c['bound']!r} < delta" for c in cusp_bounds]
    return {"analyze.json": payload, "summary": summary}


def _cmd_chain(cfg):
    g, F, report, orders, gd, mc = _pipeline(cfg)
    rep = check_markov_property(mc, gd)
    k, classes = mc.period, cyclic_classes(mc)
    rows = [
        {"state": s, "pi": float(mc.pi[i]), "interior": int(mc.interior[i])}
        for i, s in enumerate(mc.states)
    ]
    payload = {
        "n_states": len(mc.states),
        "period": k,
        "class_sizes": [len(c) for c in classes],
        "m_mass": mc.m_mass,
        "tail_remainder": mc.tail_remainder,
        "max_row_residual": rep.max_row_residual,
        "max_stationarity_residual": rep.max_stationarity_residual,
        "max_cylinder_residual": rep.max_cylinder_residual,
        "pi_sum_defect": rep.pi_sum_defect,
        "normalization": gd.normalization,
    }
    summary = [
        f"chain states: {len(mc.states)} (period {k})",
        f"markov residuals: rows {rep.max_row_residual:.3e}, "
        f"stationarity {rep.max_stationarity_residual:.3e}",
        f"|m| = {mc.m_mass!r}",
    ]
    return {
        "chain.json": payload,
        "stationary.csv": {"header": ["state", "pi", "interior"], "rows": rows},
        "summary": summary,
    }


def _cmd_wsg(cfg):
    g, F, report, orders, gd, mc = _pipeline(cfg)
    notes = []
    if g.tails:
        cert = tail_certificate(mc)
        out = search_certificate(mc)
        if out.feasible and abs(out.infimum_rho - cert.rho) > 1e-3:
            notes.append(f"search rho {out.infimum_rho!r} vs analytic {cert.rho!r}")
        chosen = cert
    else:
        out = search_certificate(mc)
        if not out.feasible:
            raise NoGeometricDriftError("no drift certificate found")
        chosen = out.certificate
    rep = verify_certificate(mc, chosen)
    lemma = lemma_bound_check(mc, chosen, min(cfg.n_max, 60))
    ratio_rows = [
        {"state": s, "ratio": r} for s, r in sorted(rep.ratios.items())
    ]
    payload = dict(chosen.to_dict())
    payload["verified"] = rep.ok
    payload["max_ratio"] = rep.max_ratio
    payload["normalization"] = gd.normalization
    payload["lemma_violations"] = lemma.violations
    payload["lemma_max_slack"] = lemma.max_slack
    summary = [
        f"certificate rho = {chosen.rho!r} ({chosen.provenance})",
        f"verified: {rep.ok} (max drift ratio {rep.max_ratio!r})",
        f"taboo bound replay to n={lemma.n_max}: {lemma.violations} violations",
    ] + notes
    return {
        "certificate.json": payload,
        "drift_ratios.csv": {"header": ["state", "ratio"], "rows": ratio_rows},
        "summary": summary,
    }


def _cmd_mix(cfg):
    g, F, report, orders, gd, mc = _pipeline(cfg)
    k, classes = mc.period, cyclic_classes(mc)
    i = j = classes[0][0]
    fit = mixing_rate_estimate(mc, i, j, cfg.n_max)
    target = k * mc.pi_of(j)
    rows = [
        {
            "n": n,
            "p_kn": p,
            "pi_k": target,
            "dist": abs(p - target),
            "envelope": fit.C * fit.theta**n if fit.theta > 0 else 0.0,
        }
        for n, p in enumerate(fit.p_kn, start=1)
    ]
    mr = mean_return_time(mc, j, cfg.n_max)
    horizon = min(cfg.n_max, 40)
    B = (i,)
    tab = taboo_table(mc, B, [(j, j)], horizon)
    cov = None
    if k == 1:
        second = mc.states[1] if len(mc.states) > 1 else i
        cov = correlation_decay(mc, (i,), (second,), cfg.n_max, fit)
    payload = {
        "pair": [i, j],
        "period": k,
        "theta": fit.theta,
        "C": fit.C,
        "r2": fit.r2,
        "exact": fit.exact,
        "second_eigenvalue": second_eigenvalue_modulus(mc, mc.class_of(i)),
        "mean_return": mr.estimate,
        "mean_return_tail_bound": mr.tail_bound,
        "covariance_envelope_ok": None if cov is None else cov.envelope_ok,
        "normalization": gd.normalization,
    }
    taboo_payload = {
        "B": list(tab.B),
        "horizon": tab.n_max,
        "p": {f"{a}->{b}": [float(x) for x in ser] for (a, b), ser in sorted(tab.p.items())},
        "f": {f"{a}->{b}": [float(x) for x in ser] for (a, b), ser in sorted(tab.f.items())},
    }
    summary = [
        f"mixing fit theta = {fit.theta!r} (R^2 {fit.r2!r})",
        f"second eigenvalue modulus = {payload['second_eigenvalue']!r}",
        f"mean return at {j}: {mr.estimate!r} (tail bound {mr.tail_bound!r})",
    ]
    return {
        "mixing.json": payload,
        "taboo.json": taboo_payload,
        "mixing.csv": {"header": ["n", "p_kn", "pi_k", "dist", "envelope"], "rows": rows},
        "summary": summary,
    }


def _cmd_count(cfg):
    g, F, report, orders, gd, mc = _pipeline(cfg)
    try:
        params = biregular_params(g)
    except GraphError:
        params = None
    _progress(f"counting DP to 2n = {2 * min(cfg.n_max, 25)}")
    n_hi = min(cfg.n_max, 25)
    n_lo = min(10, max(1, n_hi - 5))
    crep = error_decay_report(g, orders, F, gd, mc.m_mass, params, n_lo, n_hi)
    rows = crep.rows()
    payload = {
        "biregular": None if params is None else {"qd": params.qd, "qdp": params.qdp},
        "cstar": crep.cstar,
        "cstar_exact": str(crep.cstar_exact) if crep.cstar_exact is not None else None,
        "cstar_method": crep.renewal_method,
        "cone_edge": crep.cone_edge,
        "cone_constant": crep.cone_constant,
        "full_constant": crep.full_constant,
        "constant_ratio": crep.ratio_constants,
        "kappa_hat": None if crep.kappa_hat == float("inf") else crep.kappa_hat,
        "delta": gd.delta,
        "m_mass": mc.m_mass,
        "sphere_sizes": None if params is None else [sphere_size(params, j) for j in range(0, 7)],
        "ball_measure_R3": None if params is None else mgamma_ball_measure(params, gd.delta, 3, mc.m_mass),
        "normalization": gd.normalization,
    }
    cover = "not biregular" if params is None else f"biregular ({params.qd + 1}, {params.qdp + 1})"
    summary = [
        f"{cover}; delta = {gd.delta!r}",
        f"renewal constant C* = {crep.cstar!r}"
        + (f" (exact {crep.cstar_exact})" if crep.cstar_exact is not None else "")
        + f" [{crep.renewal_method}]",
        f"main-term constants: cone {crep.cone_constant!r} through {crep.cone_edge}, "
        f"full {crep.full_constant!r} (ratio {crep.ratio_constants!r})",
        f"fitted error exponent kappa = {crep.kappa_hat!r}",
    ]
    return {
        "count.json": payload,
        "count.csv": {"header": list(rows[0]), "rows": rows},
        "summary": summary,
    }


def _probe_fn(name, spec, kind_default):
    kind = spec.get("kind", kind_default)
    if kind == "one_minus_inv":
        return lambda n: 1.0 - 1.0 / (1.0 + abs(n))
    if kind == "constant":
        c = float(spec.get("value", 0.5))
        return lambda n: c
    if kind == "uniform":
        return lambda n: 1.0
    if kind == "geometric":
        a = float(spec.get("value", 0.5))
        return lambda n: a ** abs(n)
    raise ConfigError(f"probe.{name}.kind: unknown probe profile kind {kind!r}")


def _probe_profiles(cfg):
    """(gamma, beta) for the star family, checked on every truncation: each
    gamma(n) in [0, 1), each beta(n) >= 0, and some beta(n) > 0."""
    try:
        gamma = _probe_fn("gamma", cfg.probe_gamma, "one_minus_inv")
        beta = _probe_fn("beta", cfg.probe_beta, "uniform")
        # the truncations are nested, so the largest one holds every n
        top = max(cfg.truncations, default=-1)
        values = [(n, float(gamma(n)), float(beta(n))) for n in range(-top, top + 1)]
    except OverflowError as exc:
        raise ConfigError(f"probe: profile value overflows ({exc})") from exc
    for n, g, b in values:
        if not 0.0 <= g < 1.0:
            raise ConfigError(f"probe.gamma: gamma({n}) = {g!r} outside [0, 1)")
        if not b >= 0.0:
            raise ConfigError(f"probe.beta: beta({n}) = {b!r} is negative")
    low = min(cfg.truncations, default=0)
    if values and not any(b > 0.0 for n, _, b in values if abs(n) <= low):
        raise ConfigError(f"probe.beta: beta(n) = 0 for every n in [{-low}, {low}]")
    return gamma, beta


def _cmd_probe(cfg):
    from .wsg import degradation_probe

    gamma, beta = _probe_profiles(cfg)
    _progress(f"probing truncations {list(cfg.truncations)}")
    rows = degradation_probe(gamma, beta, cfg.truncations)
    ok_monotone = all(rows[i + 1]["rho"] > rows[i]["rho"] for i in range(len(rows) - 1))
    payload = {"rows": rows, "rho_strictly_increasing": ok_monotone}
    summary = [
        "best feasible rho per truncation:",
        *[f"  N={r['N']}: rho={r['rho']!r} (gamma bound {r['gamma_bound']!r})" for r in rows],
        f"strictly increasing: {ok_monotone}",
    ]
    return {
        "probe.json": payload,
        "probe.csv": {"header": ["N", "rho", "feasible", "gamma_bound"], "rows": rows},
        "summary": summary,
    }


_DISPATCH = {
    "analyze": _cmd_analyze,
    "chain": _cmd_chain,
    "wsg": _cmd_wsg,
    "mix": _cmd_mix,
    "count": _cmd_count,
    "probe": _cmd_probe,
}


def run_command(cfg: RunConfig):
    """Execute one subcommand; returns (exit_code, written files)."""
    try:
        results = _DISPATCH[cfg.command](cfg)
    except (ConfigError, GraphError) as exc:
        _progress(f"config error: {exc}")
        return 2, []
    except NUMERIC_ERRORS as exc:
        extra = getattr(exc, "tail_critical", None)
        _progress(f"numeric non-convergence: {exc}" + (f" (tail critical {extra})" if extra else ""))
        return 3, []
    except ResourceLimitError as exc:
        _progress(f"resource guard: {exc}")
        return 4, []
    written = emit_report(results, cfg.out, cfg)
    return 0, written


def main(argv=None):
    try:
        cfg = parse_config(argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    code, written = run_command(cfg)
    for path in written:
        _progress(f"wrote {path}")
    return code


if __name__ == "__main__":
    sys.exit(main())
