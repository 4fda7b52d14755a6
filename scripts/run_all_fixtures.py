"""Run the full pipeline over every shipped fixture and tabulate the headline
numbers (exponent, period, chain residuals, certificate rho, counting
constant C*: the Perron value on finite quotients, the main term on tailed
ones), and the mixing numbers of ``mix`` at its default n_max: the fitted
rate theta, the number of points the fit used, and the gap between the mean
return time and Kac's 1/pi_j at the same state.

Usage:
    python scripts/run_all_fixtures.py [--depth 90] [--out out/fixtures.csv]
"""

import argparse
import csv
import math
import os
import sys

from treegibbs import fixtures as fx
from treegibbs.chain import (
    build_chain,
    check_markov_property,
    cyclic_classes,
    mean_return_time,
    mixing_rate_estimate,
)
from treegibbs.counting import biregular_params, main_term, nu_mass_at, renewal_constant
from treegibbs.errors import DivergenceError, TreeGibbsError
from treegibbs.gibbs import compute_gibbs
from treegibbs.graph import length_spectrum_period, propagate_orders
from treegibbs.wsg import search_certificate

MIX_N_MAX = 40  # the CLI's default n_max


def run_one(name, depth):
    g = fx.get(name)
    row = {"fixture": name}
    orders = propagate_orders(g)
    row["k"] = length_spectrum_period(g)
    try:
        gd = compute_gibbs(g, depth=depth)
    except DivergenceError as exc:
        row["delta"] = f"diverges (tail critical {exc.tail_critical:.6f})"
        return row
    row["delta"] = f"{gd.delta:.12f}"
    mc = build_chain(g, gd, orders)
    rep = check_markov_property(mc, gd)
    row["states"] = len(mc.states)
    row["max_residual"] = f"{rep.max_residual:.2e}"
    out = search_certificate(mc)
    row["rho"] = f"{out.infimum_rho:.6f}" if out.feasible else "infeasible"
    j = cyclic_classes(mc)[0][0]
    fit = mixing_rate_estimate(mc, j, j, MIX_N_MAX)
    row["theta"] = f"{fit.theta:.6f}" + (" exact" if fit.exact else "")
    row["fit_points"] = fit.n_points
    mr = mean_return_time(mc, j, MIX_N_MAX)
    row["kac_gap"] = f"{abs(1.0 / mc.pi_of(j) - mr.estimate):.2e} (bound {mr.tail_bound:.2e})"
    try:
        params = biregular_params(g)
        row["biregular"] = f"({params.qd + 1},{params.qdp + 1})"
    except TreeGibbsError:
        row["biregular"] = "n/a"
    if g.tails:
        nu = nu_mass_at(gd, g.base_vertex)
        row["cstar"] = f"{main_term(gd, mc.m_mass, 0, row['k'], nu, nu).full_constant:.9f}"
    else:
        rc = renewal_constant(g, orders)
        row["cstar"] = str(rc.exact) if rc.exact is not None else f"{rc.value:.9f}"
    return row


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--depth", type=int, default=90)
    ap.add_argument("--out", default="out/fixtures.csv")
    ns = ap.parse_args(argv)
    rows = []
    for name in sorted(fx.FIXTURES):
        print(f"running {name} ...", file=sys.stderr)
        rows.append(run_one(name, ns.depth))
    cols = ["fixture", "k", "delta", "states", "max_residual", "rho", "theta", "fit_points",
            "kac_gap", "biregular", "cstar"]
    os.makedirs(os.path.dirname(ns.out) or ".", exist_ok=True)
    with open(ns.out, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=cols, restval="")
        w.writeheader()
        w.writerows(rows)
    for row in rows:
        print("  ".join(f"{c}={row.get(c, '')}" for c in cols))
    print(f"wrote {ns.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
