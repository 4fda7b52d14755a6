"""Orbit-count table for a fixture: brute-force DP counts against the main
terms of the counting formula and the geometric term C* e^(2 delta n).

Usage:
    python scripts/counting_table.py [--fixture single_edge_3] [--nlo 5] [--nhi 20]
"""

import argparse
import sys

from treegibbs import fixtures as fx
from treegibbs.chain import build_chain
from treegibbs.counting import error_decay_report
from treegibbs.gibbs import compute_gibbs
from treegibbs.graph import propagate_orders


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fixture", default="single_edge_3")
    ap.add_argument("--nlo", type=int, default=5)
    ap.add_argument("--nhi", type=int, default=20)
    ns = ap.parse_args(argv)
    g = fx.get(ns.fixture)
    orders = propagate_orders(g)
    gd = compute_gibbs(g)
    mc = build_chain(g, gd, orders)
    rep = error_decay_report(g, orders, None, gd, mc.m_mass, None, ns.nlo, ns.nhi)
    print(f"fixture {ns.fixture}: delta={gd.delta!r}, C*={rep.cstar!r} "
          f"({rep.cstar_exact if rep.cstar_exact is not None else rep.renewal_method}), "
          f"kappa_hat={rep.kappa_hat!r}")
    print(f"constants: cone {rep.cone_constant!r} through {rep.cone_edge}, "
          f"full {rep.full_constant!r}, ratio {rep.ratio_constants!r}")
    hdr = (f"{'n':>4} {'oracle N(2n)':>18} {'C* e^(2dn)':>18} {'residual':>14} "
           f"{'full/oracle':>14} {'cone/oracle':>14}")
    print(hdr)
    for row in rep.rows():
        print(
            f"{row['n']:>4} {row['oracle']:>18.6f} {row['cstar_geom']:>18.6f} "
            f"{row['residual']:>14.6e} {row['ratio_full']:>14.10f} {row['ratio_cone']:>14.10f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
