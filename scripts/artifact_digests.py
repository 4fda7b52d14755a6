"""Print a sha256 digest of every CLI artifact over the shipped fixtures.

Runs analyze, chain, wsg, mix and count on every config under fixtures/,
plus probe with its default settings, then the same five commands on a few
tailed fixtures with a tail potential (``POTENTIAL_RUNS``), on two fixtures
with a core-edge potential (``EDGE_POTENTIAL_RUNS``), and the runs at a
deeper unroll in ``DEPTH_RUNS``.  It prints one ``exit <code>  <run>`` line
per run followed by one ``<sha256>  <run>/<file>`` line per artifact, where
``<run>`` is ``<command>_<fixture>`` (or ``probe``,
``<command>_<fixture>+<potential>`` or ``<command>_<fixture>@depth<depth>``).
Then it prints one ``<sha256>  census_<fixture>`` line per fixture: the
digest of the sorted ``label depth count`` rows of ``cover_census`` around
the fixture's base vertex at radius ``CENSUS_RADIUS``.  The artifact bits
depend on the BLAS kernel, so the OpenBLAS core in use goes to stderr first.
Each config names its graph and potential by paths relative to the config
file, so the input hash stamped into the artifacts does not depend on where
the checkout lives.  Diffing the output of two checkouts lists the artifacts
whose bytes differ.

Usage:
    PYTHONPATH=src python scripts/artifact_digests.py [--work DIR] > digests.txt
"""

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import shutil
import sys
import tempfile

from treegibbs.cli import main as cli_main
from treegibbs.cover import cover_census
from treegibbs.graph import graph_from_json

FIXTURE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "fixtures")
GRAPH_COMMANDS = ("analyze", "chain", "wsg", "mix", "count")
CENSUS_RADIUS = 9

# (fixture, name, potential): tail potentials whose prefix or period length
# differs from the tail's own, so the chain and its tail blocks follow the
# joint period
POTENTIAL_RUNS = (
    ("cusp_22", "period2", {"period": [[0.1, -0.05], [0.02, 0.03]]}),
    ("cusp_22", "prefix1", {"prefix": [[0.3, 0.1]], "period": [[0.1, 0.1]]}),
    ("thick_ray_5", "period2", {"period": [[0.1, -0.05], [-0.2, 0.03]]}),
)

# (fixture, name, edge values): core-edge potentials that differ from their
# reversal, so the reversed and zero-potential solves, the float counting DP
# and the float renewal constant run on a finite quotient too
EDGE_POTENTIAL_RUNS = (
    ("parallel_edges", "edges", {"e1": 0.3, "e1bar": -0.1, "e2": 0.2}),
    ("cusp_22", "edges", {"c": 0.2, "cbar": 0.05}),
)


# (command, fixture, depth): runs with the tails unrolled deeper than the
# default, the deepest one the benchmark's tail_cli workload runs
DEPTH_RUNS = (("chain", "thick_ray_5", 360),)


def _potentials():
    """(fixture, name, potential config) of every potential run."""
    for name, pot, tail_values in POTENTIAL_RUNS:
        yield name, pot, {"tail_values": [dict(tail_index=0, **tail_values)]}
    for name, pot, edges in EDGE_POTENTIAL_RUNS:
        yield name, pot, {"edges": edges}


def _runs():
    names = sorted(f[:-5] for f in os.listdir(FIXTURE_DIR) if f.endswith(".json"))
    for cmd in GRAPH_COMMANDS:
        for name in names:
            yield f"{cmd}_{name}", cmd, {"graph": f"graphs/{name}.json"}
    yield "probe", "probe", {}
    for runs in (POTENTIAL_RUNS, EDGE_POTENTIAL_RUNS):
        for cmd in GRAPH_COMMANDS:
            for name, pot, _ in runs:
                config = {"graph": f"graphs/{name}.json", "potential": f"potentials/{name}+{pot}.json"}
                yield f"{cmd}_{name}+{pot}", cmd, config
    for cmd, name, depth in DEPTH_RUNS:
        yield f"{cmd}_{name}@depth{depth}", cmd, {"graph": f"graphs/{name}.json", "depth": depth}


def blas_core():
    """The core name of the OpenBLAS bundled with numpy, or ``unknown``."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def digest_lines(work):
    """Run every command on every fixture under ``work``; yield the output lines."""
    shutil.copytree(FIXTURE_DIR, os.path.join(work, "graphs"))
    os.makedirs(os.path.join(work, "potentials"))
    for name, pot, potential in _potentials():
        path = os.path.join(work, "potentials", f"{name}+{pot}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(potential, fh)
    for run, cmd, config in _runs():
        cfg = os.path.join(work, f"{run}.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        out = os.path.join(work, "out", run)
        print(f"running {run} ...", file=sys.stderr, flush=True)
        code = cli_main([cmd, "--config", cfg, "--out", out])
        yield f"exit {code}  {run}"
        if not os.path.isdir(out):
            continue
        for fname in sorted(os.listdir(out)):
            with open(os.path.join(out, fname), "rb") as fh:
                yield f"{hashlib.sha256(fh.read()).hexdigest()}  {run}/{fname}"


def census_lines():
    """Yield one digest line of the cover census of every shipped fixture."""
    for fname in sorted(f for f in os.listdir(FIXTURE_DIR) if f.endswith(".json")):
        g = graph_from_json(os.path.join(FIXTURE_DIR, fname))
        census = cover_census(g, g.base_vertex, CENSUS_RADIUS)
        rows = "".join(f"{lbl} {d} {n}\n" for (lbl, d), n in sorted(census.items()))
        yield f"{hashlib.sha256(rows.encode()).hexdigest()}  census_{fname[:-5]}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--work",
        default=None,
        help="new directory to keep configs and artifacts in (default: a temporary one)",
    )
    ns = ap.parse_args(argv)
    print(f"openblas core: {blas_core()}", file=sys.stderr, flush=True)
    with contextlib.ExitStack() as stack:
        work = ns.work or stack.enter_context(tempfile.TemporaryDirectory())
        for line in digest_lines(work):
            print(line, flush=True)
    for line in census_lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
