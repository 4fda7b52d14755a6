"""Wall time and peak memory of each CLI command on the seeded scaling cores.

For each V, writes ``bench.inputs.unimodular_core(random.Random(1), V)`` (a
finite core whose chain has 4 V states) as a graph and a config in a
temporary directory, then runs analyze, chain, wsg, mix and count on it, each
in a fresh interpreter with ``OPENBLAS_NUM_THREADS=1``.  That interpreter
times ``treegibbs.cli.main`` and reports its own ``ru_maxrss``, so one line
per run reads

    <command> V=<V> states=<states> exit=<code> wall_s=<s> peak_mb=<MB>

with the wall seconds of the command alone (not the interpreter's start or
its imports) and the peak resident set of the whole process.  Each child
imports the ``treegibbs`` this script imported, so ``PYTHONPATH`` picks the
checkout measured and one script times two checkouts.

Usage:
    PYTHONPATH=src python scripts/scale_peaks.py V [V ...]
"""

import argparse
import importlib.util
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile

import treegibbs

ROOT = pathlib.Path(__file__).resolve().parents[1]
COMMANDS = ("analyze", "chain", "wsg", "mix", "count")

# run in the child: the command's wall seconds and the process's peak RSS
# (kB on Linux) go to stdout as the last line, the CLI's own output to null
_CHILD = """
import contextlib, os, resource, sys, time
from treegibbs.cli import main
with open(os.devnull, "w") as null, contextlib.redirect_stdout(null), contextlib.redirect_stderr(null):
    start = time.perf_counter()
    code = main(sys.argv[1:])
    wall = time.perf_counter() - start
print(code, wall, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def _bench_inputs():
    """bench/inputs.py, loaded by path: ``bench`` is not a package."""
    spec = importlib.util.spec_from_file_location("bench_inputs", ROOT / "bench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(command, config, out):
    """(exit code, wall seconds, peak MB) of one command in a fresh interpreter."""
    package = os.path.dirname(os.path.dirname(os.path.abspath(treegibbs.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=package)
    argv = [sys.executable, "-c", _CHILD, command, "--config", config, "--out", out]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    code, wall, kb = done.stdout.split()[-3:]
    return int(code), float(wall), int(kb) / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("sizes", type=int, nargs="+", metavar="V", help="core vertices")
    ns = ap.parse_args(argv)
    inputs = _bench_inputs()
    with tempfile.TemporaryDirectory() as work:
        for V in ns.sizes:
            graph = os.path.join(work, f"core_{V}.json")
            config = inputs.unimodular_core(random.Random(1), V)
            inputs.load_checked(treegibbs, config, graph)
            cfg = os.path.join(work, f"config_{V}.json")
            with open(cfg, "w", encoding="utf-8") as fh:
                json.dump({"graph": graph}, fh)
            # a finite core's chain has one state per directed edge
            states = len(config["edges"])
            for command in COMMANDS:
                code, wall, peak = run(command, cfg, os.path.join(work, f"{command}_{V}"))
                print(f"{command} V={V} states={states} exit={code} wall_s={wall:.3f} peak_mb={peak:.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
