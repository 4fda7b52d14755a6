"""Print a sha256 digest of every CLI artifact over the shipped fixtures.

Runs analyze, chain, wsg, mix and count on every config under fixtures/,
plus probe with its default settings, and prints one ``exit <code>  <run>``
line per run followed by one ``<sha256>  <run>/<file>`` line per artifact,
where ``<run>`` is ``<command>_<fixture>`` (or ``probe``).  Each config names
its graph by a path relative to the config file, so the input hash stamped
into the artifacts does not depend on where the checkout lives.  Diffing the
output of two checkouts lists the artifacts whose bytes differ.

Usage:
    PYTHONPATH=src python scripts/artifact_digests.py [--work DIR] > digests.txt
"""

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import sys
import tempfile

from treegibbs.cli import main as cli_main

FIXTURE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "fixtures")
GRAPH_COMMANDS = ("analyze", "chain", "wsg", "mix", "count")


def _runs():
    names = sorted(f[:-5] for f in os.listdir(FIXTURE_DIR) if f.endswith(".json"))
    for cmd in GRAPH_COMMANDS:
        for name in names:
            yield f"{cmd}_{name}", cmd, {"graph": f"graphs/{name}.json"}
    yield "probe", "probe", {}


def digest_lines(work):
    """Run every command on every fixture under ``work``; yield the output lines."""
    shutil.copytree(FIXTURE_DIR, os.path.join(work, "graphs"))
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


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--work",
        default=None,
        help="new directory to keep configs and artifacts in (default: a temporary one)",
    )
    ns = ap.parse_args(argv)
    with contextlib.ExitStack() as stack:
        work = ns.work or stack.enter_context(tempfile.TemporaryDirectory())
        for line in digest_lines(work):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
