"""Write every named fixture of ``treegibbs.fixtures`` as a JSON config.

The shipped ``fixtures/`` directory is this script's output; run it again
after changing a builder.

Usage:
    PYTHONPATH=src python scripts/write_fixtures.py [DIR]   # default: fixtures/
"""

import json
import os
import sys

from treegibbs import fixtures as fx
from treegibbs.graph import graph_to_dict

FIXTURE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "fixtures")


def write_all(directory):
    """Write ``<name>.json`` per fixture into ``directory``; name -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name in sorted(fx.FIXTURES):
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(graph_to_dict(fx.get(name)), fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths[name] = path
    return paths


if __name__ == "__main__":
    for path in write_all(sys.argv[1] if len(sys.argv) > 1 else FIXTURE_DIR).values():
        print(path)
