"""List what changed between two artifact trees, field by field.

Reads the ``out/`` directories that ``artifact_digests.py --work DIR`` leaves
in two work directories (say, one run on the parent commit and one on the
change).  For every artifact whose bytes differ it prints one header line

    <run>/<file>: <k> changed, max rel change <r> at <field>

followed by one indented ``<field>: <before> -> <after>`` line per changed JSON
leaf (``a.b[3]``), CSV cell (``row 4 pi``, data rows counted from 1) or text
line (``line 4``).  The relative change of two numbers is
|after - before| / max(|before|, |after|); a text line counts the largest one
over the numbers it contains.  Artifacts present on one side only are
reported as such.  ``grep -v '^ '`` keeps the header lines only.

Usage:
    PYTHONPATH=src python scripts/artifact_digests.py --work PARENT_WORK   # on the parent
    PYTHONPATH=src python scripts/artifact_digests.py --work CHANGE_WORK   # on the change
    python scripts/artifact_changes.py PARENT_WORK CHANGE_WORK
"""

import argparse
import csv
import json
import math
import os
import re
import sys

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?\binf\b|\bnan\b")


def _artifacts(work):
    root = os.path.join(work, "out")
    found = set()
    for run in os.listdir(root):
        for fname in os.listdir(os.path.join(root, run)):
            found.add(f"{run}/{fname}")
    return root, found


def _leaves(value, path=""):
    """(path, leaf) pairs of a parsed JSON value."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _leaves(value[key], f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from _leaves(item, f"{path}[{k}]")
    else:
        yield path, value


def _json_fields(before, after):
    old, new = dict(_leaves(json.loads(before))), dict(_leaves(json.loads(after)))
    for key in sorted(set(old) | set(new)):
        if old.get(key, "<absent>") != new.get(key, "<absent>"):
            yield key, old.get(key, "<absent>"), new.get(key, "<absent>")


def _csv_fields(before, after):
    old, new = list(csv.reader(before.splitlines())), list(csv.reader(after.splitlines()))
    header = old[0] if old else []
    for r in range(max(len(old), len(new))):
        a = old[r] if r < len(old) else []
        b = new[r] if r < len(new) else []
        for c in range(max(len(a), len(b))):
            x = a[c] if c < len(a) else "<absent>"
            y = b[c] if c < len(b) else "<absent>"
            if x != y:
                yield f"row {r} {header[c] if c < len(header) else c}", x, y


def _text_fields(before, after):
    old, new = before.splitlines(), after.splitlines()
    for k in range(max(len(old), len(new))):
        x = old[k] if k < len(old) else "<absent>"
        y = new[k] if k < len(new) else "<absent>"
        if x != y:
            yield f"line {k + 1}", x, y


def _numbers(value):
    if isinstance(value, bool):
        return []
    if isinstance(value, (int, float)):
        return [float(value)]
    return [float(m) for m in NUMBER.findall(str(value))]


def rel_change(before, after):
    """Largest relative change over paired numbers; None when they do not pair up."""
    xs, ys = _numbers(before), _numbers(after)
    if not xs or len(xs) != len(ys):
        return None
    worst = 0.0
    for x, y in zip(xs, ys):
        if x == y:
            continue
        if not (math.isfinite(x) and math.isfinite(y)):
            return math.inf
        worst = max(worst, abs(y - x) / max(abs(x), abs(y)))
    return worst


def changes(parent_work, change_work):
    """Yield the report lines."""
    old_root, old = _artifacts(parent_work)
    new_root, new = _artifacts(change_work)
    for name in sorted(old | new):
        if name not in new:
            yield f"{name}: only in {parent_work}"
            continue
        if name not in old:
            yield f"{name}: only in {change_work}"
            continue
        with open(os.path.join(old_root, name), "rb") as fh:
            before = fh.read()
        with open(os.path.join(new_root, name), "rb") as fh:
            after = fh.read()
        if before == after:
            continue
        split = {".json": _json_fields, ".csv": _csv_fields}.get(
            os.path.splitext(name)[1], _text_fields
        )
        fields = list(split(before.decode("utf-8"), after.decode("utf-8")))
        rels = [(rel_change(x, y), key) for key, x, y in fields]
        known = [(r, key) for r, key in rels if r is not None]
        if known:
            r, key = max(known)
            worst = f"max rel change {r:.2g} at {key}"
        else:
            worst = "no paired numbers"
        yield f"{name}: {len(fields)} changed, {worst}"
        for key, x, y in fields:
            yield f"  {key}: {x} -> {y}"


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("parent_work", help="work directory of the parent's artifact_digests.py run")
    ap.add_argument("change_work", help="work directory of the change's artifact_digests.py run")
    ns = ap.parse_args(argv)
    for line in changes(ns.parent_work, ns.change_work):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
