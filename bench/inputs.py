"""Seeded input generators for the benchmark.

Every generator takes a ``random.Random`` and returns a graph config dict in
the schema of ``treegibbs.graph.graph_from_dict``.  ``load_checked`` writes
the dict to disk, reads it back through the package's own loader and raises
``InputError`` unless the graph validates and carries a consistent order
grading, so a generator fault stops the run instead of silently shrinking a
workload.
"""

from __future__ import annotations

import json
import os


class InputError(Exception):
    """A generated or shipped input failed validation."""


class _Builder:
    """Symmetric-index core under construction: i(e) = i(rev e) keeps every
    cycle's index ratio at 1, so any connected result is unimodular."""

    def __init__(self, n_vertices):
        self.n = n_vertices
        self.edges = []  # (u, v, index)
        self.lift = [0] * n_vertices  # lift degree = sum of incident indices

    def add(self, u, v, index=1):
        self.edges.append([u, v, index])
        self.lift[u] += index
        self.lift[v] += index

    def to_dict(self):
        edges = []
        for k, (u, v, i) in enumerate(self.edges):
            edges.append({"id": f"e{k}", "rev": f"e{k}r", "from": f"v{u}", "to": f"v{v}", "index": i})
            edges.append({"id": f"e{k}r", "rev": f"e{k}", "from": f"v{v}", "to": f"v{u}", "index": i})
        return {
            "vertices": [f"v{k}" for k in range(self.n)],
            "edges": edges,
            "tails": [],
            "funnels": [],
            "orders": {"base_vertex": "v0", "base_value": "1"},
        }


def unimodular_core(rng, n_vertices, max_index=3):
    """Random connected finite core with symmetric indices in 1..max_index.

    A random recursive spanning tree plus ``n_vertices + 1`` extra edges
    between distinct vertices, so the core has exactly ``2 n_vertices``
    geometric edges (``4 n_vertices`` chain states).  Vertices whose lift
    degree is below 3 get an incident index raised, which keeps the edge
    count fixed and the cover free of degree-2 vertices.
    """
    if n_vertices < 2:
        raise InputError("a unimodular core needs at least 2 vertices")
    b = _Builder(n_vertices)
    for v in range(1, n_vertices):
        b.add(rng.randrange(v), v, rng.randint(1, max_index))
    for _ in range(n_vertices + 1):
        u, v = rng.sample(range(n_vertices), 2)
        b.add(u, v, rng.randint(1, max_index))
    for v in range(n_vertices):
        for edge in b.edges:
            if b.lift[v] >= 3:
                break
            if v in edge[:2] and edge[2] < max_index:
                bump = min(max_index - edge[2], 3 - b.lift[v])
                edge[2] += bump
                b.lift[edge[0]] += bump
                b.lift[edge[1]] += bump
        if b.lift[v] < 3:
            raise InputError(f"vertex v{v} stuck at lift degree {b.lift[v]}")
    return b.to_dict()


def bipartite_core(rng, n_vertices, degrees=(3, 4)):
    """Random connected bipartite core, all indices 1, zero potential.

    Vertex v lies on side v % 2.  Each side gets the same multiset of degree
    targets (``degrees`` cycled over its vertices, shuffled), so the edge count
    depends only on ``n_vertices`` and not on the seed.  The spanning tree
    attaches each new vertex to an already-placed vertex on the opposite side
    (attaching to an arbitrary earlier vertex can leave a side with no
    neighbour and the core disconnected); the remaining edge ends are paired
    across the sides at random, parallel edges allowed.
    """
    if n_vertices < 2 or n_vertices % 2:
        raise InputError("a bipartite core needs an even number >= 2 of vertices")
    half = n_vertices // 2
    target = [0] * n_vertices
    for side in (0, 1):
        degs = [degrees[k % len(degrees)] for k in range(half)]
        rng.shuffle(degs)
        for k, d in enumerate(degs):
            target[2 * k + side] = d
    b = _Builder(n_vertices)
    b.add(0, 1)
    for v in range(2, n_vertices):
        cands = [u for u in range(v) if u % 2 != v % 2 and b.lift[u] < target[u]]
        if not cands:
            raise InputError(f"no opposite-side vertex with free degree for v{v}")
        b.add(rng.choice(cands), v)
    stubs = [[], []]
    for v in range(n_vertices):
        if b.lift[v] > target[v]:
            raise InputError(f"vertex v{v} exceeds its degree target")
        stubs[v % 2] += [v] * (target[v] - b.lift[v])
    if len(stubs[0]) != len(stubs[1]):
        raise InputError("unbalanced free degree across the bipartition")
    rng.shuffle(stubs[1])
    for u, v in zip(stubs[0], stubs[1]):
        b.add(u, v)
    return b.to_dict()


def load_checked(tg, config, path):
    """Write ``config`` to ``path``, load it back and validate it.

    ``tg`` is the imported ``treegibbs`` package.  Returns (graph, orders).
    """
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=1, sort_keys=True)
    return check_graph_file(tg, path)


def check_graph_file(tg, path):
    """Load a graph config, validate it and propagate its order grading."""
    g = tg.graph_from_json(path)
    report = tg.validate_graph(g)
    if not report.ok:
        raise InputError(f"{path}: invalid graph\n{report}")
    try:
        orders = tg.propagate_orders(g)
    except tg.errors.GraphError as exc:
        raise InputError(f"{path}: no order grading ({exc})") from exc
    return g, orders
