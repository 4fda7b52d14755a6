"""Explicit universal-cover balls.

Brute-force substrate for cross-checking the counting DP and the sphere-size
formulas: every cover vertex is enumerated one by one, with child counts
taken directly from the edge multiplicities.  Funnel interiors are expanded
from their regular branching specs; tails are unrolled on demand.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass

from .errors import ResourceLimitError
from .graph import IndexedGraph, materialize

NODE_LIMIT = 2_000_000


@dataclass
class CoverNode:
    label: str
    depth: int
    parent: int
    via_edge: str  # quotient edge of the step into this node ("" at the root)
    children: list


@dataclass
class CoverBall:
    base: str
    radius: int
    nodes: list  # CoverNode, index 0 is the root

    def label_counts(self):
        """Counter over (label, depth)."""
        c = Counter()
        for nd in self.nodes:
            c[(nd.label, nd.depth)] += 1
        return c

    def sphere_sizes(self):
        c = Counter()
        for nd in self.nodes:
            c[nd.depth] += 1
        return [c[d] for d in range(self.radius + 1)]

    def adjacency(self):
        """Undirected neighbor lists (indices), for boundary computations."""
        nbr = [[] for _ in self.nodes]
        for i, nd in enumerate(self.nodes):
            if nd.parent >= 0:
                nbr[i].append(nd.parent)
                nbr[nd.parent].append(i)
        return nbr


def _expansion(g: IndexedGraph, radius: int):
    """(mat, children) for enumerating the cover ball of the given radius.

    ``children(kind, payload)`` lists the children of one cover vertex as
    (kind, payload) pairs, one per child, in a fixed order.  kind "root":
    payload = the base vertex; kind "edge": payload = quotient edge just
    traversed; kind "funnel": payload = (funnel_idx, depth_inside).  The list
    depends only on the quotient state, so it is computed once per state.
    """
    mat = materialize(g, radius + 1)
    entry_by_root = {g.term[f.entry_edge]: (k, f) for k, f in enumerate(g.funnels)}

    @functools.lru_cache(maxsize=None)
    def children(kind, payload):
        if kind == "funnel":
            k, din = payload
            return (("funnel", (k, din + 1)),) * g.funnels[k].children(din)
        if kind == "root":
            v = payload
            out = [("edge", e) for e in mat.out_edges(v) for _ in range(mat.index[mat.rev[e]])]
            enters = v in entry_by_root
        else:
            e, v = payload, mat.term[payload]
            out = [("edge", f) for f, m in mat.continuations(e) for _ in range(m)]
            enters = v in entry_by_root and e == entry_by_root[v][1].entry_edge
        if enters:
            k, fs = entry_by_root[v]
            out += [("funnel", (k, 1))] * fs.children(0)
        return tuple(out)

    return mat, children


def build_cover_ball(g: IndexedGraph, base: str, radius: int, node_limit=NODE_LIMIT) -> CoverBall:
    """Exact ball of the universal cover around a lift of ``base``.

    Node labels are quotient vertex ids; funnel interior vertices get
    synthetic labels ~f<k>.d<depth>.
    """
    mat, children = _expansion(g, radius)
    nodes = [CoverNode(base, 0, -1, "", [])]
    # frontier entries: (parent node index, kind, payload) as in _expansion
    frontier = [(0, kind, payload) for kind, payload in children("root", base)]
    for depth in range(1, radius + 1):
        nxt = []
        for parent, kind, payload in frontier:
            if len(nodes) >= node_limit:
                raise ResourceLimitError(
                    f"cover ball exceeds {node_limit} vertices at radius {depth}"
                )
            idx = len(nodes)
            if kind == "edge":
                nodes.append(CoverNode(mat.term[payload], depth, parent, payload, []))
            else:
                k, din = payload
                nodes.append(CoverNode(f"~f{k}.d{din}", depth, parent, f"~f{k}", []))
            nodes[parent].children.append(idx)
            if depth == radius:
                continue
            for ck, cp in children(kind, payload):
                nxt.append((idx, ck, cp))
        frontier = nxt
    return CoverBall(base, radius, nodes)


def cover_census(g: IndexedGraph, base: str, radius: int, node_limit=50_000_000):
    """Counter over (label, depth), enumerating every cover vertex individually.

    Memory-light variant of build_cover_ball for large radii; still an
    explicit one-iteration-per-vertex enumeration, not a weighted DP.
    """
    mat, children = _expansion(g, radius)
    counts = Counter()
    counts[(base, 0)] += 1
    total = 1
    # DFS over (kind, payload, depth); each pop = one cover vertex
    stack = []
    if radius >= 1:
        for kind, payload in children("root", base):
            stack.append((kind, payload, 1))
    while stack:
        kind, payload, depth = stack.pop()
        total += 1
        if total > node_limit:
            raise ResourceLimitError(f"cover census exceeds {node_limit} vertices")
        if kind == "edge":
            counts[(mat.term[payload], depth)] += 1
        else:
            k, din = payload
            counts[(f"~f{k}.d{din}", depth)] += 1
        if depth == radius:
            continue
        for ck, cp in children(kind, payload):
            stack.append((ck, cp, depth + 1))
    return counts
