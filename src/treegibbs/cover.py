"""Explicit universal-cover balls.

Brute-force substrate for cross-checking the counting DP and the sphere-size
formulas: every cover vertex is enumerated one by one, with child counts
taken directly from the edge multiplicities.  Funnel interiors are expanded
from their regular branching specs; tails are unrolled on demand.

``build_cover_ball`` keeps one ``CoverNode`` per vertex; ``cover_census``
only counts, walking the ball in blocks of vertices, one int array entry per
vertex (memory about radius x block x max degree ids).  Neither sums a
multiplicity, so both stay independent of the counting DP.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError
from .graph import IndexedGraph, materialize

NODE_LIMIT = 2_000_000
CENSUS_BLOCK = 4096  # cover vertices per block of the census walk


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


def _state_table(g: IndexedGraph, base: str, radius: int):
    """(label, ptr, flat, names): the quotient states met within ``radius``.

    States are the (kind, payload) pairs of ``_expansion``, numbered breadth
    first from ("root", base), so state 0 is the root.  ``label[s]`` indexes
    ``names``, the vertex label of state s.  The children of state s are
    ``flat[ptr[s]:ptr[s + 1]]``, one entry per child, so a multiplicity is a
    repeated entry.  A state first met at depth ``radius`` is never expanded
    by the walk and keeps an empty child range.
    """
    mat, children = _expansion(g, radius)
    index = {("root", base): 0}
    states = [("root", base)]
    ptr, flat = [0], []
    level = [("root", base)]
    for _ in range(radius):
        nxt = []
        for state in level:
            for child in children(*state):
                s = index.get(child)
                if s is None:
                    s = index[child] = len(states)
                    states.append(child)
                    nxt.append(child)
                flat.append(s)
            ptr.append(len(flat))
        level = nxt
    ptr += [len(flat)] * (len(states) + 1 - len(ptr))
    names, label = {}, []
    for kind, payload in states:
        if kind == "root":
            name = payload
        elif kind == "edge":
            name = mat.term[payload]
        else:
            k, din = payload
            name = f"~f{k}.d{din}"
        label.append(names.setdefault(name, len(names)))
    return (
        np.array(label, dtype=np.intp),
        np.array(ptr, dtype=np.intp),
        np.array(flat, dtype=np.intp),
        list(names),
    )


def cover_census(g: IndexedGraph, base: str, radius: int, node_limit=50_000_000):
    """Counter over (label, depth), enumerating every cover vertex individually.

    Memory-light variant of build_cover_ball for large radii, and still an
    explicit enumeration, not a weighted DP.  Each stack entry is a block of
    at most ``CENSUS_BLOCK`` cover vertices at one depth, one state id per
    vertex.  A pop expands its block with one gather over the child table of
    ``_state_table`` (one entry per child, multiplicities repeated) and adds
    ``np.bincount`` of the children's labels to their depth's row; the stack
    holds at most about radius x ``CENSUS_BLOCK`` x max degree ids.  Raises
    ResourceLimitError when the ball has more than ``node_limit`` vertices.
    """
    label, ptr, flat, names = _state_table(g, base, radius)
    hist = np.zeros((radius + 1, len(names)), dtype=np.int64)
    hist[0, label[0]] = 1
    total = 1
    # DFS over (block of state ids, depth); each block entry = one cover vertex
    stack = [(np.zeros(1, dtype=np.intp), 0)] if radius >= 1 else []
    while stack:
        block, depth = stack.pop()
        first = ptr[block]
        deg = ptr[block + 1] - first
        n = int(deg.sum())
        if n == 0:
            continue
        total += n
        if total > node_limit:
            raise ResourceLimitError(f"cover census exceeds {node_limit} vertices")
        # child slot j of block entry i sits at flat[first[i] + j]
        kids = flat[np.repeat(first - (np.cumsum(deg) - deg), deg) + np.arange(n)]
        hist[depth + 1] += np.bincount(label[kids], minlength=len(names))
        if depth + 1 < radius:
            for lo in range(0, n, CENSUS_BLOCK):
                stack.append((kids[lo : lo + CENSUS_BLOCK], depth + 1))
    counts = Counter()
    for depth, lbl in zip(*np.nonzero(hist)):
        counts[(names[lbl], int(depth))] = int(hist[depth, lbl])
    return counts
