"""Directed-graph algorithms on integer successor lists.

A digraph on nodes 0..n-1 is a list ``succ`` of n lists: ``succ[v]`` holds the
heads of the arcs leaving v.  Traversals visit successors in list order;
``from_matrix`` lists them in ascending order, so results on a matrix do not
depend on anything but the matrix.

``Digraph`` holds one digraph's successor lists and answers the structural
questions the pipeline asks of it: the breadth-first search from node 0 (its
levels and gcd), strong connectivity, the nodes on a closed path, the gcd of
the cycle lengths and the Tarjan components.  Each answer is computed on first
use and kept, so every consumer of one window's arcs
(``MaterializedGraph.arc_digraph``) shares one pass per question.  Every
traversal is linear in the arcs.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np


def from_arcs(src, dst, n):
    """Successor lists on n nodes of the arcs src[k] -> dst[k], given row by
    row (``src`` ascending); each list keeps the order of its arcs."""
    ends = np.searchsorted(src, np.arange(1, n + 1)).tolist()
    dst = np.asarray(dst).tolist()
    return [dst[a:b] for a, b in zip([0] + ends, ends)]


def from_matrix(adj):
    """Successor lists of the nonzero pattern of a square matrix, ascending."""
    adj = np.asarray(adj)
    # np.nonzero walks the pattern row by row, columns ascending within a row
    return from_arcs(*np.nonzero(adj), adj.shape[0])


def reverse(succ):
    """Successor lists of the digraph with every arc reversed."""
    pred = [[] for _ in succ]
    for v, ws in enumerate(succ):
        for w in ws:
            pred[w].append(v)
    return pred


def reachable(succ, sources):
    """Set of nodes reachable from ``sources`` (the sources included)."""
    seen = set(sources)
    stack = list(seen)
    while stack:
        for w in succ[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def strongly_connected(succ):
    """Whether the digraph is one strongly connected component, as
    ``len(sccs(succ)) == 1`` says: node 0 reaches every node and every node
    reaches node 0."""
    n = len(succ)
    return n > 0 and len(reachable(succ, [0])) == n and len(reachable(reverse(succ), [0])) == n


def sccs(succ):
    """Strongly connected components by iterative Tarjan.

    Roots are tried in ascending order.  Components come out in reverse
    topological order, each listed in the order it leaves the Tarjan stack.
    """
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    onstack = [False] * n
    stack = []
    comps = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        onstack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    onstack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if onstack[w]:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        onstack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(comp)
    return comps


def has_cycle(succ, comp):
    """Whether a strongly connected component carries a closed path."""
    return len(comp) > 1 or comp[0] in succ[comp[0]]


def period(succ, root, within=None):
    """(gcd, levels) of a breadth-first search from ``root``.

    ``levels`` maps each node reached (inside the set ``within``, when given)
    to its BFS depth; ``gcd`` is the gcd of level(v) + 1 - level(w) over the
    arcs v -> w met whose head was already levelled, 0 when there is none.  On
    a strongly connected component this is the gcd of its cycle lengths.
    """
    levels = {root: 0}
    order = [root]
    gaps = set()
    for v in order:
        up = levels[v] + 1
        for w in succ[v]:
            if within is not None and w not in within:
                continue
            lw = levels.get(w)
            if lw is None:
                levels[w] = up
                order.append(w)
            else:
                gaps.add(up - lw)
    return math.gcd(*gaps), levels


class Digraph:
    """The digraph ``succ`` with its structural facts, each computed on first
    use and kept.

    A strongly connected digraph answers everything from two walks: the
    breadth-first search from node 0 (``search``) and one reverse reach.
    Otherwise ``oncycle`` and ``period`` read the Tarjan ``components``.
    """

    def __init__(self, succ):
        self.succ = succ

    @cached_property
    def search(self):
        """``period(succ, 0)``: (gcd, levels) of a breadth-first search from
        node 0; (0, {}) without nodes."""
        return period(self.succ, 0) if self.succ else (0, {})

    @cached_property
    def pred(self):
        """``reverse(succ)``: the predecessor lists."""
        return reverse(self.succ)

    @cached_property
    def strong(self):
        """Whether the digraph is one strongly connected component, as
        ``strongly_connected`` says."""
        n = len(self.succ)
        return n > 0 and len(self.search[1]) == n and len(reachable(self.pred, [0])) == n

    @cached_property
    def components(self):
        """``sccs(succ)``, in Tarjan's order."""
        return sccs(self.succ)

    @cached_property
    def _cyclic(self):
        if self.strong:
            return [range(len(self.succ))] if self.search[0] else []
        return [comp for comp in self.components if has_cycle(self.succ, comp)]

    @cached_property
    def oncycle(self):
        """The nodes on a closed path, as a set."""
        return {v for comp in self._cyclic for v in comp}

    @cached_property
    def period(self):
        """The gcd of the cycle lengths over the components carrying a
        closed path; 0 without one.  On a strongly connected digraph this is
        the gcd of ``search``."""
        if self.strong:
            return self.search[0]
        k = 0
        for comp in self._cyclic:
            k = math.gcd(k, period(self.succ, comp[0], within=set(comp))[0])
        return k
