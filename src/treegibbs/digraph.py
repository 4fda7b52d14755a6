"""Directed-graph algorithms on integer successor lists.

A digraph on nodes 0..n-1 is a list ``succ`` of n lists: ``succ[v]`` holds the
heads of the arcs leaving v.  Traversals visit successors in list order;
``from_matrix`` lists them in ascending order, so results on a matrix do not
depend on anything but the matrix.
"""

from __future__ import annotations

import math

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
    g = 0
    for v in order:
        for w in succ[v]:
            if within is not None and w not in within:
                continue
            if w not in levels:
                levels[w] = levels[v] + 1
                order.append(w)
            else:
                g = math.gcd(g, levels[v] + 1 - levels[w])
    return g, levels
