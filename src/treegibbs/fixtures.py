"""Named example configurations.

Each builder returns an IndexedGraph; ``fixtures/`` ships each one as the
JSON config that ``graph_to_dict`` gives.  The family covers the regular and
biregular one-edge quotients, small finite quotients with genuine spectral
gaps, cuspidal-ray quotients, the thick (2, q-1) ray, the critically-thick
mixed ray, and a funnel example.
"""

from __future__ import annotations

from fractions import Fraction

from .graph import FunnelSpec, IndexedGraph, TailSpec


def single_edge(i_e=3, i_rev=3, base_value=3):
    """One edge a--b; the cover is the (i_rev, i_e)-biregular tree."""
    return IndexedGraph(
        vertices=("a", "b"),
        edges=("e", "ebar"),
        rev={"e": "ebar", "ebar": "e"},
        orig={"e": "a", "ebar": "b"},
        term={"e": "b", "ebar": "a"},
        index={"e": i_e, "ebar": i_rev},
        base_vertex="a",
        base_value=Fraction(base_value),
    )


def biregular_edge(r, s):
    """Degree r+1 at the base vertex, s+1 across; delta = log sqrt(rs)."""
    return single_edge(i_e=s + 1, i_rev=r + 1, base_value=1)


def parallel_edges():
    """Two parallel edges with index 2: 4-regular cover, bipartite, gap 1/9."""
    return IndexedGraph(
        vertices=("a", "b"),
        edges=("e1", "e1bar", "e2", "e2bar"),
        rev={"e1": "e1bar", "e1bar": "e1", "e2": "e2bar", "e2bar": "e2"},
        orig={"e1": "a", "e1bar": "b", "e2": "a", "e2bar": "b"},
        term={"e1": "b", "e1bar": "a", "e2": "b", "e2bar": "a"},
        index={"e1": 2, "e1bar": 2, "e2": 2, "e2bar": 2},
        base_vertex="a",
        base_value=Fraction(1),
    )


def two_loops():
    """Wedge of two loops, index 1: 4-regular cover, aperiodic, gap 1/3."""
    return IndexedGraph(
        vertices=("a",),
        edges=("l1", "l1bar", "l2", "l2bar"),
        rev={"l1": "l1bar", "l1bar": "l1", "l2": "l2bar", "l2bar": "l2"},
        orig={e: "a" for e in ("l1", "l1bar", "l2", "l2bar")},
        term={e: "a" for e in ("l1", "l1bar", "l2", "l2bar")},
        index={e: 1 for e in ("l1", "l1bar", "l2", "l2bar")},
        base_vertex="a",
        base_value=Fraction(1),
    )


def cusp_ray(r, s):
    """Finite core plus a cuspidal ray in the (r+1, s+1)-biregular tree.

    Indices up the ray alternate r, s with downward index 1; the attach
    vertex has cover degree s+1, its core neighbor r+1.
    """
    period = ((r, 1),) if r == s else ((r, 1), (s, 1))
    return IndexedGraph(
        vertices=("a0", "b"),
        edges=("c", "cbar"),
        rev={"c": "cbar", "cbar": "c"},
        orig={"c": "b", "cbar": "a0"},
        term={"c": "a0", "cbar": "b"},
        index={"c": s, "cbar": r + 1},
        tails=(TailSpec(attach="a0", prefix=(), period=period),),
        base_vertex="a0",
        base_value=Fraction(1),
    )


def thick_ray(q=5):
    """Ray of type (2, q-1) on the (q+1)-regular tree; not geometrically finite."""
    return IndexedGraph(
        vertices=("a0", "b"),
        edges=("c", "cbar"),
        rev={"c": "cbar", "cbar": "c"},
        orig={"c": "b", "cbar": "a0"},
        term={"c": "a0", "cbar": "b"},
        index={"c": q - 1, "cbar": q + 1},
        tails=(TailSpec(attach="a0", prefix=(), period=((q - 1, 2),)),),
        base_vertex="a0",
        base_value=Fraction(1),
    )


def critical_ray(q=5):
    """Mixed ray with up-indices in {1, q}: the tail is as thick as the tree.

    Its excursion resummation sits exactly at the critical exponent, so the
    thermodynamic solve reports divergence; ships as the flagged example.
    """
    return IndexedGraph(
        vertices=("a0", "b"),
        edges=("c", "cbar"),
        rev={"c": "cbar", "cbar": "c"},
        orig={"c": "b", "cbar": "a0"},
        term={"c": "a0", "cbar": "b"},
        index={"c": q, "cbar": q + 1},
        tails=(TailSpec(attach="a0", prefix=((q, 1),), period=((1, 1), (q, q))),),
        base_vertex="a0",
        base_value=Fraction(1),
    )


def funnel_loop():
    """One loop of index 2 plus a funnel: convex-cocompact part with an escape end."""
    return IndexedGraph(
        vertices=("a", "f"),
        edges=("l", "lbar", "w", "wbar"),
        rev={"l": "lbar", "lbar": "l", "w": "wbar", "wbar": "w"},
        orig={"l": "a", "lbar": "a", "w": "a", "wbar": "f"},
        term={"l": "a", "lbar": "a", "w": "f", "wbar": "a"},
        index={"l": 2, "lbar": 2, "w": 1, "wbar": 1},
        funnels=(FunnelSpec(entry_edge="w", branching=(2,)),),
        base_vertex="a",
        base_value=Fraction(1),
    )


FIXTURES = {
    "single_edge_3": lambda: single_edge(3, 3),
    "biregular_24": lambda: biregular_edge(2, 4),
    "biregular_44": lambda: biregular_edge(4, 4),
    "parallel_edges": parallel_edges,
    "two_loops": two_loops,
    "cusp_22": lambda: cusp_ray(2, 2),
    "cusp_24": lambda: cusp_ray(2, 4),
    "cusp_44": lambda: cusp_ray(4, 4),
    "thick_ray_5": lambda: thick_ray(5),
    "critical_ray_5": lambda: critical_ray(5),
    "funnel_loop": funnel_loop,
}


def get(name):
    try:
        return FIXTURES[name]()
    except KeyError:
        raise KeyError(f"unknown fixture {name!r}; known: {sorted(FIXTURES)}") from None
