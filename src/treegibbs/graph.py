"""Edge-indexed quotient graphs.

An edge-indexed graph is a finite connected core of oriented edges closed
under a fixpoint-free reversal, a positive integer index i(e) per oriented
edge, optional eventually-periodic ray tails hanging off core vertices, and
optional funnel markers.  The universal cover is a locally finite tree whose
local branching is determined entirely by the indices: a lift of an edge e
continues along i(rev(f)) lifts of each edge f != rev(e) and along
i(e) - 1 lifts of rev(e).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain, cycle, islice
from operator import mul, truediv

import numpy as np

from .digraph import Digraph, from_arcs, reachable
from .errors import ConfigError, GraphError, NoClosedGeodesicError, NonUnimodularError

RESERVED_PREFIX = "~"
# the largest edge index or tail pair entry: the arc arrays hold them as np.intp
INDEX_MAX = int(np.iinfo(np.intp).max)


@dataclass(frozen=True)
class TailSpec:
    """Eventually-periodic ray attached to a core vertex.

    Level n >= 1 of the ray carries an up edge e_n (away from the core) and
    its reversal; ``pair(n)`` returns (i(e_n), i(rev(e_n))).
    """

    attach: str
    prefix: tuple = ()
    period: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple((int(a), int(b)) for a, b in self.prefix))
        object.__setattr__(self, "period", tuple((int(a), int(b)) for a, b in self.period))

    def pair(self, n):
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        return self.period[(n - len(self.prefix) - 1) % len(self.period)]

    @property
    def period_start(self):
        """First level governed by the periodic part."""
        return len(self.prefix) + 1

    def is_cuspidal(self):
        """True when every downward index is 1 (mass cannot re-ascend after turning)."""
        return all(b == 1 for _, b in self.prefix) and all(b == 1 for _, b in self.period)


@dataclass(frozen=True)
class FunnelSpec:
    """Funnel marker: entry edge plus the regular branching of the interior."""

    entry_edge: str
    branching: tuple = (2,)

    def __post_init__(self):
        object.__setattr__(self, "branching", tuple(int(b) for b in self.branching))

    def children(self, depth):
        """Branching of a funnel-interior vertex at the given depth past the root."""
        return self.branching[depth % len(self.branching)]


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple
    warnings: tuple = ()

    @property
    def ok(self):
        return not self.violations

    def __str__(self):
        lines = [f"violation[{v.code}]: {v.message}" for v in self.violations]
        lines += [f"warning[{v.code}]: {v.message}" for v in self.warnings]
        return "\n".join(lines) if lines else "ok"


@dataclass(frozen=True)
class IndexedGraph:
    """Finite core of an edge-indexed graph with tail and funnel attachments.

    ``edges`` are oriented; ``rev`` is the reversal involution, ``orig`` and
    ``term`` the endpoint maps, ``index`` the map e -> i(e).
    """

    vertices: tuple
    edges: tuple
    rev: dict
    orig: dict
    term: dict
    index: dict
    tails: tuple = ()
    funnels: tuple = ()
    base_vertex: str = ""
    base_value: Fraction = Fraction(1)
    _out: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(sorted(self.vertices)))
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))
        object.__setattr__(self, "tails", tuple(self.tails))
        object.__setattr__(self, "funnels", tuple(self.funnels))
        if not self.base_vertex and self.vertices:
            object.__setattr__(self, "base_vertex", self.vertices[0])
        object.__setattr__(self, "base_value", Fraction(self.base_value))
        out = {v: [] for v in self.vertices}
        for e in self.edges:
            if self.orig.get(e) in out:
                out[self.orig[e]].append(e)
        for v in out:
            out[v].sort()
        object.__setattr__(self, "_out", out)

    # -- basic accessors -------------------------------------------------

    def out_edges(self, v):
        return self._out[v]

    def funnel_edge_ids(self):
        """Oriented edges excluded from the geodesic support (both orientations)."""
        s = set()
        for f in self.funnels:
            s.add(f.entry_edge)
            s.add(self.rev[f.entry_edge])
        return s

    def funnel_root_vertices(self):
        return {self.term[f.entry_edge]: f for f in self.funnels}


# ---------------------------------------------------------------------------
# operations


def validate_graph(g: IndexedGraph) -> ValidationReport:
    """Check the structural axioms; returns a diagnostic report, never raises."""
    bad = []
    warn = []
    eset = set(g.edges)
    vset = set(g.vertices)
    for v in g.vertices:
        if v.startswith(RESERVED_PREFIX):
            bad.append(Violation("reserved-id", f"vertex id {v!r} uses reserved prefix"))
    for e in g.edges:
        if e.startswith(RESERVED_PREFIX):
            bad.append(Violation("reserved-id", f"edge id {e!r} uses reserved prefix"))
        r = g.rev.get(e)
        if r is None or r not in eset:
            bad.append(Violation("involution-broken", f"rev({e}) missing"))
            continue
        if r == e:
            bad.append(Violation("involution-fixpoint", f"involution has fixpoint at {e}"))
        elif g.rev.get(r) != e:
            bad.append(Violation("involution-broken", f"rev(rev({e})) = {g.rev.get(r)} != {e}"))
        if g.orig.get(e) not in vset or g.term.get(e) not in vset:
            bad.append(Violation("unknown-vertex", f"edge {e} has endpoint outside vertex set"))
        elif r in eset and r != e:
            if g.orig.get(r) != g.term.get(e) or g.term.get(r) != g.orig.get(e):
                bad.append(Violation("endpoints-mismatch", f"rev({e}) does not swap endpoints"))
        idx = g.index.get(e)
        if not isinstance(idx, int) or idx < 1:
            bad.append(Violation("bad-index", f"index of {e} must be a positive integer, got {idx!r}"))
    # core connectivity over undirected edges
    if g.vertices:
        seen = {g.vertices[i] for i in reachable(vertex_successors(g), [0])}
        if seen != vset:
            missing = sorted(vset - seen)
            bad.append(Violation("core-disconnected", f"core not connected (unreached: {missing})"))
    for t, spec in enumerate(g.tails):
        if spec.attach not in vset:
            bad.append(Violation("unknown-vertex", f"tail {t} attaches at unknown vertex {spec.attach!r}"))
        if not spec.period:
            bad.append(Violation("tail-bad-period", f"tail {t} has empty period"))
        for a, b in spec.prefix + spec.period:
            if a < 1 or b < 1:
                bad.append(Violation("bad-index", f"tail {t} carries index < 1"))
    for f in g.funnels:
        if f.entry_edge not in eset:
            bad.append(Violation("funnel-unknown-edge", f"funnel entry {f.entry_edge!r} not an edge"))
        if any(b < 1 for b in f.branching):
            bad.append(Violation("bad-index", f"funnel at {f.entry_edge} has branching < 1"))
    if not bad:
        for v in g.vertices:
            d = lift_degree(g, v)
            if d < 1:
                bad.append(Violation("bad-degree", f"vertex {v} has lift degree 0"))
            elif d == 1:
                warn.append(Violation("lift-degree-one", f"vertex {v} has lift degree 1; no geodesic passes"))
    return ValidationReport(tuple(bad), tuple(warn))


def vertex_successors(g):
    """Successor lists of the core's vertices in ``g.vertices`` order, one arc
    per edge whose head lies in the vertex set."""
    pos = {v: i for i, v in enumerate(g.vertices)}
    return [[pos[g.term[e]] for e in g.out_edges(v) if g.term.get(e) in pos] for v in g.vertices]


def edge_multiplicity(g, e, f):
    """Number of lifts of f extending a fixed lift of e without backtracking."""
    if g.term[e] != g.orig[f]:
        raise GraphError(f"edges not composable: term({e}) != orig({f})")
    if f == g.rev[e]:
        return g.index[e] - 1
    return g.index[g.rev[f]]


def lift_degree(g, a):
    """Degree of any lift of the vertex a in the universal cover."""
    froots = g.funnel_root_vertices()
    if a in froots:
        f = froots[a]
        return g.index[f.entry_edge] + f.children(0)
    if a not in g._out:
        raise GraphError(f"unknown vertex {a!r}")
    d = sum(g.index[g.rev[e]] for e in g.out_edges(a))
    return d + sum(spec.pair(1)[1] for spec in g.tails if spec.attach == a)


@dataclass(frozen=True)
class OrderGrading:
    """Vertex and edge order values N(a), N(e) (rationals; only ratios matter)."""

    vertex_order: dict
    edge_order: dict
    base_vertex: str
    base_value: Fraction

    def vertex(self, a):
        return self.vertex_order[a]

    def edge(self, e):
        return self.edge_order[e]


def propagate_orders(g, base_vertex=None, base_value=None):
    """Propagate N along a spanning tree from N(base)=base_value; check cycles.

    N obeys N(orig(e)) = N(term(e)) * i(rev(e)) / i(e) and N(e) = N(term(e)) / i(e).
    Raises NonUnimodularError when some cycle has inconsistent index ratios.
    """
    base_vertex = base_vertex or g.base_vertex
    base_value = Fraction(base_value if base_value is not None else g.base_value)
    if base_vertex not in g._out:
        raise GraphError(f"unknown base vertex {base_vertex!r}")
    nv = {base_vertex: base_value}
    stack = [base_vertex]
    while stack:
        v = stack.pop()
        for e in g.out_edges(v):
            w = g.term[e]
            # N(term) = N(orig) * i(e) / i(rev(e))
            val = nv[v] * Fraction(g.index[e], g.index[g.rev[e]])
            if w in nv:
                if nv[w] != val:
                    raise NonUnimodularError(
                        f"cycle through {w} has index ratio {val / nv[w]} != 1"
                    )
            else:
                nv[w] = val
                stack.append(w)
    ne = {e: nv[g.term[e]] / g.index[e] for e in g.edges}
    for e in g.edges:
        if ne[e] != ne[g.rev[e]]:
            raise NonUnimodularError(f"edge order mismatch at {e}")
    return OrderGrading(nv, ne, base_vertex, base_value)


# ---------------------------------------------------------------------------
# materialization (tails unrolled to finite depth)


def tail_vertex_id(t, n):
    return f"~t{t}.v{n}"


def tail_edge_id(t, n, up):
    return f"~t{t}.{'e' if up else 'r'}{n}"


@dataclass(frozen=True)
class MaterializedGraph:
    """Core plus tails unrolled to ``depth`` levels.

    Behaves like a finite edge-indexed graph; ``edge_meta`` maps each edge to
    ("core",) or ("tail", tail_index, level, up), with ``up`` the bool that
    ``tail_edge_id`` takes.  States whose whole transition row stays inside
    the materialization are ``interior``.  ``tail_edges`` holds the position
    in ``edges`` of every tail edge: entry [t, n - 1] is (e_n, r_n) of tail t.
    """

    core: IndexedGraph
    depth: int
    vertices: tuple
    edges: tuple
    rev: dict
    orig: dict
    term: dict
    index: dict
    edge_meta: dict
    tail_edges: np.ndarray = field(repr=False, compare=False, default=None)
    _out: dict = field(repr=False, compare=False, default=None)
    _epos: dict = field(repr=False, compare=False, default=None)  # edge -> its position in edges
    _arc_arrays: tuple = field(init=False, repr=False, compare=False, default=None)
    _layout: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _arc_digraph: Digraph = field(init=False, repr=False, compare=False, default=None)

    def out_edges(self, v):
        return self._out[v]

    def multiplicity(self, e, f):
        return edge_multiplicity(self, e, f)

    def continuations(self, e):
        """(f, m(e, f)) over positive-multiplicity continuations of e."""
        steps = ((f, edge_multiplicity(self, e, f)) for f in self._out[self.term[e]])
        return [(f, m) for f, m in steps if m > 0]

    def arc_arrays(self):
        """(states, src, dst, mult): the non-backtracking operator's structure,
        built once on first use.

        ``states`` are the non-funnel edges in edge order.  Each non-funnel
        continuation f of states[i] is one arc: src i, dst the position of f
        and mult m(states[i], f).  Arcs come row by row, ``dst`` ascending
        within a row (the order of ``continuations``).  They are built from
        per-edge integer arrays (the head vertex, the reversal, the index and
        the vertex out-lists in edge order): each state meets every out-edge
        of its head, and ``edge_multiplicity``'s rule is one array expression.
        ``arc_digraph`` keeps the structural facts of these arcs.
        """
        if self._arc_arrays is None:
            edges, funnel = self.edges, self.funnel_edge_ids()
            ne, epos = len(edges), self._epos
            vpos = dict(zip(self.vertices, range(len(self.vertices))))
            out = [self._out[v] for v in self.vertices]
            first = np.cumsum([0] + [len(o) for o in out])
            out = np.fromiter(map(epos.__getitem__, chain.from_iterable(out)), np.intp, ne)
            rev = np.fromiter(map(epos.__getitem__, map(self.rev.__getitem__, edges)), np.intp, ne)
            term = np.fromiter(map(vpos.__getitem__, map(self.term.__getitem__, edges)), np.intp, ne)
            index = np.fromiter(map(self.index.__getitem__, edges), np.intp, ne)
            kept = np.ones(ne, dtype=bool)
            if funnel:
                kept[[epos[f] for f in funnel]] = False
                states = tuple(e for e, k in zip(edges, kept.tolist()) if k)
            else:
                states = edges
            # one candidate arc per state e and out-edge f of term(e), row by row
            e = np.flatnonzero(kept)
            start, deg = first[term[e]], np.diff(first)[term[e]]
            shift = start - (np.cumsum(deg) - deg)
            e, f = np.repeat(e, deg), out[np.arange(deg.sum()) + np.repeat(shift, deg)]
            mult = np.where(f == rev[e], index[e] - 1, index[rev[f]])
            arc = (mult > 0) & kept[f]
            at = np.cumsum(kept) - 1  # edge position -> state position
            src, dst, mult = at[e[arc]], at[f[arc]], mult[arc]
            object.__setattr__(self, "_arc_arrays", (states, src, dst, mult))
        return self._arc_arrays

    def tail_states(self):
        """The (tails, depth + 1, 2) array of the position in ``arc_arrays``'
        states of e_n (column 0) and r_n (column 1) at level n of tail t;
        level 0 holds -1.  Built once, on first use, and read-only, as are
        the two masks below."""
        if "tail" not in self._layout:
            levels = np.full((len(self.core.tails), self.depth + 1, 2), -1, dtype=np.intp)
            levels[:, 1:] = self.tail_edges
            funnel = sorted(map(self._epos.__getitem__, self.funnel_edge_ids()))
            if funnel:
                # tail edges are never funnel edges: a state's position is its
                # edge's less the funnel edges before it
                levels[:, 1:] -= np.searchsorted(funnel, self.tail_edges)
            self._layout["tail"] = _read_only(levels)
        return self._layout["tail"]

    def core_states(self):
        """Whether each state of ``arc_arrays`` is a core edge."""
        if "core" not in self._layout:
            core = np.ones(len(self.arc_arrays()[0]), dtype=bool)
            core[self.tail_states()[:, 1:].ravel()] = False
            self._layout["core"] = _read_only(core)
        return self._layout["core"]

    def interior_states(self):
        """Whether each state of ``arc_arrays`` is interior (``is_interior``):
        every state but the two at the last tail level."""
        if "interior" not in self._layout:
            interior = np.ones(len(self.arc_arrays()[0]), dtype=bool)
            if self.depth:
                interior[self.tail_states()[:, self.depth].ravel()] = False
            self._layout["interior"] = _read_only(interior)
        return self._layout["interior"]

    def arc_digraph(self):
        """The ``Digraph`` of ``arc_arrays``' arcs on its states, built once on
        first use: its facts (strong connectivity, the on-cycle set, the BFS
        levels from state 0, the period) are computed once for every reader."""
        if self._arc_digraph is None:
            states, src, dst, _ = self.arc_arrays()
            object.__setattr__(self, "_arc_digraph", Digraph(from_arcs(src, dst, len(states))))
        return self._arc_digraph

    def funnel_edge_ids(self):
        return self.core.funnel_edge_ids()

    def is_interior(self, e):
        meta = self.edge_meta[e]
        return meta[0] == "core" or meta[2] < self.depth


def _read_only(a):
    a.flags.writeable = False
    return a


def row_sums(rows, terms, n):
    """Sums of ``terms`` by ``rows`` (of n), each left to right: np.add.at adds in order."""
    acc = np.zeros(n)
    np.add.at(acc, rows, terms)
    return acc


def materialize(g: IndexedGraph, depth: int) -> MaterializedGraph:
    """Unroll every tail to ``depth`` levels (0 keeps the bare core)."""
    vertices = list(g.vertices)
    edges = list(g.edges)
    rev = dict(g.rev)
    orig = dict(g.orig)
    term = dict(g.term)
    index = dict(g.index)
    meta = {e: ("core",) for e in g.edges}
    for t, spec in enumerate(g.tails):
        prev = spec.attach
        for n in range(1, depth + 1):
            iu, idn = spec.pair(n)
            v = tail_vertex_id(t, n)
            eu = tail_edge_id(t, n, True)
            ed = tail_edge_id(t, n, False)
            vertices.append(v)
            edges += [eu, ed]
            rev[eu] = ed
            rev[ed] = eu
            orig[eu], term[eu] = prev, v
            orig[ed], term[ed] = v, prev
            index[eu], index[ed] = iu, idn
            meta[eu] = ("tail", t, n, True)
            meta[ed] = ("tail", t, n, False)
            prev = v
    out = {v: [] for v in vertices}
    for e in edges:
        out[orig[e]].append(e)
    for v in out:
        out[v].sort()
    ordered = tuple(sorted(edges))
    epos = dict(zip(ordered, range(len(ordered))))
    # the tail edges follow the core's, tail by tail, level by level, (e_n, r_n)
    tails = edges[len(g.edges) :]
    tail_edges = np.fromiter(map(epos.__getitem__, tails), np.intp, len(tails))
    return MaterializedGraph(
        core=g,
        depth=depth,
        vertices=tuple(vertices),
        edges=ordered,
        rev=rev,
        orig=orig,
        term=term,
        index=index,
        edge_meta=meta,
        tail_edges=tail_edges.reshape(len(g.tails), depth, 2),
        _out=out,
        _epos=epos,
    )


def orders_on(mat: MaterializedGraph, grading: OrderGrading):
    """Extend a core order grading to a materialized graph (tail levels included)."""
    return WindowOrders(mat, grading)


@dataclass(frozen=True)
class WindowOrders:
    """A core order grading extended up the tails of the window ``mat``.

    At level n of a tail N(v_n) = N(v_{n-1}) i(e_n) / i(r_n), from N of the
    attach vertex, and N(e_n) = N(r_n) = N(v_n) / i(e_n).  ``vertex`` and
    ``edge`` give the exact rationals on demand.  ``edge_floats`` gives
    float(N(e)) over the states of ``arc_arrays``: a tail level's value is
    the running integer products of the index pairs, divided as ints, which
    rounds the rational exactly as ``float`` of the ``Fraction`` does.
    """

    mat: MaterializedGraph
    grading: OrderGrading
    _levels: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _floats: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    @property
    def base_vertex(self):
        return self.grading.base_vertex

    @property
    def base_value(self):
        return self.grading.base_value

    def _products(self, t):
        """(I, nums, dens) of tail t: i(e_n) for n = 1..depth, and N(v_n) =
        nums[n] / dens[n] for n = 0..depth."""
        if t not in self._levels:
            spec, depth = self.mat.core.tails[t], self.mat.depth
            pairs = list(islice(chain(spec.prefix, cycle(spec.period)), depth))
            up, down = [a for a, _ in pairs], [b for _, b in pairs]
            start = self.grading.vertex(spec.attach)
            nums = list(accumulate(up, mul, initial=start.numerator))
            dens = list(accumulate(down, mul, initial=start.denominator))
            self._levels[t] = (up, nums, dens)
        return self._levels[t]

    def vertex(self, a):
        if a in self.grading.vertex_order:
            return self.grading.vertex(a)
        # a tail vertex v_n is the tail of its down edge r_n
        _, t, n, _ = next(m for m in map(self.mat.edge_meta.__getitem__, self.mat.out_edges(a)) if not m[3])
        _, nums, dens = self._products(t)
        return Fraction(nums[n], dens[n])

    def edge(self, e):
        meta = self.mat.edge_meta[e]
        if meta[0] == "core":
            return self.grading.edge(e)
        _, t, n, _ = meta
        up, nums, dens = self._products(t)
        return Fraction(nums[n], dens[n] * up[n - 1])

    def edge_floats(self):
        """float(N(e)) per state of ``arc_arrays``, in state order, built once;
        inf where the quotient overflows a float (``float`` of the
        ``Fraction`` raises OverflowError there)."""
        if self._floats is None:
            states = self.mat.arc_arrays()[0]
            out = np.empty(len(states))
            levels = self.mat.tail_states()
            at = np.flatnonzero(self.mat.core_states())
            out[at] = [_quotient(self.edge(states[i])) for i in at.tolist()]
            for t in range(len(self.mat.core.tails)):
                up, nums, dens = self._products(t)
                denominators = list(map(mul, dens[1:], up))
                try:
                    vals = list(map(truediv, nums[1:], denominators))
                except OverflowError:
                    vals = [_quotient(Fraction(a, b)) for a, b in zip(nums[1:], denominators)]
                out[levels[t, 1:, 0]] = vals
                out[levels[t, 1:, 1]] = vals
            object.__setattr__(self, "_floats", out)
        return self._floats


def _quotient(x):
    """float(x) of a positive rational, inf where it overflows."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# length spectrum period


def length_spectrum_period(g: IndexedGraph) -> int:
    """gcd of lengths of positive-multiplicity closed non-backtracking paths."""
    horizon = 1
    for spec in g.tails:
        horizon = max(horizon, len(spec.prefix) + 2 * len(spec.period) + 1)
    return _window_period(materialize(g, horizon))


def _window_period(mat: MaterializedGraph) -> int:
    """``length_spectrum_period`` over the arcs of the window ``mat``."""
    k = mat.arc_digraph().period
    if not k:
        raise NoClosedGeodesicError("no closed non-backtracking path of positive multiplicity")
    return k


# ---------------------------------------------------------------------------
# JSON config


def graph_from_dict(d: dict) -> IndexedGraph:
    """Parse the graph config schema; raises ConfigError with a field path."""
    _object(d, "graph", {"vertices", "edges", "tails", "funnels", "orders"}, ("vertices", "edges"))
    first = {}  # vertex id -> position of its entry
    for k, v in enumerate(_shape(d["vertices"], list, "vertices")):
        if _shape(v, str, f"vertices[{k}]") in first:
            raise ConfigError(f"vertices[{k}]: duplicate of vertices[{first[v]}]")
        _unreserved(v, f"vertices[{k}]")
        first[v] = k
    if not first:
        raise ConfigError("vertices: must name at least one vertex")
    vertices = list(first)
    rev, orig, term, index = {}, {}, {}, {}
    edges = []
    for pos, ed in enumerate(_shape(d["edges"], list, "edges")):
        path = f"edges[{pos}]"
        _object(ed, path, {"id", "rev", "from", "to", "index"})
        try:
            eid, e_rev, e_orig, e_term = (
                _shape(ed[k], str, f"{path}.{k}") for k in ("id", "rev", "from", "to")
            )
            idx = ed["index"]
        except KeyError as exc:
            raise ConfigError(f"{path}: missing field {exc}") from exc
        if not _is_index(idx):
            raise ConfigError(f"{path}.index: must be an integer from 1 to {INDEX_MAX}, got {idx!r}")
        if eid in index:
            raise ConfigError(f"{path}.id: duplicate of edges[{edges.index(eid)}]")
        _unreserved(eid, f"{path}.id")
        edges.append(eid)
        rev[eid], orig[eid], term[eid], index[eid] = e_rev, e_orig, e_term, idx
    tails = []
    for pos, td in enumerate(_shape(d.get("tails", []), list, "tails")):
        path = f"tails[{pos}]"
        _object(td, path, {"attach", "prefix", "period"}, ("attach",))
        attach = _shape(td["attach"], str, f"{path}.attach")
        prefix, period = (
            _pairs(td.get(k, []), f"{path}.{k}", _is_index, f"integers from 1 to {INDEX_MAX}")
            for k in ("prefix", "period")
        )
        if not period:
            raise ConfigError(f"{path}.period: must name at least one pair")
        tails.append(TailSpec(attach=attach, prefix=prefix, period=period))
    funnels = []
    for pos, fd in enumerate(_shape(d.get("funnels", []), list, "funnels")):
        path = f"funnels[{pos}]"
        _object(fd, path, {"entry_edge", "branching"}, ("entry_edge",))
        branching = _shape(fd.get("branching", [2]), list, f"{path}.branching")
        if not branching or not all(_is_int(b) and b >= 1 for b in branching):
            raise ConfigError(
                f"{path}.branching: must be a non-empty list of positive integers, got {branching!r}"
            )
        entry = _shape(fd["entry_edge"], str, f"{path}.entry_edge")
        if entry not in index:
            raise ConfigError(f"{path}.entry_edge: not an edge, got {entry!r}")
        funnels.append(FunnelSpec(entry_edge=entry, branching=tuple(branching)))
    orders = _object(d.get("orders", {}), "orders", {"base_vertex", "base_value"})
    base_vertex = _shape(orders.get("base_vertex", vertices[0]), str, "orders.base_vertex")
    if base_vertex not in first:
        raise ConfigError(f"orders.base_vertex: not a vertex, got {base_vertex!r}")
    raw_base = orders.get("base_value", 1)
    try:
        base_value = Fraction(str(raw_base))
        # the orders are read as floats too: neither overflow nor 0.0 is one
        in_range = base_value > 0 and float(base_value) > 0.0
    except (ValueError, ZeroDivisionError, OverflowError):
        in_range = False
    if not in_range:
        raise ConfigError(
            f"orders.base_value: must be a positive rational number within the float range, got {raw_base!r}"
        )
    return IndexedGraph(
        vertices=tuple(vertices),
        edges=tuple(edges),
        rev=rev,
        orig=orig,
        term=term,
        index=index,
        tails=tuple(tails),
        funnels=tuple(funnels),
        base_vertex=base_vertex,
        base_value=base_value,
    )


def _is_int(x):
    # JSON true/false arrive as bool, a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


def _is_index(x):
    return _is_int(x) and 1 <= x <= INDEX_MAX


def _unreserved(name, path):
    if name.startswith(RESERVED_PREFIX):
        raise ConfigError(f"{path}: {name!r} uses the reserved prefix {RESERVED_PREFIX!r}")


def _is_number(x):
    # json.load also parses NaN, Infinity and integers beyond the float range
    if not _is_int(x):
        return isinstance(x, float) and math.isfinite(x)
    try:
        float(x)
    except OverflowError:
        return False
    return True


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string"}


def _shape(value, kind, path):
    """``value`` when it has the JSON type ``kind`` (dict, list or str), else ConfigError."""
    if not isinstance(value, kind):
        raise ConfigError(f"{path}: must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def _object(value, path, fields, required=()):
    """``value`` when it is a JSON object with fields only from ``fields`` and
    every field in ``required``, else ConfigError (checked in that order)."""
    unknown = set(_shape(value, dict, path)) - set(fields)
    if unknown:
        raise ConfigError(f"{path}: unknown fields {sorted(unknown)}")
    for name in required:
        if name not in value:
            raise ConfigError(f"{path}: missing field {name!r}")
    return value


def _pairs(raw, path, check=_is_int, noun="integers"):
    """Tail pairs [[x(e_n), x(rev e_n)], ...] as a tuple of pairs passing ``check``."""
    if not isinstance(raw, (list, tuple)):
        raise ConfigError(f"{path}: must be a list of pairs, got {raw!r}")
    for k, pair in enumerate(raw):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2 or not all(map(check, pair)):
            raise ConfigError(f"{path}[{k}]: must be a pair of {noun}, got {pair!r}")
    return tuple((a, b) for a, b in raw)


def graph_to_dict(g: IndexedGraph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [
            {"id": e, "rev": g.rev[e], "from": g.orig[e], "to": g.term[e], "index": g.index[e]}
            for e in g.edges
        ],
        "tails": [
            {"attach": t.attach, "prefix": [list(p) for p in t.prefix], "period": [list(p) for p in t.period]}
            for t in g.tails
        ],
        "funnels": [{"entry_edge": f.entry_edge, "branching": list(f.branching)} for f in g.funnels],
        "orders": {"base_vertex": g.base_vertex, "base_value": str(g.base_value)},
    }


def read_json(path, field):
    """The JSON value in ``path``; a ConfigError naming ``field`` when the
    file cannot be read, or naming ``path`` when it is not JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    except OSError as exc:
        reason = "file not found" if isinstance(exc, FileNotFoundError) else str(exc.strerror or exc).lower()
        raise ConfigError(f"{field}: {reason}: {path}") from exc


def graph_from_json(path) -> IndexedGraph:
    return graph_from_dict(read_json(path, "graph"))
