"""Effective orbit counting in the cover of an edge-indexed graph.

The weighted counting function N_x(n) sums exp(potential integral) over the
orbit points within distance n; combinatorially it is an order factor times a
dynamic program over non-backtracking quotient paths from the base back to
itself, stepping along ``MaterializedGraph.arc_arrays``; one pass advances
several start vectors (the full count and a cone's).  Its counting matrix is
the ``gibbs.TransferOperator`` at s = 0, m(e, f) exp(F(f)), whose weights
the DP reads under a potential (at zero potential it steps by integers).

The counting constant C* = lim N_x(2n) exp(-2 n delta) has one formula, the
main term of Roblin's counting asymptotics in discrete time,

    C*(x) = k ||nu_x||^2 / ||m|| * e^{k delta} / (e^{k delta} - 1),

with k the length-spectrum period, ||nu_x|| the boundary mass seen from x
and ||m|| the total mass of the chain (``main_term``); the boundary masses
are read on the shadow window ``GibbsData.mat``.  On a finite quotient
the Perron data of the counting matrix give C* independently
(``renewal_constant``), in rational arithmetic at zero potential when the
Perron value to the k is an integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .chain import decay_fit
from .errors import GraphError, NoPositiveSolutionError, ResourceLimitError
from .digraph import period
from .gibbs import Potential, TransferOperator, entry_weights, perron_vector, spectral_radius
from .gibbs import _is_zero as _potential_is_zero
from .graph import _window_period, length_spectrum_period, materialize, orders_on, vertex_successors


# ---------------------------------------------------------------------------
# biregular parameters and closed formulas


@dataclass(frozen=True)
class BiregularParams:
    qd: int  # base-vertex degree minus 1
    qdp: int  # other-class degree minus 1


def biregular_params(g) -> BiregularParams:
    """Detect (qd+1, qdp+1)-biregularity of the cover, base vertex first.

    The core is coloured by the parity of its breadth-first levels from the
    base.  A core with an odd cycle is biregular only when every vertex has
    one degree; with two or more vertices both colours then hold it, so the
    tail and funnel degrees are checked the same way under any colouring.
    """
    from .graph import lift_degree

    deg = {v: lift_degree(g, v) for v in g.vertices}
    horizon = max([1] + [len(spec.prefix) + 2 * len(spec.period) for spec in g.tails])
    d0 = deg[g.base_vertex]
    gcd, levels = period(vertex_successors(g), g.vertices.index(g.base_vertex))
    # the core is closed under reversal, so an odd gcd means an odd cycle
    if gcd % 2 and len(set(deg.values())) != 1:
        raise GraphError("cover is not biregular (odd cycle with distinct degrees)")
    color = {g.vertices[i]: level % 2 for i, level in levels.items()}
    classes = {0: set(), 1: set()}
    for v, c in color.items():
        classes[c].add(deg[v])
    for spec in g.tails:
        c = 1 - color[spec.attach]
        for n in range(1, horizon + 1):
            classes[c].add(spec.pair(n)[0] + spec.pair(n + 1)[1])
            c = 1 - c
    froots = g.funnel_root_vertices()
    for v, f in froots.items():
        c = color[v]
        for d in range(len(f.branching)):
            c = 1 - c
            classes[c].add(1 + f.children(d))
    if len(classes[0]) != 1 or (classes[1] and len(classes[1]) != 1):
        raise GraphError(f"cover is not biregular: degree classes {classes}")
    qd = d0 - 1
    qdp = (next(iter(classes[1])) - 1) if classes[1] else qd
    return BiregularParams(qd, qdp)


def sphere_size(params: BiregularParams, j: int) -> int:
    """Vertices at distance 2j from a degree-(qd+1) vertex of the biregular tree."""
    if j < 0:
        raise ValueError("j must be nonnegative")
    if j == 0:
        return 1
    return (params.qd + 1) * params.qdp * (params.qd * params.qdp) ** (j - 1)


def mgamma_ball_measure(params: BiregularParams, delta: float, R: int, m_mass: float) -> float:
    """Measure of the bi-K-invariant ball of radius 2R in the group framework."""
    if R < 0:
        raise ValueError("R must be nonnegative")
    if R == 0:
        return 1.0 / m_mass
    e2 = math.exp(2.0 * delta)
    geom = e2 * (math.exp(2.0 * delta * R) - 1.0) / (e2 - 1.0)
    return (1.0 + (params.qd + 1) / params.qd * geom) / m_mass


# ---------------------------------------------------------------------------
# the counting DP (orbit oracle)


_DP_GUARD = 5_000_000  # largest edges x steps the counting DP takes on
# the largest core the exact renewal route takes: its rational products and
# eliminations grow as n^3 in Python integers and fractions
_EXACT_MAX_STATES = 64


@dataclass(frozen=True)
class OracleCounts:
    base: str
    n_max: int
    per_distance: tuple  # index n: weighted orbit points at distance exactly n
    exact: bool
    constraint: tuple = ()

    def cumulative(self, n):
        return sum(self.per_distance[: n + 1])

    def series(self):
        return list(accumulate(self.per_distance))


def orbit_oracle(
    g,
    orders,
    F,
    base,
    n_max,
    first_edge_constraint=None,
    include_identity=True,
):
    """Weighted count of orbit points per distance, by DP over quotient paths.

    Exact integer/rational mode switches on automatically for zero potential.
    ``first_edge_constraint`` prescribes the initial edge path (a cone of
    directions); funnel edges never lead back, so a path into one is refused.
    """
    mat = materialize(g, n_max + 1 if g.tails else 0)
    op, order_base, entry = _dp_weights(mat, F, orders, base, n_max, None)
    exact = op is None
    if first_edge_constraint:
        path = list(first_edge_constraint)
        steps = _path_multiplicities(mat, base, path)
        funnel = mat.funnel_edge_ids()
        if any(e in funnel for e in path):
            raise GraphError("constraint path enters a funnel")
        if len(path) > n_max:
            raise ValueError("constraint longer than the horizon")
        w = mat.index[mat.rev[path[0]]]
        if not exact:
            w = w * math.exp(op.fvals[path[0]])
        for b, m in zip(path[1:], steps):
            w = w * m if exact else w * m * math.exp(op.fvals[b])
        starts, start_len = [[(path[-1], w)]], len(path)
    else:
        starts, start_len = [entry], 1
    (per,) = _orbit_dp(mat, op, base, order_base, starts, start_len, n_max)
    if include_identity:
        per[0] = order_base
    return OracleCounts(base, n_max, tuple(per), exact, tuple(first_edge_constraint or ()))


def _dp_weights(mat, F, orders, base, n_max, known):
    """(operator, order, entry weights) at ``base`` of the counting DP to ``n_max``
    on the window ``mat``: F's operator there (``known`` when it is) and the order
    as a float, or None and the exact order at zero potential (the exact mode)."""
    F = F or Potential.zero(mat.core)
    if len(mat.edges) * (n_max + 1) > _DP_GUARD:
        raise ResourceLimitError("counting DP exceeds the resource guard")
    reuse = known is not None and known.mat is mat and known.F == F
    op = None if _potential_is_zero(F) else known if reuse else TransferOperator(mat, F)
    entry = _entry_at(mat, base, None if op is None else op.fvals)
    # a core base reads its order off the grading; a tail base extends it
    order = orders.vertex(base) if base in mat.core.vertices else orders_on(mat, orders).vertex(base)
    return op, order if op is None else float(order), entry


def _entry_at(mat, x, fvals=None, s=0.0):
    """``entry_weights`` at x; a GraphError at a funnel vertex, where every
    count and boundary mass would read 0."""
    entry = entry_weights(mat, x, fvals, s)
    if not entry:
        raise GraphError(f"vertex {x!r} has no non-funnel out-edge to count along")
    return entry


def _orbit_dp(mat, op, base, order_base, starts, start_len, n_max):
    """Per-distance orbit counts at ``base`` for several start vectors.

    Each start lists (state, weight of the paths of length ``start_len``
    that end on it).  The vectors share the window, its arcs and their
    weights, and advance together one step at a time; each gets the
    operations, in the order, of a DP run on it alone.  Entry n of a list is
    ``order_base`` times the weight of the paths of length n that end at
    ``base``; an arc weighs its multiplicity, exact, without the transfer
    operator ``op`` and its weight at s = 0 with it.
    """
    exact = op is None
    states, src, dst, mult = mat.arc_arrays()
    weight = mult if exact else op.weights(0.0)[1]
    succ = [[] for _ in states]
    for i, j, m in zip(src.tolist(), dst.tolist(), weight.tolist()):
        succ[i].append((j, m))
    pos = {e: i for i, e in enumerate(states)}
    at_base = [i for i, e in enumerate(states) if mat.term[e] == base]
    zero = 0 if exact else 0.0
    vecs = []
    for start in starts:
        vec = [zero] * len(states)
        for e, w in start:
            vec[pos[e]] = w
        vecs.append(vec)
    pers = [[zero] * (n_max + 1) for _ in starts]
    for n in range(start_len, n_max + 1):
        for vec, per in zip(vecs, pers):
            tot = zero
            for i in at_base:
                if vec[i] != 0:
                    tot = tot + vec[i]
            per[n] = order_base * tot
        if n == n_max:
            break
        for k, vec in enumerate(vecs):
            new = [zero] * len(states)
            for i, v in enumerate(vec):
                if v == 0:
                    continue
                for j, m in succ[i]:
                    new[j] = new[j] + v * m
            vecs[k] = new
    return pers


def _path_multiplicities(mat, base, path):
    """m(a, b) over the steps a -> b of an edge path of ``mat`` that starts
    at ``base``; raises GraphError on an unknown edge, another start or a
    step of multiplicity 0."""
    for e in path:
        if e not in mat.orig:
            raise GraphError(f"unknown edge {e!r} in path (graph unrolled to depth {mat.depth})")
    if mat.orig[path[0]] != base:
        raise GraphError("path must start at the base vertex")
    steps = []
    for a, b in zip(path, path[1:]):
        m = mat.multiplicity(a, b)
        if m <= 0:
            raise GraphError(f"path not admissible at {a}->{b}")
        steps.append(m)
    return steps


# ---------------------------------------------------------------------------
# shadows and main terms


def nu_mass_at(gd, x):
    """Total boundary mass seen from x (1 at the normalization base vertex),
    read on the shadow window ``gd.mat``."""
    return sum(w * gd.u_plus[e] for e, w in _entry_at(gd.mat, x, gd.fvals, gd.delta))


def shadow_measure(gd, base, edge_path, per_lift=False):
    """Boundary mass of the directions through an initial edge path.

    Default: all lifts of the path at once, so depth-1 path masses partition
    the total mass at the base.  ``per_lift`` gives the mass of one cover
    cone, exp(sum(F - delta)) * u+(last edge).  Read on the shadow window
    ``gd.mat``; a path into a funnel has mass 0.
    """
    mat = gd.mat
    if not edge_path:
        return nu_mass_at(gd, base)
    steps = _path_multiplicities(mat, base, edge_path)
    funnel = mat.funnel_edge_ids()
    if any(e in funnel for e in edge_path):
        return 0.0
    mult = mat.index[mat.rev[edge_path[0]]]
    for m in steps:
        mult *= m
    weight = math.exp(sum(gd.fvals[e] - gd.delta for e in edge_path))
    return (1 if per_lift else mult) * weight * gd.u_plus[edge_path[-1]]


@dataclass(frozen=True)
class MainTerms:
    n: int
    cone_term: float  # main term of the count through one cone, e^{2 delta n} profile
    full_term: float  # main term of the full count, e^{2 delta n} profile
    cone_constant: float
    full_constant: float


def main_term(gd, m_mass, n, period, nu_x, cone_mass):
    """Main terms of the orbit count at x at horizon 2n.

    With k = ``period`` (``length_spectrum_period``), ||m|| = ``m_mass``,
    ||nu_x|| = ``nu_x`` (``nu_mass_at``) and nu(Omega) = ``cone_mass`` (the
    ``shadow_measure`` of a first edge at x), the constants are

        full:  k ||nu_x||^2 / ||m|| * e^{k delta} / (e^{k delta} - 1)
        cone:  k ||nu_x|| nu(Omega) / ||m|| * e^{k delta} / (e^{k delta} - 1)

    and each term is its constant times e^{2 delta n}.  The full constant is
    C*.  Both were checked against the counting DP at the normalization
    vertex, with and without potentials, and away from it only at zero
    potential.
    """
    ek = math.exp(period * gd.delta)
    scale = period * nu_x / m_mass * ek / (ek - 1.0)
    cone_c = scale * cone_mass
    full_c = scale * nu_x
    growth = math.exp(2.0 * gd.delta * n)
    return MainTerms(n, cone_c * growth, full_c * growth, cone_c, full_c)


# ---------------------------------------------------------------------------
# renewal constant


@dataclass(frozen=True)
class RenewalConstant:
    value: float
    period: int  # the counting period k (``length_spectrum_period``) it used
    exact: Fraction = None
    method: str = "perron"
    growth_sq: Fraction = None  # exact e^{2 delta} when known


def _chi_psi(mat, states, base, fvals):
    """Entry weights at ``base`` and the indicator of states ending there;
    integers without ``fvals`` (the exact path)."""
    pos = {e: i for i, e in enumerate(states)}
    chi = [0] * len(states)
    for e, w in entry_weights(mat, base, fvals):
        chi[pos[e]] = w
    return chi, [int(mat.term[e] == base) for e in states]


def renewal_constant(g, orders, F=None, base=None, prefer_exact=True) -> RenewalConstant:
    """C* = lim N_x(2n) exp(-2 n delta) for a finite quotient.

    Perron decomposition of the counting matrix T(0), one Perron value for
    both routes; with zero potential, on a core of at most
    ``_EXACT_MAX_STATES`` states, the whole computation runs in rational
    arithmetic when it can (see ``_renewal_exact``).  This is the
    independent route to C*; on a tailed quotient it is ``main_term``'s.
    """
    if g.tails:
        raise GraphError("C* of a tailed quotient is main_term's full constant")
    F = F or Potential.zero(g)
    base = base or g.base_vertex
    return _renewal(TransferOperator(materialize(g, 0), F), orders, base, prefer_exact)


def _renewal(op, orders, base, prefer_exact):
    """``renewal_constant`` on the core window and potential of ``op``."""
    mat, F = op.mat, op.F
    _entry_at(mat, base)
    k = _window_period(mat)  # the counting period, main_term's k too
    if k not in (1, 2):
        raise NoPositiveSolutionError(f"counting period {k} not supported for the limit")
    # T(0) of the counting weights m(e, f) exp(F(f)), bit for bit: x - 0.0 == x
    M = op.matrix(0.0)
    lam = spectral_radius(M)
    if lam <= 1.0:
        raise NoPositiveSolutionError("counting growth rate at or below 1")
    if prefer_exact and _potential_is_zero(F) and len(op.states) <= _EXACT_MAX_STATES:
        res = _renewal_exact(mat, orders, base, k, op.states, M, lam)
        if res is not None:
            return res
    return _renewal_float(op, orders, base, k, M, lam)


def _is_bipartite(g):
    """Whether the connected core is bipartite.

    The core is closed under reversal, so the gcd of its closed walks divides
    2, and is 2 (or 0, without edges) exactly when no cycle is odd.
    """
    return period(vertex_successors(g), 0)[0] % 2 == 0


def _renewal_float(op, orders, base, k, M, lam):
    mat, states = op.mat, op.states
    chi, psi = (np.array(x, dtype=float) for x in _chi_psi(mat, states, base, op.fvals))
    v = perron_vector(M, lam)
    w = perron_vector(M.T, lam)
    denom = float(w @ v)
    c_plus = float(chi @ v) * float(w @ psi) / denom
    c_minus = 0.0
    if k == 2:
        # BFS level parity splits a period-2 counting matrix's cyclic classes
        levels = mat.arc_digraph().search[1]
        sgn = np.array([-1.0 if levels.get(i, 0) % 2 else 1.0 for i in range(len(states))])
        v2, w2 = sgn * v, sgn * w
        c_minus = float(chi @ v2) * float(w2 @ psi) / float(w2 @ v2)
    cstar = float(orders.vertex(base)) * (c_plus / (lam - 1.0) - c_minus / (lam + 1.0))
    return RenewalConstant(value=cstar, period=k, method="perron-float")


def _renewal_exact(mat, orders, base, k, states, M, lam):
    """Rational-arithmetic Perron resummation at zero potential.

    ``M`` is the counting matrix on ``states`` at zero potential, whose
    entries m * exp(0) are the integers m exactly, and ``lam`` its float
    Perron value.  With k the counting period (1 or 2), closed paths at the
    base have lengths jk, so N_x(2n) resums chi (M^k)^{j-1} M^{k-1} psi over
    j, whose limit is the projection of M^{k-1} psi onto the eigenvalue
    mu = lambda^k of M^k.  The guess for mu is ``lam`` to the k, rounded to
    the nearest fraction with denominator at most 10^9.  The exact path runs
    only when mu is an integer: M^k has integer entries, so by the rational
    root theorem a non-integer rational mu is never one of its eigenvalues,
    M^k - mu I is nonsingular and there is nothing to resum, so None is
    returned before any rational elimination.
    """
    mu = Fraction(lam**k).limit_denominator(10**9)
    if mu.denominator != 1:
        return None
    n = len(states)
    M = [[int(x) for x in row] for row in M.tolist()]
    chi, psi = _chi_psi(mat, states, base, None)
    Mk = M
    for _ in range(k - 1):
        Mk = [[sum(Mk[i][l] * M[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
        psi = [sum(M[i][j] * psi[j] for j in range(n)) for i in range(n)]
    A = [[Fraction(Mk[i][j]) - (mu if i == j else 0) for j in range(n)] for i in range(n)]
    V = _nullspace_fraction(A)
    if not V:
        return None
    At = [[A[j][i] for j in range(n)] for i in range(n)]
    W = _nullspace_fraction(At)
    gdim = len(V)
    WV = [[sum(W[a][i] * V[b][i] for i in range(n)) for b in range(gdim)] for a in range(gdim)]
    # the RREF of [WV | I] is [I | WV^-1] exactly when WV is invertible
    R, piv = _rref_fraction([row + [Fraction(int(a == b)) for b in range(gdim)] for a, row in enumerate(WV)])
    if piv != list(range(gdim)):
        return None
    WVinv = [row[gdim:] for row in R]
    w_proj = [sum(W[a][i] * Fraction(psi[i]) for i in range(n)) for a in range(gdim)]
    coef = [sum(WVinv[b][a] * w_proj[a] for a in range(gdim)) for b in range(gdim)]
    proj = [sum(coef[b] * V[b][i] for b in range(gdim)) for i in range(n)]
    total = sum(Fraction(chi[i]) * proj[i] for i in range(n))
    cstar = Fraction(orders.vertex(base)) * total / (mu - 1)
    # e^{2 delta} = lambda^2 = mu^(2/k)
    return RenewalConstant(
        value=float(cstar), period=k, exact=cstar, method="perron-exact", growth_sq=mu ** (2 // k)
    )


def _rref_fraction(M):
    """Reduced row echelon form of a rational matrix, and its pivot columns."""
    R = [row[:] for row in M]
    piv = []
    for c in range(len(R[0]) if R else 0):
        r = len(piv)
        p = next((i for i in range(r, len(R)) if R[i][c] != 0), None)
        if p is None:
            continue
        R[r], R[p] = R[p], R[r]
        inv = Fraction(1) / R[r][c]
        R[r] = [x * inv for x in R[r]]
        for i in range(len(R)):
            if i != r and R[i][c] != 0:
                f = R[i][c]
                R[i] = [x - f * y for x, y in zip(R[i], R[r])]
        piv.append(c)
        if len(piv) == len(R):
            break
    return R, piv


def _nullspace_fraction(A):
    """Null-space basis of a square rational matrix, one vector per free column."""
    n = len(A)
    R, piv = _rref_fraction(A)
    basis = []
    for fc in (c for c in range(n) if c not in piv):
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for ri, c in enumerate(piv):
            vec[c] = -R[ri][fc]
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# the error-decay report


def _float_counts(series, ns, name):
    """float(series[2n]) over ns; an OverflowError naming the count and the
    first n whose float overflows (exact counts are ints and fractions)."""
    out = []
    for n in ns:
        try:
            out.append(float(series[2 * n]))
        except OverflowError:
            raise OverflowError(
                f"{name} overflows a float from n = {n} on; it scales with orders.base_value "
                "and grows with the edge indices (edges[k].index)"
            ) from None
    return tuple(out)


@dataclass(frozen=True)
class CountReport:
    base: str
    ns: tuple
    oracle: tuple
    cone_terms: tuple
    full_terms: tuple
    cstar: float
    cstar_exact: object
    cone_constant: float
    full_constant: float
    kappa_hat: float
    ratio_full: tuple  # full main term / oracle
    ratio_constants: float  # cone constant / full constant
    delta: float
    renewal_method: str  # how cstar was obtained (RenewalConstant.method, or "main-term")
    cone_edge: str  # the first edge of the cone
    oracle_cone: tuple  # counts through the cone
    ratio_cone: tuple  # cone main term / cone counts

    def rows(self):
        out = []
        for idx, n in enumerate(self.ns):
            geom = self.cstar * math.exp(2.0 * self.delta * n)
            out.append(
                {
                    "n": n,
                    "oracle": self.oracle[idx],
                    "main_cone": self.cone_terms[idx],
                    "main_full": self.full_terms[idx],
                    "cstar_geom": geom,
                    "residual": self.oracle[idx] - geom,
                    "ratio_full": self.ratio_full[idx],
                    "oracle_cone": self.oracle_cone[idx],
                    "ratio_cone": self.ratio_cone[idx],
                }
            )
        return out


def error_decay_report(g, orders, F, gd, m_mass, params, n_lo, n_hi, base=None) -> CountReport:
    """Oracle counts vs main terms vs the geometric term C* e^{2 delta n}.

    The main terms come from ``main_term`` at ``base``; the cone is the one
    through the first entry edge e at the base.  One DP pass counts both: the
    full count and the cone count equal those of ``orbit_oracle`` without a
    constraint and with ``first_edge_constraint=(e,)``.  On a finite quotient
    C* is ``renewal_constant``'s Perron value, read off ``gd.op`` (the core
    window and the potential ``gd`` was solved for), on a tailed one the full
    constant.  The main-term formula was checked at the normalization vertex
    with and without potentials, and away from it only at zero potential.
    The error exponent kappa is 2 delta minus the slope that ``decay_fit``
    (the mixing rate's fit too) takes through log |N_x(2n) - C* e^{2 delta n}|:
    every non-zero exact residual, or float residuals above their rounding
    floor at the scale of the count; inf below three points.
    """
    # ``params`` is unused; it keeps the positional signature that the bench
    # harness calls with biregular_params(g)
    base = base or g.base_vertex
    # a finite quotient counts on the bare core the shadow solve unrolled, with its operator
    mat = materialize(g, 2 * n_hi + 1) if g.tails else gd.mat
    op, order_base, entry = _dp_weights(mat, F, orders, base, 2 * n_hi, gd.op)
    cone_edge = entry[0][0]
    full, cone = _orbit_dp(mat, op, base, order_base, [entry, entry[:1]], 1, 2 * n_hi)
    full[0] = order_base  # the identity
    series = list(accumulate(full))
    cone_series = list(accumulate(cone))
    nu_x = nu_mass_at(gd, base)
    cone_mass = shadow_measure(gd, base, [cone_edge])
    # a finite quotient's renewal constant carries the counting period; it
    # reads T(0) off the shadow window's operator
    rc = None if g.tails else _renewal(gd.op, orders, base, True)
    k = length_spectrum_period(g) if rc is None else rc.period
    ns = tuple(range(n_lo, n_hi + 1))
    oracle = _float_counts(series, ns, "orbit count N(2n)")
    oracle_cone = _float_counts(cone_series, ns, "cone count N(2n)")
    terms = [main_term(gd, m_mass, n, k, nu_x, cone_mass) for n in ns]
    full_c = terms[0].full_constant
    if rc is None:
        rc = RenewalConstant(value=full_c, period=k, method="main-term")
    delta = gd.delta
    if rc.exact is not None and rc.growth_sq is not None and op is None:
        resid = [float(series[2 * n] - rc.exact * rc.growth_sq**n) for n in ns]
        scales = [0.0] * len(ns)
    else:
        resid = [o - rc.value * math.exp(2.0 * delta * n) for n, o in zip(ns, oracle)]
        scales = oracle
    fit = decay_fit(ns, resid, scales)
    kappa = float("inf") if fit is None else 2.0 * delta - fit[0]
    return CountReport(
        base=base,
        ns=ns,
        oracle=oracle,
        cone_terms=tuple(t.cone_term for t in terms),
        full_terms=tuple(t.full_term for t in terms),
        cstar=rc.value,
        cstar_exact=rc.exact,
        cone_constant=terms[0].cone_constant,
        full_constant=full_c,
        kappa_hat=kappa,
        ratio_full=tuple(t.full_term / o for t, o in zip(terms, oracle)),
        ratio_constants=terms[0].cone_constant / full_c,
        delta=delta,
        renewal_method=rc.method,
        cone_edge=cone_edge,
        oracle_cone=oracle_cone,
        ratio_cone=tuple(t.cone_term / o for t, o in zip(terms, oracle_cone)),
    )
