"""Effective orbit counting in biregular covers.

The weighted counting function N_x(n) sums exp(potential integral) over the
orbit points within distance n; combinatorially it is an order factor times a
dynamic program over non-backtracking quotient paths from the base back to
itself.  The renewal constant C* = lim N_x(2n) exp(-2 n delta) comes from the
Perron data of the counting matrix, exactly (rational arithmetic) for
bipartite zero-potential quotients, and the closed ball/bisector measure
formulas provide the literal main terms to compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    GraphError,
    NoPositiveSolutionError,
    NormalizationMismatchError,
    ResourceLimitError,
)
from .gibbs import Potential, _is_zero as _potential_is_zero, perron_vector, spectral_radius
from .graph import materialize, orders_on


# ---------------------------------------------------------------------------
# biregular parameters and closed formulas


@dataclass(frozen=True)
class BiregularParams:
    qd: int  # base-vertex degree minus 1
    qdp: int  # other-class degree minus 1


def biregular_params(g, base=None) -> BiregularParams:
    """Detect (qd+1, qdp+1)-biregularity of the cover, base vertex first."""
    from .graph import lift_degree

    base = base or g.base_vertex
    deg = {v: lift_degree(g, v) for v in g.vertices}
    horizon = 1
    for spec in g.tails:
        horizon = max(horizon, len(spec.prefix) + 2 * len(spec.period))
    tail_degs = {}
    for t, spec in enumerate(g.tails):
        for n in range(1, horizon + 1):
            iu, _ = spec.pair(n)
            _, jd = spec.pair(n + 1)
            tail_degs[(t, n)] = iu + jd
    d0 = deg[base]
    # 2-coloring by parity over the core
    color = {base: 0}
    stack = [base]
    classes = {0: {d0}, 1: set()}
    while stack:
        v = stack.pop()
        for e in g.out_edges(v):
            w = g.term[e]
            cw = 1 - color[v]
            if w in color:
                if color[w] != cw:
                    if deg[w] != d0 or len({deg[x] for x in deg}) != 1:
                        raise GraphError("cover is not biregular (odd cycle with distinct degrees)")
                    color[w] = color[w]
                continue
            color[w] = cw
            classes[cw].add(deg[w])
            stack.append(w)
    for t, spec in enumerate(g.tails):
        c = 1 - color[spec.attach]
        for n in range(1, horizon + 1):
            classes[c].add(tail_degs[(t, n)])
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
        out = []
        acc = 0
        for w in self.per_distance:
            acc = acc + w
            out.append(acc)
        return out


def orbit_oracle(
    g,
    orders,
    F,
    base,
    n_max,
    first_edge_constraint=None,
    include_identity=True,
    guard=5_000_000,
):
    """Weighted count of orbit points per distance, by DP over quotient paths.

    Exact integer/rational mode switches on automatically for zero potential.
    ``first_edge_constraint`` prescribes the initial edge path (a cone of
    directions); funnel edges never lead back, so they are skipped.
    """
    F = F or Potential.zero(g)
    mat = materialize(g, n_max + 1 if g.tails else 0)
    if len(mat.edges) * (n_max + 1) > guard:
        raise ResourceLimitError("counting DP exceeds the resource guard")
    ext = orders_on(mat, orders)
    exact = _potential_is_zero(F)
    fvals = None if exact else F.on(mat)
    funnel = mat.funnel_edge_ids()
    states = [e for e in mat.edges if e not in funnel]
    pos = {e: i for i, e in enumerate(states)}
    succ = []
    for e in states:
        row = []
        for f, m in mat.continuations(e):
            if f in funnel:
                continue
            row.append((pos[f], m if exact else m * math.exp(fvals[f])))
        succ.append(row)
    ends_at_base = [mat.term[e] == base for e in states]
    zero = 0 if exact else 0.0
    vec = [zero] * len(states)
    order_base = ext.vertex(base) if exact else float(ext.vertex(base))
    per = [zero] * (n_max + 1)
    start_len = 0
    if first_edge_constraint:
        path = list(first_edge_constraint)
        w = mat.index[mat.rev[path[0]]]
        if not exact:
            w = w * math.exp(fvals[path[0]])
        if mat.orig[path[0]] != base:
            raise GraphError("constraint path must start at the base vertex")
        for a, b in zip(path, path[1:]):
            m = mat.multiplicity(a, b)
            if m <= 0:
                raise GraphError(f"constraint path not admissible at {a}->{b}")
            w = w * m if exact else w * m * math.exp(fvals[b])
        if path[-1] in funnel or any(e in funnel for e in path):
            raise GraphError("constraint path enters a funnel")
        vec[pos[path[-1]]] = w
        start_len = len(path)
        if start_len > n_max:
            raise ValueError("constraint longer than the horizon")
    else:
        for e in mat.out_edges(base):
            if e in funnel:
                continue
            w = mat.index[mat.rev[e]]
            vec[pos[e]] = w if exact else w * math.exp(fvals[e])
        start_len = 1
    if include_identity:
        per[0] = order_base * (1 if exact else 1.0)
    for n in range(start_len, n_max + 1):
        tot = zero
        for i, flag in enumerate(ends_at_base):
            if flag and vec[i] != 0:
                tot = tot + vec[i]
        per[n] = order_base * tot
        if n == n_max:
            break
        new = [zero] * len(states)
        for i, v in enumerate(vec):
            if v == 0:
                continue
            for jdx, m in succ[i]:
                new[jdx] = new[jdx] + v * m
        vec = new
    return OracleCounts(base, n_max, tuple(per), exact, tuple(first_edge_constraint or ()))


# ---------------------------------------------------------------------------
# shadows and main terms


def nu_mass_at(gd, g, x):
    """Total boundary mass seen from x (1 at the normalization base vertex)."""
    mat = materialize(g, gd.depth)
    funnel = mat.funnel_edge_ids()
    tot = 0.0
    for e in mat.out_edges(x):
        if e in funnel:
            continue
        tot += mat.index[mat.rev[e]] * math.exp(gd.fvals[e] - gd.delta) * gd.u_plus[e]
    return tot


def shadow_measure(gd, g, base, edge_path, per_lift=False):
    """Boundary mass of the directions through an initial edge path.

    Default: all lifts of the path at once, so depth-1 path masses partition
    the total mass at the base.  ``per_lift`` gives the mass of one cover
    cone, exp(sum(F - delta)) * u+(last edge).
    """
    mat = materialize(g, gd.depth)
    if not edge_path:
        return nu_mass_at(gd, g, base)
    if mat.orig[edge_path[0]] != base:
        raise GraphError("path must start at the base vertex")
    funnel = mat.funnel_edge_ids()
    if any(e in funnel for e in edge_path):
        return 0.0
    mult = mat.index[mat.rev[edge_path[0]]]
    for a, b in zip(edge_path, edge_path[1:]):
        m = mat.multiplicity(a, b)
        if m <= 0:
            raise GraphError(f"inadmissible path step {a}->{b}")
        mult *= m
    weight = math.exp(sum(gd.fvals[e] - gd.delta for e in edge_path))
    if per_lift:
        return weight * gd.u_plus[edge_path[-1]]
    return mult * weight * gd.u_plus[edge_path[-1]]


@dataclass(frozen=True)
class MainTerms:
    n: int
    cone_term: float  # cone-restricted count, (e^{2 delta n} - 1) profile
    full_term: float  # full-count main term, e^{2 delta n} profile
    cone_constant: float
    full_constant: float


def main_term(params, gd, orders, m_mass, n, omega_mass=None, norm_record=None):
    """Literal main terms of the two counting asymptotics at horizon 2n."""
    if norm_record is not None and norm_record != gd.normalization:
        raise NormalizationMismatchError(
            f"mass record {norm_record} differs from shadow record {gd.normalization}"
        )
    delta = gd.delta
    e2 = math.exp(2.0 * delta)
    stab = float(orders.vertex(gd.base_vertex))
    nu_om = 1.0 if omega_mass is None else omega_mass
    cone_c = e2 * (params.qd + 1) * stab * nu_om / (params.qd * (e2 - 1.0) * m_mass)
    full_c = e2 * 1.0 * 1.0 * stab / ((e2 - 1.0) * m_mass)
    return MainTerms(
        n=n,
        cone_term=cone_c * (math.exp(2.0 * delta * n) - 1.0),
        full_term=full_c * math.exp(2.0 * delta * n),
        cone_constant=cone_c,
        full_constant=full_c,
    )


# ---------------------------------------------------------------------------
# renewal constant


@dataclass(frozen=True)
class RenewalConstant:
    value: float
    exact: Fraction = None
    method: str = "perron"
    growth_sq: Fraction = None  # exact e^{2 delta} when known


def _counting_matrix(g, F, exact):
    mat = materialize(g, 0)
    funnel = mat.funnel_edge_ids()
    states = [e for e in mat.edges if e not in funnel]
    pos = {e: i for i, e in enumerate(states)}
    n = len(states)
    if exact:
        M = [[0] * n for _ in range(n)]
    else:
        M = np.zeros((n, n))
        fvals = F.on(mat)
    for e in states:
        for f, m in mat.continuations(e):
            if f in funnel:
                continue
            if exact:
                M[pos[e]][pos[f]] = m
            else:
                M[pos[e], pos[f]] = m * math.exp(fvals[f])
    return mat, states, pos, M


def _chi_psi(g, mat, states, base, F, exact):
    chi = [0] * len(states) if exact else np.zeros(len(states))
    psi = [0] * len(states) if exact else np.zeros(len(states))
    fvals = None if exact else F.on(mat)
    for i, e in enumerate(states):
        if mat.orig[e] == base:
            chi[i] = mat.index[mat.rev[e]] if exact else mat.index[mat.rev[e]] * math.exp(fvals[e])
        if mat.term[e] == base:
            psi[i] = 1 if exact else 1.0
    return chi, psi


def renewal_constant(
    g, orders, F=None, base=None, prefer_exact=True, delta=None
) -> RenewalConstant:
    """C* = lim N_x(2n) exp(-2 n delta) for a finite quotient.

    Perron decomposition of the counting matrix; for bipartite quotients with
    zero potential the whole computation runs in rational arithmetic.  A
    tailed quotient extrapolates the counts, with ``delta`` the exponent of
    (g, F) when the caller has it and a fresh solve otherwise.
    """
    if g.tails:
        if delta is None:
            from .gibbs import critical_exponent

            delta = critical_exponent(g, F).delta
        return _renewal_extrapolated(g, orders, F, base, delta)
    F = F or Potential.zero(g)
    base = base or g.base_vertex
    if prefer_exact and _potential_is_zero(F) and _is_bipartite(g):
        res = _renewal_exact(g, orders, base)
        if res is not None:
            return res
    return _renewal_float(g, orders, F, base)


def _is_bipartite(g):
    color = {}
    for v0 in g.vertices:
        if v0 in color:
            continue
        color[v0] = 0
        stack = [v0]
        while stack:
            v = stack.pop()
            for e in g.out_edges(v):
                w = g.term[e]
                if w not in color:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def _renewal_float(g, orders, F, base):
    mat, states, _, M = _counting_matrix(g, F, exact=False)
    ext = orders_on(mat, orders)
    lam = spectral_radius(M)
    if lam <= 1.0:
        raise NoPositiveSolutionError("counting growth rate at or below 1")
    chi, psi = _chi_psi(g, mat, states, base, F, exact=False)
    from .chain import _period_and_classes

    k, classes = _period_and_classes(M > 0)
    if k not in (1, 2):
        raise NoPositiveSolutionError(f"counting period {k} not supported for the limit")
    v = perron_vector(M, lam)
    w = perron_vector(M.T, lam)
    denom = float(w @ v)
    c_plus = float(chi @ v) * float(w @ psi) / denom
    c_minus = 0.0
    if k == 2:
        sgn = np.ones(len(states))
        for i in classes[1]:
            sgn[i] = -1.0
        v2, w2 = sgn * v, sgn * w
        c_minus = float(chi @ v2) * float(w2 @ psi) / float(w2 @ v2)
    cstar = float(ext.vertex(base)) * (c_plus / (lam - 1.0) - c_minus / (lam + 1.0))
    return RenewalConstant(value=cstar, method="perron-float")


def _renewal_exact(g, orders, base):
    """Rational-arithmetic Perron resummation (bipartite, zero potential).

    The guess mu for lambda^2 is the float Perron value squared, rounded to
    the nearest fraction with denominator at most 10^9.  The exact path runs
    only when mu is an integer: M^2 has integer entries, so its
    characteristic polynomial is monic with integer coefficients, and by the
    rational root theorem a non-integer rational mu is never one of its
    eigenvalues.  M^2 - mu I is then nonsingular, its null space is empty and
    there is nothing to resum, so None is returned before any rational
    elimination.
    """
    mat, states, _, M = _counting_matrix(g, Potential.zero(g), exact=True)
    Mf = np.array([[float(x) for x in row] for row in M])
    mu = Fraction(spectral_radius(Mf) ** 2).limit_denominator(10**9)
    if mu.denominator != 1:
        return None
    ext = orders_on(mat, orders)
    n = len(states)
    M2 = [[sum(M[i][k] * M[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    A = [[Fraction(M2[i][j]) - (mu if i == j else 0) for j in range(n)] for i in range(n)]
    V = _nullspace_fraction(A)
    if not V:
        return None
    At = [[A[j][i] for j in range(n)] for i in range(n)]
    W = _nullspace_fraction(At)
    if len(W) != len(V):
        return None
    gdim = len(V)
    WV = [[sum(W[a][i] * V[b][i] for i in range(n)) for b in range(gdim)] for a in range(gdim)]
    # the RREF of [WV | I] is [I | WV^-1] exactly when WV is invertible
    R, piv = _rref_fraction([row + [Fraction(int(a == b)) for b in range(gdim)] for a, row in enumerate(WV)])
    if piv != list(range(gdim)):
        return None
    WVinv = [row[gdim:] for row in R]
    chi, psi = _chi_psi(g, mat, states, base, None, exact=True)
    Mpsi = [sum(M[i][j] * psi[j] for j in range(n)) for i in range(n)]
    w_proj = [sum(W[a][i] * Fraction(Mpsi[i]) for i in range(n)) for a in range(gdim)]
    coef = [sum(WVinv[b][a] * w_proj[a] for a in range(gdim)) for b in range(gdim)]
    proj = [sum(coef[b] * V[b][i] for b in range(gdim)) for i in range(n)]
    total = sum(Fraction(chi[i]) * proj[i] for i in range(n))
    cstar = Fraction(ext.vertex(base)) * total / (mu - 1)
    return RenewalConstant(value=float(cstar), exact=cstar, method="perron-exact", growth_sq=mu)


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


def _renewal_extrapolated(g, orders, F, base, delta, n_max=40, tol=1e-8):
    """Aitken-accelerated limit of N_x(2n) exp(-2 n delta) (geometric residuals)."""
    base = base or g.base_vertex
    F = F or Potential.zero(g)
    rep = orbit_oracle(g, orders, F, base, 2 * n_max)
    series = rep.series()
    vals = [float(series[2 * n]) * math.exp(-2.0 * n * delta) for n in range(1, n_max + 1)]

    def aitken(seq):
        out = []
        for k in range(2, len(seq)):
            d2 = seq[k] - 2.0 * seq[k - 1] + seq[k - 2]
            out.append(seq[k] if d2 == 0.0 else seq[k] - (seq[k] - seq[k - 1]) ** 2 / d2)
        return out

    acc = aitken(aitken(vals))
    if len(acc) < 4 or abs(acc[-1] - acc[-3]) > tol * max(1.0, abs(acc[-1])):
        raise NoPositiveSolutionError("renewal extrapolation did not converge")
    return RenewalConstant(value=float(acc[-1]), method="extrapolated")


# ---------------------------------------------------------------------------
# boundary families and the error-decay report


def boundary_ratio(g, family, R_list, base=None, beta=None, node_limit=2_000_000):
    """|boundary E_R| / |E_R| for a family of finite cover vertex sets.

    ``family`` is "ball", "segment", or a callable (CoverBall, R) -> index set.
    """
    from .cover import build_cover_ball

    base = base or g.base_vertex
    radius = max(R_list) + 1
    ball = build_cover_ball(g, base, radius, node_limit=node_limit)
    nbr = ball.adjacency()
    rows = []
    for R in R_list:
        if family == "ball":
            E = {i for i, nd in enumerate(ball.nodes) if nd.depth <= R}
        elif family == "segment":
            E = set()
            cur = 0
            E.add(0)
            for _ in range(R):
                nd = ball.nodes[cur]
                if not nd.children:
                    break
                cur = nd.children[0]
                E.add(cur)
        elif callable(family):
            E = set(family(ball, R))
        else:
            raise ValueError(f"unknown family {family!r}")
        boundary = set()
        for i in E:
            for j in nbr[i]:
                if j not in E:
                    boundary.add(j)
        ratio = len(boundary) / len(E)
        row = {"R": R, "size": len(E), "boundary": len(boundary), "ratio": ratio}
        if beta is not None:
            row["criterion_ok"] = ratio <= R ** (-beta) if R >= 1 else False
        rows.append(row)
    return rows


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
    renewal_method: str  # how cstar was obtained (RenewalConstant.method)

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
                }
            )
        return out


def error_decay_report(g, orders, F, gd, m_mass, params, n_lo, n_hi, base=None) -> CountReport:
    """Oracle counts vs literal main terms vs geometric renewal term.

    Fits the error exponent from log |N_x(2n) - C* e^{2 delta n}| and logs the
    (constant) normalization ratio between the literal main term and C*.
    """
    base = base or g.base_vertex
    F = F or Potential.zero(g)
    rep = orbit_oracle(g, orders, F, base, 2 * n_hi)
    series = rep.series()
    rc = renewal_constant(g, orders, F, base, delta=gd.delta)
    ns = tuple(range(n_lo, n_hi + 1))
    oracle = tuple(float(series[2 * n]) for n in ns)
    terms = [main_term(params, gd, orders, m_mass, n) for n in ns]
    cone = tuple(t.cone_term for t in terms)
    full = tuple(t.full_term for t in terms)
    delta = gd.delta
    if rc.exact is not None and rc.growth_sq is not None and rep.exact:
        resid = [float(series[2 * n] - rc.exact * rc.growth_sq**n) for n in ns]
    else:
        resid = [o - rc.value * math.exp(2.0 * delta * n) for n, o in zip(ns, oracle)]
    pts = [(n, abs(r)) for n, r in zip(ns, resid) if abs(r) > 1e-13 * max(1.0, abs(oracle[0]))]
    if len(pts) >= 3:
        xs = np.array([p[0] for p in pts], dtype=float)
        ys = np.log(np.array([p[1] for p in pts]))
        slope = float(np.polyfit(xs, ys, 1)[0])
        kappa = 2.0 * delta - slope
    else:
        kappa = float("inf")
    ratio_full = tuple(f / o for f, o in zip(full, oracle))
    return CountReport(
        base=base,
        ns=ns,
        oracle=oracle,
        cone_terms=cone,
        full_terms=full,
        cstar=rc.value,
        cstar_exact=rc.exact,
        cone_constant=terms[0].cone_constant,
        full_constant=terms[0].full_constant,
        kappa_hat=kappa,
        ratio_full=ratio_full,
        ratio_constants=terms[0].cone_constant / terms[0].full_constant,
        delta=delta,
        renewal_method=rc.method,
    )
