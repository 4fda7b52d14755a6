"""Countable-state Markov chain induced by the shadow data.

States are the quotient oriented edges carrying positive cylinder mass.
Transitions p_ij = m(s_i, s_j) exp(F(s_j) - delta) u+(s_j) / u+(s_i) and the
stationary weights pi_j proportional to u-(rev s_j) u+(s_j) exp(F(s_j) - delta)
divided by the edge order.  Tails are materialized to the shadow depth; their
transition probabilities are periodic from the tail's joint period on (the
first level and the length ``compute_gibbs`` records per tail in
``GibbsData.tail_periods``), which gives closed-form tail mass and the
``TailBlock`` records that drift certificates continue beyond the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .digraph import from_matrix, has_cycle, period, reachable, reverse, sccs
from .errors import DivergenceError, ReducibleChainError, ZeroShadowError
from .gibbs import perron_vector
from .graph import materialize, orders_on, tail_edge_id

PI_REMAINDER_TOL = 1e-13


@dataclass(frozen=True)
class TailBlock:
    """Transition probabilities along one tail, periodic from ``start`` on.

    ``start`` and ``period`` are the tail's joint period.  The maps send a
    level n to p(e_n -> e_{n+1}) (``p_up``), p(e_n -> r_n) (``p_turn``),
    p(r_n -> r_{n-1}) (``p_dn``) and p(r_n -> e_n) (``p_re``), with e_n the up
    and r_n the down state at level n; ``p_dn`` and ``p_re`` start at level 2.
    """

    start: int
    period: int
    p_up: dict
    p_turn: dict
    p_dn: dict
    p_re: dict


@dataclass(frozen=True)
class MarkovChain:
    states: tuple
    p: np.ndarray
    pi: np.ndarray
    period: int
    classes: tuple
    interior: np.ndarray
    orders: object = None
    lam: np.ndarray = None
    m_mass: float = None
    tail_remainder: float = 0.0
    mat: object = None  # the MaterializedGraph the states live on
    tails: tuple = ()  # TailBlock per tail of mat
    _pos: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "_pos", {s: i for i, s in enumerate(self.states)})

    def pos(self, state):
        return self._pos[state]

    def pi_of(self, state):
        return float(self.pi[self._pos[state]])

    def p_of(self, a, b):
        return float(self.p[self._pos[a], self._pos[b]])

    def class_of(self, state):
        i = self._pos[state]
        for c, members in enumerate(self.classes):
            if i in members:
                return c
        return -1

    @staticmethod
    def from_kernel(states, p, pi=None, interior=None):
        """Wrap an explicit stochastic kernel (counterexample chains, tests).

        Without ``pi`` the stationary law is ``perron_vector(p.T, 1.0)``,
        which raises NoPositiveSolutionError when p has no positive one.
        """
        p = np.asarray(p, dtype=float)
        states = tuple(states)
        pi = perron_vector(p.T, 1.0) if pi is None else np.asarray(pi, dtype=float)
        period, classes = _period_and_classes(p > 0)
        if interior is None:
            interior = np.ones(len(states), dtype=bool)
        return MarkovChain(
            states=states,
            p=p,
            pi=pi,
            period=period,
            classes=classes,
            interior=interior,
        )


def _period_and_classes(adj):
    """Period and cyclic class partition of a 0/1 transition structure.

    Class r holds the states whose BFS level from state 0 is r mod the
    period; states state 0 does not reach (truncation frontier) go to class 0.
    """
    n = adj.shape[0]
    if n == 0:
        return 1, (frozenset(),)
    k, levels = period(from_matrix(adj), 0)
    k = k or 1
    classes = [set() for _ in range(k)]
    for v in range(n):
        classes[levels.get(v, 0) % k].add(v)
    return k, tuple(frozenset(c) for c in classes)


def build_chain(g, gd, orders, depth=None):
    """Assemble (states, p, pi) from shadow data and an order grading."""
    depth = gd.depth if depth is None else depth
    if depth > gd.depth:
        raise ValueError(f"chain depth {depth} exceeds shadow depth {gd.depth}")
    mat = materialize(g, depth)
    ext = orders_on(mat, orders)
    funnel = mat.funnel_edge_ids()
    delta = gd.delta
    fvals = gd.fvals
    up, um = gd.u_plus, gd.u_minus

    support = _structural_support(mat)
    lam = {}
    for e in mat.edges:
        if e in funnel:
            continue
        val = um[mat.rev[e]] * up[e] * math.exp(fvals[e] - delta) / float(ext.edge(e))
        if e in support:
            if val <= 0.0:
                raise ZeroShadowError(f"supported state {e} received zero cylinder mass")
            lam[e] = val
        elif val > 1e-12:
            raise ZeroShadowError(f"state {e} off the geodesic support has mass {val}")
    states = tuple(sorted(lam, key=_state_sort_key(mat)))
    pos = {s: i for i, s in enumerate(states)}
    n = len(states)
    P = np.zeros((n, n))
    for e in states:
        for f, m in mat.continuations(e):
            if f in pos:
                P[pos[e], pos[f]] = m * math.exp(fvals[f] - delta) * up[f] / up[e]
    lamvec = np.array([lam[s] for s in states])
    remainder = _tail_mass_beyond(mat, lam, gd.tail_periods)
    m_mass = float(lamvec.sum() + remainder)
    if remainder / m_mass > PI_REMAINDER_TOL:
        raise DivergenceError(
            f"materialized depth {depth} leaves tail mass fraction {remainder / m_mass}"
        )
    pi = lamvec / m_mass
    interior = np.array([mat.is_interior(s) for s in states])
    adj = P > 0
    # the interior sub-digraph must communicate
    core_idx = [i for i in range(n) if interior[i]]
    if core_idx and len(sccs(from_matrix(adj[np.ix_(core_idx, core_idx)]))) != 1:
        raise ReducibleChainError("chain support splits into non-communicating pieces")
    period, classes = _period_and_classes(adj)
    return MarkovChain(
        states=states,
        p=P,
        pi=pi,
        period=period,
        classes=classes,
        interior=interior,
        orders=ext,
        lam=lamvec,
        m_mass=m_mass,
        tail_remainder=float(remainder),
        mat=mat,
        tails=tuple(
            _tail_block(P, pos, t, depth, start, L)
            for t, (start, L) in enumerate(gd.tail_periods)
        ),
    )


def _state_sort_key(mat):
    def key(e):
        meta = mat.edge_meta[e]
        if meta[0] == "core":
            return (0, e, 0, 0)
        return (1, f"t{meta[1]}", meta[2], 0 if meta[3] else 1)

    return key


def _structural_support(mat):
    """Edges lying on a bi-infinite geodesic: both e and rev(e) reach a cycle."""
    funnel = mat.funnel_edge_ids()
    states = [e for e in mat.edges if e not in funnel]
    pos = {e: i for i, e in enumerate(states)}
    succ = [[] for _ in states]
    for e in states:
        for f, _ in mat.continuations(e):
            if f not in funnel:
                succ[pos[e]].append(pos[f])
        meta = mat.edge_meta[e]
        if meta[0] == "tail" and meta[3] and meta[2] == mat.depth:
            # frontier up-state: the ray continues upward forever; the walk can
            # turn around above the window iff some periodic level branches
            t, n = meta[1], meta[2]
            spec = mat.core.tails[t]
            if any(a > 1 for a, _ in spec.period):
                succ[pos[e]].append(pos[tail_edge_id(t, n, False)])
    oncycle = [v for comp in sccs(succ) if has_cycle(succ, comp) for v in comp]
    fwd = reachable(reverse(succ), oncycle)
    return {e for e in states if pos[e] in fwd and pos[mat.rev[e]] in fwd}


def _tail_mass_beyond(mat, lam, tail_periods):
    """Closed-form cylinder mass past the materialized window, summed over the
    tails, each with its (first periodic level, period length)."""
    total = 0.0
    D = mat.depth
    for t, (start, L) in enumerate(tail_periods):
        if D < start + 3 * L:
            raise DivergenceError(f"depth {D} too shallow for tail {t} mass resummation")

        def block(d0):
            s = 0.0
            for r in range(L):
                for up in (True, False):
                    s += lam.get(tail_edge_id(t, d0 + r, up), 0.0)
            return s

        s_last = block(D - L + 1)
        s_prev = block(D - 2 * L + 1)
        if s_prev == 0.0:
            continue
        rho = s_last / s_prev
        if rho >= 1.0 - 1e-12:
            raise DivergenceError(f"tail {t} cylinder mass does not decay (ratio {rho})")
        total += s_last * rho / (1.0 - rho)
    return total


def _tail_block(P, pos, t, depth, start, L):
    """The ``TailBlock`` of tail t, read off the kernel P up to ``depth``."""

    def p_at(a, b):
        ia, ib = pos.get(a), pos.get(b)
        if ia is None or ib is None:
            return 0.0
        return float(P[ia, ib])

    p_up, p_turn, p_dn, p_re = {}, {}, {}, {}
    for nlv in range(1, depth):
        e_n = tail_edge_id(t, nlv, True)
        e_n1 = tail_edge_id(t, nlv + 1, True)
        r_n = tail_edge_id(t, nlv, False)
        r_n1 = tail_edge_id(t, nlv + 1, False)
        p_up[nlv] = p_at(e_n, e_n1)
        p_turn[nlv] = p_at(e_n, r_n)
        p_dn[nlv + 1] = p_at(r_n1, r_n)
        p_re[nlv + 1] = p_at(r_n1, e_n1)
    return TailBlock(start, L, p_up, p_turn, p_dn, p_re)


# ---------------------------------------------------------------------------
# diagnostics


@dataclass(frozen=True)
class MarkovReport:
    max_row_residual: float
    max_stationarity_residual: float
    max_cylinder_residual: float
    pi_sum_defect: float

    @property
    def max_residual(self):
        return max(self.max_row_residual, self.max_stationarity_residual)


def check_markov_property(mc: MarkovChain, gd=None) -> MarkovReport:
    """Row sums, stationarity, and length-2 cylinder consistency residuals."""
    P, pi = mc.p, mc.pi
    inter = mc.interior
    row = np.abs(P.sum(axis=1) - 1.0)
    max_row = float(row[inter].max()) if inter.any() else 0.0
    flow = pi @ P
    stat = np.abs(flow - pi)
    max_stat = float(stat[inter].max()) if inter.any() else 0.0
    max_cyl = 0.0
    mat = mc.mat
    if mc.lam is not None and mc.orders is not None and gd is not None and mat is not None:
        # direct two-edge cylinder mass vs pi_j p_jk on a full sweep
        for i, si in enumerate(mc.states):
            if not inter[i]:
                continue
            for j in np.nonzero(P[i])[0]:
                sj = mc.states[int(j)]
                direct = (
                    gd.u_minus[mat.rev[si]]
                    * gd.u_plus[sj]
                    * math.exp(gd.fvals[si] + gd.fvals[sj] - 2.0 * gd.delta)
                    * mat.multiplicity(si, sj)
                    / float(mc.orders.edge(si))
                ) / mc.m_mass
                max_cyl = max(max_cyl, abs(direct - pi[i] * P[i, int(j)]))
    defect = abs(float(pi.sum()) + mc.tail_remainder / (mc.m_mass or 1.0) - 1.0)
    return MarkovReport(max_row, max_stat, max_cyl, defect)


def cyclic_classes(mc: MarkovChain):
    """The cyclic classes as state tuples, each in state order."""
    return tuple(tuple(mc.states[i] for i in sorted(members)) for members in mc.classes)


def periodic_classes(mc: MarkovChain):
    """(k, class partition as state tuples, k-step kernels restricted per class)."""
    k = mc.period
    Pk = np.linalg.matrix_power(mc.p, k)
    kernels = []
    for members in mc.classes:
        idx = sorted(members)
        kernels.append(Pk[np.ix_(idx, idx)])
    return k, cyclic_classes(mc), kernels


# ---------------------------------------------------------------------------
# taboo and first-passage tables


@dataclass(frozen=True)
class TabooTable:
    B: tuple
    n_max: int
    p: dict  # (i, j) -> np.ndarray of length n_max + 1
    f: dict  # (i, j) -> np.ndarray


def _taboo_row(P, avoid_mask, i_idx, n_max):
    """rows[n] = vector of n-step probabilities avoiding ``avoid`` at interior times."""
    S = P.shape[0]
    rows = np.zeros((n_max + 1, S))
    rows[0, i_idx] = 1.0
    if n_max >= 1:
        rows[1] = P[i_idx]
    v = P[i_idx].copy()
    for n in range(2, n_max + 1):
        v = (v * avoid_mask) @ P
        rows[n] = v
    return rows


def taboo_probability(mc: MarkovChain, B, i, j, n_max) -> TabooTable:
    """p^{(n),B}_{ij} for n <= n_max; exact DP over the kernel."""
    Bt = tuple(sorted(B))
    mask = np.ones(len(mc.states))
    for b in Bt:
        mask[mc.pos(b)] = 0.0
    rows = _taboo_row(mc.p, mask, mc.pos(i), n_max)
    series = rows[:, mc.pos(j)].copy()
    series[0] = 1.0 if i == j else 0.0
    return TabooTable(Bt, n_max, {(i, j): series}, {})


def first_passage(mc: MarkovChain, B, i, j, n_max) -> TabooTable:
    """f^{(n),B}_{ij}: first arrival at j avoiding B (and j) at interior times."""
    Bt = tuple(sorted(B))
    mask = np.ones(len(mc.states))
    for b in Bt:
        mask[mc.pos(b)] = 0.0
    mask[mc.pos(j)] = 0.0
    rows = _taboo_row(mc.p, mask, mc.pos(i), n_max)
    series = rows[:, mc.pos(j)].copy()
    series[0] = 0.0
    return TabooTable(Bt, n_max, {}, {(i, j): series})


def taboo_table(mc: MarkovChain, B, pairs, n_max) -> TabooTable:
    """Joint table of taboo and first-passage series for the given (i, j) pairs."""
    Bt = tuple(sorted(B))
    ptab, ftab = {}, {}
    for i, j in pairs:
        ptab[(i, j)] = taboo_probability(mc, Bt, i, j, n_max).p[(i, j)]
        ftab[(i, j)] = first_passage(mc, Bt, i, j, n_max).f[(i, j)]
    return TabooTable(Bt, n_max, ptab, ftab)


def convolution_residual(table: TabooTable, mc: MarkovChain, i, j):
    """Defect of the first-arrival decomposition at j.

    For j outside B: p^{(n),B}_{ij} = sum_r f^{(r),B}_{ij} p^{(n-r),B}_{jj}
    (the classical return-time convolution when i = j).  For j in B the
    interior may never revisit j, so the taboo probability coincides with the
    first passage outright.
    """
    p_ij = table.p[(i, j)]
    f_ij = table.f[(i, j)]
    if j in table.B:
        return float(np.abs(p_ij[1:] - f_ij[1:]).max())
    p_jj = table.p.get((j, j))
    if p_jj is None:
        p_jj = taboo_probability(mc, table.B, j, j, table.n_max).p[(j, j)]
    worst = 0.0
    for n in range(1, table.n_max + 1):
        conv = sum(f_ij[r] * p_jj[n - r] for r in range(1, n + 1))
        worst = max(worst, abs(p_ij[n] - conv))
    return worst


def iter_taboo_matrix_powers(mc: MarkovChain, B, n_max):
    """Yield the full matrices p^{(n),B} for n = 0..n_max, one at a time."""
    S = len(mc.states)
    mask = np.ones(S)
    for b in B:
        mask[mc.pos(b)] = 0.0
    yield np.eye(S)
    if n_max < 1:
        return
    Pn = mc.p.copy()
    yield Pn
    DP = mask[:, None] * mc.p
    for _ in range(2, n_max + 1):
        Pn = Pn @ DP
        yield Pn


def taboo_matrix_powers(mc: MarkovChain, B, n_max):
    """Full matrices p^{(n),B} for n = 0..n_max, as a list."""
    return list(iter_taboo_matrix_powers(mc, B, n_max))


# ---------------------------------------------------------------------------
# recurrence and mixing


@dataclass(frozen=True)
class MeanReturn:
    estimate: float
    tail_bound: float
    total_mass: float
    defective: bool
    resolved: bool


def mean_return_time(mc: MarkovChain, j, n_max, cert_rho=None) -> MeanReturn:
    """sum n f^{(n)}_{jj} with a geometric tail bound from the observed envelope."""
    f = first_passage(mc, (), j, j, n_max).f[(j, j)]
    est = float(sum(n * f[n] for n in range(1, n_max + 1)))
    total = float(f[1:].sum())
    ratios = []
    for n in range(max(2, n_max - 10), n_max):
        if f[n] > 1e-300 and f[n + 1] > 0:
            ratios.append(f[n + 1] / f[n])
    theta = max(ratios) if ratios else (cert_rho or 0.0)
    if 0.0 < theta < 1.0:
        C = max((f[n] / theta**n) for n in range(1, n_max + 1) if f[n] > 0)
        M = n_max + 1
        tail = C * theta**M * (M - (M - 1) * theta) / (1.0 - theta) ** 2
    else:
        tail = float("inf") if total < 1.0 - 1e-12 else 0.0
    defective = total + (tail if math.isfinite(tail) else 0.0) < 1.0 - 1e-9
    return MeanReturn(est, float(tail), total, defective, math.isfinite(tail))


@dataclass(frozen=True)
class MixingFit:
    theta: float
    C: float
    r2: float
    n_points: int
    exact: bool
    p_kn: tuple = ()  # p^{(kn)}_{ij} for n = 1..n_max // k


def mixing_rate_estimate(mc: MarkovChain, i, j, n_max, skip=5, floor=1e-14) -> MixingFit:
    """Least-squares rate of |p^{(kn)}_{ij} - k pi_j| on the aperiodic subsequence."""
    k = mc.period
    ci, cj = mc.class_of(i), mc.class_of(j)
    if ci != cj:
        raise ValueError(f"states {i} and {j} lie in different cyclic classes")
    target = k * mc.pi_of(j)
    v = np.zeros(len(mc.states))
    v[mc.pos(i)] = 1.0
    p_kn = []
    for _ in range(n_max // k):
        for _ in range(k):
            v = v @ mc.p
        p_kn.append(float(v[mc.pos(j)]))
    p_kn = tuple(p_kn)
    pts = [(n, abs(p - target)) for n, p in enumerate(p_kn, start=1)]
    pts = [(n, d) for n, d in pts if n > skip and d > floor]
    if not pts:
        return MixingFit(0.0, 0.0, 1.0, 0, True, p_kn)
    if len(pts) < 3:
        # too short for a least-squares fit; fall back to the last ratio
        if len(pts) == 2 and pts[0][1] > 0:
            th = pts[1][1] / pts[0][1]
        else:
            th = 0.0
        c = pts[-1][1] / th ** pts[-1][0] if 0 < th < 1 else pts[-1][1]
        return MixingFit(float(th), float(c), 1.0, len(pts), False, p_kn)
    xs = np.array([p[0] for p in pts], dtype=float)
    ys = np.log(np.array([p[1] for p in pts]))
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(((ys - pred) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return MixingFit(float(math.exp(slope)), float(math.exp(intercept)), r2, len(pts), False, p_kn)


def second_eigenvalue_modulus(mc: MarkovChain, class_index=0):
    """|second eigenvalue| of the k-step kernel restricted to one cyclic class."""
    _, _, kernels = periodic_classes(mc)
    K = kernels[class_index]
    ev = np.linalg.eigvals(K)
    mods = sorted(np.abs(ev), reverse=True)
    return float(mods[1]) if len(mods) > 1 else 0.0


def cylinder_mass(mc: MarkovChain, word):
    """lambda mass of a cylinder word (pi of the first state times step probs)."""
    if not word:
        return 1.0
    val = mc.pi_of(word[0])
    for a, b in zip(word, word[1:]):
        q = mc.p_of(a, b)
        if q <= 0.0:
            raise ValueError(f"inadmissible word step {a}->{b}")
        val *= q
    return val


@dataclass(frozen=True)
class CovarianceSeries:
    ns: tuple
    cov: tuple
    envelope: tuple
    envelope_ok: bool


def correlation_decay(mc: MarkovChain, word_a, word_b, n_max, fit: MixingFit = None):
    """Exact covariances of two cylinder indicators under the shift.

    Cov_n = lam(word_a starting at time 0, word_b starting at time n) minus
    the product; the connecting factor is the (n - k + 1)-step transition from
    the last symbol of word_a to the first of word_b, k = len(word_a).  The
    envelope uses a fitted (C, theta) pair; meaningful for aperiodic chains.
    """
    la = cylinder_mass(mc, word_a)
    lb = cylinder_mass(mc, word_b)
    k = len(word_a)
    if not word_a or not word_b:
        ns = tuple(range(max(k, 1), n_max + 1))
        return CovarianceSeries(ns, tuple(0.0 for _ in ns), tuple(0.0 for _ in ns), True)
    a_last, b0 = word_a[-1], word_b[0]
    pib = mc.pi_of(b0)
    v = np.zeros(len(mc.states))
    v[mc.pos(a_last)] = 1.0
    ns, covs = [], []
    p_n = {0: 1.0 if a_last == b0 else 0.0}
    for m in range(1, n_max - k + 2):
        v = v @ mc.p
        p_n[m] = float(v[mc.pos(b0)])
    for n in range(k, n_max + 1):
        ns.append(n)
        covs.append(la * lb * (p_n[n - k + 1] - pib) / pib)
    env = []
    ok = True
    if fit is not None and mc.period == 1 and fit.theta > 0:
        bound_c = math.sqrt(la) * math.sqrt(lb) * fit.C / (pib * fit.theta**k)
        for n, c in zip(ns, covs):
            e = bound_c * fit.theta**n
            env.append(e)
            if abs(c) > e * (1 + 1e-9) + 1e-15:
                ok = False
    else:
        env = [float("nan")] * len(ns)
    return CovarianceSeries(tuple(ns), tuple(covs), tuple(env), ok)


# ---------------------------------------------------------------------------
# star-with-self-loops family


def counterexample_chain(gammas, betas, truncation):
    """Chain on {-N..N, inf} with p(inf,n)=beta_n, p(n,n)=gamma_n, p(n,inf)=1-gamma_n.

    ``gammas`` and ``betas`` are callables of the integer satellite index;
    betas are renormalized over the truncated range.
    """
    N = int(truncation)
    sats = list(range(-N, N + 1))
    g = {n: float(gammas(n)) for n in sats}
    for n, val in g.items():
        if not 0.0 <= val < 1.0:
            raise ValueError(f"gamma({n}) = {val} outside [0, 1)")
    braw = {n: float(betas(n)) for n in sats}
    if any(v < 0 for v in braw.values()) or sum(braw.values()) <= 0:
        raise ValueError("betas must be nonnegative with positive sum")
    tot = sum(braw.values())
    b = {n: v / tot for n, v in braw.items()}
    states = ["inf"] + [str(n) for n in sats]
    S = len(states)
    P = np.zeros((S, S))
    for k, n in enumerate(sats, start=1):
        P[0, k] = b[n]
        P[k, k] = g[n]
        P[k, 0] = 1.0 - g[n]
    z = 1.0 + sum(b[n] / (1.0 - g[n]) for n in sats)
    pi = np.zeros(S)
    pi[0] = 1.0 / z
    for k, n in enumerate(sats, start=1):
        pi[k] = pi[0] * b[n] / (1.0 - g[n])
    return MarkovChain.from_kernel(states, P, pi)
