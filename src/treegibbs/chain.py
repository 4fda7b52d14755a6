"""Countable-state Markov chain induced by the shadow data.

States are the quotient oriented edges carrying positive cylinder mass.
Transitions p_ij = m(s_i, s_j) exp(F(s_j) - delta) u+(s_j) / u+(s_i) and the
stationary weights pi_j proportional to u-(rev s_j) u+(s_j) exp(F(s_j) - delta)
divided by the edge order, both weighted by the operator ``GibbsData.op`` at
delta (``check_markov_property``'s cylinder check computes its own exp, to stay
independent).  The states live on the shadow window
``GibbsData.mat``, the tails unrolled to the shadow depth; their
transition probabilities are periodic from the tail's joint period on (the
first level and the length ``compute_gibbs`` records per tail in
``GibbsData.tail_periods``), which gives closed-form tail mass and the
``TailBlock`` records that drift certificates continue beyond the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .digraph import from_arcs, from_matrix, has_cycle, period, reachable, reverse, sccs, strongly_connected
from .errors import DivergenceError, NoPositiveSolutionError, ReducibleChainError, ZeroShadowError
from .gibbs import _perron_defect
from .graph import orders_on, tail_edge_id

PI_REMAINDER_TOL = 1e-13
# a distance at scale x carries about n roundings of x after n steps
ROUNDING_FLOOR = 1e-13


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
    arcs: tuple  # (src, dst) of P's nonzeros, row by row, as np.nonzero(p) lists them
    orders: object = None
    m_mass: float = None
    tail_remainder: float = 0.0
    mat: object = None  # the MaterializedGraph the states live on
    tails: tuple = ()  # TailBlock per tail of mat
    _pos: dict = field(init=False, repr=False, compare=False, default=None)
    _blocks: object = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "_pos", {s: i for i, s in enumerate(self.states)})

    def pos(self, state):
        return self._pos[state]

    def pi_of(self, state):
        return float(self.pi[self._pos[state]])

    def p_of(self, a, b):
        return float(self.p[self._pos[a], self._pos[b]])

    def blocks(self):
        """The ``KernelBlocks`` of the kernel's nonzero pattern, built from
        ``arcs`` once, on first use."""
        if self._blocks is None:
            object.__setattr__(self, "_blocks", _kernel_blocks(*self.arcs, len(self.states)))
        return self._blocks

    def class_of(self, state):
        i = self._pos[state]
        for c, members in enumerate(self.classes):
            if i in members:
                return c
        return -1

    @staticmethod
    def from_kernel(states, p, pi=None):
        """Wrap an explicit stochastic kernel (counterexample chains, tests),
        every state interior.

        Without ``pi`` the stationary law is ``_stationary_law(p)``, which
        raises NoPositiveSolutionError when p has no positive one.
        """
        p = np.asarray(p, dtype=float)
        states = tuple(states)
        pi = _stationary_law(p) if pi is None else np.asarray(pi, dtype=float)
        arcs = np.nonzero(p)
        period, classes = _cyclic_classes(from_arcs(*arcs, len(states)))
        return MarkovChain(
            states=states,
            p=p,
            pi=pi,
            period=period,
            classes=classes,
            interior=np.ones(len(states), dtype=bool),
            arcs=arcs,
        )


def _stationary_law(p):
    """The stationary law of the kernel p by Grassmann-Taksar-Heyman
    elimination (Oper. Res. 33, 1985).

    The states are censored out from the last one down; each pivot is the
    censored row's mass on the states left, so no entry is ever a difference
    and each comes out to relative precision.  No BLAS call sums anything,
    so the bits do not depend on the BLAS kernel.  Raises
    NoPositiveSolutionError on a zero pivot (a state that reaches none of the
    states before it) and when the law fails ``perron_vector``'s gate for
    (p^T, 1).
    """
    a = p.copy()
    for k in range(len(a) - 1, 0, -1):
        pivot = a[k, :k].sum()
        if not pivot > 0.0:
            raise NoPositiveSolutionError(f"state {k} reaches no state before it")
        a[:k, k] /= pivot
        a[:k, :k] += np.multiply.outer(a[:k, k], a[k, :k])
    pi = np.ones(len(a))
    for k in range(1, len(a)):
        pi[k] = np.add.reduce(pi[:k] * a[:k, k])
    pi /= pi.sum()
    why = _perron_defect(p.T, 1.0, pi)
    if why is not None:
        raise NoPositiveSolutionError(why)
    return pi


@dataclass(frozen=True)
class KernelBlocks:
    """A kernel's nonzero pattern split into its bipartite components.

    A block is a component: rows R and columns C with p_ij = 0 whenever
    exactly one of i in R, j in C holds, so column j of a product Q P sums
    over the rows of j's block only.  On a chain from ``build_chain`` a block
    is one window vertex: the states ending there and the states leaving it.
    Blocks of one shape (|C|, |R|) form a group, given as a (rows, cols) pair
    of (G, |R|) and (G, |C|) state index arrays.  ``order`` lists the states:
    every group's columns, block by block, then the states without an
    in-arc.  ``position`` is its inverse and ``gather`` holds the positions
    in ``order`` of every group's rows, group by group.  Rows without an
    out-arc belong to no block.
    """

    order: np.ndarray
    position: np.ndarray
    gather: np.ndarray
    groups: tuple


def _kernel_blocks(src, dst, n):
    """The ``KernelBlocks`` of the arcs src -> dst on n states, listed as
    ``MarkovChain.arcs`` lists them; blocks by least column.

    Every column is labelled with the least column of its block.  A round
    gives each row the least label among its columns, lowers each column's
    label to the least among its rows, then jumps every label to its
    label's label until none moves; the labels are final after a round that
    changes none.
    """
    if not len(src):
        order = np.arange(n)
        return KernelBlocks(order, order.copy(), np.zeros(0, dtype=np.intp), ())
    starts = np.concatenate(([0], np.flatnonzero(np.diff(src)) + 1))
    counts = np.diff(np.append(starts, len(src)))
    label = np.arange(n)
    while True:
        new = label.copy()
        np.minimum.at(new, dst, np.repeat(np.minimum.reduceat(label[dst], starts), counts))
        jumped = new[new]
        while not np.array_equal(jumped, new):
            new, jumped = jumped, jumped[jumped]
        if np.array_equal(new, label):
            break
        label = new
    rows, row_root = src[starts], label[dst[starts]]
    covered = np.zeros(n, dtype=bool)
    covered[dst] = True
    cols = np.flatnonzero(covered)
    col_root = label[cols]
    ncols, nrows = np.bincount(col_root, minlength=n), np.bincount(row_root, minlength=n)
    # shape groups in the order their first block appears, blocks by least column
    roots = np.flatnonzero(ncols)
    shapes = {}
    rank = np.zeros(n, dtype=np.intp)
    for r, shape in zip(roots.tolist(), zip(ncols[roots].tolist(), nrows[roots].tolist())):
        rank[r] = shapes.setdefault(shape, len(shapes))
    col_order = cols[np.lexsort((col_root, rank[col_root]))]
    row_order = rows[np.lexsort((row_root, rank[row_root]))]
    order = np.concatenate((col_order, np.flatnonzero(~covered)))
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n)
    groups = []
    r0 = c0 = 0
    for (c, r), G in zip(shapes, np.bincount(rank[roots]).tolist()):
        groups.append((row_order[r0 : r0 + G * r].reshape(G, r), col_order[c0 : c0 + G * c].reshape(G, c)))
        r0, c0 = r0 + G * r, c0 + G * c
    return KernelBlocks(order, position, position[row_order], tuple(groups))


def _period_and_classes(adj):
    """Period and cyclic class partition of a 0/1 transition structure."""
    return _cyclic_classes(from_matrix(adj))


def _cyclic_classes(succ):
    """Period and cyclic class partition of the digraph ``succ``.

    Class r holds the states whose BFS level from state 0 is r mod the
    period; states state 0 does not reach (truncation frontier) go to class 0.
    """
    n = len(succ)
    if n == 0:
        return 1, (frozenset(),)
    k, levels = period(succ, 0)
    k = k or 1
    classes = [set() for _ in range(k)]
    for v in range(n):
        classes[levels.get(v, 0) % k].add(v)
    return k, tuple(frozenset(c) for c in classes)


def build_chain(g, gd, orders):
    """Assemble (states, p, pi) from shadow data and an order grading, on the
    shadow window ``gd.mat`` (which becomes ``mat`` of the chain).  ``g`` is
    unused, kept for the callers' positional signature: the window carries
    its graph as ``gd.mat.core``."""
    op, mat = gd.op, gd.mat
    depth = mat.depth
    ext = orders_on(mat, orders)
    arc_states = op.states
    up, um = gd.u_plus, gd.u_minus
    w, arc_w = op.weights(gd.delta)

    support = _structural_support(mat)
    lam = {}
    for e, we in zip(arc_states, w.tolist()):
        val = um[mat.rev[e]] * up[e] * we / float(ext.edge(e))
        if e in support:
            if val <= 0.0:
                raise ZeroShadowError(f"supported state {e} received zero cylinder mass")
            lam[e] = val
        elif val > 1e-12:
            raise ZeroShadowError(f"state {e} off the geodesic support has mass {val}")
    states = tuple(sorted(lam, key=_state_sort_key(mat)))
    pos = {s: i for i, s in enumerate(states)}
    n = len(states)
    ci, cj, k = _chain_arcs(mat, pos)
    upv = np.array([up[e] for e in arc_states])
    P = np.zeros((n, n))
    P[ci, cj] = arc_w[k] * upv[op.dst[k]] / upv[op.src[k]]
    lamvec = np.array([lam[s] for s in states])
    remainder = _tail_mass_beyond(mat, lam, gd.tail_periods)
    m_mass = float(lamvec.sum() + remainder)
    if remainder / m_mass > PI_REMAINDER_TOL:
        raise DivergenceError(
            f"materialized depth {depth} leaves tail mass fraction {remainder / m_mass}"
        )
    pi = lamvec / m_mass
    interior = np.array([mat.is_interior(s) for s in states], dtype=bool)
    # the support arcs, row by row and columns ascending, as np.nonzero(P) lists them
    keep = P[ci, cj] > 0
    src, dst = ci[keep], cj[keep]
    by_row = np.lexsort((dst, src))
    src, dst = src[by_row], dst[by_row]
    # the interior sub-digraph must communicate
    inner = interior[src] & interior[dst]
    renumber = np.cumsum(interior) - 1
    core = from_arcs(renumber[src[inner]], renumber[dst[inner]], int(interior.sum()))
    if core and not strongly_connected(core):
        raise ReducibleChainError("chain support splits into non-communicating pieces")
    period, classes = _cyclic_classes(from_arcs(src, dst, n))
    return MarkovChain(
        states=states,
        p=P,
        pi=pi,
        period=period,
        classes=classes,
        interior=interior,
        arcs=(src, dst),
        orders=ext,
        m_mass=m_mass,
        tail_remainder=float(remainder),
        mat=mat,
        tails=tuple(
            _tail_block(P, pos, t, depth, start, L)
            for t, (start, L) in enumerate(gd.tail_periods)
        ),
    )


def _chain_arcs(mat, pos):
    """(i, j, k) over the arcs k of ``mat`` between chain states, i, j their ``pos``."""
    arc_states, src, dst, _ = mat.arc_arrays()
    cpos = np.array([pos.get(e, -1) for e in arc_states], dtype=np.intp)
    k = np.flatnonzero((cpos[src] >= 0) & (cpos[dst] >= 0))
    return cpos[src[k]], cpos[dst[k]], k


def _state_sort_key(mat):
    def key(e):
        meta = mat.edge_meta[e]
        if meta[0] == "core":
            return (0, e, 0, 0)
        return (1, f"t{meta[1]}", meta[2], 0 if meta[3] else 1)

    return key


def _structural_support(mat):
    """Edges lying on a bi-infinite geodesic: both e and rev(e) reach a cycle."""
    states, src, dst, _ = mat.arc_arrays()
    pos = {e: i for i, e in enumerate(states)}
    succ = from_arcs(src, dst, len(states))
    for e in states:
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
    if mc.orders is not None and gd is not None and mat is not None:
        # direct two-edge cylinder mass vs pi_i p_ij over the nonzeros of P in interior rows
        i, j, arc = _chain_arcs(mat, mc._pos)
        k = np.flatnonzero((P[i, j] != 0.0) & inter[i])
        i, j, m = i[k], j[k], mat.arc_arrays()[3][arc[k]]
        f = np.array([gd.fvals[s] for s in mc.states])
        um = np.array([gd.u_minus[mat.rev[s]] for s in mc.states])
        up = np.array([gd.u_plus[s] for s in mc.states])
        order = np.array([float(mc.orders.edge(s)) for s in mc.states])
        ex = np.array([math.exp(x) for x in (f[i] + f[j] - 2.0 * gd.delta).tolist()])
        direct = um[i] * up[j] * ex * m / order[i] / mc.m_mass
        max_cyl = max([0.0] + np.abs(direct - pi[i] * P[i, j]).tolist())
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
    """rows[n] = n-step probabilities avoiding masked states at interior times (none: P^n[i])."""
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


def taboo_matrix_powers(mc: MarkovChain, B, n_max):
    """Full matrices p^{(n),B} for n = 0..n_max, as a list."""
    S = len(mc.states)
    mask = np.ones(S)
    for b in B:
        mask[mc.pos(b)] = 0.0
    mats = [np.eye(S)]
    if n_max < 1:
        return mats
    mats.append(mc.p.copy())
    DP = mask[:, None] * mc.p
    for _ in range(2, n_max + 1):
        mats.append(mats[-1] @ DP)
    return mats


# ---------------------------------------------------------------------------
# recurrence and mixing


@dataclass(frozen=True)
class MeanReturn:
    estimate: float
    tail_bound: float
    total_mass: float
    defective: bool


def mean_return_time(mc: MarkovChain, j, n_max) -> MeanReturn:
    """sum n f^{(n)}_{jj} plus a geometric tail bound; the bound's rate is the
    largest (f^{(n+k)} / f^{(n)})^{1/k} over the last ten steps, k the period,
    since first returns come only at multiples of k.  Without such a ratio the
    bound is 0 when the returns already sum to 1, else inf."""
    k = mc.period
    f = first_passage(mc, (), j, j, n_max).f[(j, j)]
    est = float(sum(n * f[n] for n in range(1, n_max + 1)))
    total = float(f[1:].sum())
    ratios = []
    for n in range(max(2, n_max - 10), n_max - k + 1):
        if f[n] > 1e-300 and f[n + k] > 0:
            ratios.append((f[n + k] / f[n]) ** (1 / k))
    theta = max(ratios, default=0.0)
    if 0.0 < theta < 1.0:
        C = max((f[n] / theta**n) for n in range(1, n_max + 1) if f[n] > 0)
        M = n_max + 1
        tail = C * theta**M * (M - (M - 1) * theta) / (1.0 - theta) ** 2
    else:
        tail = float("inf") if total < 1.0 - 1e-12 else 0.0
    defective = total + (tail if math.isfinite(tail) else 0.0) < 1.0 - 1e-9
    return MeanReturn(est, float(tail), total, defective)


@dataclass(frozen=True)
class MixingFit:
    theta: float
    C: float
    r2: float
    n_points: int
    exact: bool
    p_kn: tuple = ()  # p^{(kn)}_{ij} for n = 1..n_max // k


def decay_fit(ns, dists, scales):
    """Least-squares line through log |d| against n, above a per-point rounding floor.

    A point (n, d) is kept when |d| > ``ROUNDING_FLOOR`` n |scale|, with the
    scale the quantity whose rounding d carries (0 keeps every non-zero d).
    Returns (slope, intercept, r2, n_points), or None with fewer than three
    points left.
    """
    pts = [(n, abs(d)) for n, d, s in zip(ns, dists, scales) if abs(d) > ROUNDING_FLOOR * n * abs(s)]
    if len(pts) < 3:
        return None
    xs, ds = zip(*pts)
    ys = np.log(ds)
    slope, intercept = np.polyfit(xs, ys, 1)
    ss_res = float(((ys - (slope * np.array(xs) + intercept)) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2, len(pts)


def mixing_rate_estimate(mc: MarkovChain, i, j, n_max) -> MixingFit:
    """Rate of |p^{(kn)}_{ij} - k pi_j| on the aperiodic subsequence, k the period.

    ``decay_fit`` fits the distances from n = 6 on, each above its rounding
    floor at scale k pi_j.  Fewer than three such points mean the distance sits
    at the floor: theta 0 and ``exact``.  A fit that does not decay (slope >= 0)
    gives theta 0 with ``exact`` false.
    """
    k = mc.period
    if mc.class_of(i) != mc.class_of(j):
        raise ValueError(f"states {i} and {j} lie in different cyclic classes")
    target = k * mc.pi_of(j)
    rows = _taboo_row(mc.p, np.ones(len(mc.states)), mc.pos(i), k * (n_max // k))
    p_kn = tuple(float(p) for p in rows[k::k, mc.pos(j)])
    ns = range(6, len(p_kn) + 1)
    fit = decay_fit(ns, [p_kn[n - 1] - target for n in ns], [target] * len(ns))
    if fit is None:
        return MixingFit(0.0, 0.0, 1.0, 0, True, p_kn)
    slope, intercept, r2, n_points = fit
    if slope >= 0.0:
        return MixingFit(0.0, 0.0, r2, n_points, False, p_kn)
    return MixingFit(math.exp(slope), math.exp(intercept), r2, n_points, False, p_kn)


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
    rows = _taboo_row(mc.p, np.ones(len(mc.states)), mc.pos(a_last), max(n_max - k + 1, 0))
    p_n = [float(p) for p in rows[:, mc.pos(b0)]]
    ns, covs = [], []
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
