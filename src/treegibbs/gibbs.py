"""Thermodynamic layer: potentials, critical exponents, shadow vectors.

The weighted non-backtracking transfer operator T(s)[e, f] = m(e, f) exp(F(f) - s)
drives everything here.  For a finite quotient the critical exponent is the log
of its spectral radius.  Ray tails are resummed through first-return Green
values g_n(s): the total weight of excursions that enter a ray at level n and
first come back down, a minimal fixed point of one Moebius map per level.  The
shadow vector u(e) (boundary mass of the set of directions through e, seen
from the head of e) is the positive fixed vector of T(delta); on tails it is
recovered level by level from the identity u(e_n) = g_n * u(rev(e_n)), which
keeps the decaying solution branch without any unstable subtraction.

Orientation convention: every function here computes the forward quantity
for the potential it is given.  The backward quantities (``delta_minus``,
``u_minus``, ``residual_minus``) are the same code applied to
``F.reversed(g)``, the potential e -> F(rev e); ``Potential.reversed`` is the
only place an orientation is flipped.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DivergenceError,
    GraphError,
    NoPositiveSolutionError,
    ReducibleChainError,
)
from .digraph import from_matrix, has_cycle, reachable, reverse, sccs
from .graph import (
    IndexedGraph,
    MaterializedGraph,
    _is_int,
    _is_number,
    _pairs,
    materialize,
    tail_edge_id,
)

DEFAULT_DEPTH = 80


# ---------------------------------------------------------------------------
# potentials


@dataclass(frozen=True)
class TailPotential:
    """Eventually-periodic potential values (F(e_n), F(rev e_n)) along a tail."""

    prefix: tuple = ()
    period: tuple = ((0.0, 0.0),)

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple((float(a), float(b)) for a, b in self.prefix))
        per = tuple((float(a), float(b)) for a, b in self.period) or ((0.0, 0.0),)
        object.__setattr__(self, "period", per)

    def pair(self, n):
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        return self.period[(n - len(self.prefix) - 1) % len(self.period)]


@dataclass(frozen=True)
class Potential:
    """Real weight per quotient oriented edge; tails carry (prefix, period) specs."""

    values: dict
    tail_values: tuple = ()

    @staticmethod
    def zero(g: IndexedGraph):
        return Potential({e: 0.0 for e in g.edges}, tuple(TailPotential() for _ in g.tails))

    @staticmethod
    def constant(g: IndexedGraph, c: float):
        c = float(c)
        return Potential(
            {e: c for e in g.edges},
            tuple(TailPotential(period=((c, c),)) for _ in g.tails),
        )

    def tail(self, t):
        if t < len(self.tail_values) and self.tail_values[t] is not None:
            return self.tail_values[t]
        return TailPotential()

    def reversed(self, g: IndexedGraph):
        """The reversed potential e -> F(rev e) on g, tail pairs swapped."""
        return Potential(
            {e: self.values.get(g.rev[e], 0.0) for e in g.edges},
            tuple(
                TailPotential(
                    prefix=tuple((fd, fu) for fu, fd in self.tail(t).prefix),
                    period=tuple((fd, fu) for fu, fd in self.tail(t).period),
                )
                for t in range(len(g.tails))
            ),
        )

    def on(self, mat: MaterializedGraph):
        """Edge -> value map over a materialized graph."""
        vals = {}
        for e in mat.edges:
            meta = mat.edge_meta[e]
            if meta[0] == "core":
                vals[e] = float(self.values.get(e, 0.0))
            else:
                _, t, n, up = meta
                fu, fd = self.tail(t).pair(n)
                vals[e] = fu if up else fd
        return vals


def potential_from_dict(g: IndexedGraph, d: dict) -> Potential:
    """Parse the potential schema; raises ConfigError with a field path."""
    if not isinstance(d, dict):
        raise ConfigError(f"potential: must be an object, got {d!r}")
    allowed = {"edges", "tail_values"}
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown potential fields: {sorted(unknown)}")
    edges = d.get("edges", {})
    if not isinstance(edges, dict):
        raise ConfigError(f"edges: must be an object, got {edges!r}")
    values = {e: 0.0 for e in g.edges}
    for k, v in edges.items():
        if k not in values:
            raise ConfigError(f"potential assigns unknown edge {k!r}")
        if not _is_number(v):
            raise ConfigError(f"edges.{k}: must be a number, got {v!r}")
        values[k] = float(v)
    tail_values = d.get("tail_values", [])
    if not isinstance(tail_values, list):
        raise ConfigError(f"tail_values: must be a list, got {tail_values!r}")
    tails = [TailPotential() for _ in g.tails]
    for pos, td in enumerate(tail_values):
        if not isinstance(td, dict):
            raise ConfigError(f"tail_values[{pos}]: must be an object, got {td!r}")
        extra = set(td) - {"tail_index", "prefix", "period"}
        if extra:
            raise ConfigError(f"tail_values[{pos}]: unknown fields {sorted(extra)}")
        if "tail_index" not in td:
            raise ConfigError(f"tail_values[{pos}]: missing field 'tail_index'")
        t = td["tail_index"]
        if not _is_int(t):
            raise ConfigError(f"tail_values[{pos}].tail_index: must be an integer, got {t!r}")
        if not 0 <= t < len(g.tails):
            raise ConfigError(f"tail_values[{pos}].tail_index out of range")
        path = f"tail_values[{pos}]"
        tails[t] = TailPotential(
            prefix=_pairs(td.get("prefix", []), f"{path}.prefix", _is_number, "numbers"),
            period=_pairs(td.get("period", [(0.0, 0.0)]), f"{path}.period", _is_number, "numbers"),
        )
    return Potential(values, tuple(tails))


def potential_from_json(g: IndexedGraph, path) -> Potential:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return potential_from_dict(g, d)


# ---------------------------------------------------------------------------
# Perron kernel


_POWER_STEPS = 20000
_RHO_TOL = 1e-14


def spectral_radius(T: np.ndarray):
    """Perron value of a nonnegative matrix.

    Power iteration on A = T + I from the all-ones vector (the shift makes
    the peripheral spectrum unique).  It stops once two successive estimates
    agree and the eigen-residual ||A v - est v||_1 is below 1e-10 ||A v||_1.
    Every 100 steps it reads the Collatz-Wielandt bracket
    min_i (A v)_i / v_i <= rho(A) <= max_i (A v)_i / v_i and hands off to
    dense eigenvalues when the bracket stops shrinking, when its contraction
    rate projects it past the step budget before it is 1e-14 wide, or when
    an entry of v underflows to 0 (a reducible block).
    """
    n = T.shape[0]
    if n == 0:
        return 0.0
    A = T + np.eye(n)
    v = np.ones(n)
    prev = -1.0
    width = math.inf
    for step in range(_POWER_STEPS):
        w = A @ v
        est = w.sum() / v.sum()
        # 1-norms summed as np.linalg.norm(x, 1) sums them, without its dispatch
        nw = np.add.reduce(np.abs(w))
        if nw == 0.0:
            return 0.0
        # successive estimates can agree by an accident of the start vector
        # (3.6 twice on a bipartite core whose Perron value is 2.5747), so the
        # eigen-residual must be small too
        if abs(est - prev) < _RHO_TOL * max(1.0, abs(est)) and (
            np.add.reduce(np.abs(w - est * v)) < 1e-10 * nw
        ):
            return float(est - 1.0)
        if step and step % 100 == 0:
            if v.min() <= 0.0:
                break
            q = w / v
            last, width = width, q.max() - q.min()
            target = _RHO_TOL * q.max()
            if width > target and last < math.inf and (
                width >= last
                or step + 100 * math.log(target / width) / math.log(width / last) > _POWER_STEPS
            ):
                break
        v = w / nw
        prev = est
    return float(max(abs(np.linalg.eigvals(T))))


def perron_vector(A: np.ndarray, lam: float):
    """Positive v with A v = lam v, summing to 1.

    The least-squares null vector of A - lam I under a sum-1 row, its sign
    fixed.  Raises NoPositiveSolutionError when lam is not an eigenvalue
    (||A v - lam v||_1 > 1e-10 ||A v||_1) or when v is not positive.
    """
    k = A.shape[0]
    M = np.vstack([A - lam * np.eye(k), np.ones((1, k))])
    b = np.zeros(k + 1)
    b[k] = 1.0
    v, *_ = np.linalg.lstsq(M, b, rcond=None)
    if v.sum() < 0:
        v = -v
    Av = A @ v
    if np.add.reduce(np.abs(Av - lam * v)) > 1e-10 * np.add.reduce(np.abs(Av)):
        raise NoPositiveSolutionError(f"{lam!r} is not an eigenvalue")
    if v.min() <= 0:
        raise NoPositiveSolutionError(f"eigenvector at {lam!r} is not positive")
    return v


# ---------------------------------------------------------------------------
# transfer matrices


def transfer_matrix(g: IndexedGraph, F: Potential | None, s: float, depth: int | None = None):
    """(states, T) with T[e, f] = m(e, f) exp(F(f) - s), funnel edges dropped.

    With tails present the matrix is the truncation to ``depth`` materialized
    levels; exact resummation happens elsewhere.
    """
    depth = DEFAULT_DEPTH if depth is None else depth
    mat = materialize(g, depth if g.tails else 0)
    F = F or Potential.zero(g)
    return _transfer_on(mat, F.on(mat), s)


def _transfer_on(mat: MaterializedGraph, fvals: dict, s: float):
    states = mat.nonfunnel_states()
    pos = {e: i for i, e in enumerate(states)}
    T = np.zeros((len(states), len(states)))
    funnel = mat.funnel_edge_ids()
    for e in states:
        for f, m in mat.continuations(e):
            if f in funnel:
                continue
            T[pos[e], pos[f]] = m * math.exp(fvals[f] - s)
    return states, T


# ---------------------------------------------------------------------------
# tail Green values


def _joint_period(spec, tpot):
    """(first periodic level, period length) shared by a tail and its potential.

    The indices and the potential values both repeat from the level where the
    later of the two prefixes ends, with the lcm of the two period lengths.
    """
    start = max(spec.period_start, len(tpot.prefix) + 1)
    return start, math.lcm(len(spec.period), len(tpot.period))


class TailGreen:
    """First-return weights g_n(s) for one ray tail.

    g_n is the total weight of non-backtracking excursions that start with the
    up edge at level n, stay at levels >= n, and end on the first traversal of
    the level-n down edge.  It satisfies
        g_n = a_n + b_n g_{n+1} / (1 - c_n g_{n+1}),
    a Moebius map per level, eventually periodic over the ``_joint_period`` of
    the index spec and the tail potential.  One period composes to a single
    map g -> (A g + B)/(C g + D), and the periodic value is its least fixed
    point g >= 0 (the decaying branch, the limit of the maps iterated from
    g = 0), taken in closed form as the least non-negative root of
    C g^2 + (D - A) g - B = 0.  The phases and the prefix levels follow by
    applying the level maps downwards.

    The tail converges (``converged``) iff that root exists and every level
    map is applied inside its pole (1 - c_n g_{n+1} > 0).
    """

    def __init__(self, spec, tpot, s):
        self.spec = spec
        self.tpot = tpot or TailPotential()
        self.s = float(s)
        self.converged = True
        self._values = {}
        self._phase = None
        self._start, self._L = _joint_period(spec, self.tpot)
        self._solve()

    def _level(self, n):
        I, J = self.spec.pair(n)
        fu, fd = self.tpot.pair(n)
        phi = math.exp(fu - self.s)
        psi = math.exp(fd - self.s)
        return I, J, phi, psi

    def _step_params(self, n):
        I, J, phi, psi = self._level(n)
        I1, J1, phi1, psi1 = self._level(n + 1)
        a = (I - 1) * psi
        b = J1 * phi1 * I * psi
        c = (J1 - 1) * phi1
        return a, b, c

    @staticmethod
    def _apply(params, gval):
        """The steps applied innermost first; None outside a pole or on overflow."""
        for a, b, c in reversed(params):
            den = 1.0 - c * gval
            if den <= 0.0 or not math.isfinite(gval):
                return None
            gval = a + b * gval / den
        return gval if math.isfinite(gval) else None

    def _solve(self):
        start, L = self._start, self._L
        # one period of step maps at phase 0 (innermost level last)
        params = [self._step_params(start + k) for k in range(L)]
        root = self._minimal_root(*self._compose(params))
        if root is None or self._apply(params, root) is None:
            self.converged = False
            return
        # every phase lies on the path just applied, so none can fail
        phase = [root] * L
        for k in range(L - 1, 0, -1):
            phase[k] = self._apply([params[k]], phase[(k + 1) % L])
        self._phase = phase
        for n in range(start - 1, 0, -1):
            val = self._apply([self._step_params(n)], self.g(n + 1))
            if val is None:
                self.converged = False
                return
            self._values[n] = val

    @staticmethod
    def _compose(params):
        """(A, B, C, D) of g -> (A g + B)/(C g + D), the steps applied innermost first."""
        # step matrices [[b - a c, a], [-c, 1]] multiplied outermost-first
        A, B, C, D = 1.0, 0.0, 0.0, 1.0
        for a, b, c in params:
            A, B, C, D = A * (b - a * c) + B * (-c), A * a + B, C * (b - a * c) + D * (-c), C * a + D
            scale = max(abs(A), abs(B), abs(C), abs(D), 1.0)
            A, B, C, D = A / scale, B / scale, C / scale, D / scale
        return A, B, C, D

    @staticmethod
    def _minimal_root(A, B, C, D):
        """Least root g >= 0 of C g^2 + (D - A) g - B = 0, or None.

        B = 0 means every level has I = 1: the tail never branches and
        g = 0 is fixed.  Otherwise the roots are taken as q/C and -B/q, which
        do not cancel the way the textbook formula does.
        """
        if B == 0.0:
            return 0.0
        lin = D - A
        disc = lin * lin + 4.0 * C * B
        if disc < 0.0:
            return None
        q = -0.5 * (lin + math.copysign(math.sqrt(disc), lin))
        roots = ([q / C] if C else []) + ([-B / q] if q else [])
        return min((r for r in roots if r >= 0.0), default=None)

    def g(self, n):
        if not self.converged:
            raise DivergenceError("tail Green value does not converge", tail_critical=None)
        if n < self._start:
            return self._values[n]
        return self._phase[(n - self._start) % self._L]


def tail_critical_value(spec, tpot=None, lo=-50.0, hi=None, tol=1e-10):
    """Infimum s at which the tail's excursion resummation converges.

    Bisects on s with one closed-form TailGreen solve per probe.  Returns -inf
    when the tail already converges at ``lo``, as a tail that never branches
    does at every s.
    """
    def ok(s):
        return TailGreen(spec, tpot, s).converged

    if hi is None:
        hi = 5.0
        imax = max(max(a, b) for a, b in spec.prefix + spec.period)
        fmax = 0.0
        if tpot:
            fmax = max(abs(x) for pair in tpot.prefix + tpot.period for x in pair)
        hi = math.log(imax + 1) + fmax + 2.0
    while not ok(hi):
        hi += 2.0
        if hi > 200:
            raise DivergenceError("tail resummation never converges")
    if ok(lo):
        return float("-inf")
    a, b = lo, hi
    while b - a > tol:
        mid = 0.5 * (a + b)
        if ok(mid):
            b = mid
        else:
            a = mid
    return b


# ---------------------------------------------------------------------------
# junction operator (core states + one entry/exit pair per tail)


def junction_states(g: IndexedGraph):
    funnel = g.funnel_edge_ids()
    states = [e for e in g.edges if e not in funnel]
    for t in range(len(g.tails)):
        states.append(tail_edge_id(t, 1, True))
        states.append(tail_edge_id(t, 1, False))
    return states


def junction_matrix(g: IndexedGraph, F: Potential, s, greens):
    """Finite operator equivalent to T(s) with tail excursions resummed.

    ``greens[t]`` is the TailGreen of tail t under F at s.  Deep levels only
    enter through the resummed first-return weight on the entry state.
    """
    f_up1 = [F.tail(t).pair(1)[0] for t in range(len(g.tails))]
    states = junction_states(g)
    pos = {e: i for i, e in enumerate(states)}
    n = len(states)
    T = np.zeros((n, n))
    funnel = g.funnel_edge_ids()
    tails_at = {}
    for t, spec in enumerate(g.tails):
        tails_at.setdefault(spec.attach, []).append(t)
    for e in g.edges:
        if e in funnel:
            continue
        v = g.term[e]
        for f in g.out_edges(v):
            if f in funnel:
                continue
            m = g.index[e] - 1 if f == g.rev[e] else g.index[g.rev[f]]
            if m > 0:
                T[pos[e], pos[f]] = m * math.exp(F.values.get(f, 0.0) - s)
        for t in tails_at.get(v, []):
            iu, idn = g.tails[t].pair(1)
            T[pos[e], pos[tail_edge_id(t, 1, True)]] = idn * math.exp(f_up1[t] - s)
    for t, spec in enumerate(g.tails):
        e1 = tail_edge_id(t, 1, True)
        r1 = tail_edge_id(t, 1, False)
        T[pos[e1], pos[r1]] = greens[t].g(1)
        v = spec.attach
        for f in g.out_edges(v):
            if f in funnel:
                continue
            T[pos[r1], pos[f]] = g.index[g.rev[f]] * math.exp(F.values.get(f, 0.0) - s)
        for t2 in tails_at.get(v, []):
            iu2, idn2 = g.tails[t2].pair(1)
            m = idn2 - 1 if t2 == t else idn2
            if m > 0:
                T[pos[r1], pos[tail_edge_id(t2, 1, True)]] = m * math.exp(f_up1[t2] - s)
    return states, T


def _junction_sr(g, F, s):
    greens = []
    for t, spec in enumerate(g.tails):
        tg = TailGreen(spec, F.tail(t), s)
        if not tg.converged:
            return None
        greens.append(tg)
    _, T = junction_matrix(g, F, s, greens)
    return spectral_radius(T)


# ---------------------------------------------------------------------------
# critical exponent


@dataclass(frozen=True)
class CriticalExponent:
    delta: float
    delta_minus: float
    delta_zero: float
    s_tail: float | None
    method: dict = field(default_factory=dict)

    def __float__(self):
        return self.delta


def _critical_one(g, F, tol=1e-14):
    if not g.tails:
        _, T = transfer_matrix(g, F, 0.0, depth=0)
        sr = spectral_radius(T)
        if sr <= 0:
            raise NoPositiveSolutionError("transfer operator has zero spectral radius")
        return math.log(sr), None
    s_tail = max(
        tail_critical_value(spec, F.tail(t)) for t, spec in enumerate(g.tails)
    )
    imax = max(g.index[e] for e in g.edges) if g.edges else 1
    for spec in g.tails:
        imax = max(imax, max(max(a, b) for a, b in spec.prefix + spec.period))
    # read over g's edges, which reversal permutes, so F and F.reversed(g)
    # bisect from the same upper bracket
    fmax = max((abs(F.values.get(e, 0.0)) for e in g.edges), default=0.0)
    hi = math.log(imax + 1) + fmax + 2.0
    while True:
        sr = _junction_sr(g, F, hi)
        if sr is not None and sr < 1.0:
            break
        hi += 2.0
        if hi > 300:
            raise DivergenceError("no upper bracket for the critical exponent")
    lo = (s_tail if math.isfinite(s_tail) else hi - 60.0) + 1e-9
    sr_lo = _junction_sr(g, F, lo)
    if sr_lo is None or sr_lo <= 1.0:
        raise DivergenceError(
            "growth dominated by a tail; no convergent resummation regime",
            tail_critical=s_tail,
        )
    a, b = lo, hi
    for _ in range(200):
        mid = 0.5 * (a + b)
        sr_mid = _junction_sr(g, F, mid)
        if sr_mid is None or sr_mid > 1.0:
            a = mid
        else:
            b = mid
        if b - a < tol * max(1.0, abs(b)):
            break
    return 0.5 * (a + b), s_tail


def critical_exponent(g: IndexedGraph, F: Potential | None = None) -> CriticalExponent:
    """delta for (graph, F), its reversed-potential twin, and the zero-potential value.

    A potential equal to its reversal (every zero or symmetric one) reuses
    delta as delta_minus: the second solve would repeat the same arithmetic.
    """
    F = F or Potential.zero(g)
    delta, s_tail = _critical_one(g, F)
    rev = F.reversed(g)
    delta_minus = delta if rev == F else _critical_one(g, rev)[0]
    if _is_zero(F):
        delta_zero = delta
    else:
        delta_zero, _ = _critical_one(g, Potential.zero(g))
    return CriticalExponent(
        delta=delta,
        delta_minus=delta_minus,
        delta_zero=delta_zero,
        s_tail=s_tail,
        method={"solver": "junction-bisection" if g.tails else "power-iteration"},
    )


def _is_zero(F):
    if any(v != 0.0 for v in F.values.values()):
        return False
    for tp in F.tail_values:
        if tp is None:
            continue
        if any(x != 0.0 for pair in tp.prefix + tp.period for x in pair):
            return False
    return True


# ---------------------------------------------------------------------------
# shadow vectors


def _positive_fixed_vector(T):
    """Positive u with T u = u, supported on states that reach the dominant class."""
    tol = 5e-8
    n = T.shape[0]
    succ = from_matrix(T > 0.0)
    dominant = []
    for comp in sccs(succ):
        if not has_cycle(succ, comp):
            continue
        sr = spectral_radius(T[np.ix_(comp, comp)])
        if abs(sr - 1.0) <= tol:
            dominant.append(comp)
        elif sr > 1.0 + tol:
            raise NoPositiveSolutionError(
                f"component spectral radius {sr} exceeds 1; exponent inconsistent"
            )
    if not dominant:
        raise NoPositiveSolutionError("no component with unit spectral radius")
    if len(dominant) > 1:
        raise ReducibleChainError("several non-communicating components carry full growth")
    dom = sorted(dominant[0])
    trans = sorted(reachable(reverse(succ), dom) - set(dom))
    u = np.zeros(n)
    u[dom] = perron_vector(T[np.ix_(dom, dom)], 1.0)
    if trans:
        Ttt = T[np.ix_(trans, trans)]
        tset = set(trans)
        known = [v for v in range(n) if v not in tset]
        rhs = T[np.ix_(trans, known)] @ u[known]
        sol_t = np.linalg.solve(np.eye(len(trans)) - Ttt, rhs)
        if sol_t.min() <= 0:
            raise NoPositiveSolutionError("fixed vector not positive upstream")
        u[trans] = sol_t
    return u


def shadow_vector(
    g: IndexedGraph,
    F: Potential | None,
    delta: float,
    depth: int = DEFAULT_DEPTH,
    normalize_base: str | None = None,
):
    """Normalized positive solution of u(e) = sum_f m(e,f) exp(F(f)-delta) u(f).

    Returns a dict over materialized non-funnel edges (funnel edges map to 0).
    The backward vector is ``shadow_vector(g, F.reversed(g), delta)``.  Scaled
    so the total boundary mass seen from the base vertex is 1.
    """
    F = F or Potential.zero(g)
    base = normalize_base or g.base_vertex
    if g.tails and depth < 2:
        raise ValueError("tailed graphs need depth >= 2")
    mat = materialize(g, depth if g.tails else 0)
    fvals = F.on(mat)
    greens = []
    for t, spec in enumerate(g.tails):
        tg = TailGreen(spec, F.tail(t), delta)
        if not tg.converged:
            raise DivergenceError("tail resummation diverges at the given exponent")
        greens.append(tg)
    if g.tails:
        jstates, A = junction_matrix(g, F, delta, greens)
    else:
        jstates, A = _transfer_on(mat, fvals, delta)
    uj = _positive_fixed_vector(A)
    u = {e: 0.0 for e in mat.edges}
    for e, val in zip(jstates, uj):
        u[e] = float(val)
    # march up each tail on the decaying branch
    for t, spec in enumerate(g.tails):
        tg = greens[t]
        tpot = F.tail(t)
        for n in range(1, mat.depth):
            I, J = spec.pair(n)
            I1, J1 = spec.pair(n + 1)
            fu, fd = tpot.pair(n)
            fu1, fd1 = tpot.pair(n + 1)
            psi = math.exp(fd - delta)
            phi1 = math.exp(fu1 - delta)
            dn = u[tail_edge_id(t, n, False)]
            g_next = tg.g(n + 1)
            den = 1.0 - (J1 - 1) * phi1 * g_next
            if den <= 0:
                raise DivergenceError("tail march hit a non-contracting level")
            up_next = g_next * I * psi * dn / den
            u[tail_edge_id(t, n + 1, True)] = up_next
            u[tail_edge_id(t, n + 1, False)] = I * psi * dn + (J1 - 1) * phi1 * up_next
    # normalization: unit boundary mass at the base vertex
    funnel = mat.funnel_edge_ids()
    mass = 0.0
    for e in mat.out_edges(base):
        if e in funnel:
            continue
        mass += mat.index[mat.rev[e]] * math.exp(fvals[e] - delta) * u[e]
    if mass <= 0:
        raise NoPositiveSolutionError(f"zero boundary mass at base vertex {base!r}")
    return {e: val / mass for e, val in u.items()}


def shadow_residual(g, F, delta, u, mat=None):
    """Sup-norm of the fixed-point defect over interior non-funnel states."""
    F = F or Potential.zero(g)
    mat = mat or materialize(g, DEFAULT_DEPTH if g.tails else 0)
    fvals = F.on(mat)
    funnel = mat.funnel_edge_ids()
    worst = 0.0
    for e in mat.edges:
        if e in funnel or not mat.is_interior(e):
            continue
        acc = 0.0
        for f, m in mat.continuations(e):
            if f in funnel:
                continue
            acc += m * math.exp(fvals[f] - delta) * u[f]
        worst = max(worst, abs(acc - u[e]))
    return worst


# ---------------------------------------------------------------------------
# assembled Gibbs data


@dataclass(frozen=True)
class GibbsData:
    delta: float
    delta_minus: float
    delta_zero: float
    u_plus: dict
    u_minus: dict
    fvals: dict
    base_vertex: str
    depth: int
    residual_plus: float
    residual_minus: float
    normalization: dict
    method: dict = field(default_factory=dict)
    tail_periods: tuple = ()  # per tail, its ``_joint_period`` (start, length)


def compute_gibbs(
    g: IndexedGraph,
    F: Potential | None = None,
    depth: int = DEFAULT_DEPTH,
    delta_tol: float = 1e-8,
) -> GibbsData:
    """Full thermodynamic solve: exponent, forward/backward shadows, residuals.

    The backward shadow and residual are the forward ones for F.reversed(g),
    reused as they are when that equals F.
    """
    F = F or Potential.zero(g)
    ce = critical_exponent(g, F)
    if abs(ce.delta - ce.delta_minus) > delta_tol * max(1.0, abs(ce.delta)):
        raise NoPositiveSolutionError(
            f"forward/backward exponents differ: {ce.delta} vs {ce.delta_minus}"
        )
    depth = depth if g.tails else 0
    mat = materialize(g, depth)
    u_plus = shadow_vector(g, F, ce.delta, depth=depth)
    res_p = shadow_residual(g, F, ce.delta, u_plus, mat=mat)
    rev = F.reversed(g)
    if rev == F:
        u_minus, res_m = u_plus, res_p
    else:
        u_minus = shadow_vector(g, rev, ce.delta, depth=depth)
        res_m = shadow_residual(g, rev, ce.delta, u_minus, mat=mat)
    record = {
        "convention": "unit boundary mass at base vertex",
        "base_vertex": g.base_vertex,
        "delta": ce.delta,
    }
    return GibbsData(
        delta=ce.delta,
        delta_minus=ce.delta_minus,
        delta_zero=ce.delta_zero,
        u_plus=u_plus,
        u_minus=u_minus,
        fvals=F.on(mat),
        base_vertex=g.base_vertex,
        depth=depth,
        residual_plus=res_p,
        residual_minus=res_m,
        normalization=record,
        method=dict(ce.method, s_tail=ce.s_tail),
        tail_periods=tuple(_joint_period(spec, F.tail(t)) for t, spec in enumerate(g.tails)),
    )


# ---------------------------------------------------------------------------
# cocycle, partial sums, cusp bound


def gibbs_cocycle(gd, F, g, path_x_to_v, path_y_to_v, normalized=False):
    """Potential-integral difference of two paths meeting at a common vertex.

    Returns sum(F over y->v) - sum(F over x->v); with ``normalized`` the
    potential is shifted by -delta, adding delta * (len(x->v) - len(y->v)).
    """
    F = F or Potential.zero(g)
    need = 1
    for path in (path_x_to_v, path_y_to_v):
        for e in path:
            if e.startswith("~t"):
                need = max(need, int(e.split(".")[1][1:]) + 1)
    mat = materialize(g, need if g.tails else 0)
    for path in (path_x_to_v, path_y_to_v):
        for a, b in zip(path, path[1:]):
            if mat.term[a] != mat.orig[b]:
                raise GraphError(f"path not composable at {a}->{b}")
    if path_x_to_v and path_y_to_v:
        if mat.term[path_x_to_v[-1]] != mat.term[path_y_to_v[-1]]:
            raise GraphError("paths do not share a terminal vertex")
    fvals = F.on(mat)
    val = sum(fvals[e] for e in path_y_to_v) - sum(fvals[e] for e in path_x_to_v)
    if normalized:
        val += gd.delta * (len(path_x_to_v) - len(path_y_to_v))
    return val


def poincare_partial_sum(g, F, s, n_max, base=None, orders=None):
    """Partial sums of orbit weights discounted by exp(-s n), up to n_max."""
    from .counting import orbit_oracle
    from .graph import propagate_orders

    orders = orders or propagate_orders(g)
    base = base or g.base_vertex
    rep = orbit_oracle(g, orders, F, base, n_max)
    return sum(w * math.exp(-s * n) for n, w in enumerate(rep.per_distance))


def cusp_exponent_bound(ray, tpot=None):
    """Lower bound on the exponent forced by a cuspidal ray.

    One half of the mean of log(i(e_n)) + F(e_n) + F(rev e_n) over a period;
    -inf when the ray never branches.
    """
    if not ray.is_cuspidal():
        raise GraphError("ray is not cuspidal (a downward index exceeds 1)")
    tpot = tpot or TailPotential()
    if all(a == 1 for a, _ in ray.period):
        return float("-inf")
    start, L = _joint_period(ray, tpot)
    total = 0.0
    for k in range(L):
        n = start + k
        I, _ = ray.pair(n)
        fu, fd = tpot.pair(n)
        total += math.log(I) + fu + fd
    return 0.5 * total / L
