"""Thermodynamic layer: potentials, critical exponents, shadow vectors.

The weighted non-backtracking transfer operator T(s)[e, f] = m(e, f) exp(F(f) - s)
drives everything here; ``TransferOperator`` builds it once per window and
potential on ``MaterializedGraph.arc_arrays``.  For a finite quotient the
critical exponent is the log of its spectral radius.  Ray tails are resummed
through first-return Green values g_n(s): the total weight of excursions that
enter a ray at level n and first come back down, a minimal fixed point of one
Moebius map per level.  The junction operator is T(s) on the first tail level
with each entry row resummed into g_1.  The shadow vector u(e) (boundary mass
of the set of directions through e, seen from the head of e) is the positive
fixed vector of the junction operator at delta; on tails it is recovered
level by level from the identity u(e_n) = g_n * u(rev(e_n)), which keeps the
decaying solution branch without any unstable subtraction.
``critical_exponent`` unrolls the junction graph once, with one operator per
potential it solves (``CriticalExponent.op``); ``compute_gibbs`` hands the
shadow window's forward operator on as ``GibbsData.op``, whose graph
``GibbsData.mat`` (the junction graph itself without tails) keys the shadows.

Orientation convention: every function here computes the forward quantity
for the potential it is given.  The backward quantities (``delta_minus``,
``u_minus``, ``residual_minus``) are the same code applied to
``F.reversed(g)``, the potential e -> F(rev e); ``Potential.reversed`` is the
only place an orientation is flipped.
"""

from __future__ import annotations

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
from .digraph import from_matrix, has_cycle, reachable, reverse, sccs, strongly_connected
from .graph import (
    IndexedGraph,
    MaterializedGraph,
    _is_int,
    _is_number,
    _pairs,
    materialize,
    read_json,
    row_sums,
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
        if t < len(self.tail_values):
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
    first = {}  # tail index -> position of the entry that set it
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
        if t in first:
            raise ConfigError(f"{path}.tail_index: duplicate of tail_values[{first[t]}]")
        first[t] = pos
        tails[t] = TailPotential(
            prefix=_pairs(td.get("prefix", []), f"{path}.prefix", _is_number, "numbers"),
            period=_pairs(td.get("period", [(0.0, 0.0)]), f"{path}.period", _is_number, "numbers"),
        )
    return Potential(values, tuple(tails))


def potential_from_json(g: IndexedGraph, path) -> Potential:
    return potential_from_dict(g, read_json(path, "potential"))


# ---------------------------------------------------------------------------
# Perron kernel


_POWER_STEPS = 20000
_RHO_TOL = 1e-14
# relative margin by which a bracket end must clear versus + 1: about 1e4
# times the rounding in (A v)_i / v_i on the few-state junction operators
_SIDE_MARGIN = 1e-12


def spectral_radius(T: np.ndarray, versus=None):
    """Perron value of a nonnegative matrix.

    Power iteration on A = T + I from the all-ones vector (the shift makes
    the peripheral spectrum unique), run by ``_power_run``.  It stops once
    two successive estimates agree and the eigen-residual ||A v - est v||_1
    is below 1e-10 ||A v||_1.  Every 100 steps it reads the Collatz-Wielandt
    bracket min_i (A v)_i / v_i <= rho(A) <= max_i (A v)_i / v_i and hands
    off to dense eigenvalues when the bracket stops shrinking, when its
    contraction rate projects it past the step budget before it is 1e-14
    wide, or when an entry of v underflows to 0 (a reducible block).

    With ``versus`` = x the bracket is read at every step, and the iteration
    stops once a bracket end clears x + 1 by a relative 1e-12.  The value
    returned is then that end minus 1: a certified bound on the same side
    of x as rho(T), not rho(T) itself.  For A >= 0 and v > 0 the brackets
    of successive iterates nest, and the full run's estimate (or the dense
    rho) lies in each of them, so the full run would end on the same side.
    A bracket that never clears x runs to the full run's bits.
    """
    return _power_run(T, versus)[0]


def _power_run(T: np.ndarray, versus):
    """The power loop of ``spectral_radius``: (rho, v).

    On a hand-off ``rho`` is the dense value, max |eigvals(T)|.  ``v`` is
    the iterate a full run converged on, 1-normalized, with
    ||A v - (rho + 1) v||_1 below 1e-10 ||A v||_1; it is None when the run
    ends otherwise (an early side, a zero iterate, an empty matrix, or the
    hand-off).
    """
    n = T.shape[0]
    if n == 0:
        return 0.0, None
    # T + I without an identity matrix, with its bits and C layout: T + 0.0
    # turns -0.0 to +0.0 as the identity's zeros do
    A = np.add(T, 0.0, order="C")
    A.reshape(-1)[:: n + 1] += 1.0
    v = np.ones(n)
    prev = -1.0
    width = math.inf
    if versus is not None:
        above = (versus + 1.0) * (1.0 + _SIDE_MARGIN)
        below = (versus + 1.0) * (1.0 - _SIDE_MARGIN)
    for step in range(_POWER_STEPS):
        w = A @ v
        # w >= 0 (A = T + I and v are), so its sum is its 1-norm, summed as
        # np.linalg.norm(w, 1) sums it
        nw = w.sum()
        est = nw / v.sum()
        if nw == 0.0:
            return 0.0, None
        if versus is not None and v.min() > 0.0:
            q = w / v
            if q.min() > above:
                return float(q.min() - 1.0), None
            if q.max() < below:
                return float(q.max() - 1.0), None
        # successive estimates can agree by an accident of the start vector
        # (3.6 twice on a bipartite core whose Perron value is 2.5747), so the
        # eigen-residual must be small too
        if abs(est - prev) < _RHO_TOL * max(1.0, abs(est)) and (
            np.add.reduce(np.abs(w - est * v)) < 1e-10 * nw
        ):
            return float(est - 1.0), v
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
    return float(max(abs(np.linalg.eigvals(T)))), None


def perron_vector(A: np.ndarray, lam: float):
    """Positive v with A v = lam v, summing to 1.

    The least-squares null vector of A - lam I under a sum-1 row, its sign
    fixed.  Raises NoPositiveSolutionError when lam is not an eigenvalue
    (||A v - lam v||_1 > 1e-10 ||A v||_1) or when v is not positive.  The
    shadow solve uses it on dominant classes of at most
    ``_LSTSQ_MAX_STATES`` states, and on larger ones whose power iterate
    fails this gate; the renewal constant always uses it.
    ``MarkovChain.from_kernel`` takes its law by elimination instead, under
    the same gate, since ``lstsq`` leaves absolute noise of about 1e-16,
    signed by the BLAS kernel, on entries far below that.
    """
    k = A.shape[0]
    M = np.vstack([A - lam * np.eye(k), np.ones((1, k))])
    b = np.zeros(k + 1)
    b[k] = 1.0
    v, *_ = np.linalg.lstsq(M, b, rcond=None)
    if v.sum() < 0:
        v = -v
    why = _perron_defect(A, lam, v)
    if why is not None:
        raise NoPositiveSolutionError(why)
    return v


def _perron_defect(A, lam, v):
    """None when v passes ``perron_vector``'s gate for (A, lam), else why not."""
    Av = A @ v
    if np.add.reduce(np.abs(Av - lam * v)) > 1e-10 * np.add.reduce(np.abs(Av)):
        return f"{lam!r} is not an eigenvalue"
    if v.min() <= 0:
        return f"eigenvector at {lam!r} is not positive"
    return None


# ---------------------------------------------------------------------------
# transfer operator


class TransferOperator:
    """T(s)[e, f] = m(e, f) exp(F(f) - s) on the arcs of the window ``mat``:
    ``fvals = F.on(mat)`` and the arc arrays are read once, for every s."""

    def __init__(self, mat: MaterializedGraph, F: Potential):
        self.mat, self.F, self.fvals = mat, F, F.on(mat)
        self.states, self.src, self.dst, self.mult = mat.arc_arrays()
        self._f = [self.fvals[e] for e in self.states]
        self._flat = self.src * len(self.states) + self.dst
        tails = range(len(mat.core.tails) if mat.depth else 0)
        self._entries = [[self.states.index(tail_edge_id(t, 1, up)) for up in (True, False)] for t in tails]

    def weights(self, s):
        """(exp(F(e) - s) per state, m(e, f) exp(F(f) - s) per arc)."""
        # math.exp once per state: numpy's exp need not match its bits
        w = np.array([math.exp(x - s) for x in self._f])
        return w, self.mult * w[self.dst]

    def matrix(self, s, greens=()):
        """Dense T(s).  On the junction graph, ``greens`` holds each tail's TailGreen
        at s, and the row of its entry state ~t<k>.e1 (at depth 1 only the
        backtrack to ~t<k>.r1) becomes its first-return weight g_1."""
        n = len(self.states)
        T = np.zeros((n, n))
        T.ravel()[self._flat] = self.weights(s)[1]
        for (e1, r1), tg in zip(self._entries, greens):
            T[e1, r1] = tg.g(1)
        return T

    def residual(self, u, s):
        """Sup-norm of u - T(s) u over the interior states of the window, u a dict on its edges."""
        uv = np.array([u[e] for e in self.states])
        acc = row_sums(self.src, self.weights(s)[1] * uv[self.dst], len(self.states))
        defects = np.abs(acc - uv).tolist()
        return max([0.0] + [d for e, d in zip(self.states, defects) if self.mat.is_interior(e)])


def transfer_matrix(g: IndexedGraph, F: Potential | None, s: float, depth: int = DEFAULT_DEPTH):
    """(states, T) with T[e, f] = m(e, f) exp(F(f) - s), funnel edges dropped.

    With tails present the matrix is the truncation to ``depth`` materialized
    levels; exact resummation happens elsewhere.
    """
    op = TransferOperator(materialize(g, depth if g.tails else 0), F or Potential.zero(g))
    return op.states, op.matrix(s)


def entry_weights(mat: MaterializedGraph, x, fvals=None, s=0.0):
    """(e, i(rev e) exp(F(e) - s)) over the non-funnel out-edges e of x.

    The weight of leaving a lift of x along all lifts of e at once; without
    ``fvals`` it is the integer i(rev e).
    """
    if x not in mat.vertices:
        raise GraphError(f"vertex {x!r} is not in the graph (unrolled to depth {mat.depth})")
    funnel = mat.funnel_edge_ids()
    out = []
    for e in mat.out_edges(x):
        if e not in funnel:
            w = mat.index[mat.rev[e]]
            out.append((e, w if fvals is None else w * math.exp(fvals[e] - s)))
    return out


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


def tail_critical_value(spec, tpot=None):
    """Infimum s at which the tail's excursion resummation converges, to 1e-10.

    Bisects on s with one closed-form TailGreen solve per probe, between
    s = -50 and an upper bracket raised from log(max index + 1) + max |F| + 2.
    Returns -inf when the tail already converges at s = -50, as a tail that
    never branches does at every s.
    """
    def ok(s):
        return TailGreen(spec, tpot, s).converged

    imax = max(max(a, b) for a, b in spec.prefix + spec.period)
    fmax = 0.0
    if tpot:
        fmax = max(abs(x) for pair in tpot.prefix + tpot.period for x in pair)
    hi = math.log(imax + 1) + fmax + 2.0
    while not ok(hi):
        hi += 2.0
        if hi > 200:
            raise DivergenceError("tail resummation never converges")
    lo = -50.0
    if ok(lo):
        return float("-inf")
    a, b = lo, hi
    while b - a > 1e-10:
        mid = 0.5 * (a + b)
        if ok(mid):
            b = mid
        else:
            a = mid
    return b


# ---------------------------------------------------------------------------
# junction operator: T(s) on the first tail level, entry rows resummed


def _greens(g: IndexedGraph, F: Potential, s):
    """The TailGreen of every tail of g under F at s, or None once one diverges."""
    greens = []
    for t, spec in enumerate(g.tails):
        tg = TailGreen(spec, F.tail(t), s)
        if not tg.converged:
            return None
        greens.append(tg)
    return greens


def _junction_sr(op, s):
    """rho of the junction operator (``op``, entry rows resummed) at s, or a bound on its side of 1."""
    greens = _greens(op.mat.core, op.F, s)
    if greens is None:
        return None
    return spectral_radius(op.matrix(s, greens), versus=1.0)


# ---------------------------------------------------------------------------
# critical exponent


@dataclass(frozen=True)
class CriticalExponent:
    """``op`` (``op_minus``): the operator of F (F.reversed(g), ``op`` itself when
    equal) on the junction graph all solves ran on, the bare core without tails;
    ``iterate(_minus)``: the power iterate behind delta (delta_minus) when finite."""

    delta: float
    delta_minus: float
    delta_zero: float
    s_tail: float | None
    op: TransferOperator
    op_minus: TransferOperator
    iterate: np.ndarray | None = field(default=None, repr=False, compare=False)
    iterate_minus: np.ndarray | None = field(default=None, repr=False, compare=False)


def _critical_one(op):
    """(delta, s_tail, iterate) of the operator ``op`` on the junction graph; on a
    finite quotient delta is log rho(T(0)), and the iterate that of its power run."""
    g, F = op.mat.core, op.F
    if not g.tails:
        sr, v = _power_run(op.matrix(0.0), None)
        if sr <= 0:
            raise NoPositiveSolutionError("transfer operator has zero spectral radius")
        return math.log(sr), None, v
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
        sr = _junction_sr(op, hi)
        if sr is not None and sr < 1.0:
            break
        hi += 2.0
        if hi > 300:
            raise DivergenceError("no upper bracket for the critical exponent")
    lo = (s_tail if math.isfinite(s_tail) else hi - 60.0) + 1e-9
    sr_lo = _junction_sr(op, lo)
    if sr_lo is None or sr_lo <= 1.0:
        raise DivergenceError(
            f"no weighted spectral gap: delta <= s_tail = {s_tail!r}",
            tail_critical=s_tail,
        )
    a, b = lo, hi
    for _ in range(200):
        mid = 0.5 * (a + b)
        sr_mid = _junction_sr(op, mid)
        if sr_mid is None or sr_mid > 1.0:
            a = mid
        else:
            b = mid
        if b - a < 1e-14 * max(1.0, abs(b)):
            break
    return 0.5 * (a + b), s_tail, None


def critical_exponent(g: IndexedGraph, F: Potential | None = None) -> CriticalExponent:
    """delta for (graph, F), its reversed-potential twin, and the zero-potential value.

    The junction graph is unrolled once and shared by the three solves.  A
    potential equal to its reversal (every zero or symmetric one) reuses
    delta and its operator as delta_minus and ``op_minus``.
    """
    F = F or Potential.zero(g)
    mat1 = materialize(g, 1 if g.tails else 0)
    op = TransferOperator(mat1, F)
    delta, s_tail, iterate = solved = _critical_one(op)
    rev = F.reversed(g)
    op_minus = op if rev == F else TransferOperator(mat1, rev)
    delta_minus, _, iterate_minus = solved if op_minus is op else _critical_one(op_minus)
    if _is_zero(F):
        delta_zero = delta
    else:
        delta_zero = _critical_one(TransferOperator(mat1, Potential.zero(g)))[0]
    return CriticalExponent(
        delta=delta,
        delta_minus=delta_minus,
        delta_zero=delta_zero,
        s_tail=s_tail,
        op=op,
        op_minus=op_minus,
        iterate=iterate,
        iterate_minus=iterate_minus,
    )


def _is_zero(F):
    if any(v != 0.0 for v in F.values.values()):
        return False
    for tp in F.tail_values:
        if any(x != 0.0 for pair in tp.prefix + tp.period for x in pair):
            return False
    return True


# ---------------------------------------------------------------------------
# shadow vectors


# dominant classes of at most this many states solve the shadow's Perron vector
# by least squares, which keeps the bits of every fixture and test operator;
# larger ones take the power iterate
_LSTSQ_MAX_STATES = 64


def _positive_fixed_vector(T, iterate=None):
    """Positive u with T u = u, supported on states that reach the dominant class.

    On the dominant class u is the iterate of the power run that measured
    its spectral radius, normalized to sum 1, when the class has more than
    ``_LSTSQ_MAX_STATES`` states and the iterate passes ``perron_vector``'s
    gate (residual at most 1e-10, positive); otherwise it is
    ``perron_vector`` of the class.  A given ``iterate`` passing the gate is u on an
    irreducible T of more than ``_LSTSQ_MAX_STATES`` states, without a power run.
    """
    # perron_vector's residual gate: an exponent off by more is named by the
    # class's spectral radius instead of failing inside perron_vector
    tol = 1e-10
    n = T.shape[0]
    succ = from_matrix(T > 0.0)
    if iterate is not None and n > _LSTSQ_MAX_STATES and strongly_connected(succ):
        u = iterate / iterate.sum()
        if _perron_defect(T, 1.0, u) is None:
            return u
    comps = sccs(succ)
    dominant = []
    for comp in comps:
        if not has_cycle(succ, comp):
            continue
        block = T[np.ix_(comp, comp)]
        sr, v = _power_run(block, None)
        if abs(sr - 1.0) <= tol:
            dominant.append((comp, block, v))
        elif sr > 1.0 + tol:
            raise NoPositiveSolutionError(
                f"component spectral radius {sr} exceeds 1; exponent inconsistent"
            )
    if not dominant:
        raise NoPositiveSolutionError("no component with unit spectral radius")
    if len(dominant) > 1:
        raise ReducibleChainError("several non-communicating components carry full growth")
    comp, block, v = dominant[0]
    dom = sorted(comp)
    u = np.zeros(n)
    it = v / v.sum() if v is not None and len(comp) > _LSTSQ_MAX_STATES else None
    if it is not None and _perron_defect(block, 1.0, it) is None:
        u[comp] = it
    else:
        u[dom] = perron_vector(T[np.ix_(dom, dom)], 1.0)
    trans = sorted(reachable(reverse(succ), dom) - set(dom))
    if trans:
        Ttt = T[np.ix_(trans, trans)]
        tset = set(trans)
        known = [k for k in range(n) if k not in tset]
        rhs = T[np.ix_(trans, known)] @ u[known]
        sol_t = np.linalg.solve(np.eye(len(trans)) - Ttt, rhs)
        if sol_t.min() <= 0:
            raise NoPositiveSolutionError("fixed vector not positive upstream")
        u[trans] = sol_t
    return u


def shadow_vector(g: IndexedGraph, F: Potential | None, delta: float, depth: int = DEFAULT_DEPTH):
    """Normalized positive solution of u(e) = sum_f m(e,f) exp(F(f)-delta) u(f).

    Returns a dict over the edges of ``materialize(g, depth)`` (of the bare
    core without tails); funnel edges map to 0.  The backward vector is
    ``shadow_vector(g, F.reversed(g), delta)``.  Scaled so the total boundary
    mass seen from the base vertex is 1.  ``compute_gibbs`` runs the same
    solve on the window it keeps as ``GibbsData.mat``.
    """
    op1 = TransferOperator(materialize(g, 1 if g.tails else 0), F or Potential.zero(g))
    return _shadow(_window_ops([op1], depth)[0], op1, delta)


def _window_ops(ops1, depth):
    """The junction operators ``ops1`` on the shadow window: themselves on the
    bare core without tails, else their potentials on one unroll to ``depth``."""
    g = ops1[0].mat.core
    if not g.tails:
        return ops1
    if depth < 2:
        raise ValueError("tailed graphs need depth >= 2")
    mat = materialize(g, depth)
    return [TransferOperator(mat, op1.F) for op1 in ops1]


def _shadow(op, op1, delta, iterate=None):
    """``shadow_vector`` with ``op`` on the window and ``op1`` of its potential on
    the junction graph; ``iterate`` as ``_positive_fixed_vector`` takes it."""
    mat, g = op.mat, op.mat.core
    base = g.base_vertex
    greens = _greens(g, op.F, delta)
    if greens is None:
        raise DivergenceError("tail resummation diverges at the given exponent")
    uj = _positive_fixed_vector(op1.matrix(delta, greens), iterate)
    u = {e: 0.0 for e in mat.edges}
    for e, val in zip(op1.states, uj):
        u[e] = float(val)
    # march up each tail on the decaying branch
    for t, tg in enumerate(greens):
        for n in range(1, mat.depth):
            I, _, _, psi = tg._level(n)
            _, J1, phi1, _ = tg._level(n + 1)
            dn = u[tail_edge_id(t, n, False)]
            g_next = tg.g(n + 1)
            den = 1.0 - (J1 - 1) * phi1 * g_next
            if den <= 0:
                raise DivergenceError("tail march hit a non-contracting level")
            up_next = g_next * I * psi * dn / den
            u[tail_edge_id(t, n + 1, True)] = up_next
            u[tail_edge_id(t, n + 1, False)] = I * psi * dn + (J1 - 1) * phi1 * up_next
    # normalization: unit boundary mass at the base vertex
    mass = 0.0
    for e, w in entry_weights(mat, base, op.fvals, delta):
        mass += w * u[e]
    if mass <= 0:
        raise NoPositiveSolutionError(f"zero boundary mass at base vertex {base!r}")
    return {e: val / mass for e, val in u.items()}


def shadow_residual(F, delta, u, mat):
    """``TransferOperator.residual`` of u at delta on ``mat``; F = None is the zero potential."""
    return TransferOperator(mat, F or Potential.zero(mat.core)).residual(u, delta)


# ---------------------------------------------------------------------------
# assembled Gibbs data


@dataclass(frozen=True)
class GibbsData:
    """Exponents, shadows and residuals of one thermodynamic solve.

    ``op`` is the forward transfer operator on the shadow window ``mat``,
    the graph unrolled to the shadow depth (the bare core without tails):
    ``u_plus``, ``u_minus`` and ``fvals`` are keyed on its edges, and the
    chain and the counting read them from here.  ``s_tail`` is the tails'
    critical value, None without tails.
    """

    delta: float
    delta_minus: float
    delta_zero: float
    s_tail: float | None
    u_plus: dict
    u_minus: dict
    op: TransferOperator
    residual_plus: float
    residual_minus: float
    normalization: dict
    tail_periods: tuple = ()  # per tail, its ``_joint_period`` (start, length)

    @property
    def mat(self):
        return self.op.mat

    @property
    def fvals(self):
        return self.op.fvals

    @property
    def depth(self):
        return self.mat.depth


def compute_gibbs(
    g: IndexedGraph,
    F: Potential | None = None,
    depth: int = DEFAULT_DEPTH,
) -> GibbsData:
    """Full thermodynamic solve: exponent, forward/backward shadows, residuals.

    Both shadow solves run on the exponent's junction operators and one
    window, that graph without tails (``_window_ops``).  The backward shadow
    and residual are the forward ones for F.reversed(g), reused as they are
    when that equals F.  Raises NoPositiveSolutionError when delta and
    delta_minus differ by more than 1e-8 relative.
    """
    F = F or Potential.zero(g)
    ce = critical_exponent(g, F)
    if abs(ce.delta - ce.delta_minus) > 1e-8 * max(1.0, abs(ce.delta)):
        raise NoPositiveSolutionError(
            f"forward/backward exponents differ: {ce.delta} vs {ce.delta_minus}"
        )
    ops1 = [ce.op] if ce.op_minus is ce.op else [ce.op, ce.op_minus]
    ops = _window_ops(ops1, depth)
    its = (ce.iterate, ce.iterate_minus)
    u = [_shadow(op, op1, ce.delta, it) for op, op1, it in zip(ops, ops1, its)]
    res = [op.residual(v, ce.delta) for op, v in zip(ops, u)]
    record = {"convention": "unit boundary mass at base vertex", "base_vertex": g.base_vertex, "delta": ce.delta}
    return GibbsData(
        delta=ce.delta,
        delta_minus=ce.delta_minus,
        delta_zero=ce.delta_zero,
        s_tail=ce.s_tail,
        u_plus=u[0],
        u_minus=u[-1],
        op=ops[0],
        residual_plus=res[0],
        residual_minus=res[-1],
        normalization=record,
        tail_periods=tuple(_joint_period(spec, F.tail(t)) for t, spec in enumerate(g.tails)),
    )


# ---------------------------------------------------------------------------
# cusp bound


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
