"""Weighted-spectral-gap drift certificates.

A certificate (t, B, rho) is a nonnegative weight per state, a finite state
set B and a contraction factor rho < 1 with sum_j p_ij t_j / t_i <= rho for
every state outside B.  It forces the taboo decay p^{(n),B}_{ij} <= t_i rho^n
/ t_j, the engine behind exponential convergence to stationarity.

Tail weights have one analytic form.  On the periodic part of a tail (period
L, first level ``start``) they are t(e_n) = c a_up[phi] z^n and
t(r_n) = c a_dn[phi] z^n with phi = (n - start) mod L, where (a_up, a_dn) is
the Perron vector of the tail's 2L x 2L quasi-birth-death characteristic
matrix M(z) (for L = 1, [[p_up z, p_turn], [p_re, p_dn / z]]).  Every periodic
drift ratio is then its Perron root chi(z).  log chi(e^x) is convex in x
(Kingman 1961), so one golden-section search finds min_z chi(z): the tail's
decay parameter e^{s_tail - delta}, below which no tail weights certify
(Vere-Jones 1967).  Prefix levels are solved backward with the same ratio and
the scale c is set by the level-1 exit row; a prefix that needs a larger ratio
gets one by a bisection over a smaller z.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import ClassVar

import numpy as np

from .chain import MarkovChain
from .gibbs import spectral_radius
from .errors import NoGeometricDriftError
from .graph import row_sums, tail_edge_id

VALUE_CAP = 1e9
REPLAY_CHUNK = 1 << 15  # entries per column chunk of the replay's exact check
DRIFT_TOL = 1e-10  # how far a verified drift ratio may exceed rho
SEARCH_RHO_TOL = 1e-6  # the search's floor margin and bisection width in rho


@dataclass(frozen=True)
class TailWeightForm:
    """Drift weights on one tail, with every drift ratio at most ``rho``.

    ``a_up``/``a_dn`` hold one period of phases and ``prefix_up``/``prefix_dn``
    the weights at the levels 1..start-1, all before the scale c.
    """

    form: ClassVar[str] = "qbd"
    rho: float
    z: float
    start: int
    a_up: tuple
    a_dn: tuple
    prefix_up: tuple = ()
    prefix_dn: tuple = ()
    scale: float = 1.0

    def value(self, level, up):
        if level < self.start:
            w = (self.prefix_up if up else self.prefix_dn)[level - 1]
        else:
            a = self.a_up if up else self.a_dn
            w = a[(level - self.start) % len(a)] * self.z**level
        return self.scale * w

    def scaled(self, factor):
        return replace(self, scale=self.scale * factor)

    def to_dict(self):
        return {"form": self.form, "params": asdict(self)}


@dataclass(frozen=True)
class DriftCertificate:
    t_core: dict
    B: tuple
    rho: float
    tails: tuple = ()  # TailWeightForm per tail index
    provenance: str = "user"

    def weight(self, mc: MarkovChain, state):
        if state in self.t_core:
            return float(self.t_core[state])
        mat = mc.mat
        if mat is not None and state in mat.edge_meta:
            meta = mat.edge_meta[state]
            if meta[0] == "tail":
                _, t, n, up = meta
                if t < len(self.tails) and self.tails[t] is not None:
                    return self.tails[t].value(n, up)
        raise KeyError(f"certificate assigns no weight to state {state}")

    def to_dict(self):
        return {
            "rho": self.rho,
            "B": list(self.B),
            "t": {
                "core": {k: float(v) for k, v in sorted(self.t_core.items())},
                "tails": [None if tf is None else tf.to_dict() for tf in self.tails],
            },
            "provenance": self.provenance,
        }


@dataclass(frozen=True)
class DriftReport:
    ok: bool
    max_ratio: float
    worst_state: str
    ratios: dict
    symbolic_ok: bool = True
    notes: tuple = ()


# ---------------------------------------------------------------------------
# verification


def verify_certificate(mc: MarkovChain, cert: DriftCertificate) -> DriftReport:
    """Per-state drift ratios outside B; parametric tail levels checked on their
    periodic blocks.  A ratio passes at most ``DRIFT_TOL`` above rho."""
    Bset = set(cert.B)
    rows = np.array(
        [i for i, s in enumerate(mc.states) if s not in Bset and mc.interior[i]], dtype=int
    )
    nz, p_nz = _row_arcs(mc, rows)
    t, checked = _read_weights(mc, cert, rows, nz)
    head = rows[:checked]
    sums = row_sums(nz[0], p_nz * t[nz[1]], len(rows))[:checked]
    ratios = dict(zip([mc.states[i] for i in head], (sums / t[head]).tolist()))
    if checked < len(rows):
        s = mc.states[rows[checked]]
        return DriftReport(False, float("inf"), s, ratios, notes=(f"t({s}) <= 0",))
    worst = ("", 0.0)
    for s, r in ratios.items():
        if r > worst[1]:
            worst = (s, r)
    symbolic_ok, notes = _symbolic_tail_check(mc, cert, DRIFT_TOL)
    ok = worst[1] <= cert.rho + DRIFT_TOL and symbolic_ok
    return DriftReport(ok, worst[1], worst[0], ratios, symbolic_ok, tuple(notes))


def _row_arcs(mc, rows):
    """(``np.nonzero(mc.p[rows])``, the entries it points at), read off the
    chain's arcs: the arcs leaving ``rows``, row by row in the order of
    ``rows``, columns ascending."""
    src, dst = mc.arcs
    at = np.full(len(mc.states), -1)
    at[rows] = np.arange(len(rows))
    k = at[src]
    arc = np.flatnonzero(k >= 0)
    arc = arc[np.argsort(k[arc], kind="stable")]
    return (k[arc], dst[arc]), mc.p[src[arc], dst[arc]]


def _read_weights(mc, cert, rows, nz):
    """The certificate's weights on ``rows`` and on the nonzero columns
    ``nz = np.nonzero(mc.p[rows])`` (as ``_row_arcs`` reads it), each read
    once, and the number of rows before the first row with t <= 0.

    States are read in the order of a loop over the rows (a row, then its
    nonzero columns in column order) that returns at the first row with
    t <= 0, so a missing weight raises the same ``KeyError`` as that loop.
    Unread weights stay 0.  The walk visits only a state's first place in
    that order and the rows' places, not every arc.
    """
    counts = np.bincount(nz[0], minlength=len(rows))
    # the loop's order: each row, then its columns
    at_row = np.arange(len(rows)) + np.cumsum(counts) - counts
    order = np.empty(len(rows) + len(nz[1]), dtype=np.intp)
    is_row = np.zeros(len(order), dtype=bool)
    is_row[at_row] = True
    order[at_row], order[~is_row] = rows, nz[1]
    fresh = np.zeros(len(order), dtype=bool)
    fresh[np.unique(order, return_index=True)[1]] = True
    places = np.flatnonzero(fresh | is_row)
    states, weight = mc.states, cert.weight
    t = [0.0] * len(states)
    k = 0
    for j, new, row in zip(order[places].tolist(), fresh[places].tolist(), is_row[places].tolist()):
        if new:
            t[j] = weight(mc, states[j])
        if row:
            if t[j] <= 0:
                break
            k += 1
    return np.array(t, dtype=float), k


def _symbolic_tail_check(mc, cert, tol):
    """Drift inequality on the eventually-periodic tail blocks, one period exactly."""
    notes = []
    ok = True
    for t, blk in enumerate(mc.tails):
        if t >= len(cert.tails) or cert.tails[t] is None:
            continue
        tf = cert.tails[t]
        start, L = blk.start, blk.period
        base = start + 2 * L  # safely inside the periodic regime
        for off in range(L):
            n = base + off
            pu, pt = blk.p_up[n], blk.p_turn[n]
            pd, pr = blk.p_dn[n], blk.p_re[n]
            up_ratio = (pu * tf.value(n + 1, True) + pt * tf.value(n, False)) / tf.value(n, True)
            dn_ratio = (pd * tf.value(n - 1, False) + pr * tf.value(n, True)) / tf.value(n, False)
            if up_ratio > cert.rho + tol or dn_ratio > cert.rho + tol:
                ok = False
                notes.append(
                    f"tail {t} level {n}: ratios ({up_ratio:.6g}, {dn_ratio:.6g}) exceed rho"
                )
    return ok, notes


# ---------------------------------------------------------------------------
# analytic tail certificates


def _argmin_unimodal(f, lo, hi):
    """Golden-section minimiser of a unimodal f on [lo, hi], run until the
    bracket is 1e-10 wide relative to its ends."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - g * (hi - lo), lo + g * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > 1e-10 * max(1.0, abs(lo), abs(hi)):
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - g * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + g * (hi - lo)
            fd = f(d)
    return 0.5 * (lo + hi)


def _perron(m):
    """(Perron root, Perron vector scaled to max 1) of a nonnegative matrix.

    Dense ``eig``, not ``gibbs.spectral_radius``: the QBD characteristic
    matrix is defective at a cusp's minimiser, where power iteration crawls.
    """
    vals, vecs = np.linalg.eig(m)
    k = int(np.argmax(vals.real))
    v = vecs[:, k].real
    return float(vals[k].real), v / v[np.argmax(np.abs(v))]


def _tail_form(mc, t):
    """The ``TailWeightForm`` of tail t, or None when none has ratio < 1.

    M(z) = z UP + FLAT + DN / z is read off one period of the tail block:
    UP holds p(e_n -> e_{n+1}), FLAT p(e_n -> r_n) and p(r_n -> e_n), DN
    p(r_n -> r_{n-1}).  chi(z) is at least z U and D / z, with U and D the
    geometric means of p_up and p_dn over the period, so its minimiser lies in
    [D / V, V / U] for V = chi(sqrt(D / U)).  z is then taken 1e-7 below the
    minimiser: on a cuspidal tail (p_re = 0) M(z) is block triangular and past
    the minimiser its Perron vector has a_dn = 0.  The form's ratio is the
    Collatz-Wielandt bound max (M a / a) of the vector it uses.  When the
    prefix levels or the level-1 exit row leave a weight <= 0 there, z moves
    down by bisection, which raises the ratio, until every weight is
    positive.
    """
    blk = mc.tails[t]
    start, L = blk.start, blk.period
    e1, r1 = tail_edge_id(t, 1, True), tail_edge_id(t, 1, False)
    if r1 not in mc.states:
        # the chain never climbs the tail, so no tail weight is ever read
        ones, below = (1.0,) * L, (1.0,) * (start - 1)
        return TailWeightForm(0.0, 1.0, start, ones, ones, below, below)
    levels = range(start + L, start + 2 * L)  # level start + L + k has phase k
    UP, FLAT, DN = (np.zeros((2 * L, 2 * L)) for _ in range(3))
    for k, n in enumerate(levels):
        UP[k, (k + 1) % L] = blk.p_up[n]
        FLAT[k, L + k] = blk.p_turn[n]
        FLAT[L + k, k] = blk.p_re[n]
        DN[L + k, L + (k - 1) % L] = blk.p_dn[n]
    U = math.prod(blk.p_up[n] for n in levels) ** (1.0 / L)
    D = math.prod(blk.p_dn[n] for n in levels) ** (1.0 / L)
    p_re1 = mc.p_of(r1, e1) if e1 in mc.states else 0.0
    p_exit = float(mc.p[mc.pos(r1)].sum()) - p_re1

    def form_at(rho, z, a):
        """The form with ratio rho and phases a, its prefix weights solved
        downward from the drift equalities at rho and its scale from the
        level-1 exit row p_exit * 1 + p_re1 t(e_1) <= rho t(r_1); None if a
        weight is <= 0."""
        w_up, w_dn = a[0] * z**start, a[L] * z**start
        pre_up, pre_dn = [], []
        for n in range(start - 1, 0, -1):
            # r_{n+1} is absent when it never steps down: t(r_n) is then free
            if blk.p_dn[n + 1] > 0.0:
                w_dn = (rho * w_dn - blk.p_re[n + 1] * w_up) / blk.p_dn[n + 1]
            w_up = (blk.p_up[n] * w_up + blk.p_turn[n] * w_dn) / rho
            if w_dn <= 0.0:
                return None
            pre_up.insert(0, w_up)
            pre_dn.insert(0, w_dn)
        form = TailWeightForm(rho, z, start, tuple(a[:L].tolist()), tuple(a[L:].tolist()),
                              tuple(pre_up), tuple(pre_dn))
        head = rho * form.value(1, False) - p_re1 * form.value(1, True)
        if p_exit <= 0.0:
            return form
        return form.scaled(p_exit / head) if head > 0.0 else None

    if U > 0.0 and D > 0.0:

        def at(x):
            z = math.exp(x)
            m = z * UP + FLAT + DN / z
            a = _perron(m)[1]
            if a.min() <= 0.0:
                return None
            return form_at(float(((m @ a) / a).max()), z, a)  # Collatz-Wielandt ratio

        def chi(x):
            return _perron(math.exp(x) * UP + FLAT + math.exp(-x) * DN)[0]

        V = chi(0.5 * math.log(D / U))
        x = _argmin_unimodal(chi, math.log(D / V), math.log(V / U)) - math.log1p(1e-7)
        form, good = at(x), math.log(D)  # chi(z) >= D / z = 1 at z = D
    else:
        # the chain turns back below the periodic part, which it never
        # enters: the ratio itself is the free variable

        def at(rho):
            return form_at(rho, 1.0, np.ones(2 * L))

        form, x, good = None, 0.0, 1.0
    if form is None:
        # bisect between x and ``good`` (a smaller z, hence a larger ratio)
        # for the weights nearest x that are all positive
        form = at(good)
        while form is not None and abs(good - x) > 1e-10:
            mid = 0.5 * (x + good)
            got = at(mid)
            if got is None:
                x = mid
            else:
                good, form = mid, got
    return form


def tail_certificate(mc: MarkovChain) -> DriftCertificate:
    """Analytic drift weights on every tail, B = core states.

    Each tail takes its ``TailWeightForm``; rho is the largest of their drift
    ratios plus 1e-9, capped at 1 - 1e-12.  Raises NoGeometricDriftError when
    a tail has no such form below 1 or the weights fail verification.
    """
    mat = mc.mat
    if mat is None or not mat.core.tails:
        raise NoGeometricDriftError("chain has no tails to certify")
    forms = [_tail_form(mc, t) for t in range(len(mat.core.tails))]
    for t, tf in enumerate(forms):
        if tf is None or tf.rho >= 1.0:
            raise NoGeometricDriftError(f"tail {t}: no positive drift weights with ratio < 1")
    rho = max(tf.rho for tf in forms)
    core_states = tuple(s for s in mc.states if mat.edge_meta[s][0] == "core")
    cert = DriftCertificate(
        t_core={s: 1.0 for s in core_states},
        B=core_states,
        rho=min(rho + 1e-9, 1.0 - 1e-12),
        tails=tuple(forms),
        provenance="analytic-tail",
    )
    rep = verify_certificate(mc, cert)
    if not rep.ok:
        raise NoGeometricDriftError(
            f"analytic weights verify at ratio {rep.max_ratio} > rho {cert.rho}"
        )
    return cert


# ---------------------------------------------------------------------------
# search


@dataclass(frozen=True)
class SearchOutcome:
    certificate: DriftCertificate = None
    feasible: bool = False
    infimum_rho: float = 1.0
    notes: tuple = ()


@dataclass(frozen=True)
class _TabooBlock:
    """The free states of one search and the matrices on them.

    Free states lie outside B, carry no analytic boundary weight and are
    interior.  Which states are free depends only on B and on which tail
    states get a boundary weight, not on the candidate rho, so one search
    builds this once, with the Perron value of the taboo block P_ff.
    """

    idx: np.ndarray  # free states
    other: np.ndarray  # every other state
    block: np.ndarray  # P_ff
    p_other: np.ndarray  # P restricted to free rows and the other columns
    rho_ff: float  # spectral radius of P_ff


def _taboo_block(mc, Bset, bounded):
    """The ``_TabooBlock`` for B and the states in ``bounded``, or None when
    no state is free."""
    free = [
        i
        for i, s in enumerate(mc.states)
        if s not in Bset and s not in bounded and mc.interior[i]
    ]
    if not free:
        return None
    fset = set(free)
    idx = np.array(free, dtype=int)
    other = np.array([i for i in range(len(mc.states)) if i not in fset], dtype=int)
    # one contiguous run of free states (B = {first state} on a finite
    # chain): P_ff is a view of P, not a copy
    a, z = free[0], free[-1] + 1
    block = mc.p[a:z, a:z] if z - a == len(free) else mc.p[np.ix_(idx, idx)]
    return _TabooBlock(idx, other, block, mc.p[np.ix_(idx, other)], spectral_radius(block))


def _minimal_supersolution(mc, Bset, rho, t_boundary, taboo):
    """Minimal solution of t_i = (1/rho) sum_j p_ij t_j on the free states.

    Free states are those outside B without an analytic boundary weight;
    ``taboo`` is their ``_TabooBlock`` (None when there are none).  The
    series sum_k (P_ff/rho)^k rhs converges iff the taboo spectral radius
    rho(P_ff) is below rho, so a rho at or below the Perron value computed
    once per search is rejected without a solve.  Above it the direct linear
    solve gives the same limit, and infeasibility shows up as a singular
    system, a non-positive entry, or a weight beyond the cap.
    """
    # t = 1 on B; ``t_boundary`` holds no state of B
    t = np.ones(len(mc.states))
    for s, w in t_boundary.items():
        t[mc.pos(s)] = w
    if taboo is None:
        return t
    if taboo.rho_ff >= rho:
        return None
    rhs = (taboo.p_other @ t[taboo.other]) / rho
    # I - P_ff / rho in one array, with eye(k) - P_ff / rho's bits: 0 - x off
    # the diagonal (+0.0 for x = 0), then 1 + (0 - x) = 1 - x on it
    k = len(taboo.idx)
    A = np.divide(taboo.block, rho, order="C")
    np.subtract(0.0, A, out=A)
    A.reshape(-1)[:: k + 1] += 1.0
    try:
        sol = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(sol).all() or sol.min() <= 0 or sol.max() > VALUE_CAP:
        return None
    t[taboo.idx] = sol
    return t


def search_certificate(mc: MarkovChain, B0=None) -> SearchOutcome:
    """The least feasible rho, to within ``SEARCH_RHO_TOL``, and its certificate.

    Nothing at or below rho(P_ff), the Perron value of the taboo block on
    the free states (Collatz-Wielandt), or below the largest tail form ratio
    is feasible.  So the floor max(largest tail ratio, rho(P_ff)(1 +
    SEARCH_RHO_TOL)) is tried first and returned when feasible: one minimal-
    supersolution solve (t = 1 on B, tail states from their forms, a tail
    rescaling loop for the junctions) and one verification.  Otherwise, or
    when the floor is 0, rho is bisected between the floor and 1 - 1e-9.
    The free states, P_ff, rho(P_ff), the tail forms and the junction rows
    are computed once per search.
    """
    mat = mc.mat
    has_tails = bool(mat is not None and mat.core.tails)
    if B0 is not None:
        Bset = set(B0)
    elif has_tails:
        Bset = {s for s in mc.states if mat.edge_meta[s][0] == "core"}
    else:
        Bset = {mc.states[0]}
    # tail states outside B take their weights from the analytic forms
    bounded = [
        s for s in mc.states if has_tails and mat.edge_meta[s][0] == "tail" and s not in Bset
    ]
    taboo = _taboo_block(mc, Bset, set(bounded))
    tail_forms = [_tail_form(mc, t) for t in range(len(mat.core.tails))] if has_tails else []
    # junctions: the level-1 down states outside B, whose drift the tail
    # rescaling loop pushes down to the candidate
    junctions = []
    for t in range(len(tail_forms)):
        r1 = tail_edge_id(t, 1, False)
        if r1 in mc.states and r1 not in Bset:
            junctions.append((t, mc.pos(r1)))
    j_idx = np.array([i for _, i in junctions], dtype=int)
    j_nz, j_p = _row_arcs(mc, j_idx)

    def feasible(rho):
        forms = list(tail_forms)
        # analytic tail forms normalize the exit weight to 1; when B leaves
        # core states free their solved weights exceed 1 and the junction
        # constraint needs the tails rescaled, which feeds back into the core
        # solve: iterate the pair a few times
        for _ in range(8):
            boundary = {}
            for s in bounded:
                _, t, n, up = mat.edge_meta[s]
                boundary[s] = forms[t].value(n, up)
            t_vec = _minimal_supersolution(mc, Bset, rho, boundary, taboo)
            if t_vec is None:
                return None
            t_core = {
                s: float(t_vec[i])
                for i, s in enumerate(mc.states)
                if (mat is None or mat.edge_meta[s][0] == "core")
            }
            cert = DriftCertificate(
                t_core=t_core,
                B=tuple(sorted(Bset)),
                rho=rho,
                tails=tuple(forms),
                provenance="search",
            )
            rep = verify_certificate(mc, cert)
            if rep.ok:
                return cert
            if not has_tails:
                return None
            bumped = False
            w, _ = _read_weights(mc, cert, j_idx, j_nz)
            sums = row_sums(j_nz[0], j_p * w[j_nz[1]], len(j_idx))
            for (t, _), ratio in zip(junctions, sums / w[j_idx]):
                if ratio > rho:
                    forms[t] = forms[t].scaled(ratio / rho * (1.0 + 1e-9))
                    bumped = True
            if not bumped:
                return None
        return None

    hi = 1.0 - 1e-9
    fail = SearchOutcome(None, False, 1.0, ("no certificate even at rho ~ 1",))
    # no probe exceeds hi, and every probe is at least each tail form's ratio
    # (lo below), so only a missing form or a ratio above hi fails a tail
    if any(tf is None or tf.rho > hi for tf in tail_forms):
        return fail
    # nothing at or below rho(P_ff) or below a tail form's ratio is feasible
    rho_ff = taboo.rho_ff if taboo is not None else 0.0
    lo = max([rho_ff * (1.0 + SEARCH_RHO_TOL)] + [tf.rho for tf in tail_forms])
    if 0.0 < lo < hi:
        floor = feasible(lo)
        if floor is not None:
            return SearchOutcome(floor, True, lo, ())
    best = feasible(hi)
    if best is None:
        return fail
    while hi - lo > SEARCH_RHO_TOL:
        mid = 0.5 * (lo + hi)
        cand = feasible(mid)
        if cand is not None:
            best = cand
            hi = mid
        else:
            lo = mid
    return SearchOutcome(best, True, hi, ())


# ---------------------------------------------------------------------------
# taboo-bound replay and the degradation probe


@dataclass(frozen=True)
class LemmaBoundReport:
    n_max: int
    violations: int
    max_slack: float
    return_bound_ok: bool


def lemma_bound_check(mc: MarkovChain, cert: DriftCertificate, n_max) -> LemmaBoundReport:
    """Replay p^{(n),B}_{ij} <= t_i rho^n / t_j for rows outside B, n <= n_max.

    Also checks the aggregated return bound p^{(n),B}_{i,B} <= M t_i rho^n with
    M = max over B of 1/t_j.  Only the checked rows of p^{(n),B} are carried,
    transposed, one row per state in the order of ``mc.blocks()``, in one
    power buffer.  Step n gathers the rows of every block from it, then
    multiplies by the taboo kernel, P with B's rows zeroed, block by block
    into the same buffer: column j of a block C sums over the block's rows R
    only, since p_kj = 0 for every other k.  So one gather and one stacked
    ``np.matmul`` per block shape make a step, and each entry sums the same
    nonzero products, in the same ascending order, as the dense product; the
    products it skips are exact zeros.  BLAS sums a product with one row or
    one column in another order, so the buffer keeps two columns at least
    and a one-column block gets a zero row.

    A step whose largest entry lies below rho^n min t_i / max t_j, less a
    relative 1e-13, adds no violation and leaves the largest slack as it is:
    each entry's bound fl(fl(1/t_j) t_i rho^n) is three roundings, at most
    4e-16 relative, above that value.  The other steps check every entry, in
    chunks of at most ``REPLAY_CHUNK`` entries.
    """
    Bset = set(cert.B)
    weights = np.array([cert.weight(mc, s) for s in mc.states])
    mask = np.ones(len(mc.states))
    for b in cert.B:
        mask[mc.pos(b)] = 0.0
    rows = [i for i, s in enumerate(mc.states) if s not in Bset and mc.interior[i]]
    bcols = [i for i, s in enumerate(mc.states) if s in Bset]
    M = max(1.0 / weights[j] for j in bcols) if bcols else 0.0
    blocks = mc.blocks()
    ns, nr = len(mc.states), len(rows)
    width = max(nr, 2)
    # rows without an in-arc lie in no block's columns: zero, and never written
    power = np.zeros((ns, width))
    pn = power[:, :nr]
    # p^{(0)} = 1 at (i, i), as the first step gathers it; that step gives
    # p^{(1)} = P on the rows outside B exactly, each entry one product by 1
    at = np.full(ns, -1)
    at[rows] = np.arange(nr)
    col = at[blocks.order[blocks.gather]]
    hit = col >= 0
    gathered = np.zeros((len(blocks.gather), width))
    gathered[hit, col[hit]] = 1.0
    steps = []
    x0 = y0 = 0
    for R, C in blocks.groups:
        (G, r), c = R.shape, C.shape[1]
        w = mc.p[R[:, None, :], C[:, :, None]] * mask[R][:, None, :]
        x = gathered[x0 : x0 + G * r].reshape(G, r, width)
        y = power[y0 : y0 + G * c].reshape(G, c, width)
        if c > 1:
            steps.append((w, x, y, None))
        else:
            w = np.concatenate([w, np.zeros_like(w)], axis=1)
            steps.append((w, x, np.empty((G, 2, width)), y[:, 0]))
        x0, y0 = x0 + G * r, y0 + G * c
    viol = 0
    max_slack = 0.0
    ret_ok = True
    inv_t, row_t = 1.0 / weights[blocks.order], weights[rows]
    span = max(1, REPLAY_CHUNK // max(ns, 1))
    scratch = np.empty(ns * min(span, nr))
    # (power columns, scratch, their weights t_i) per chunk of checked rows
    chunks = []
    for a in range(0, nr, span):
        t_part = row_t[a : a + span]
        chunks.append((pn[:, a : a + span], scratch[: ns * len(t_part)].reshape(ns, -1), t_part))
    # one chunk: the bound table once per call; else one chunk of it per use
    t_ratio = np.outer(inv_t, row_t) if len(chunks) == 1 else None
    lo = None
    if nr and np.isfinite(weights).all() and weights.min() > 0.0:
        lo = row_t.min() / weights.max()
        # the walk from the heaviest checked row: an entry of it at or above
        # the bound settles a step without the full max
        probe = pn[:, int(np.argmax(row_t))]
    bpos = blocks.position[bcols]
    powers = np.array([cert.rho**n for n in range(1, n_max + 1)])
    # the return bound's right-hand side M t_i rho^n + 1e-12, one row per step
    ret_bound = np.multiply.outer(powers, M * row_t) + 1e-12
    gather = blocks.gather
    for n, rho_n in enumerate(powers, start=1):
        if n > 1:
            np.take(power, gather, axis=0, out=gathered, mode="clip")
        for w, x, out, copy in steps:
            np.matmul(w, x, out=out)
            if copy is not None:
                np.copyto(copy, out[:, 0])
        # below b every entry is below its own bound: no violation, no slack
        b = rho_n * lo * (1.0 - 1e-13) if lo is not None else 0.0
        if b < 1e-300 or not probe.max() < b or not pn.max() < b:
            worst, over = (-math.inf if chunks else 0.0), 0
            for part, buf, t_part in chunks:
                if t_ratio is None:
                    np.outer(inv_t, t_part, out=buf)
                    np.multiply(buf, rho_n, out=buf)
                else:
                    np.multiply(t_ratio, rho_n, out=buf)
                np.subtract(part, buf, out=buf)
                # the max over the entries that are not nan: a 0 x inf bound
                # entry is no slack, and the others still count
                m = float(np.fmax.reduce(buf, axis=None))
                if m > worst:
                    worst = m
                if m > 1e-12:
                    over += int(np.count_nonzero(buf > 1e-12))
            viol += over
            max_slack = max(max_slack, worst)
        # the B columns added one at a time in state order, as the dense replay added them
        if bcols and (pn[bpos].sum(axis=0) > ret_bound[n - 1]).any():
            ret_ok = False
    return LemmaBoundReport(n_max, viol, max_slack, ret_ok)


def degradation_probe(gammas, betas, truncations):
    """Best feasible rho per truncation of the star family with B = {inf},
    and the drift lower bound sup gamma over the satellites: one Perron value
    and one solve per truncation whenever the search's floor is feasible."""
    from .chain import counterexample_chain

    rows = []
    for N in truncations:
        mc = counterexample_chain(gammas, betas, N)
        out = search_certificate(mc, B0=("inf",))
        gmax = max(float(gammas(n)) for n in range(-N, N + 1))
        rows.append(
            {
                "N": int(N),
                "rho": out.infimum_rho if out.feasible else 1.0,
                "feasible": out.feasible,
                "gamma_bound": gmax,
            }
        )
    return rows
