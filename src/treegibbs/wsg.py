"""Weighted-spectral-gap drift certificates.

A certificate (t, B, rho) is a nonnegative weight per state, a finite state
set B and a contraction factor rho < 1 with sum_j p_ij t_j / t_i <= rho for
every state outside B.  It forces the taboo decay p^{(n),B}_{ij} <= t_i rho^n
/ t_j, the engine behind exponential convergence to stationarity.

Tail weights come in two analytic families:

* ``cusp``: on rays whose downward indices are all 1, down-states get R^n and
  up-states solve the drift equalities exactly with ratio 1/R; positivity of
  the recursion needs R^{2L} * prod(p_up over a period) < 1.
* ``geometric``: t(up_n) = xi^n, t(down_n) = xi^(n-1); the finitely many
  distinct one-step drift constraints are convex in xi, so a ternary search
  finds the best ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chain import MarkovChain, iter_taboo_matrix_powers
from .gibbs import spectral_radius
from .errors import NoGeometricDriftError
from .graph import tail_edge_id

VALUE_CAP = 1e9


@dataclass(frozen=True)
class TailWeightForm:
    """Analytic weight family on one tail."""

    form: str  # "geometric" | "cusp"
    params: dict
    # cusp up-state tau unrolled past params["tau"], extended on demand
    _unrolled: list = field(default_factory=list, init=False, compare=False, repr=False)

    def value(self, level, up):
        c = self.params.get("scale", 1.0)
        if self.form == "geometric":
            xi = self.params["xi"]
            return c * xi**level if up else c * xi ** (level - 1)
        if self.form == "cusp":
            R = self.params["R"]
            if up:
                return c * self._tau(level) * R**level
            return c * R**level
        raise ValueError(self.form)

    def scaled(self, factor):
        params = dict(self.params)
        params["scale"] = params.get("scale", 1.0) * factor
        return TailWeightForm(self.form, params)

    def _tau(self, level):
        taus = self.params["tau"]  # values at levels 1..len(taus)
        if level <= len(taus):
            return taus[level - 1]
        more = self._unrolled  # values at levels len(taus)+1..len(taus)+len(more)
        lev = len(taus) + len(more)
        if lev < level:
            # unroll tau_{n+1} = tau_n/(p_n R^2) - (1 - p_n)/(p_n R) with periodic p
            R = self.params["R"]
            start, L = self.params["p_start"], self.params["period"]
            p_per = self.params["p_period"]
            val = more[-1] if more else taus[-1]
            while lev < level:
                p = p_per[(lev - start) % L]
                val = val / (p * R * R) - (1.0 - p) / (p * R)
                more.append(val)
                lev += 1
        return more[level - len(taus) - 1]


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
                "tails": [
                    None if tf is None else {"form": tf.form, "params": _jsonable(tf.params)}
                    for tf in self.tails
                ],
            },
            "provenance": self.provenance,
        }


def _jsonable(params):
    out = {}
    for k, v in params.items():
        if isinstance(v, (list, tuple)):
            out[k] = [float(x) for x in v]
        else:
            out[k] = float(v)
    return out


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


def verify_certificate(mc: MarkovChain, cert: DriftCertificate, tol=1e-10) -> DriftReport:
    """Per-state drift ratios outside B; parametric tail levels checked on their
    periodic blocks."""
    Bset = set(cert.B)
    rows = np.array(
        [i for i, s in enumerate(mc.states) if s not in Bset and mc.interior[i]], dtype=int
    )
    p_rows = mc.p[rows]
    nz = np.nonzero(p_rows)
    t, checked = _read_weights(mc, cert, rows, nz)
    head = rows[:checked]
    sums = _drift_sums(p_rows, nz, t)[:checked]
    ratios = dict(zip([mc.states[i] for i in head], (sums / t[head]).tolist()))
    if checked < len(rows):
        s = mc.states[rows[checked]]
        return DriftReport(False, float("inf"), s, ratios, notes=(f"t({s}) <= 0",))
    worst = ("", 0.0)
    for s, r in ratios.items():
        if r > worst[1]:
            worst = (s, r)
    symbolic_ok, notes = _symbolic_tail_check(mc, cert, tol)
    ok = worst[1] <= cert.rho + tol and symbolic_ok
    return DriftReport(ok, worst[1], worst[0], ratios, symbolic_ok, tuple(notes))


def _read_weights(mc, cert, rows, nz):
    """The certificate's weights on ``rows`` and on the nonzero columns
    ``nz = np.nonzero(mc.p[rows])``, each read once, and the number of rows
    before the first row with t <= 0.

    States are read in the order of a loop over the rows (a row, then its
    nonzero columns in column order) that returns at the first row with
    t <= 0, so a missing weight raises the same ``KeyError`` as that loop.
    Unread weights stay 0.
    """
    t = np.zeros(len(mc.states))
    seen = [False] * len(mc.states)

    def read(j):
        if not seen[j]:
            seen[j] = True
            t[j] = cert.weight(mc, mc.states[j])

    cols = nz[1].tolist()
    ends = np.cumsum(np.bincount(nz[0], minlength=len(rows))).tolist()
    start = 0
    for k, (i, end) in enumerate(zip(rows.tolist(), ends)):
        read(i)
        if t[i] <= 0:
            return t, k
        for j in cols[start:end]:
            read(j)
        start = end
    return t, len(rows)


def _drift_sums(p_rows, nz, t):
    """sum_j p_ij t_j for each row of ``p_rows``, with ``nz`` its
    ``np.nonzero``.

    Each row's nonzero terms are added left to right in column order, the
    float sequence of a loop over the row's nonzeros; ``t`` is read only at
    those columns.
    """
    r, c = nz
    counts = np.bincount(r, minlength=len(p_rows))
    slot = np.arange(len(c)) - (np.cumsum(counts) - counts)[r]
    terms = np.zeros((int(counts.max(initial=0)), len(p_rows)))
    terms[slot, r] = p_rows[r, c] * t[c]
    acc = np.zeros(len(p_rows))
    for column in terms:
        acc += column
    return acc


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


def _cusp_weights(mc, t, R):
    """Exact drift-equality weights on a cuspidal tail, ratio 1/R everywhere.

    tau_n = t(up_n)/R^n satisfies an expanding affine recursion; it stays
    positive for every level iff it starts above the (repelling) critical
    trajectory.  We estimate that trajectory by backward recursion, add a
    margin, and then certify positivity by unrolling forward until the values
    are period-over-period increasing (after which they grow without bound).
    """
    blk = mc.tails[t]
    start, L = blk.start, blk.period
    depth = mc.mat.depth
    p_per = blk.period_p_up()
    # a level that is never climbed (zero up-shadow) has no cusp profile
    if not all(p_per + [blk.p_up[n] for n in range(1, start)]):
        return None
    if math.prod(p_per) * R ** (2 * L) >= 1.0:
        return None

    def p_at(n):
        if n < start:
            return blk.p_up[n]
        return p_per[(n - start) % L]

    # critical trajectory by contracting backward recursion
    far = depth - 2
    tau = 0.0
    for n in range(far, 0, -1):
        pn = p_at(n)
        tau = (tau + (1.0 - pn) / (pn * R)) * pn * R * R
    margin = max(1.0, abs(tau))
    tau1 = tau + margin
    # forward positivity certificate: all positive and eventually increasing
    horizon = max(4 * depth, start + 10 * L)
    taus_all = [tau1]
    for n in range(1, horizon):
        pn = p_at(n)
        taus_all.append(taus_all[-1] / (pn * R * R) - (1.0 - pn) / (pn * R))
    if any(v <= 0 for v in taus_all):
        return None
    if taus_all[-1] <= taus_all[-1 - L]:
        return None
    keep = start + 2 * L
    return TailWeightForm(
        "cusp",
        {
            "R": R,
            "tau": taus_all[:keep],
            "p_start": start,
            "period": L,
            "p_period": p_per,
        },
    )


def _geometric_best(mc, t, xi_lo=1.0 + 1e-9, xi_hi=64.0):
    """Best drift data (xi, scale, rho) for t(up_n) = c xi^n, t(dn_n) = c xi^(n-1).

    Interior ratios do not see the scale c; the exit constraint at the level-1
    down state (targets of weight 1 in B) does, so c is chosen last to push
    the exit ratio down to the interior level.  Assumes the tail is the only
    one at its attach vertex (cross-tail entries are caught by verification).
    """
    blk = mc.tails[t]
    start, L = blk.start, blk.period
    levels = sorted(set(range(1, start + L + 1)))
    e1 = tail_edge_id(t, 1, True)
    r1 = tail_edge_id(t, 1, False)
    p_re1 = mc.p_of(r1, e1) if e1 in mc.states and r1 in mc.states else 0.0
    p_exit = float(mc.p[mc.pos(r1)].sum()) - p_re1 if r1 in mc.states else 0.0

    def interior(xi):
        worst = 0.0
        for n in levels:
            pu, pt = blk.p_up.get(n), blk.p_turn.get(n, 0.0)
            if pu is not None:
                worst = max(worst, pu * xi + pt / xi)
        for n in levels:
            pd, pr = blk.p_dn.get(n), blk.p_re.get(n, 0.0)
            if pd is not None:
                worst = max(worst, pd / xi + pr * xi)
        return worst

    def ratio(xi):
        # exit ratio tends to p_re1 * xi as the scale grows
        return max(interior(xi), p_re1 * xi)

    lo, hi = xi_lo, xi_hi
    for _ in range(200):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if ratio(m1) <= ratio(m2):
            hi = m2
        else:
            lo = m1
    xi = 0.5 * (lo + hi)
    rho = ratio(xi) * (1.0 + 1e-9) + 1e-12
    head = rho - p_re1 * xi
    scale = max(1.0, p_exit / head) if head > 0 else None
    if scale is None:
        return xi, None, float("inf")
    return xi, scale, max(rho, p_exit / scale + p_re1 * xi)


def tail_certificate(mc: MarkovChain, tail_index=None, rho_tol=1e-9) -> DriftCertificate:
    """Analytic drift weights on every tail, B = core states.

    Cuspidal tails use the exact-equality recursion with the largest feasible
    R (bisection); other tails use the best geometric profile.  Raises
    NoGeometricDriftError when no family yields rho < 1.
    """
    mat = mc.mat
    if mat is None or not mat.core.tails:
        raise NoGeometricDriftError("chain has no tails to certify")
    tails_idx = range(len(mat.core.tails)) if tail_index is None else [tail_index]
    forms = [None] * len(mat.core.tails)
    rho = 0.0
    for t in tails_idx:
        spec = mat.core.tails[t]
        best = None
        blk = mc.tails[t]
        climb = math.prod(blk.period_p_up())
        if spec.is_cuspidal() and climb > 0.0:
            R_max = climb ** (-1.0 / (2 * blk.period))
            lo, hi = 1.0 + 1e-12, R_max
            feasible = None
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                w = _cusp_weights(mc, t, mid)
                if w is not None:
                    feasible = (mid, w)
                    lo = mid
                else:
                    hi = mid
            if feasible is not None:
                best = (1.0 / feasible[0], feasible[1])
        xi, scale, r_geo = _geometric_best(mc, t)
        if scale is not None and r_geo < 1.0 and (best is None or r_geo < best[0]):
            best = (r_geo, TailWeightForm("geometric", {"xi": xi, "scale": scale}))
        if best is None or best[0] >= 1.0:
            raise NoGeometricDriftError(f"tail {t}: no drift family with ratio < 1")
        forms[t] = best[1]
        rho = max(rho, best[0])
    core_states = tuple(s for s in mc.states if mat.edge_meta[s][0] == "core")
    t_core = {s: 1.0 for s in core_states}
    cert = DriftCertificate(
        t_core=t_core,
        B=core_states,
        rho=min(rho + rho_tol, 1.0 - 1e-12),
        tails=tuple(forms),
        provenance="analytic-tail",
    )
    rep = verify_certificate(mc, cert)
    if not rep.ok:
        # numerical slack from the block detection; relax rho to the observed max
        if rep.max_ratio < 1.0:
            cert = DriftCertificate(t_core, core_states, rep.max_ratio + rho_tol, tuple(forms), "analytic-tail")
        else:
            raise NoGeometricDriftError(f"analytic weights verify at ratio {rep.max_ratio} >= 1")
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
    block = mc.p[np.ix_(idx, idx)]
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
    t = np.ones(len(mc.states))
    for i, s in enumerate(mc.states):
        if s in Bset:
            t[i] = 1.0
        elif s in t_boundary:
            t[i] = t_boundary[s]
    if taboo is None:
        return t
    if taboo.rho_ff >= rho:
        return None
    rhs = (taboo.p_other @ t[taboo.other]) / rho
    try:
        sol = np.linalg.solve(np.eye(len(taboo.idx)) - taboo.block / rho, rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(sol).all() or sol.min() <= 0 or sol.max() > VALUE_CAP:
        return None
    t[taboo.idx] = sol
    return t


def search_certificate(mc: MarkovChain, B0=None, rho_tol=1e-6) -> SearchOutcome:
    """Bisection on rho with a feasibility solve per candidate.

    Finite chains: minimal-supersolution solve with t = 1 on B.  Tailed
    chains: analytic tail feasibility at the candidate ratio, a core solve for
    any states left outside B, and a tail rescaling loop for the junctions.
    The free states, their taboo block P_ff and its Perron value rho(P_ff),
    each tail's best geometric profile and the junction rows do not depend on
    the candidate, so they are computed at most once per search; a candidate
    at or below rho(P_ff) is rejected without a linear solve.
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
    geometric = {}  # tail -> _geometric_best, found when a probe first needs it
    # junctions: the level-1 down states outside B, whose drift the tail
    # rescaling loop pushes down to the candidate
    junctions = []
    for t in range(len(mat.core.tails) if has_tails else 0):
        r1 = tail_edge_id(t, 1, False)
        if r1 in mc.states and r1 not in Bset:
            junctions.append((t, mc.pos(r1)))
    j_idx = np.array([i for _, i in junctions], dtype=int)
    j_rows = mc.p[j_idx]
    j_nz = np.nonzero(j_rows)

    def tail_feasible(rho):
        forms = [None] * len(mat.core.tails) if has_tails else []
        if not has_tails:
            return forms
        for t, spec in enumerate(mat.core.tails):
            got = None
            if spec.is_cuspidal():
                blk = mc.tails[t]
                if rho > math.prod(blk.period_p_up()) ** (1.0 / (2 * blk.period)):
                    w = _cusp_weights(mc, t, 1.0 / rho)
                    if w is not None:
                        got = w
            if got is None:
                if t not in geometric:
                    geometric[t] = _geometric_best(mc, t)
                xi, scale, r_geo = geometric[t]
                if scale is not None and r_geo <= rho:
                    got = TailWeightForm("geometric", {"xi": xi, "scale": scale})
            if got is None:
                return None
            forms[t] = got
        return forms

    def feasible(rho):
        forms = tail_feasible(rho)
        if forms is None:
            return None
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
            for (t, _), ratio in zip(junctions, _drift_sums(j_rows, j_nz, w) / w[j_idx]):
                if ratio > rho:
                    forms[t] = forms[t].scaled(ratio / rho * (1.0 + 1e-9))
                    bumped = True
            if not bumped:
                return None
        return None

    hi = 1.0 - 1e-9
    top = feasible(hi)
    if top is None:
        return SearchOutcome(None, False, 1.0, ("no certificate even at rho ~ 1",))
    lo = 0.0
    best = top
    while hi - lo > rho_tol:
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
    M = max over B of 1/t_j.  The taboo powers are taken one at a time, so the
    replay holds a fixed number of S x S matrices, not n_max + 1 of them.
    """
    Bset = set(cert.B)
    weights = np.array([cert.weight(mc, s) for s in mc.states])
    powers = iter_taboo_matrix_powers(mc, cert.B, n_max)
    next(powers)  # p^{(0),B} = I
    rows = [i for i, s in enumerate(mc.states) if s not in Bset and mc.interior[i]]
    bcols = [i for i, s in enumerate(mc.states) if s in Bset]
    M = max(1.0 / weights[j] for j in bcols) if bcols else 0.0
    viol = 0
    max_slack = 0.0
    ret_ok = True
    t_ratio = np.outer(weights[rows], 1.0 / weights)
    for n, Pn in enumerate(powers, start=1):
        rho_n = cert.rho**n
        bound = t_ratio * rho_n
        diff = Pn[rows] - bound
        if (diff > 1e-12).any():
            viol += int((diff > 1e-12).sum())
        max_slack = max(max_slack, float(diff.max()) if diff.size else 0.0)
        if bcols:
            ret = Pn[np.ix_(rows, bcols)].sum(axis=1)
            if (ret > M * weights[rows] * rho_n + 1e-12).any():
                ret_ok = False
    return LemmaBoundReport(n_max, viol, max_slack, ret_ok)


def degradation_probe(gammas, betas, truncations, B=("inf",), rho_tol=1e-6):
    """Best feasible rho per truncation of the star family, with the drift
    lower bound sup gamma outside B."""
    from .chain import counterexample_chain

    rows = []
    for N in truncations:
        mc = counterexample_chain(gammas, betas, N)
        out = search_certificate(mc, B0=B, rho_tol=rho_tol)
        gmax = max(
            float(gammas(n)) for n in range(-N, N + 1) if str(n) not in set(B)
        )
        rows.append(
            {
                "N": int(N),
                "rho": out.infimum_rho if out.feasible else 1.0,
                "feasible": out.feasible,
                "gamma_bound": gmax,
            }
        )
    return rows
