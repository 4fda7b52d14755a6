"""Tail resummation: TailGreen against the plain fixed-point loop, and
compute_gibbs on random tailed graphs.

``_reference_solve`` is the fixed-point loop without the early divergence
exit, kept here as the reference: every probe must agree with it on
``converged`` and, when converged, on every g_n, bit for bit.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import TAILED_FIXTURES, tailed_graphs
from treegibbs import fixtures as fx
from treegibbs.errors import DivergenceError, TreeGibbsError
from treegibbs.gibbs import TailGreen, TailPotential, compute_gibbs, tail_critical_value
from treegibbs.graph import TailSpec, validate_graph


def _reference_solve(spec, tpot, s, cap=1e12, maxit=200000):
    """(converged, {n: g_n} for n below the period start, periodic phases)."""
    start = max(spec.period_start, len(tpot.prefix) + 1)
    L = math.lcm(len(spec.period), len(tpot.period))

    def step(n):
        def level(k):
            I, J = spec.pair(k)
            fu, fd = tpot.pair(k)
            return I, J, math.exp(fu - s), math.exp(fd - s)

        I, J, phi, psi = level(n)
        I1, J1, phi1, psi1 = level(n + 1)
        return (I - 1) * psi, J1 * phi1 * I * psi, (J1 - 1) * phi1

    def apply(params, gval):
        for a, b, c in reversed(params):
            den = 1.0 - c * gval
            if den <= 0.0 or not math.isfinite(gval):
                return None
            gval = a + b * gval / den
        return gval

    def quadratic_root(params, current):
        A, B, C, D = 1.0, 0.0, 0.0, 1.0
        for a, b, c in params:
            A, B, C, D = A * (b - a * c) + B * (-c), A * a + B, C * (b - a * c) + D * (-c), C * a + D
            scale = max(abs(A), abs(B), abs(C), abs(D), 1.0)
            A, B, C, D = A / scale, B / scale, C / scale, D / scale
        if abs(C) < 1e-300:
            if D - A <= 0:
                return None
            return B / (D - A)
        disc = (D - A) ** 2 + 4.0 * C * B
        if disc < 0:
            return None
        roots = [((A - D) + sgn * math.sqrt(disc)) / (2.0 * C) for sgn in (1.0, -1.0)]
        cands = [r for r in roots if r >= current - 1e-12]
        if not cands:
            return None
        return min(cands)

    params = [step(start + k) for k in range(L)]
    gval = 0.0
    it = 0
    while it < maxit:
        new = apply(params, gval)
        if new is None or new > cap:
            return False, {}, None
        if abs(new - gval) < 1e-16 * max(1.0, abs(new)):
            gval = new
            break
        if it == 256:
            jump = quadratic_root(params, gval)
            if jump is not None:
                applied = apply(params, jump)
                if applied is not None and abs(applied - jump) < 1e-12 * max(1.0, jump):
                    gval = jump
                    break
        gval = new
        it += 1
    else:
        return False, {}, None
    phase = [0.0] * L
    phase[0] = gval
    for k in range(L - 1, 0, -1):
        nxt = phase[(k + 1) % L] if k + 1 < L else gval
        val = apply([step(start + k)], nxt)
        if val is None:
            return False, {}, None
        phase[k] = val
    values = {}
    for n in range(start - 1, 0, -1):
        nxt = phase[(n + 1 - start) % L] if n + 1 >= start else values[n + 1]
        val = apply([step(n)], nxt)
        if val is None or val > cap:
            return False, {}, None
        values[n] = val
    return True, values, phase


def _assert_matches_reference(spec, tpot, s):
    tg = TailGreen(spec, tpot, s)
    converged, values, phase = _reference_solve(spec, tpot, s)
    assert tg.converged == converged, s
    if converged:
        start = max(spec.period_start, len(tpot.prefix) + 1)
        got = [tg.g(n) for n in range(1, start + len(phase))]
        assert got == [values[n] for n in range(1, start)] + phase, s


def _probes(s_tail):
    """s_tail, a few ulps either side, and s_tail +- 10^-j."""
    out = [s_tail]
    up = down = s_tail
    for _ in range(3):
        up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
        out += [up, down]
    for j in (1, 2, 4, 6, 8, 10, 12):
        out += [s_tail + 10.0**-j, s_tail - 10.0**-j]
    return out


def _swapped(tpot):
    return TailPotential(
        prefix=tuple((b, a) for a, b in tpot.prefix),
        period=tuple((b, a) for a, b in tpot.period),
    )


_index = st.integers(min_value=1, max_value=6)
_pair = st.tuples(_index, _index)
_cusp_pair = st.tuples(_index, st.just(1))
_flat_pair = st.tuples(st.just(1), _index)
_period = st.one_of(
    st.lists(_pair, min_size=1, max_size=3),
    st.lists(_cusp_pair, min_size=1, max_size=3),
    st.lists(_flat_pair, min_size=1, max_size=3),
)
_value = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
_vpair = st.tuples(_value, _value)


@st.composite
def _tails(draw):
    spec = TailSpec(
        attach="a",
        prefix=tuple(draw(st.lists(_pair, max_size=2))),
        period=tuple(draw(_period)),
    )
    tpot = TailPotential(
        prefix=tuple(draw(st.lists(_vpair, max_size=2))),
        period=tuple(draw(st.lists(_vpair, min_size=1, max_size=3))),
    )
    return spec, tpot


@settings(deadline=None, derandomize=True, max_examples=25)
@given(_tails())
def test_early_exit_matches_the_loop_on_random_tails(tail):
    spec, tail_pot = tail
    for tpot in (tail_pot, _swapped(tail_pot)):
        try:
            s_tail = tail_critical_value(spec, tpot)
        except DivergenceError:
            continue
        for s in _probes(s_tail) if math.isfinite(s_tail) else (-3.0, 0.0, 3.0):
            _assert_matches_reference(spec, tpot, s)


@pytest.mark.parametrize("name", TAILED_FIXTURES + ("critical_ray_5",))
def test_early_exit_matches_the_loop_on_fixtures(name):
    for spec in fx.get(name).tails:
        tpot = TailPotential()
        for s in _probes(tail_critical_value(spec, tpot)):
            _assert_matches_reference(spec, tpot, s)


def test_stall_case_is_left_to_the_loop():
    # g -> 2 g + e^-40 has no fixed point g >= 0, but its first step moves
    # less than the loop's 1e-16 stall tolerance, so the loop reports
    # convergence; the early exit must not change that verdict
    spec = TailSpec(attach="a", period=((2, 1),))
    tpot = TailPotential(period=((40.0, -40.0),))
    tg = TailGreen(spec, tpot, 0.0)
    assert tg.converged
    assert tg.g(1) == math.exp(-40.0)
    _assert_matches_reference(spec, tpot, 0.0)


@settings(deadline=None, derandomize=True, max_examples=30)
@given(tailed_graphs())
def test_compute_gibbs_on_random_tailed_graphs(drawn):
    g, F = drawn
    assume(validate_graph(g).ok)
    try:
        gd = compute_gibbs(g, F, depth=40)
    except TreeGibbsError as exc:
        # the one documented error that is itself a breach of the property
        assert "forward/backward exponents differ" not in str(exc)
        return
    assert abs(gd.delta - gd.delta_minus) <= 1e-9 * max(1.0, abs(gd.delta))
    # relative to the largest shadow value: down-edge shadows grow like
    # e^{delta n} along the tail, and at u ~ 1e9 one rounding step exceeds 1e-8
    for res, u in ((gd.residual_plus, gd.u_plus), (gd.residual_minus, gd.u_minus)):
        assert res <= 1e-8 * max(1.0, max(u.values()))
    assert gd.method["s_tail"] < gd.delta
