"""Tail resummation: TailGreen's closed form against the plain fixed-point
loop, and compute_gibbs on random tailed graphs.

``_reference_solve`` is the fixed-point loop iterated from g = 0, with its
1e12 cap and its quadratic jump at step 256, kept here as the reference.  A
converged probe must solve every level's recursion inside its pole, agree
with the loop's verdict (except where the loop gave up on its cap), and
agree with the loop's values away from the critical value s_tail, where the
fixed point is nearly a double root and neither answer has full precision.
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


def _level_map(spec, tpot, s, n):
    """(a, b, c) of g_n = a + b g_{n+1} / (1 - c g_{n+1})."""
    I, _ = spec.pair(n)
    _, J1 = spec.pair(n + 1)
    psi = math.exp(tpot.pair(n)[1] - s)
    phi1 = math.exp(tpot.pair(n + 1)[0] - s)
    return (I - 1) * psi, J1 * phi1 * I * psi, (J1 - 1) * phi1


def _assert_matches_reference(spec, tpot, s, s_tail):
    tg = TailGreen(spec, tpot, s)
    converged, values, phase = _reference_solve(spec, tpot, s)
    if not tg.converged:
        assert not converged, s
        return
    start = max(spec.period_start, len(tpot.prefix) + 1)
    L = math.lcm(len(spec.period), len(tpot.period))
    # (a) every level's recursion holds, inside its pole
    for n in range(1, start + L):
        a, b, c = _level_map(spec, tpot, s, n)
        den = 1.0 - c * tg.g(n + 1)
        assert den > 0.0, (s, n)
        assert math.isclose(tg.g(n), a + b * tg.g(n + 1) / den, rel_tol=1e-10), (s, n)
    got = [tg.g(n) for n in range(1, start + L)]
    if not converged:
        # (b) the loop only gives up on a convergent tail at its 1e12 cap
        assert max(got) > 1e12, s
    elif abs(s - s_tail) >= 1e-6:
        # (c) the loop's values, away from the nearly double root at s_tail
        want = [values[n] for n in range(1, start)] + phase
        assert all(math.isclose(x, y, rel_tol=1e-9) for x, y in zip(got, want)), s


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
def test_closed_form_matches_the_loop_on_random_tails(tail):
    spec, tail_pot = tail
    for tpot in (tail_pot, _swapped(tail_pot)):
        try:
            s_tail = tail_critical_value(spec, tpot)
        except DivergenceError:
            continue
        for s in _probes(s_tail) if math.isfinite(s_tail) else (-3.0, 0.0, 3.0):
            _assert_matches_reference(spec, tpot, s, s_tail)


@pytest.mark.parametrize("name", TAILED_FIXTURES + ("critical_ray_5",))
def test_early_exit_matches_the_loop_on_fixtures(name):
    # named for the early divergence exit the closed form replaced; it checks
    # the closed form against the loop on the shipped tails
    for spec in fx.get(name).tails:
        tpot = TailPotential()
        s_tail = tail_critical_value(spec, tpot)
        for s in _probes(s_tail):
            _assert_matches_reference(spec, tpot, s, s_tail)


def test_stall_case_diverges():
    # g -> 2 g + e^-40 has no fixed point g >= 0; the loop's first step moves
    # less than its 1e-16 stall tolerance, so the loop calls it converged
    spec = TailSpec(attach="a", period=((2, 1),))
    tpot = TailPotential(period=((40.0, -40.0),))
    assert not TailGreen(spec, tpot, 0.0).converged
    assert _reference_solve(spec, tpot, 0.0)[0]


def test_cap_case_converges():
    # the periodic part converges at s = 1; the prefix level's weight
    # e^30 lifts g_1 past the loop's 1e12 cap, where the loop gives up
    spec = TailSpec(attach="a", period=((2, 1),))
    tpot = TailPotential(prefix=((0.0, 30.0),))
    tg = TailGreen(spec, tpot, 1.0)
    assert tg.converged
    assert math.isclose(tg.g(1), 5.39e12, rel_tol=1e-3)
    assert not _reference_solve(spec, tpot, 1.0)[0]
    _assert_matches_reference(spec, tpot, 1.0, tail_critical_value(spec, tpot))
    # a g_1 past the float range is divergent, not converged at inf
    assert not TailGreen(spec, TailPotential(prefix=((0.0, 710.5),)), 1.0).converged


def test_unbranched_tail_has_zero_green_values():
    # I = 1 at every level: no excursion turns back, so g_n = +0.0 at every s,
    # including where the composed map's linear coefficient D - A vanishes
    spec = TailSpec(attach="a", prefix=((1, 2),), period=((1, 3),))
    for s in (-5.0, 0.0, 0.5 * math.log(3.0), 5.0):
        tg = TailGreen(spec, TailPotential(), s)
        assert tg.converged
        assert all(tg.g(n) == 0.0 and math.copysign(1.0, tg.g(n)) == 1.0 for n in (1, 2, 3))
    assert tail_critical_value(spec) == -math.inf


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
    assert gd.s_tail < gd.delta
