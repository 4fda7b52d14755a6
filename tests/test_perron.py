"""Perron solvers must not report an unconverged estimate."""

import ast
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treegibbs
from treegibbs.chain import counterexample_chain
from treegibbs.counting import orbit_oracle, renewal_constant
from treegibbs.errors import NoPositiveSolutionError
from treegibbs.gibbs import critical_exponent, perron_vector, spectral_radius, transfer_matrix
from treegibbs.graph import graph_from_dict, propagate_orders
from treegibbs.wsg import degradation_probe


def _edge(k, u, v):
    return [
        {"id": f"e{k}", "rev": f"e{k}r", "from": u, "to": v, "index": 1},
        {"id": f"e{k}r", "rev": f"e{k}", "from": v, "to": u, "index": 1},
    ]


# A connected bipartite core with degrees 3 and 4 on both sides (28 states).
# Power iteration on T + I from the all-ones vector gives the estimate 3.6
# twice in a row here, although the Perron value of T is 2.5747430738870.
CORE_3_4 = {
    "vertices": [f"v{i}" for i in range(8)],
    "edges": [
        half
        for k, (u, v) in enumerate(
            [
                ("v0", "v1"), ("v1", "v2"), ("v0", "v3"), ("v3", "v4"), ("v4", "v5"),
                ("v3", "v6"), ("v4", "v7"), ("v0", "v7"), ("v2", "v5"), ("v2", "v7"),
                ("v4", "v5"), ("v6", "v5"), ("v6", "v1"), ("v6", "v3"),
            ]
        )
        for half in _edge(k, u, v)
    ],
    "tails": [],
    "funnels": [],
    "orders": {"base_vertex": "v0", "base_value": "1"},
}


def test_spectral_radius_is_not_fooled_by_equal_estimates():
    g = graph_from_dict(CORE_3_4)
    _, T = transfer_matrix(g, None, 0.0)
    assert T.shape == (28, 28)
    lam = float(max(abs(np.linalg.eigvals(T))))
    sr = spectral_radius(T)
    assert type(sr) is float
    assert abs(sr - lam) < 1e-12
    assert abs(critical_exponent(g).delta - math.log(lam)) < 1e-12


def test_renewal_constant_matches_the_orbit_counts():
    g = graph_from_dict(CORE_3_4)
    orders = propagate_orders(g)
    _, T = transfer_matrix(g, None, 0.0)
    delta = math.log(max(abs(np.linalg.eigvals(T))))
    # N(80): orbit points within distance 80 of the base vertex
    n80 = orbit_oracle(g, orders, None, g.base_vertex, 80).cumulative(80)
    assert abs(renewal_constant(g, orders).value - n80 * math.exp(-80 * delta)) < 1e-8


def test_perron_vector_raises_when_iteration_does_not_settle():
    # the eigenvalues of this weighted 2-cycle are +-sqrt(2), so the
    # least-squares null vector of M - 0 I leaves a residual far above the
    # 1e-10 gate and 0.0 is rejected as an eigenvalue
    M = np.array([[0.0, 2.0], [1.0, 0.0]])
    with pytest.raises(NoPositiveSolutionError):
        perron_vector(M, 0.0)


def _star_gamma(n):
    return 1.0 - 1.0 / (1.0 + abs(n))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("N", range(2, 49))
def test_spectral_radius_is_exact_on_the_star_taboo_block(N):
    # the taboo block off "inf" is diagonal with top entry gamma_N = N/(N+1),
    # taken twice (n = +-N): a reducible block whose bracket never shrinks
    mc = counterexample_chain(_star_gamma, lambda n: 1.0, N)
    rho = spectral_radius(mc.p[1:, 1:])
    assert abs(rho - N / (N + 1)) <= 1e-15 * (N / (N + 1))


def test_degradation_probe_sits_on_the_perron_floor():
    rho_tol = 1e-6
    for row in degradation_probe(_star_gamma, lambda n: 1.0, (10, 20), rho_tol=rho_tol):
        N = row["N"]
        want = N / (N + 1) * (1.0 + rho_tol)
        assert row["feasible"] and abs(row["rho"] - want) <= 1e-15 * want


@st.composite
def irreducible_kernels(draw):
    """Row-stochastic kernels on 1..8 states whose support holds the cycle i -> i+1."""
    n = draw(st.integers(min_value=1, max_value=8))
    weight = st.floats(min_value=0.0, max_value=1.0)
    p = np.array([[draw(weight) for _ in range(n)] for _ in range(n)])
    for i in range(n):
        p[i, (i + 1) % n] = draw(st.floats(min_value=0.1, max_value=1.0))
    return p / p.sum(axis=1, keepdims=True)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(irreducible_kernels(), st.floats(min_value=1.5, max_value=4.0))
def test_perron_vector_is_the_stationary_law(p, lam):
    pi = perron_vector(p.T, 1.0)
    assert pi.min() > 0.0
    assert np.abs(pi @ p - pi).sum() <= 1e-13
    # every eigenvalue of a stochastic kernel has modulus at most 1
    with pytest.raises(NoPositiveSolutionError):
        perron_vector(p.T, lam)


def _side(a, x):
    return (a > x) - (a < x)


def _side_cases():
    """(name, T): seeded nonnegative matrices for the early side decision."""
    rng = np.random.default_rng(23)
    for n in (1, 2, 4, 8):
        T = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
        T[np.arange(n), (np.arange(n) + 1) % n] += 0.1  # the cycle i -> i+1
        yield f"irreducible-{n}", T * rng.uniform(0.1, 5.0)
    for n in (3, 6):
        T = rng.random((n, n))
        T[0, :] = 0.0
        yield f"zero-row-{n}", T
        T = rng.random((n, n))
        T[:, -1] = 0.0
        yield f"zero-column-{n}", T
    # a zero row beside two slowly separating diagonal entries: the bracket
    # stalls at [1, 301] and v underflows, so the full run ends in eigvals
    yield "underflow", np.diag([300.0, 299.9, 0.0])
    yield "zero", np.zeros((3, 3))
    yield "empty", np.zeros((0, 0))


@pytest.mark.parametrize("case", list(_side_cases()), ids=lambda case: case[0])
def test_spectral_radius_versus_lands_on_the_full_runs_side(monkeypatch, case):
    name, T = case
    dense = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda M: dense.append(1) or eigvals(M))
    sr = spectral_radius(T)
    assert (len(dense) > 0) == (name == "underflow")
    xs = [sr, math.nextafter(sr, math.inf), math.nextafter(sr, -math.inf), 0.0, 1.0, -0.5, -1.0, -3.0]
    for rel in (1e-13, 1e-9, 1e-3, 1.0):
        xs += [sr * (1.0 + rel), sr * (1.0 - rel), sr + rel, sr - rel]
    for x in xs:
        got = spectral_radius(T, versus=x)
        assert type(got) is float
        assert _side(got, x) == _side(sr, x), (x, got, sr)
        if abs(x - sr) <= 1e-13 * max(1.0, sr):
            # no bracket clears x by the margin: the full run's bits
            assert got == sr


def test_spectral_radius_versus_one_on_a_stochastic_matrix_is_the_full_run():
    rng = np.random.default_rng(7)
    for n in (1, 3, 5):
        P = rng.random((n, n)) + 0.05
        P /= P.sum(axis=1, keepdims=True)
        sr = spectral_radius(P)
        assert spectral_radius(P, versus=1.0).hex() == sr.hex()


def test_a_hand_off_runs_the_power_loop_once(monkeypatch):
    from treegibbs import gibbs
    from treegibbs.fixtures import get
    from treegibbs.gibbs import Potential
    from treegibbs.graph import materialize

    calls = []
    run = gibbs._power_run

    def counted(T, versus):
        calls.append(T.shape[0])
        return run(T, versus)

    monkeypatch.setattr(gibbs, "_power_run", counted)
    # a Jordan block hands off: the loop returns the dense value itself
    J = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert run(J, None) == (float(max(abs(np.linalg.eigvals(J)))), None)
    assert spectral_radius(J) == 1.0 and calls == [2]
    # a column-stochastic block contracting at 1 - 3e-7 per step hands off
    # too; the shadow's class solve and the exponent take the loop's value
    eps = 1e-7
    B = np.array([[1.0 - eps, 2.0 * eps], [eps, 1.0 - 2.0 * eps]])
    calls.clear()
    u = gibbs._positive_fixed_vector(B)
    assert calls == [2] and np.abs(B @ u - u).max() <= 1e-12
    g = get("single_edge_3")
    monkeypatch.setattr(gibbs.TransferOperator, "matrix", lambda op, s: B)
    calls.clear()
    assert gibbs._critical_one(gibbs.TransferOperator(materialize(g, 0), Potential.zero(g))) == (0.0, None, None)
    assert calls == [2]


# the only functions of the package that may call a dense eigen- or
# least-squares solver: the Perron kernel (the power loop's hand-off and
# perron_vector), the QBD characteristic matrix (defective at a cusp's
# minimiser) and the second eigenvalue of a chain window, which is not a
# Perron quantity
_DENSE_SOLVES_ALLOWED = {
    ("gibbs", "_power_run"),
    ("gibbs", "perron_vector"),
    ("wsg", "_perron"),
    ("chain", "second_eigenvalue_modulus"),
}


def _dense_solve_sites(module, tree, scope=None):
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name if scope is None else f"{scope}.{node.name}"
            yield from _dense_solve_sites(module, node, name)
            continue
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                f = call.func
                callee = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if callee in ("eig", "eigvals", "lstsq"):
                    yield module, scope or "<module>"


def test_no_dense_perron_solve_outside_the_kernel():
    sites = set()
    for path in sorted(pathlib.Path(treegibbs.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        sites |= set(_dense_solve_sites(path.stem, tree))
    assert ("gibbs", "_power_run") in sites
    assert sites <= _DENSE_SOLVES_ALLOWED, sorted(sites - _DENSE_SOLVES_ALLOWED)
