"""Perron solvers must not report an unconverged estimate."""

import math

import numpy as np
import pytest

from treegibbs.counting import _perron_vector, orbit_oracle, renewal_constant
from treegibbs.errors import NoPositiveSolutionError
from treegibbs.gibbs import critical_exponent, spectral_radius, transfer_matrix
from treegibbs.graph import graph_from_dict, propagate_orders


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
    # from the all-ones start the iterates of this weighted 2-cycle alternate
    # between (2, 1)/3 and (1, 1)/2 forever
    M = np.array([[0.0, 2.0], [1.0, 0.0]])
    with pytest.raises(NoPositiveSolutionError):
        _perron_vector(M, 0.0)
