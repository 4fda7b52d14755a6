"""Orientation duality: every backward quantity is the forward code run on the
reversed potential e -> F(rev e), bit for bit."""

import functools
import random

import pytest

from treegibbs import fixtures as fx
from treegibbs.gibbs import (
    Potential,
    TailPotential,
    compute_gibbs,
    critical_exponent,
    shadow_residual,
    shadow_vector,
)
from treegibbs.graph import materialize

GRAPHS = {"parallel_edges": fx.parallel_edges, "cusp_22": lambda: fx.cusp_ray(2, 2)}
# each cusp_22 exponent solve spends about 2 s in the tail bisection, so the
# tailed graph gets one seeded potential and the core graph three
CASES = [("parallel_edges", 1), ("parallel_edges", 2), ("parallel_edges", 3), ("cusp_22", 1)]
DEPTH = 40


def _asymmetric(g, seed):
    # tail potentials follow the tail's own prefix and period lengths
    rng = random.Random(seed)

    def pairs(n):
        return tuple((rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)) for _ in range(n))

    return Potential(
        {e: rng.uniform(-0.1, 0.1) for e in g.edges},
        tuple(TailPotential(pairs(len(s.prefix)), pairs(len(s.period))) for s in g.tails),
    )


@functools.lru_cache(maxsize=None)
def _solved(name, seed):
    """(g, F, compute_gibbs(g, F), critical_exponent(g, F.reversed(g)))."""
    g = GRAPHS[name]()
    F = _asymmetric(g, seed)
    assert F.reversed(g) != F
    return g, F, compute_gibbs(g, F, depth=DEPTH), critical_exponent(g, F.reversed(g))


@pytest.mark.parametrize("name,seed", CASES)
def test_delta_minus_is_forward_exponent_of_reversed_potential(name, seed):
    # compute_gibbs copies delta_minus from critical_exponent(g, F)
    _, _, gd, ce_rev = _solved(name, seed)
    assert gd.delta_minus == ce_rev.delta
    assert ce_rev.delta_minus == gd.delta


@pytest.mark.parametrize("name,seed", CASES)
def test_backward_shadow_is_forward_shadow_of_reversed_potential(name, seed):
    g, F, gd, _ = _solved(name, seed)
    rev = F.reversed(g)
    assert gd.u_minus == shadow_vector(g, rev, gd.delta, depth=gd.depth)
    mat = materialize(g, gd.depth)
    assert gd.residual_minus == shadow_residual(rev, gd.delta, gd.u_minus, mat=mat)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_symmetric_potential_backward_fields_equal_forward(name):
    g = GRAPHS[name]()
    values = {}
    for k, e in enumerate(g.edges):
        values[e] = values.get(g.rev[e], 0.03 * (k + 1))
    F = Potential(values, tuple(TailPotential(period=((-0.05, -0.05),) * len(s.period)) for s in g.tails))
    assert F.reversed(g) == F
    gd = compute_gibbs(g, F, depth=DEPTH)
    assert gd.delta_minus == gd.delta != gd.delta_zero
    assert gd.u_minus == gd.u_plus
    assert gd.residual_minus == gd.residual_plus
