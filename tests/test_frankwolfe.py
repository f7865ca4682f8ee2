import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexkit import frankwolfe
from convexkit.core import NumericalError, ProblemOracle, make_rng

vec = st.lists(st.floats(min_value=-5, max_value=5), min_size=3, max_size=3)


@settings(max_examples=60, deadline=None)
@given(vec)
def test_loo_box_optimality(ps):
    p = np.array(ps)
    s = frankwolfe.loo_box(p, -1.0, 2.0)
    rng = make_rng(0)
    for _ in range(5):
        z = rng.uniform(-1.0, 2.0, size=3)
        assert p @ s <= p @ z + 1e-9


@settings(max_examples=60, deadline=None)
@given(vec)
def test_loo_l1ball_optimality(ps):
    p = np.array(ps)
    s = frankwolfe.loo_l1ball(p, 2.0)
    assert np.abs(s).sum() <= 2.0 + 1e-12
    rng = make_rng(1)
    for _ in range(5):
        z = rng.normal(size=3)
        z = 2.0 * z / max(np.abs(z).sum(), 1e-12) * rng.uniform(0, 1)
        assert p @ s <= p @ z + 1e-9


@settings(max_examples=60, deadline=None)
@given(vec)
def test_loo_simplex_is_vertex(ps):
    p = np.array(ps)
    s = frankwolfe.loo_simplex(p)
    assert s.sum() == 1.0 and np.count_nonzero(s) == 1
    assert p @ s == np.min(p)


def test_fw_iterate_stays_in_hull_with_convex_weights():
    c = np.array([0.2, -0.1])
    f = ProblemOracle(2, lambda x: 0.5 * float((x - c) @ (x - c)),
                      lambda x: x - c, beta=1.0, f_star=0.0, x_star=c)
    loo = lambda p: frankwolfe.loo_box(p, -1.0, 1.0)
    x0 = loo(np.ones(2))
    tr, verts = frankwolfe.run_fw(f, loo, x0, 30)
    weights = np.array([w for _, w in verts])
    assert abs(weights.sum() - 1.0) < 1e-12
    assert np.all(weights >= -1e-12)
    recon = sum(w * v for v, w in verts)
    assert np.allclose(recon, tr.final_point, atol=1e-12)


def test_fw_duality_gap_upper_bounds_gap():
    c = np.array([0.3, 0.3, -0.2])
    f = ProblemOracle(3, lambda x: 0.5 * float((x - c) @ (x - c)),
                      lambda x: x - c, beta=1.0, f_star=0.0, x_star=c)
    loo = lambda p: frankwolfe.loo_box(p, -1.0, 1.0)
    tr, _ = frankwolfe.run_fw(f, loo, loo(np.ones(3)), 40)
    fw_gap = tr.custom("fw_gap")
    gaps = tr.gaps()
    for n in range(41):
        assert gaps[n] <= fw_gap[n] + 1e-12


def test_caratheodory_sparse_representation():
    loo = lambda p: frankwolfe.loo_box(p, -1.0, 1.0)
    target = np.array([0.25, -0.5, 0.125, 0.0])
    D = 4.0  # diameter of [-1,1]^4
    verts, weights, err = frankwolfe.approx_caratheodory(target, loo, 0.1, D)
    recon = sum(w * v for v, w in zip(verts, weights))
    assert np.linalg.norm(recon - target) <= 0.1 * D + 1e-12
    assert abs(sum(weights) - 1.0) < 1e-9
    assert len(verts) <= 4.0 / 0.1 ** 2 + 2


def test_caratheodory_budget_exhaustion():
    loo = lambda p: frankwolfe.loo_box(p, -1.0, 1.0)
    with pytest.raises(NumericalError):
        frankwolfe.approx_caratheodory(np.zeros(3), loo, 1e-9, 2 * np.sqrt(3),
                                       max_iter=3)


def _add_vertex_scan(vertices, weights, s, h):
    """The reference: the np.array_equal scan over every listed vertex."""
    weights[:] = [w * (1.0 - h) for w in weights]
    for i, v in enumerate(vertices):
        if np.array_equal(v, s):
            weights[i] += h
            return
    vertices.append(s.copy())
    weights.append(h)


# each oracle's vertices hold zeros, whose sign the tests flip
ORACLES = {"box": lambda p: frankwolfe.loo_box(p, -1.0, 0.0),
           "l1ball": lambda p: frankwolfe.loo_l1ball(p, 2.0),
           "simplex": frankwolfe.loo_simplex}


def _bytes(vertices):
    return [v.tobytes() for v in vertices]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(ORACLES)),
       st.lists(st.tuples(st.lists(st.floats(-3, 3), min_size=3, max_size=3),
                          st.booleans(), st.booleans()), min_size=1, max_size=40))
def test_add_vertex_matches_the_array_equal_scan(name, steps):
    got, want = ([], [], {}), ([], [])
    for n, (p, flip_zeros, nan) in enumerate(steps):
        s = ORACLES[name](np.array(p))
        if flip_zeros:  # -0.0 for 0.0 and back: equal vertices
            s = np.where(s == 0, -s, s)
        if nan:  # equal to no vertex, itself included
            s[n % 3] = math.nan
        h = 1.0 if n == 0 else 2.0 / (n + 1.0)
        frankwolfe._add_vertex(*got, s, h)
        _add_vertex_scan(*want, s, h)
    assert _bytes(got[0]) == _bytes(want[0])
    assert got[1] == want[1]


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_run_fw_and_caratheodory_keep_the_scan_vertices_and_weights(name, monkeypatch):
    loo = ORACLES[name]
    target = {"box": [-0.3, -0.6, -0.1], "l1ball": [0.2, -0.1, 0.05],
              "simplex": [0.2, 0.5, 0.3]}[name]
    c = np.array(target)
    f = ProblemOracle(3, lambda x: 0.5 * float((x - c) @ (x - c)), lambda x: x - c,
                      beta=1.0, f_star=0.0, x_star=c)
    x0 = loo(np.ones(3))  # a vertex the loop returns to
    runs = []
    for scan in (False, True):
        if scan:
            monkeypatch.setattr(frankwolfe, "_add_vertex", lambda vertices, weights, index, s, h:
                                _add_vertex_scan(vertices, weights, s, h))
        _, fw = frankwolfe.run_fw(f, loo, x0, 80)
        verts, weights, _ = frankwolfe.approx_caratheodory(c, loo, 0.05, 4.0)
        runs.append((_bytes(v for v, _ in fw), [w for _, w in fw], _bytes(verts), weights))
    assert len(runs[0][0]) < 81  # duplicates were merged
    assert runs[0] == runs[1]
