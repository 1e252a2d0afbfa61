"""Incidence/Laplacian construction and the pseudo-inverse solve."""

import numpy as np
import pytest

from oracles import subgraph_laplacian, unit_laplacian
from swingctl.netgraph import (
    GraphError,
    PowerNetwork,
    build_incidence,
    pseudo_inverse_apply,
)


def test_two_bus_incidence_and_laplacian(inc2):
    assert np.array_equal(inc2.b_mat, [[1.0], [-1.0]])
    assert np.array_equal(inc2.laplacian, [[1.0, -1.0], [-1.0, 1.0]])


def test_orientation_lower_index_is_source(net3, inc3):
    # +1 at the lower bus index of every edge, -1 at the higher
    for k, (i, j) in enumerate(net3.edges):
        assert i < j
        assert inc3.b_mat[i, k] == 1.0
        assert inc3.b_mat[j, k] == -1.0


def test_path_row_l1(inc3):
    assert np.array_equal(inc3.row_l1, [2.0, 4.0, 2.0])


def test_weighted_vs_unit_laplacian():
    net = PowerNetwork(
        inertia=np.ones(3),
        damping=np.ones(3),
        p_nom=np.zeros(3),
        edges=((0, 1), (1, 2)),
        susceptance=np.array([2.0, 3.0]),
    )
    inc = build_incidence(net)
    assert np.array_equal(inc.laplacian, [[2.0, -2.0, 0.0], [-2.0, 5.0, -3.0], [0.0, -3.0, 3.0]])
    assert np.array_equal(unit_laplacian(inc), [[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])


def test_39_bus_laplacian_nullspace(net39, inc39):
    assert net39.n_bus == 39
    assert np.abs(inc39.laplacian @ np.ones(39)).max() < 1e-12


def test_validation_errors():
    ones = np.ones(2)
    with pytest.raises(GraphError, match="inertia"):
        PowerNetwork(np.array([1.0, 0.0]), ones, np.zeros(2), ((0, 1),), np.ones(1))
    with pytest.raises(GraphError, match="damping"):
        PowerNetwork(ones, np.array([1.0, -1.0]), np.zeros(2), ((0, 1),), np.ones(1))
    with pytest.raises(GraphError, match="susceptance"):
        PowerNetwork(ones, ones, np.zeros(2), ((0, 1),), np.array([0.0]))
    with pytest.raises(GraphError, match="self-loop"):
        PowerNetwork(ones, ones, np.zeros(2), ((1, 1),), np.ones(1))
    with pytest.raises(GraphError, match="duplicate"):
        PowerNetwork(
            np.ones(3), np.ones(3), np.zeros(3), ((0, 1), (1, 0)), np.ones(2)
        )


def test_disconnected_reports_components():
    with pytest.raises(GraphError, match="disconnected") as err:
        PowerNetwork(np.ones(4), np.ones(4), np.zeros(4), ((0, 1), (2, 3)), np.ones(2))
    assert "[0, 1]" in str(err.value) and "[2, 3]" in str(err.value)


def test_subgraph_laplacian_hand_cases(inc3):
    full = subgraph_laplacian(inc3, np.array([True, True, True]))
    assert np.array_equal(full, [[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    assert np.array_equal(full, unit_laplacian(inc3))
    part = subgraph_laplacian(inc3, np.array([True, True, False]))
    assert np.array_equal(part, [[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    none = subgraph_laplacian(inc3, np.zeros(3, dtype=bool))
    assert np.array_equal(none, np.zeros((3, 3)))


def test_subgraph_laplacian_conservation_property(inc39):
    # column sums vanish and inactive rows are zero, for random masks
    rng = np.random.default_rng(7)
    for _ in range(200):
        mask = rng.random(39) < rng.uniform(0.1, 0.9)
        xi = rng.normal(size=39)
        lsub = subgraph_laplacian(inc39, mask)
        b = lsub @ xi
        assert abs(b.sum()) < 1e-12
        assert np.all(b[~mask] == 0.0)


def test_pseudo_inverse_hand_case(inc2):
    out = pseudo_inverse_apply(inc2.laplacian, np.array([0.5, -0.5]))
    assert np.allclose(out, [0.25, -0.25], atol=1e-14)


def test_pseudo_inverse_ones_to_zero(inc3):
    assert np.abs(pseudo_inverse_apply(inc3.laplacian, np.ones(3))).max() < 1e-12


def test_pseudo_inverse_identity_on_range(inc39):
    rng = np.random.default_rng(3)
    for _ in range(20):
        y = rng.normal(size=39)
        y -= y.mean()
        back = pseudo_inverse_apply(inc39.laplacian, inc39.laplacian @ y)
        assert np.abs(back - y).max() < 1e-10
        assert abs(back.sum()) < 1e-9
