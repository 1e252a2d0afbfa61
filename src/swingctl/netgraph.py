"""Network topology, incidence structure, and graph Laplacians.

A transmission network is an undirected connected graph. Buses carry inertia
M_i (p.u. per Hz/s), damping D_i (p.u. per Hz) and nominal injection p_i
(p.u.); edges carry susceptance b_e > 0 (p.u.). Frequencies everywhere in this
package are deviations from nominal in Hz, so no 2*pi factor appears in the
dynamics.

Edge orientation is fixed by convention: every edge points from its lower bus
index to its higher one. All derived matrices (incidence, Laplacians) inherit
that orientation, which keeps results reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GraphError(ValueError):
    """Raised when a network fails structural validation."""


@dataclass(frozen=True)
class PowerNetwork:
    """Validated bus/edge data for one network.

    Attributes:
        inertia: per-bus M, shape (n,), strictly positive.
        damping: per-bus D, shape (n,), strictly positive.
        p_nom: per-bus nominal injection, shape (n,). Generators positive,
            loads negative.
        edges: list of (i, j) bus-index pairs with i < j, no duplicates.
        susceptance: per-edge b, shape (m,), strictly positive, aligned
            with `edges`.
        bus_ids: original external ids (e.g. 1-based file ids), shape (n,).
    """

    inertia: np.ndarray
    damping: np.ndarray
    p_nom: np.ndarray
    edges: list[tuple[int, int]]
    susceptance: np.ndarray
    bus_ids: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        m_arr = np.asarray(self.inertia, dtype=float)
        d_arr = np.asarray(self.damping, dtype=float)
        p_arr = np.asarray(self.p_nom, dtype=float)
        b_arr = np.asarray(self.susceptance, dtype=float)
        n = m_arr.shape[0]
        if d_arr.shape != (n,) or p_arr.shape != (n,):
            raise GraphError("inertia, damping and p_nom must share shape (n,)")
        if np.any(m_arr <= 0):
            raise GraphError(f"non-positive inertia at buses {np.nonzero(m_arr <= 0)[0].tolist()}")
        if np.any(d_arr <= 0):
            raise GraphError(f"non-positive damping at buses {np.nonzero(d_arr <= 0)[0].tolist()}")
        edges = [(int(i), int(j)) for i, j in self.edges]
        if b_arr.shape != (len(edges),):
            raise GraphError("susceptance must have one entry per edge")
        if np.any(b_arr <= 0):
            raise GraphError(f"non-positive susceptance at edges {np.nonzero(b_arr <= 0)[0].tolist()}")
        seen = set()
        for k, (i, j) in enumerate(edges):
            if i == j:
                raise GraphError(f"self-loop at bus index {i} (edge {k})")
            if not (0 <= i < n and 0 <= j < n):
                raise GraphError(f"edge {k} references bus outside 0..{n - 1}: ({i}, {j})")
            if i > j:
                i, j = j, i
            if (i, j) in seen:
                raise GraphError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))
            edges[k] = (i, j)
        comps = _components(n, edges)
        if len(comps) > 1:
            raise GraphError(f"network is disconnected; components: {comps}")
        ids = self.bus_ids if self.bus_ids is not None else np.arange(1, n + 1)
        object.__setattr__(self, "inertia", m_arr)
        object.__setattr__(self, "damping", d_arr)
        object.__setattr__(self, "p_nom", p_arr)
        object.__setattr__(self, "susceptance", b_arr)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "bus_ids", np.asarray(ids, dtype=int))

    @property
    def n_bus(self) -> int:
        return self.inertia.shape[0]

    @property
    def n_edge(self) -> int:
        return len(self.edges)


def _components(n: int, edges: list[tuple[int, int]]) -> list[list[int]]:
    """Connected components as sorted bus-index lists (union-find)."""
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values())


@dataclass(frozen=True)
class Incidence:
    """Oriented incidence structure and Laplacians for one network.

    `b_mat` is the n x m incidence matrix with +1 at the lower-index endpoint
    of each edge and -1 at the higher one. `laplacian` is susceptance-weighted
    (B diag(y) B^T). `row_l1` holds the row l1 norms of the unit-weight
    Laplacian B B^T, that is 2 * degree; they bound the budget magnitudes.
    """

    b_mat: np.ndarray
    laplacian: np.ndarray
    row_l1: np.ndarray
    edge_ends: np.ndarray  # (m, 2) int, lower index first
    by_mat: np.ndarray  # B diag(y), used by the flow term and feedforward


def build_incidence(net: PowerNetwork) -> Incidence:
    n, m = net.n_bus, net.n_edge
    b_mat = np.zeros((n, m))
    ends = np.zeros((m, 2), dtype=int)
    for k, (i, j) in enumerate(net.edges):
        b_mat[i, k] = 1.0
        b_mat[j, k] = -1.0
        ends[k] = (i, j)
    by = b_mat * net.susceptance  # column scaling
    lap = by @ b_mat.T
    return Incidence(
        b_mat=b_mat,
        laplacian=lap,
        row_l1=2.0 * np.abs(b_mat).sum(axis=1),
        edge_ends=ends,
        by_mat=by,
    )


def pseudo_inverse_apply(lap: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply the Moore-Penrose inverse of a connected-graph Laplacian to v.

    Solves on the subspace orthogonal to the all-ones vector instead of
    forming an SVD: project v onto that subspace, then solve
    (L + (1/n) 1 1^T) y = v_proj. The rank-one shift is invertible for a
    connected graph and the solution is automatically mean-zero, hence equal
    to pinv(L) @ v_proj.
    """
    lap = np.asarray(lap, dtype=float)
    v = np.asarray(v, dtype=float)
    n = lap.shape[0]
    v_proj = v - v.mean()
    shifted = lap + np.ones((n, n)) / n
    return np.linalg.solve(shifted, v_proj)
