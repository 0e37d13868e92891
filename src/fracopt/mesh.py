"""Tensor-product meshes: uniform Omega lattice, graded extension axis, cylinder.

The cylinder mesh is the tensor product of a uniform partition of
Omega = (0,1)^n into n-rectangles and a partition of [0, Y] graded toward
y = 0 by y_m = (m/M)^zeta Y. Node numbering is axis-major within each Omega
vertex: global index = vertex_index * (M+1) + axis_index, which keeps the
operator sparsity pattern reproducible. Meshes are immutable after build.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .problem import ParameterError


@dataclass(frozen=True)
class OmegaMesh:
    """Uniform mesh of the unit cube (0,1)^n into cubes of side h."""

    n: int
    cells_per_dim: int
    vertices: np.ndarray           # (n_vertices, n)
    cells: np.ndarray              # (n_cells, 2^n) vertex indices
    boundary_vertex_mask: np.ndarray

    @property
    def h(self) -> float:
        return 1.0 / self.cells_per_dim

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def cell_volume(self) -> float:
        return self.h ** self.n

    @property
    def interior_idx(self) -> np.ndarray:
        return np.nonzero(~self.boundary_vertex_mask)[0]


def build_omega(n: int, cells_per_dim: int) -> OmegaMesh:
    """Uniform lattice mesh of (0,1)^n with spacing 1/cells_per_dim, numbered row-major.

    A cell lists its 2^n corners in ``itertools.product((0, 1), repeat=n)`` order.
    """
    if n < 1:
        raise ParameterError(f"dimension must be >= 1, got {n}")
    if cells_per_dim < 1:
        raise ParameterError("need at least one cell per dimension")
    m = cells_per_dim
    shape = (m + 1,) * n
    coords = np.meshgrid(*[np.linspace(0.0, 1.0, m + 1)] * n, indexing="ij")
    vertices = np.stack([x.ravel() for x in coords], axis=1)
    lower = np.ravel_multi_index(np.meshgrid(*[np.arange(m)] * n, indexing="ij"), shape)
    corners = np.ravel_multi_index(np.array(list(itertools.product((0, 1), repeat=n))).T,
                                   shape)
    cells = lower.reshape(-1, 1) + corners
    boundary = np.ones(shape, dtype=bool)
    boundary[(slice(1, -1),) * n] = False
    return OmegaMesh(n=n, cells_per_dim=m, vertices=vertices, cells=cells,
                     boundary_vertex_mask=boundary.ravel())


@dataclass(frozen=True)
class GradedAxis:
    """Partition of [0, Y] with nodes y_m = (m/M)^zeta * Y."""

    M: int
    Y: float
    zeta: float
    nodes: np.ndarray


def default_zeta(alpha: float) -> float:
    """Grading exponent strictly above the admissibility bound 3/(1-alpha)."""
    if not -1.0 < alpha < 1.0:
        raise ParameterError(f"weight exponent must lie in (-1, 1), got {alpha}")
    return 1.05 * 3.0 / (1.0 - alpha)


def graded_axis(M: int, Y: float, zeta: float) -> GradedAxis:
    """Graded partition of [0, Y]; zeta = 1 gives the uniform partition."""
    if M < 1:
        raise ParameterError("empty axis mesh: need M >= 1 intervals")
    if Y <= 0.0:
        raise ParameterError(f"axis height must be positive, got {Y}")
    if zeta < 1.0:
        raise ParameterError(f"grading exponent must be >= 1, got {zeta}")
    m = np.arange(M + 1, dtype=float)
    nodes = (m / M) ** zeta * Y
    nodes[0] = 0.0
    nodes[-1] = Y
    return GradedAxis(M=M, Y=Y, zeta=zeta, nodes=nodes)


@dataclass(frozen=True)
class CylinderMesh:
    """Tensor product of an Omega mesh and a graded axis, with Dirichlet mask.

    Dirichlet nodes are those on the lateral boundary (Omega vertex on
    d(Omega), any y) and on the top cap y = Y. Trace nodes sit at y = 0;
    the ones over interior Omega vertices are free degrees of freedom.
    """

    omega: OmegaMesh
    axis: GradedAxis
    dirichlet_mask: np.ndarray     # (n_nodes,)
    free_idx: np.ndarray           # global indices of free nodes
    free_pos: np.ndarray           # global index -> position in free vector (-1 if fixed)
    trace_global: np.ndarray       # Omega vertex -> global node at y = 0
    trace_free_pos: np.ndarray     # interior Omega vertex -> position in free vector

    @property
    def n_nodes(self) -> int:
        return self.omega.n_vertices * (self.axis.M + 1)

    @property
    def n_free(self) -> int:
        return self.free_idx.size

    def node_index(self, vertex: int, axis_node: int) -> int:
        return vertex * (self.axis.M + 1) + axis_node


def build_cylinder(omega: OmegaMesh, axis: GradedAxis) -> CylinderMesh:
    """Assemble the index maps of the tensor-product cylinder mesh."""
    nv = omega.n_vertices
    Mp1 = axis.M + 1
    n_nodes = nv * Mp1

    # Dirichlet: lateral columns over boundary vertices plus the top cap.
    dirichlet = np.repeat(omega.boundary_vertex_mask, Mp1).copy()
    dirichlet[Mp1 - 1::Mp1] = True

    free_idx = np.nonzero(~dirichlet)[0]
    free_pos = np.full(n_nodes, -1, dtype=np.int64)
    free_pos[free_idx] = np.arange(free_idx.size)

    trace_global = np.arange(nv, dtype=np.int64) * Mp1
    interior = omega.interior_idx
    trace_free_pos = free_pos[trace_global[interior]]
    assert np.all(trace_free_pos >= 0)

    return CylinderMesh(omega=omega, axis=axis, dirichlet_mask=dirichlet,
                        free_idx=free_idx, free_pos=free_pos,
                        trace_global=trace_global, trace_free_pos=trace_free_pos)
