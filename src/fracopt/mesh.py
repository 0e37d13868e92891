"""Tensor-product meshes: uniform Omega lattice, graded extension axis, cylinder.

The cylinder mesh is the tensor product of a uniform partition of
Omega = (0,1)^n into n-rectangles and a partition of [0, Y] graded toward
y = 0 by y_m = (m/M)^zeta Y, or a family of them, one per height Y. The
solver never numbers the cylinder's nodes; the sparse oracles number them
in :func:`fracopt.assembly.free_nodes`. Meshes are immutable after build.
A lattice also keeps its Omega set-up (:meth:`OmegaMesh.kept`): its Gauss
rule and the 1D factors of its operators are built on first use and
shared, read-only, by every system on it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .problem import ParameterError


@dataclass(frozen=True)
class OmegaMesh:
    """Uniform mesh of the unit cube (0,1)^n into cubes of side h."""

    n: int
    cells_per_dim: int
    vertices: np.ndarray           # ((cells_per_dim + 1)^n, n)
    boundary_vertex_mask: np.ndarray
    _kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def kept(self, build):
        """build(self), computed on the first call with ``build`` and returned on every later one.

        This is how the lattice keeps its Omega set-up for its lifetime:
        :func:`fracopt.assembly.omega_quadrature` and
        :func:`fracopt.evolution.lattice_factors` build it once per lattice
        object, as read-only arrays that every system on it shares.
        """
        if build not in self._kept:
            self._kept[build] = build(self)
        return self._kept[build]

    @property
    def h(self) -> float:
        return 1.0 / self.cells_per_dim

    @property
    def n_cells(self) -> int:
        return self.cells_per_dim ** self.n

    @property
    def cell_volume(self) -> float:
        return self.h ** self.n

    @property
    def interior_idx(self) -> np.ndarray:
        return np.nonzero(~self.boundary_vertex_mask)[0]


def build_omega(n: int, cells_per_dim: int) -> OmegaMesh:
    """Uniform lattice mesh of (0,1)^n with spacing 1/cells_per_dim.

    Vertices, and cells by their lowest corner, are numbered row-major.
    """
    if n < 1:
        raise ParameterError(f"dimension must be >= 1, got {n}")
    if cells_per_dim < 1:
        raise ParameterError("need at least one cell per dimension")
    m = cells_per_dim
    shape = (m + 1,) * n
    coords = np.meshgrid(*[np.linspace(0.0, 1.0, m + 1)] * n, indexing="ij")
    vertices = np.stack([x.ravel() for x in coords], axis=1)
    boundary = np.ones(shape, dtype=bool)
    boundary[(slice(1, -1),) * n] = False
    boundary = boundary.ravel()
    vertices.flags.writeable = boundary.flags.writeable = False
    return OmegaMesh(n=n, cells_per_dim=m, vertices=vertices, boundary_vertex_mask=boundary)


@dataclass(frozen=True)
class GradedAxis:
    """Partition of [0, Y] with nodes y_m = (m/M)^zeta * Y; Y >= 1 is the cylinder's height."""

    M: int
    Y: float | tuple                # a sequence of heights makes a family of partitions
    zeta: float
    nodes: np.ndarray               # (*heights, M + 1): one row per height of a family
    unit: np.ndarray                # (M + 1,): (m/M)^zeta, the partition every height scales


def default_zeta(alpha: float) -> float:
    """Grading exponent strictly above the admissibility bound 3/(1-alpha)."""
    if not -1.0 < alpha < 1.0:
        raise ParameterError(f"weight exponent must lie in (-1, 1), got {alpha}")
    return 1.05 * 3.0 / (1.0 - alpha)


def graded_axis(M: int, Y, zeta: float) -> GradedAxis:
    """Graded partition of [0, Y], Y >= 1, or one per height Y of a family; zeta = 1: uniform."""
    if M < 1:
        raise ParameterError("empty axis mesh: need M >= 1 intervals")
    heights = np.asarray(Y, dtype=float)
    low = heights.min() if heights.size else np.nan     # an empty family is refused too
    if not low >= 1.0:
        raise ParameterError(f"truncation height must satisfy Y >= 1, got {low}")
    if zeta < 1.0:
        raise ParameterError(f"grading exponent must be >= 1, got {zeta}")
    unit = (np.arange(M + 1, dtype=float) / M) ** zeta
    nodes = np.multiply.outer(heights, unit)
    nodes[..., 0] = 0.0
    nodes[..., -1] = heights
    return GradedAxis(M=M, Y=Y, zeta=zeta, nodes=nodes, unit=unit)


@dataclass(frozen=True)
class CylinderMesh:
    """Tensor product of an Omega mesh and a graded axis.

    The lateral boundary (Omega vertex on d(Omega), any y) and the top cap
    y = Y are Dirichlet, so the free unknowns are the axis nodes 0..M-1
    over each interior Omega vertex; the trace sits at y = 0.
    """

    omega: OmegaMesh
    axis: GradedAxis

    @property
    def n_free(self) -> int:
        return self.omega.interior_idx.size * self.axis.M


def build_cylinder(omega: OmegaMesh, axis: GradedAxis) -> CylinderMesh:
    """The tensor-product cylinder mesh of omega and axis."""
    return CylinderMesh(omega=omega, axis=axis)
