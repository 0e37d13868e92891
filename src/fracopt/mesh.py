"""Tensor-product meshes: uniform Omega lattice, graded extension axis, cylinder.

The cylinder mesh is the tensor product of a uniform partition of
Omega = (0,1)^n into n-rectangles and a partition of [0, Y] graded toward
y = 0 by y_m = (m/M)^zeta Y, or a family of them, one per height Y. The
solver never numbers the cylinder's nodes; the sparse oracles number them
in :func:`fracopt.assembly.free_nodes`. A mesh takes only its inputs,
checks them and sets its derived arrays when built, read-only.
A lattice also keeps its Omega set-up (:meth:`OmegaMesh.kept`): its Gauss
rule and the 1D factors of its operators are built on first use and
shared, read-only, by every system on it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .problem import ParameterError, check_count


@dataclass(frozen=True)
class OmegaMesh:
    """Uniform mesh of (0,1)^n of side h; vertices, and cells by lowest corner, row-major."""

    n: int
    cells_per_dim: int
    vertices: np.ndarray = field(init=False, repr=False, compare=False)  # ((m + 1)^n, n)
    boundary_vertex_mask: np.ndarray = field(init=False, repr=False, compare=False)
    _kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        check_count(self.n, "dimension n")
        check_count(self.cells_per_dim, "cells_per_dim")
        n, m = self.n, self.cells_per_dim
        coords = np.meshgrid(*[np.linspace(0.0, 1.0, m + 1)] * n, indexing="ij")
        vertices = np.stack([x.ravel() for x in coords], axis=1)
        boundary = np.ones((m + 1,) * n, dtype=bool)
        boundary[(slice(1, -1),) * n] = False
        boundary = boundary.ravel()
        vertices.flags.writeable = boundary.flags.writeable = False
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "boundary_vertex_mask", boundary)

    def kept(self, build):
        """build(self), computed on the first call with ``build`` and returned on every later one.

        This is how the lattice keeps its Omega set-up for its lifetime: its Gauss
        rule and 1D factors are built once per lattice object, as tuples whose
        arrays, made read-only here, every system on it shares.
        """
        if build not in self._kept:
            self._kept[build] = build(self)
            for a in self._kept[build]:
                if isinstance(a, np.ndarray):
                    a.flags.writeable = False
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
    """Uniform lattice mesh of (0,1)^n with spacing 1/cells_per_dim."""
    return OmegaMesh(n, cells_per_dim)


@dataclass(frozen=True)
class GradedAxis:
    """Partition of [0, Y] with nodes y_m = (m/M)^zeta * Y; Y >= 1 is the cylinder's height.

    A sequence of heights makes a family of partitions, one per height. M >= 1
    must be an integer, every Y and zeta >= 1 (1: uniform) finite; ``unit`` is (m/M)^zeta.
    A grading whose first interval underflows, (1/M)^(2 zeta) below the smallest
    normal double (:func:`grading_underflows`), is refused too, naming M and zeta.
    """

    M: int
    Y: float | tuple
    zeta: float
    unit: np.ndarray = field(init=False, repr=False, compare=False)    # (M + 1,)
    nodes: np.ndarray = field(init=False, repr=False, compare=False)   # (*heights, M + 1)

    def __post_init__(self):
        check_count(self.M, "axis intervals M")
        heights = np.asarray(self.Y, dtype=float)
        low = heights.min() if heights.size else np.nan     # an empty family is refused too
        if not low >= 1.0:
            raise ParameterError(f"truncation height must satisfy Y >= 1, got {low}")
        if not np.isfinite(heights).all():
            raise ParameterError(f"truncation height must be finite, got {heights.max()}")
        if not (math.isfinite(self.zeta) and self.zeta >= 1.0):
            raise ParameterError(f"grading exponent must be finite and >= 1, got {self.zeta}")
        if grading_underflows(self.M, self.zeta):
            raise ParameterError(f"the graded axis underflows at M = {self.M}, zeta = "
                                 f"{self.zeta:.6g}: (1/M)^(2 zeta) is below the smallest "
                                 f"normal double")
        unit = (np.arange(self.M + 1, dtype=float) / self.M) ** self.zeta
        nodes = np.multiply.outer(heights, unit)
        unit.flags.writeable = nodes.flags.writeable = False
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "nodes", nodes)


def grading_underflows(M: int, zeta: float) -> bool:
    """Whether the first interval of M graded by zeta underflows: (1/M)^(2 zeta) below the smallest normal double."""
    return zeta * math.log2(M) > 511


def default_zeta(alpha: float) -> float:
    """Grading exponent strictly above the admissibility bound 3/(1-alpha)."""
    if not -1.0 < alpha < 1.0:
        raise ParameterError(f"weight exponent must lie in (-1, 1), got {alpha}")
    return 1.05 * 3.0 / (1.0 - alpha)


def graded_axis(M: int, Y, zeta: float) -> GradedAxis:
    """Graded partition of [0, Y], Y >= 1, or one per height Y of a family."""
    return GradedAxis(M, Y, zeta)


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
