"""Revolve profile curves about the x-axis into triangle meshes and export them.

Vertices are (x(t_i), z(t_i) sin(phi_j), z(t_i) cos(phi_j)) on a closed
angular ring; faces wind so their normals follow tangent x azimuthal
(radially outward on the cylinder).  Profiles with self-intersections are
revolved as-is: the mesh is immersed, not embedded, by design.  Open profile
ends stay open, no caps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProfileError
from .profile import ProfileCurve
from .text import write_mesh_csv, write_obj


@dataclass(frozen=True)
class Mesh:
    vertices: np.ndarray  # (n_profile * n_angular, 3) float
    faces: np.ndarray  # (m, 3) int, counter-clockwise as seen from outside
    n_profile: int
    n_angular: int
    source_kind: str


def revolve(profile: ProfileCurve, n_angular: int) -> Mesh:
    """Surface of revolution of the profile about the x-axis.

    Vertex (i, j) sits at angle phi_j = 2 pi j / n_angular; the ring is
    closed by index wraparound, so vertex count is exactly
    len(profile) * n_angular.
    """
    if n_angular < 3:
        raise ValueError("need n_angular >= 3")
    if not np.all(profile.z > 0.0):
        raise DegenerateProfileError("profile touches the axis (z <= 0)")
    n_p = len(profile)
    # libm's sin and cos, not numpy's SIMD loops, so that the bits of a ring
    # do not depend on which loops numpy dispatches to
    phi = [2.0 * math.pi * j / n_angular for j in range(n_angular)]
    sin_phi = np.array([math.sin(p) for p in phi])
    cos_phi = np.array([math.cos(p) for p in phi])
    verts = np.empty((n_p * n_angular, 3))
    verts[:, 0] = np.repeat(profile.x, n_angular)
    verts[:, 1] = np.outer(profile.z, sin_phi).ravel()
    verts[:, 2] = np.outer(profile.z, cos_phi).ravel()

    # Quad (i, j) has corners a = (i, j), b = (i+1, j), c = (i+1, j+1),
    # d = (i, j+1), split into (a, b, c) and (a, c, d); rows run over i, then j.
    base = np.arange(n_p - 1, dtype=np.int64)[:, None] * n_angular
    j = np.arange(n_angular, dtype=np.int64)
    j1 = (j + 1) % n_angular
    a, b = base + j, base + n_angular + j
    c, d = base + n_angular + j1, base + j1
    faces = np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)
    return Mesh(verts, faces, n_p, n_angular, profile.kind)


def export_obj(mesh: Mesh, sink) -> None:
    """The mesh as plain OBJ (text.write_obj)."""
    write_obj(sink, mesh.vertices, mesh.faces)


def export_mesh_csv(mesh: Mesh, sink) -> None:
    """The mesh's vertex table `i,j,x,y,z` (text.write_mesh_csv)."""
    write_mesh_csv(sink, mesh.vertices, mesh.n_angular)
