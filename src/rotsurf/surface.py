"""Revolve profile curves about the x-axis into triangle meshes and export them.

A Mesh is the revolution itself: the profile's x and z and a closed ring
of n_angular angles.  Vertex (i, j) is (x_i, z_i sin(phi_j), z_i cos(phi_j));
faces wind so their normals follow tangent x azimuthal (radially outward on
the cylinder).  The vertex and face arrays are built only when asked for;
export writes the rings from the profile and the angle table.  Profiles
with self-intersections are revolved as-is: the mesh is immersed, not
embedded, by design.  Open profile ends stay open, no caps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProfileError
from .profile import ProfileCurve
from .text import write_mesh_csv, write_obj


def angle_table(n_angular: int) -> tuple[np.ndarray, np.ndarray]:
    """sin and cos of phi_j = 2 pi j / n_angular, j < n_angular.

    libm's sin and cos, not numpy's SIMD loops, so that the bits of a ring
    do not depend on which loops numpy dispatches to.
    """
    phi = [2.0 * math.pi * j / n_angular for j in range(n_angular)]
    return np.array([math.sin(p) for p in phi]), np.array([math.cos(p) for p in phi])


def band_faces(n_angular: int) -> np.ndarray:
    """The (2 n_angular, 3) faces between rings 0 and 1; band i is these plus i * n_angular.

    Quad j has corners a = (0, j), b = (1, j), c = (1, j+1), d = (0, j+1),
    split into (a, b, c) and (a, c, d).
    """
    j = np.arange(n_angular, dtype=np.int64)
    j1 = (j + 1) % n_angular
    a, b, c, d = j, n_angular + j, n_angular + j1, j1
    return np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)


@dataclass(frozen=True)
class Mesh:
    x: np.ndarray  # (n_profile,) float: ring i lies in the plane x = x[i]
    z: np.ndarray  # (n_profile,) float: ring i's radius
    n_angular: int
    source_kind: str

    @property
    def n_profile(self) -> int:
        return len(self.x)

    @property
    def n_faces(self) -> int:
        return 2 * max(self.n_profile - 1, 0) * self.n_angular

    @property
    def vertices(self) -> np.ndarray:
        """(n_profile * n_angular, 3) float, vertex (i, j) at row i * n_angular + j."""
        sin_phi, cos_phi = angle_table(self.n_angular)
        verts = np.empty((self.n_profile * self.n_angular, 3))
        verts[:, 0] = np.repeat(self.x, self.n_angular)
        verts[:, 1] = np.outer(self.z, sin_phi).ravel()
        verts[:, 2] = np.outer(self.z, cos_phi).ravel()
        return verts

    @property
    def faces(self) -> np.ndarray:
        """(n_faces, 3) int64, counter-clockwise as seen from outside; rows run over i, then j."""
        shift = np.arange(self.n_profile - 1, dtype=np.int64)[:, None, None] * self.n_angular
        return (shift + band_faces(self.n_angular)).reshape(-1, 3)


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
    if not (np.isfinite(profile.x).all() and np.isfinite(profile.z).all()):
        raise DegenerateProfileError("profile has an x or z that is not finite")
    return Mesh(profile.x, profile.z, n_angular, profile.kind)


def export_obj(mesh: Mesh, sink) -> None:
    """The mesh as plain OBJ (text.write_obj)."""
    write_obj(sink, mesh.x, mesh.z, *angle_table(mesh.n_angular), band_faces(mesh.n_angular))


def export_mesh_csv(mesh: Mesh, sink) -> None:
    """The mesh's vertex table `i,j,x,y,z` (text.write_mesh_csv)."""
    write_mesh_csv(sink, mesh.x, mesh.z, *angle_table(mesh.n_angular))
