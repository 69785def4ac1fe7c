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
from .profile import ProfileCurve, text_sink, write_rows


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
    phi = 2.0 * math.pi * np.arange(n_angular) / n_angular
    sin_phi, cos_phi = np.sin(phi), np.cos(phi)
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
    """Plain OBJ: `v x y z` then 1-based `f a b c` lines, LF, 17 digits."""
    with text_sink(sink, "w") as fh:
        write_rows(fh, "v %.17g %.17g %.17g\n", len(mesh.vertices), mesh.vertices)
        write_rows(fh, "f %d %d %d\n", len(mesh.faces), lambda k: mesh.faces[k] + 1)


def export_mesh_csv(mesh: Mesh, sink) -> None:
    """Vertex table `i,j,x,y,z` (profile index, angular index) for plotting."""
    n_ang = mesh.n_angular
    with text_sink(sink, "w") as fh:
        fh.write("i,j,x,y,z\n")
        write_rows(fh, "%d,%d,%.17g,%.17g,%.17g\n", len(mesh.vertices),
                   lambda k: k // n_ang, lambda k: k % n_ang, mesh.vertices)


def parse_obj(source) -> tuple[np.ndarray, np.ndarray]:
    """Read back vertices and 0-based faces from the OBJ text format."""
    verts, faces = [], []
    with text_sink(source) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                verts.append([float(p) for p in parts[1:4]])
            elif parts[0] == "f":
                faces.append([int(p) - 1 for p in parts[1:4]])
    return np.asarray(verts), np.asarray(faces, dtype=np.int64)
