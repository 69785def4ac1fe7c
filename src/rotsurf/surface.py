"""Revolve profile curves about the x-axis into triangle meshes and export them.

Vertices are (x(t_i), z(t_i) sin(phi_j), z(t_i) cos(phi_j)) on a closed
angular ring; faces wind so their normals follow tangent x azimuthal
(radially outward on the cylinder).  Profiles with self-intersections are
revolved as-is: the mesh is immersed, not embedded, by design.  Open profile
ends stay open, no caps.

Export writes one f"{v:.17g}" per coordinate, but formats the y, z text of
a ring once per distinct ring: the mirrored half of a symmetric profile
revolves into rings bit-equal to its first half's, and reuses their text.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProfileError
from .profile import ROW_BLOCK, ProfileCurve, text_sink

FACE_BLOCK = 4096  # faces turned into ASCII digits and written at a time by export_obj


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


def _write_vertex_rows(fh, vertices: np.ndarray, sep: str, heads) -> None:
    """Write `head x sep y sep z` for each vertex, heads(lo, hi) giving rows lo..hi-1's heads.

    The rows are cut into runs of bit-identical x (a ring of a revolved
    mesh), each at most ROW_BLOCK rows.  The `sep y sep z` text of a run is
    formatted once per distinct run of y, z bits and joined with each row's
    head and its run's x wherever those bits recur: a symmetric profile's
    mirrored half repeats its rings bit for bit.  Comparing bits keeps -0.0
    apart from 0.0.  Whole runs go out about ROW_BLOCK rows at a time, and
    the text is kept for one call only.  The bytes are those of one
    f"{v:.17g}" per value.
    """
    vertices = np.asarray(vertices, dtype=float)
    n = len(vertices)
    if n == 0:
        return
    bits = vertices[:, 0].view(np.int64)
    cuts = [0]
    for end in [*(np.flatnonzero(bits[1:] != bits[:-1]) + 1).tolist(), n]:
        cuts += range(cuts[-1] + ROW_BLOCK, end, ROW_BLOCK)
        cuts.append(end)
    xs = ["%.17g" % v for v in vertices[cuts[:-1], 0].tolist()]
    row = f"{sep}%.17g{sep}%.17g\n"
    tails = {}  # y, z bits of a run -> its rows' `sep y sep z` text
    lo, xcol, tcol = 0, [], []
    for a, b, x in zip(cuts, cuts[1:], xs):
        yz = vertices[a:b, 1:]
        key = yz.tobytes()
        text = tails.get(key)
        if text is None:
            text = tails[key] = row * (b - a) % tuple(yz.ravel().tolist())
        tcol += text.splitlines(True)  # the text's only line breaks end its rows
        xcol += [x] * (b - a)
        if b - lo >= ROW_BLOCK or b == n:
            rows = [None] * (3 * (b - lo))
            rows[::3], rows[1::3], rows[2::3] = heads(lo, b), xcol, tcol
            fh.write("".join(rows))
            lo, xcol, tcol = b, [], []


@functools.cache
def _digit_quads() -> np.ndarray:
    """The four ASCII digits of 0000..9999, each held in the bytes of one uint32.

    Built on the first face export, so importing the package costs nothing.
    """
    digits = np.arange(10_000)[:, None] // (1000, 100, 10, 1) % 10 + ord("0")
    quads = digits.astype(np.uint8).view(np.uint32).ravel()
    quads.flags.writeable = False  # shared by every call
    return quads


def _face_template(width: int) -> tuple[np.ndarray, np.ndarray]:
    """Bytes and keep-mask of one `f a b c` row whose numbers have width digits.

    Each number gets a cell: a lead ('f ' before the first, ' ' before the
    others), a '-' slot, the digits, and a '\n' slot kept after the last.
    """
    cell = np.zeros((3, width + 4), np.uint8)
    cell[:, 0] = np.frombuffer(b"f  ", np.uint8)
    cell[:, 1:3] = np.frombuffer(b" -", np.uint8)
    cell[:, -1] = ord("\n")
    keep = np.zeros((3, width + 4), bool)
    keep[:, :2] = ((True, True), (True, False), (True, False))
    keep[:, width + 2] = True  # a number's last digit
    keep[2, -1] = True
    return cell, keep


def _face_text(faces: np.ndarray) -> str:
    """The `f a b c` rows of faces (1-based), built as ASCII digits in numpy.

    Every number is written at the block's largest width and its leading
    zeros are masked out, so the bytes are those of one f"{v}" per value.
    """
    v = faces + 1
    neg = v < 0
    mag = v.astype(np.uint64)
    np.negative(mag, out=mag, where=neg)  # |v| by wraparound, also for -2**63
    width = len(str(int(mag.max())))
    n_quads = (width + 3) // 4
    table = _digit_quads()
    quads = np.empty(mag.shape + (n_quads,), np.uint32)
    q = mag
    for k in range(n_quads - 1, -1, -1):
        d = q // 10_000
        quads[..., k] = table[q - d * 10_000]
        q = d
    cell_row, keep_row = _face_template(width)
    cell = np.empty(mag.shape + (width + 4,), np.uint8)
    cell[:] = cell_row
    cell[..., 3:-1] = quads.view(np.uint8)[..., 4 * n_quads - width:]
    keep = np.empty(cell.shape, bool)
    keep[:] = keep_row
    keep[..., 2] = neg
    for p in range(width - 1):  # a digit is kept when the number reaches its place
        np.greater_equal(mag, 10 ** (width - 1 - p), out=keep[..., 3 + p])
    return str(memoryview(cell[keep]), "ascii")


def export_obj(mesh: Mesh, sink) -> None:
    """Plain OBJ: `v x y z` then 1-based `f a b c` lines, LF, 17 digits."""
    with text_sink(sink, "w") as fh:
        _write_vertex_rows(fh, mesh.vertices, " ", lambda lo, hi: ["v "] * (hi - lo))
        for lo in range(0, len(mesh.faces), FACE_BLOCK):
            fh.write(_face_text(mesh.faces[lo:lo + FACE_BLOCK]))


def export_mesh_csv(mesh: Mesh, sink) -> None:
    """Vertex table `i,j,x,y,z` (profile index, angular index) for plotting."""
    n_ang = mesh.n_angular
    cols = [f"{j}," for j in range(n_ang)]

    def heads(lo, hi):  # "i,j," of vertex k = i * n_ang + j
        out = []
        for i in range(lo // n_ang, (hi - 1) // n_ang + 1):
            ring = f"{i},"
            out += [ring + j for j in cols[max(lo - i * n_ang, 0):hi - i * n_ang]]
        return out

    with text_sink(sink, "w") as fh:
        fh.write("i,j,x,y,z\n")
        _write_vertex_rows(fh, mesh.vertices, ",", heads)


def parse_obj(source) -> tuple[np.ndarray, np.ndarray]:
    """Read back vertices and 0-based faces from the OBJ text format.

    Returns (n, 3) float vertices and (m, 3) int64 faces, also when n or m
    is 0.  A `v` or `f` line with fewer than three entries raises ValueError
    naming its line number; entries past the third are ignored.
    """
    verts, faces = [], []
    with text_sink(source) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts or parts[0] not in ("v", "f"):
                continue
            if len(parts) < 4:
                raise ValueError(f"OBJ line {lineno}: a '{parts[0]}' line needs three "
                                 f"entries, got {len(parts) - 1}")
            if parts[0] == "v":
                verts.append([float(p) for p in parts[1:4]])
            else:
                faces.append([int(p) - 1 for p in parts[1:4]])
    return (np.array(verts, dtype=float).reshape(-1, 3),
            np.array(faces, dtype=np.int64).reshape(-1, 3))
