"""Revolve profile curves about the x-axis into triangle meshes and export them.

Vertices are (x(t_i), z(t_i) sin(phi_j), z(t_i) cos(phi_j)) on a closed
angular ring; faces wind so their normals follow tangent x azimuthal
(radially outward on the cylinder).  Profiles with self-intersections are
revolved as-is: the mesh is immersed, not embedded, by design.  Open profile
ends stay open, no caps.

Export writes the bytes of one f"{v:.17g}" per coordinate.  The text comes
from profile.format_17g, a few thousand values per call, and the y, z text
of a ring is made once per distinct ring: the mirrored half of a symmetric
profile revolves into rings bit-equal to its first half's, and reuses their
text.  revolve takes its sin and cos table from libm, so the rings' bits do
not depend on numpy's SIMD dispatch.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProfileError
from .profile import ROW_BLOCK, ProfileCurve, cells_text, digit_quads, format_17g, text_sink

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


def _write_vertex_rows(fh, vertices: np.ndarray, sep: str, heads) -> None:
    """Write `head x sep y sep z` for each vertex, heads(lo, hi) giving rows lo..hi-1's heads.

    The rows are cut into runs of bit-identical x (a ring of a revolved
    mesh), each at most ROW_BLOCK rows, and go out in windows of whole runs
    of about ROW_BLOCK rows.  One format_17g call per window turns the x of
    its runs, and the y, z of each run whose bits no earlier run had, into
    text.  A run's `y sep z` lines are kept for the rest of the call and
    joined with each row's head and its run's `x sep` wherever those bits
    recur: a symmetric profile's mirrored half repeats its rings bit for
    bit.  Comparing bits keeps -0.0 apart from 0.0.  The bytes are those of
    one f"{v:.17g}" per value.
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
    tails = {}  # y, z bits of a run -> its rows' `y sep z` lines
    lo = 0  # the window's first run
    while lo < len(cuts) - 1:
        hi = min(bisect.bisect_left(cuts, cuts[lo] + ROW_BLOCK, lo + 1), len(cuts) - 1)
        runs = list(zip(cuts[lo:hi], cuts[lo + 1:hi + 1]))
        keys = [vertices[a:b, 1:].tobytes() for a, b in runs]
        new = {}  # the window's runs with bits no earlier run had, by key
        for key, run in zip(keys, runs):
            if key not in tails:
                new.setdefault(key, run)
        cells = format_17g(np.concatenate(
            [vertices[cuts[lo:hi], 0], *(vertices[a:b, 1:].ravel() for a, b in new.values())]))
        cells[:, -1] = ord("\n")  # ends each x, and each row after its z
        cells[hi - lo::2, -1] = ord(sep)  # after each y
        at = hi - lo
        for key, (a, b) in new.items():
            tails[key] = cells_text(cells[at:at + 2 * (b - a)])
            at += 2 * (b - a)
        xcol, tcol = [], []
        for key, (a, b), x in zip(keys, runs, cells_text(cells[:hi - lo]).splitlines()):
            tcol += tails[key].splitlines(True)  # the text's only line breaks end its rows
            xcol += [x + sep] * (b - a)
        rows = [None] * (3 * (cuts[hi] - cuts[lo]))
        rows[::3], rows[1::3], rows[2::3] = heads(cuts[lo], cuts[hi]), xcol, tcol
        fh.write("".join(rows))
        lo = hi


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
    table = digit_quads()
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
    is 0.  A face `f a b c d ...` is split into the fan (a, b, c),
    (a, c, d), ...; a face entry `a/t/n` is read as vertex a.  A `v` line's
    entries past the third are ignored.  A `v` or `f` line with fewer than
    three entries, or with an entry that is not a number (a vertex index
    for `f`), raises ValueError naming its line number.
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
            try:
                if parts[0] == "v":
                    verts.append([float(p) for p in parts[1:4]])
                else:
                    a, *rest = (int(p.split("/")[0]) - 1 for p in parts[1:])
                    faces += [[a, b, c] for b, c in zip(rest, rest[1:])]
            except ValueError:
                kind = "a number" if parts[0] == "v" else "an integer vertex index"
                raise ValueError(f"OBJ line {lineno}: {line.strip()!r} has an entry "
                                 f"that is not {kind}") from None
    return (np.array(verts, dtype=float).reshape(-1, 3),
            np.array(faces, dtype=np.int64).reshape(-1, 3))
