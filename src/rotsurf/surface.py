"""Revolve profile curves about the x-axis into triangle meshes and export them.

Vertices are (x(t_i), z(t_i) sin(phi_j), z(t_i) cos(phi_j)) on a closed
angular ring; faces wind so their normals follow tangent x azimuthal
(radially outward on the cylinder).  Profiles with self-intersections are
revolved as-is: the mesh is immersed, not embedded, by design.  Open profile
ends stay open, no caps.

Export writes the bytes of one f"{v:.17g}" per coordinate and one f"{k}"
per vertex number, with no Python object made per face or per repeated
vertex row.  The text stays ASCII bytes from the cells it is made in to
the output sink (profile.byte_sink).  The float text comes from
profile.format_17g, a few thousand values per call.  The y, z text of a
ring is made once per distinct ring, as a template that one bytes.replace
fills with each of its runs' heads: the
mirrored half of a symmetric profile revolves into rings bit-equal to its
first half's, and reuses their text.  A block of faces makes the text of
each vertex number once, in a cell of whole words, and gathers three cells
per face.  revolve takes its sin and cos table from libm, so the rings'
bits do not depend on numpy's SIMD dispatch.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProfileError
from .profile import (
    ROW_BLOCK,
    TEXT_CELL,
    ProfileCurve,
    byte_sink,
    cells_text,
    digit_quads,
    format_17g,
    text_sink,
)

FACE_BLOCK = 4096  # faces per _face_text call: one table of number cells, one gather, one translate
# rows per window of _write_vertex_rows, whose new rows' y, z take one format_17g call;
# of 1024, 2048 and 4096, 2048 wrote the meshes of the benchmark's emit deck fastest
VERTEX_WINDOW = 2048
# 10**1..10**19: an unsigned 64-bit n has one digit more than the powers <= n
_POW10 = np.array([10 ** k for k in range(1, 20)], np.uint64)


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


def _number_cells(v: np.ndarray) -> np.ndarray:
    """The f"{n}" text of each integer n of v, one cell of whole uint64 words each.

    A cell holds a sign slot, then NULs, then the digits ending just before
    its last byte, which is left NUL for the caller's separator.  Its text
    is its bytes without NULs (cells_text).
    """
    neg = v < 0
    mag = v.astype(np.uint64)
    np.negative(mag, out=mag, where=neg)  # |n| by wraparound, also for -2**63
    n_digits = np.searchsorted(_POW10, mag, side="right") + 1
    width = int(n_digits.max())
    size = (width + 9) // 8 * 8  # the sign slot, the digits and the separator, in words
    n_quads = (width + 3) // 4
    quads = np.empty((len(v), n_quads), np.uint32)
    table = digit_quads()
    for k in range(n_quads - 1, -1, -1):
        q = mag // 10_000
        quads[:, k] = table[mag - q * 10_000]
        mag = q
    cells = np.zeros((len(v), size), np.uint8)
    cells[:, size - 1 - width:-1] = quads.view(np.uint8)[:, 4 * n_quads - width:]
    place = np.arange(size)  # row d of keep: the bytes of a d-digit number's digits
    keep = (place >= size - 1 - np.arange(width + 1)[:, None]) & (place < size - 1)
    words = cells.view(np.uint64)
    words &= (keep * np.uint8(0xFF)).view(np.uint64).take(n_digits, axis=0)
    cells[:, 0] = neg * ord("-")
    return cells


def _write_vertex_rows(write, mesh: Mesh, csv: bool) -> None:
    """Write a row per vertex: `v x y z` (OBJ), or `i,j,x,y,z` (mesh CSV) for vertex i * n_angular + j.

    The rows are cut into runs of bit-identical x (a ring of a revolved
    mesh), each at most ROW_BLOCK rows and, in the mesh CSV, inside one
    ring.  format_17g turns the runs' x into text, ROW_BLOCK runs per call.
    The runs go out in windows of about VERTEX_WINDOW rows, and one
    format_17g call per window turns the y, z of each run whose bits no
    earlier run had into the run's template, kept for the rest of the call:
    its rows' `y sep z` text, joined by the byte 1 and ended by a line
    break; in the mesh CSV each row leads with its `j,` and the byte 2.  A
    run is its head (`v x `, or `i,` in the mesh CSV) and its template with
    each byte 1 replaced by a line break and the head, and in the mesh CSV
    each byte 2 by `x,`: one bytes.replace, two in the mesh CSV, wherever the
    run's y, z bits (and, in the mesh CSV, its first j) recur.  A symmetric
    profile's mirrored half repeats its rings bit for bit.  Comparing bits
    keeps -0.0 apart from 0.0.  The bytes are those of one f"{v:.17g}" per
    value, passed to write as bytes, one window at a time.
    """
    vertices = np.asarray(mesh.vertices, dtype=float)
    n = len(vertices)
    if n == 0:
        return
    bits = vertices[:, 0].view(np.int64)
    split = bits[1:] != bits[:-1]  # split[k]: a run ends after row k
    if csv:
        n_ring, sep = mesh.n_angular, b","
        split[n_ring - 1::n_ring] = True
        lead = _number_cells(np.arange(n_ring))  # each row's `j,`, then the byte 2 for `x,`
        lead[:, -1] = ord(",")
        lead = np.column_stack([lead, np.full(n_ring, 2, np.uint8)])
    else:
        n_ring, sep = 1, b" "
    cuts = [0]
    for end in [*(np.flatnonzero(split) + 1).tolist(), n]:
        cuts += range(cuts[-1] + ROW_BLOCK, end, ROW_BLOCK)
        cuts.append(end)
    firsts = np.array(cuts[:-1])
    xs = []  # the text of each run's x
    for lo in range(0, len(firsts), ROW_BLOCK):
        cells = format_17g(vertices[firsts[lo:lo + ROW_BLOCK], 0])
        cells[:, -1] = ord(sep)
        xs += cells_text(cells).split(sep)[:-1]
    templates = {}  # first j and y, z bits of a run -> its template
    lo = 0  # the window's first run
    while lo < len(cuts) - 1:
        hi = min(bisect.bisect_left(cuts, cuts[lo] + VERTEX_WINDOW, lo + 1), len(cuts) - 1)
        first = cuts[lo]
        runs = list(zip(cuts[lo:hi], cuts[lo + 1:hi + 1]))
        yz = vertices[first:cuts[hi], 1:].tobytes()
        keys = [(a % n_ring, yz[16 * (a - first):16 * (b - first)]) for a, b in runs]
        new = {}  # the window's runs with bits no earlier run had, by key
        for key, run in zip(keys, runs):
            if key not in templates:
                new.setdefault(key, run)
        if new:
            starts, ends = np.array(list(new.values())).T
            sizes = ends - starts
            ends = np.cumsum(sizes)  # each new run's end among the window's new rows
            rows = np.arange(ends[-1]) + np.repeat(starts - (ends - sizes), sizes)
            cells = format_17g(vertices[rows, 1:]).reshape(len(rows), 2 * TEXT_CELL)
            cells[:, TEXT_CELL - 1] = ord(sep)
            cells[:, -1] = 1  # ends each row of a run but its last
            cells[ends - 1, -1] = ord("\n")
            if csv:
                cells = np.concatenate([lead[rows % n_ring], cells], axis=1)
            templates.update(zip(new, cells_text(cells).splitlines(True)))
        parts = []
        for key, (a, _), x in zip(keys, runs, xs[lo:hi]):
            head = b"%d," % (a // n_ring) if csv else b"v " + x + b" "
            text = templates[key].replace(b"\1", b"\n" + head)
            parts += [head, text.replace(b"\2", x + b",") if csv else text]
        write(b"".join(parts))
        lo = hi


def _face_text(faces: np.ndarray) -> bytes:
    """The `f a b c` rows of faces (1-based): the bytes of one f"f {a} {b} {c}" line per face.

    Each number's text is made once, as a _number_cells cell: each number
    from the block's smallest entry to its largest when that span is under
    three times the entry count (a revolved mesh's block spans about half
    its faces plus a ring), else the entries themselves.  One take of whole
    words gathers three cells per face; the cells' last bytes take the
    spaces and the line break, and one bytes.replace puts 'f ' after each
    line break.
    """
    v = faces + 1
    lo, hi = int(v.min()), int(v.max())
    if hi - lo < 3 * v.size:
        cells = _number_cells(np.arange(hi - lo + 1) + lo).view(np.uint64).take(v - lo, axis=0)
    else:
        cells = _number_cells(v.ravel())
    rows = cells.view(np.uint8).reshape(len(v), 3, -1)
    rows[:, :, -1] = ord(" ")
    rows[:, -1, -1] = ord("\n")
    return b"f " + cells_text(rows).replace(b"\n", b"\nf ", len(v) - 1)


def export_obj(mesh: Mesh, sink) -> None:
    """Plain OBJ: `v x y z` then 1-based `f a b c` lines, LF, 17 digits."""
    with byte_sink(sink) as write:
        _write_vertex_rows(write, mesh, csv=False)
        for lo in range(0, len(mesh.faces), FACE_BLOCK):
            write(_face_text(mesh.faces[lo:lo + FACE_BLOCK]))


def export_mesh_csv(mesh: Mesh, sink) -> None:
    """Vertex table `i,j,x,y,z` (profile index, angular index) for plotting."""
    with byte_sink(sink) as write:
        write(b"i,j,x,y,z\n")
        _write_vertex_rows(write, mesh, csv=True)


def parse_obj(source) -> tuple[np.ndarray, np.ndarray]:
    """Read back vertices and 0-based faces from the OBJ text format.

    Returns (n, 3) float vertices and (m, 3) int64 faces, also when n or m
    is 0.  A face `f a b c d ...` is split into the fan (a, b, c),
    (a, c, d), ...; a face entry `a/t/n` is read as vertex a.  A negative
    entry -k is the kth vertex back from the last `v` line read so far.  A
    `v` line's entries past the third are ignored.  A `v` or `f` line with
    fewer than three entries, with an entry that is not a number (a vertex
    index for `f`), or with a vertex index of 0 or one counting back past
    the first vertex, raises ValueError naming its line number.
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
                    continue
                ks = [int(p.split("/")[0]) for p in parts[1:]]
            except ValueError:
                kind = "a number" if parts[0] == "v" else "an integer vertex index"
                raise ValueError(f"OBJ line {lineno}: {line.strip()!r} has an entry "
                                 f"that is not {kind}") from None
            if 0 in ks or min(ks) < -len(verts):
                raise ValueError(f"OBJ line {lineno}: {line.strip()!r} has a vertex index of 0 "
                                 f"or one counting back past the first vertex")
            a, *rest = (k - 1 if k > 0 else len(verts) + k for k in ks)
            faces += [[a, b, c] for b, c in zip(rest, rest[1:])]
    return (np.array(verts, dtype=float).reshape(-1, 3),
            np.array(faces, dtype=np.int64).reshape(-1, 3))
