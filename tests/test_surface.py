import io
import math
from collections import Counter

import numpy as np
import orjson
import pytest

import rotsurf as rs
from rotsurf import Mesh
from rotsurf.cli import main
from rotsurf.text import FACE_BLOCK, ROW_BLOCK, VERTEX_WINDOW

SQRT2 = math.sqrt(2.0)


def edge_census(faces):
    """Directed-edge counts: a consistently oriented manifold strip uses
    every undirected interior edge once in each direction."""
    directed = Counter()
    for tri in faces:
        for i in range(3):
            directed[(int(tri[i]), int(tri[(i + 1) % 3]))] += 1
    reused = sum(1 for c in directed.values() if c != 1)
    boundary = sum(1 for (u, v) in directed if directed.get((v, u), 0) == 0)
    return reused, boundary


def reference_faces(n_p, n_ang):
    """The face list as a plain double loop over profile and angular indices."""
    faces = []
    for i in range(n_p - 1):
        for j in range(n_ang):
            j1 = (j + 1) % n_ang
            a, b = i * n_ang + j, (i + 1) * n_ang + j
            c, d = (i + 1) * n_ang + j1, i * n_ang + j1
            faces += [(a, b, c), (a, c, d)]
    return np.asarray(faces, dtype=np.int64)


def num(v) -> str:
    """A float's text in every file: one orjson.dumps of it (null if not finite)."""
    return orjson.dumps(float(v)).decode()


def row_loop_texts(mesh):
    """A mesh's OBJ and mesh CSV text from its vertex and face arrays, one f-string per row."""
    verts, faces, n_ang = mesh.vertices, mesh.faces, mesh.n_angular
    obj = "".join(f"v {num(v[0])} {num(v[1])} {num(v[2])}\n" for v in verts)
    obj += "".join(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n" for f in faces)
    csv = "i,j,x,y,z\n" + "".join(
        f"{k // n_ang},{k % n_ang},{num(v[0])},{num(v[1])},{num(v[2])}\n"
        for k, v in enumerate(verts))
    return obj, csv


def assert_export_is_the_row_loop(mesh):
    """OBJ and mesh CSV export against one f-string per row."""
    obj, csv = io.StringIO(), io.StringIO()
    rs.export_obj(mesh, obj)
    rs.export_mesh_csv(mesh, csv)
    ref_obj, ref_csv = row_loop_texts(mesh)
    assert obj.getvalue() == ref_obj
    assert csv.getvalue() == ref_csv


def distinct_rings(mesh):
    """How many rings of a mesh differ in the bits of their y, z columns.

    Each equals the number of distinct z bits: a ring's y, z are its z
    times one sin/cos table.
    """
    yz = mesh.vertices[:, 1:].reshape(mesh.n_profile, mesh.n_angular * 2)
    n = len({ring.tobytes() for ring in yz})
    assert n == len(set(np.asarray(mesh.z, dtype=float).view(np.int64).tolist()))
    return n


class TestRevolve:
    def test_faces_match_reference_loop(self):
        for prof, n_ang in ((rs.sphere_profile(n=7), 5), (rs.sphere_profile(n=31), 12),
                            (rs.cylinder_profile(1.0, n=2), 3), (rs.cylinder_profile(2.0, n=9), 16)):
            mesh = rs.revolve(prof, n_ang)
            ref = reference_faces(len(prof), n_ang)
            assert mesh.faces.dtype == np.int64
            assert np.array_equal(mesh.faces, ref)
            assert mesh.n_faces == len(ref)

    def test_vertex_count_and_meridian(self):
        prof = rs.sphere_profile(n=71)
        mesh = rs.revolve(prof, 24)
        assert mesh.vertices.shape == (71 * 24, 3)
        ring0 = mesh.vertices[::24]
        assert np.array_equal(ring0[:, 0], prof.x)
        assert np.max(np.abs(ring0[:, 2] - prof.z)) == 0.0
        assert np.max(np.abs(ring0[:, 1])) == 0.0

    def test_sphere_vertices_on_sphere(self):
        mesh = rs.revolve(rs.sphere_profile(n=201), 48)
        d = np.linalg.norm(mesh.vertices - np.array([-SQRT2, 0.0, 0.0]), axis=1)
        assert np.max(np.abs(d - SQRT2)) <= 1e-12

    def test_cylinder_radius(self):
        mesh = rs.revolve(rs.cylinder_profile(2.0, n=9), 16)
        r = np.hypot(mesh.vertices[:, 1], mesh.vertices[:, 2])
        assert np.max(np.abs(r - 1.0)) <= 1e-15

    def test_rotational_symmetry_permutation(self):
        prof = rs.sphere_profile(n=31)
        n_ang = 20
        mesh = rs.revolve(prof, n_ang)
        phi = 2 * math.pi / n_ang
        rot = np.array([
            [1, 0, 0],
            [0, math.cos(phi), math.sin(phi)],
            [0, -math.sin(phi), math.cos(phi)],
        ])
        rotated = mesh.vertices @ rot.T
        rings = mesh.vertices.reshape(31, n_ang, 3)
        rolled = np.roll(rings, -1, axis=1).reshape(-1, 3)
        assert np.max(np.abs(rotated - rolled)) <= 1e-12

    def test_outward_orientation_on_cylinder(self):
        mesh = rs.revolve(rs.cylinder_profile(1.0, n=3), 12)
        for tri in mesh.faces[:24]:
            a, b, c = mesh.vertices[tri]
            n = np.cross(b - a, c - a)
            centroid = (a + b + c) / 3.0
            assert np.dot(n, [0.0, centroid[1], centroid[2]]) > 0.0

    def test_manifold_interior(self):
        mesh = rs.revolve(rs.sphere_profile(n=41), 18)
        reused, boundary = edge_census(mesh.faces)
        assert reused == 0
        assert boundary == 2 * 18  # two open boundary rings, no caps

    def test_angular_minimum(self):
        with pytest.raises(ValueError):
            rs.revolve(rs.cylinder_profile(1.0), 2)

    @pytest.mark.parametrize("n_angular", [3, 8, 30, 129, 1024])
    def test_angle_table_is_libm(self, n_angular):
        # a unit ring's y and z are the sin and cos table, which must be
        # libm's bit for bit whatever SIMD loops numpy dispatches to
        ring = rs.revolve(rs.cylinder_profile(1.0), n_angular).vertices[:n_angular]
        phi = [2.0 * math.pi * j / n_angular for j in range(n_angular)]
        assert ring[:, 1].tobytes() == np.array([math.sin(p) for p in phi]).tobytes()
        assert ring[:, 2].tobytes() == np.array([math.cos(p) for p in phi]).tobytes()


class TestExport:
    def test_single_triangle_obj(self):
        # the smallest revolution: 2 rings of 3 angles, 6 vertices and 6 faces
        mesh = Mesh(np.array([0.0, 1.0]), np.array([1.0, 1.0]), 3, "test")
        buf = io.StringIO()
        rs.export_obj(mesh, buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 12 and mesh.n_faces == 6
        assert lines[0] == "v 0.0 0.0 1.0"
        assert lines[6] == "f 1 4 5"
        assert lines[-1] == "f 3 4 1"

    def test_obj_roundtrip_bit_exact(self):
        mesh = rs.revolve(rs.sphere_profile(n=17), 9)
        buf = io.StringIO()
        rs.export_obj(mesh, buf)
        buf.seek(0)
        verts, faces = rs.parse_obj(buf)
        assert np.array_equal(verts, mesh.vertices)
        assert np.array_equal(faces, mesh.faces)

    def test_mesh_csv_layout(self):
        mesh = rs.revolve(rs.cylinder_profile(1.0, n=2), 3)
        buf = io.StringIO()
        rs.export_mesh_csv(mesh, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "i,j,x,y,z"
        assert len(lines) == 1 + 6
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"

    def test_export_is_the_row_loop_at_block_edges(self, format_branches):
        # OBJ and mesh CSV against one f-string per row, on each side of a
        # window edge, with a value for every branch of the float formatter
        rng = np.random.default_rng(11)
        special = np.concatenate([format_branches, [np.nan, np.inf, -np.inf]])
        meshes = []
        # x and z of every branch, NaN and +-inf, with random signs; 0, 1 and
        # 2 rings, and ring counts around one and two windows of
        # VERTEX_WINDOW // n_angular rings: at 4 angles the window edge is
        # VERTEX_WINDOW rows and ROW_BLOCK rows fall inside a window, at 5
        # both fall inside a ring
        for n_angular in (4, 5):
            window = VERTEX_WINDOW // n_angular
            for n in (0, 1, 2, ROW_BLOCK // n_angular, window - 1, window, window + 1,
                      2 * window + 1):
                x = np.resize(special, n) * rng.choice([1.0, -1.0], n)
                z = np.resize(np.roll(special, 5), n) * rng.choice([1.0, -1.0], n)
                meshes.append(Mesh(x, z, n_angular, "test"))
        # x that == would merge (0.0 then -0.0) or split (NaN) on neighbouring rings
        x = np.array([0.0, -0.0, np.nan, np.nan, -0.0, 0.0, 1.0])
        meshes.append(Mesh(x, rng.standard_normal(len(x)), 3, "test"))
        # revolved meshes: rings of n_angular across ROW_BLOCK and window edges,
        # and rings longer than a window
        for n_angular in (3, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, VERTEX_WINDOW + 1):
            meshes.append(rs.revolve(rs.sphere_profile(n=7 if n_angular < 1024 else 3),
                                     n_angular))
        # 1-based vertex numbers go from 9,999 to 10,000 inside one face block
        # (the whole bands of 200 faces that fit in FACE_BLOCK), and in the
        # last faces only the second and third columns reach 10,000
        wide = rs.revolve(rs.sphere_profile(n=100), 100)
        size = FACE_BLOCK // 200 * 200
        block = (np.flatnonzero(wide.faces == 9999)[0] // 3) // size * size
        assert {9999, 10000} <= set((wide.faces[block:block + size] + 1).ravel())
        meshes.append(wide)
        with np.errstate(invalid="ignore"):  # an infinite z times sin 0 is NaN
            for mesh in meshes:
                assert_export_is_the_row_loop(mesh)

    def test_export_is_the_row_loop_on_repeated_rings(self):
        # the writer formats the y, z of each distinct z once and reuses its
        # text: repeats far apart and many times, under other x, in later
        # windows, and bits that compare equal but print differently
        nan2 = np.frombuffer(np.array([0x7FF8_0000_0000_0001], np.int64).tobytes())[0]
        far = np.concatenate([[1.5], np.linspace(2.0, 3.0, 2 * VERTEX_WINDOW), [1.5, 2.0]])
        for zs, xs in (([0.5, 2.0, 0.5], [1.0, 2.0, 3.0]),  # repeat, not adjacent
                       ([0.5, 0.5, 2.0, 0.5, 0.5], [1.0, 2.0, 3.0, 4.0, 5.0]),  # four times
                       ([0.5, 0.5, 0.5], [7.0, 7.0, -7.0]),  # two rings under one x
                       (far, np.arange(len(far), dtype=float)),  # windows later
                       ([0.5, np.nextafter(0.5, 1.0)] * 2, [1.0, 2.0, 3.0, 4.0]),  # one ulp apart
                       ([0.0, -0.0, 0.0, -0.0], [0.0, -0.0, 0.0, 1.0]),
                       ([np.nan, nan2, np.nan, nan2, -np.nan], [1.0, 1.0, 2.0, 2.0, 3.0])):
            assert_export_is_the_row_loop(Mesh(np.array(xs), np.array(zs), 3, "test"))
        # symmetric profiles: their mirrored half repeats the first half's
        # z, also in rings of n_angular above ROW_BLOCK
        z = np.array([1.5, 2.0, 2.5, 2.0, 1.5])
        prof = rs.ProfileCurve(np.arange(5.0), np.arange(5.0) - 2.0, z, np.zeros(5))
        for n_angular in (3, ROW_BLOCK, ROW_BLOCK + 1, 1024):
            mesh = rs.revolve(prof, n_angular)
            assert distinct_rings(mesh) == 3
            assert_export_is_the_row_loop(mesh)
        mesh = rs.revolve(rs.sphere_profile(n=41), 12)
        assert distinct_rings(mesh) < 41
        assert_export_is_the_row_loop(mesh)

    def test_cli_mesh_builds_no_vertex_or_face_array(self, cfg, tmp_path, monkeypatch):
        # the CLI writes a mesh from its rings: with the arrays unreachable,
        # both files are still the row loop of the mesh's arrays
        def refuse(mesh):
            raise AssertionError("the export built a vertex or face array")

        argv = ["mesh", "--lambda", "2.5", "--span", "2", "--n-angular", "8", "--out"]
        with monkeypatch.context() as patch:
            patch.setattr(Mesh, "vertices", property(refuse))
            patch.setattr(Mesh, "faces", property(refuse))
            for name in ("m.obj", "m.csv"):
                assert main(argv + [str(tmp_path / name)]) == 0
        mesh = rs.revolve(rs.cli._profile_for_lambda(2.5, 2.0, cfg), 8)
        ref_obj, ref_csv = row_loop_texts(mesh)
        assert (tmp_path / "m.obj").read_bytes() == ref_obj.encode()
        assert (tmp_path / "m.csv").read_bytes() == ref_csv.encode()

    def test_parse_obj_shapes(self):
        # no v or f lines still give (0, 3) arrays; a polygon is split into a
        # fan of triangles, and an `a/t/n` entry is vertex a
        for text, n_v, faces in (("", 0, []), ("# comment\n", 0, []), ("v 1 2 3\n", 1, []),
                                 ("f 1 2 3\nf 2 3 4\n", 0, [[0, 1, 2], [1, 2, 3]]),
                                 ("v 1 2 3 4\nf 1 1 1 1\n", 1, [[0, 0, 0], [0, 0, 0]]),
                                 ("f 1 2 3 4 5\n", 0, [[0, 1, 2], [0, 2, 3], [0, 3, 4]]),
                                 ("f 1/1 2/2 3/3\nf 4//1 5/2/1 6 7/3\n", 0,
                                  [[0, 1, 2], [3, 4, 5], [3, 5, 6]]),
                                 # a negative entry counts back from the last v line so far
                                 ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n", 3, [[0, 1, 2]]),
                                 ("v 0 0 0\nv 1 0 0\nf -2 -1 1\nv 1 1 1\nf -1/1 -2 -3//2 3\n", 3,
                                  [[0, 1, 0], [2, 1, 0], [2, 0, 2]])):
            verts, got = rs.parse_obj(io.StringIO(text))
            assert verts.shape == (n_v, 3) and verts.dtype == np.float64
            assert got.dtype == np.int64
            assert np.array_equal(got, np.reshape(faces, (-1, 3)))

    @pytest.mark.parametrize("text, lineno", [
        ("v 1 2\n", 1),
        ("v 1 2 3\n\nv 1 2\n", 3),  # ragged v lines
        ("v 1 2 3\nv\n", 2),
        ("v 1 2 3\nf 1 1\n", 2),
        ("f\n", 1),
        ("v 1 2 3\nf 1/1 2/2 x/3\n", 2),  # entries that are not vertex indices
        ("f 1 2 3\nf 1.5 2 3\n", 2),
        ("f 1 2 /3\n", 1),
        ("v 1 2 3\nv 1 x 3\n", 2),
        ("v 1 2 3\nf 0 1 1\n", 2),  # OBJ numbers vertices from 1
        ("v 1 2 3\nv 1 2 3\nf 1 2 -3\n", 3),  # counts back past the first vertex
        ("f -1 1 2\nv 1 2 3\n", 1),
    ])
    def test_parse_obj_short_line_names_it(self, text, lineno):
        with pytest.raises(ValueError, match=f"line {lineno}:"):
            rs.parse_obj(io.StringIO(text))

    def test_deterministic_bytes(self):
        mesh = rs.revolve(rs.sphere_profile(n=17), 9)
        a, b = io.StringIO(), io.StringIO()
        rs.export_obj(mesh, a)
        rs.export_obj(mesh, b)
        assert a.getvalue() == b.getvalue()


class TestRingSymmetry:
    """The symmetry that lets the writer format a repeated ring once.

    A profile is a backward half plus its mirror, which keeps z bit for bit
    at exactly negated times, and revolve multiplies equal z by one sin/cos
    table, so mirrored rings repeat.  If a change breaks that, export slows
    down with the same bytes, and these counts are where it shows.
    """

    def test_full_curve_mirror_keeps_z_bits(self, cfg):
        tr = rs.full_curve(4.0, cfg)
        assert np.array_equal(tr.ts[::-1], -tr.ts)  # the node at -ts[k] is the kth from the end
        z = np.ascontiguousarray(tr.ys[:, 1])
        assert np.array_equal(z[::-1].view(np.int64), z.view(np.int64))

    def test_distinct_rings_of_the_contract_mesh(self, tmp_path):
        out = tmp_path / "mesh.obj"
        assert main(["mesh", "--lambda", "2.5", "--span", "2", "--n-angular", "8",
                     "--out", str(out)]) == 0
        verts, faces = rs.parse_obj(out)
        # angle 0 has sin 0 and cos 1, so its column holds each ring's x and z
        mesh = Mesh(verts[::8, 0], verts[::8, 2], 8, "contract")
        assert np.array_equal(mesh.vertices, verts) and np.array_equal(mesh.faces, faces)
        assert (distinct_rings(mesh), mesh.n_profile) == (216, 423)

    @pytest.mark.parametrize("n_angular", [3, 12, 30, 129, ROW_BLOCK + 1])
    def test_distinct_rings_of_the_sphere(self, n_angular):
        mesh = rs.revolve(rs.sphere_profile(), n_angular)
        assert (distinct_rings(mesh), mesh.n_profile) == (758, 1201)
