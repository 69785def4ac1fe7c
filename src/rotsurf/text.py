"""Every file the package reads or writes: number text, sinks, CSV, OBJ and JSON.

Output is ASCII bytes, the same for the same input, written through
byte_sink.  Every float in a CSV, OBJ or JSON file is orjson's text of it
(_json): the shortest decimal that reads back to the same float64 bits
(Steele & White, PLDI 1990; Adams, "Ryu", PLDI 2018), in orjson's style:
1.0, -0.0, 0.00001, 1e-6, 1e16, 1.2345678901234568e17.  A float that is
not finite is written as null.  A mesh is written from its rings, a
profile's x and z and an angle table, with no vertex or face array: each
distinct z's ring of y, z text is made once (_write_rings), and face rows
from the band pattern (_face_text).  text_sink serves the readers.  This
module imports no other module of the package, and imports orjson on
first use, so that a process that reads and writes no file never loads it.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import warnings

import numpy as np

ROW_BLOCK = 1024  # rows of write_rows whose values take one _json call
FACE_BLOCK = 4096  # faces per _face_text call, in whole bands: one number table, gather, translate
# rows per window of _write_rings, whose x and new rings' y, z take one _json call each;
# the emit deck's meshes took 0.94 of 2048's time at 4096, and about as long at 8192 or 16384
VERTEX_WINDOW = 4096
# characters of profile CSV text that read_profile_csv parses in one call, then up to the line
# end: a whole 39 MB file in one call took 300 MB, blocks of this size about 20 MB more than loadtxt
READ_BLOCK = 1 << 20

# 10**1..10**19: an unsigned 64-bit n has one digit more than the powers <= n
_POW10 = np.array([10 ** k for k in range(1, 20)], np.uint64)


@contextlib.contextmanager
def text_sink(source, mode: str = "r"):
    """source opened in mode and closed on exit if it is a path, else source itself (a handle)."""
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, mode) as fh:
            yield fh
    else:
        yield source


@contextlib.contextmanager
def byte_sink(sink):
    """A write function for the ASCII bytes of an output file, on a path or a handle.

    A path is opened in binary mode, so lines end in LF as written, and
    closed on exit.  A binary handle (BytesIO, a file opened "wb") takes
    the bytes as they are; a text handle (StringIO, sys.stdout) takes each
    write decoded once.
    """
    with text_sink(sink, "wb") as fh:
        if isinstance(fh, io.TextIOBase):
            yield lambda data: fh.write(data.decode())
        else:
            yield fh.write


@functools.cache
def _digit_quads() -> np.ndarray:
    """The four ASCII digits of 0000..9999, each held in the bytes of one uint32.

    Built on first use, so importing the package costs nothing.
    """
    digits = np.arange(10_000)[:, None] // (1000, 100, 10, 1) % 10 + ord("0")
    quads = digits.astype(np.uint8).view(np.uint32).ravel()
    quads.flags.writeable = False  # shared by every call
    return quads


def cells_text(cells: np.ndarray) -> bytes:
    """The ASCII text of _number_cells cells (and their separators), in order: their bytes without NULs."""
    return cells.tobytes().translate(None, b"\0")


def _json(obj) -> bytes:
    """orjson's JSON text of obj; numpy arrays and scalars are written as lists and numbers.

    Each float is the shortest text that reads back to its bits, and null
    if it is not finite.  A whole array takes one C call; orjson refuses
    an array that is not C contiguous, such as a column view.
    """
    import orjson  # on first use, so that importing the package does not load it

    return orjson.dumps(obj, option=orjson.OPT_SERIALIZE_NUMPY)


def _floats(values) -> bytes:
    """_json's text of a float64 array: [a,b] for 1-d, [[a,b],[c,d]] for 2-d."""
    return _json(np.ascontiguousarray(values, dtype=float))


def _number_cells(v: np.ndarray) -> np.ndarray:
    """The f"{n}" text of each non-negative integer n of v, one cell of whole uint64 words each.

    A cell holds NULs, then the digits ending just before its last byte,
    which is left NUL for the caller's separator.  Its text is its bytes
    without NULs (cells_text).
    """
    mag = v.astype(np.uint64)
    n_digits = np.searchsorted(_POW10, mag, side="right") + 1
    width = int(n_digits.max())
    size = (width + 8) // 8 * 8  # the digits and the separator, in words
    n_quads = (width + 3) // 4
    quads = np.empty((len(v), n_quads), np.uint32)
    table = _digit_quads()
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
    return cells


def write_rows(write, *columns) -> None:
    """Write the columns side by side: one line per row, its values' text (_json) joined by commas.

    write takes bytes (a byte_sink).  A column is an array with one entry
    (1-d) or one row of entries (2-d) per line.  ROW_BLOCK lines at a time
    are stacked, and the block's [[a,b],[c,d]] text loses its outer
    brackets and has each `],[` made a line break, so no temporary
    outgrows a block.  The bytes are those of one orjson.dumps per value.
    """
    n = len(columns[0])
    for lo in range(0, n, ROW_BLOCK):
        block = np.column_stack([col[lo:lo + ROW_BLOCK] for col in columns])
        write(_floats(block)[2:-2].replace(b"],[", b"\n") + b"\n")


def write_csv(sink, header: bytes, *columns) -> None:
    """A CSV file: the header line, then write_rows's rows of the columns."""
    with byte_sink(sink) as write:
        write(header + b"\n")
        write_rows(write, *columns)


def _write_rings(write, x, z, sin_phi, cos_phi, csv: bool) -> None:
    """Write a row per vertex of the rings: `v x y z`, or with csv `i,j,x,y,z`, vertex j of ring i.

    Ring i has x[i] and the points z[i] * (sin_phi[j], cos_phi[j]), so the
    text of its y, z depends only on the bits of z[i]; keying by bits keeps
    -0.0 apart from 0.0, and NaN payloads apart.  The rings go out in
    windows of about VERTEX_WINDOW rows.  Per window, one _json call writes
    the x, and one the y, z of each ring whose z no earlier ring had, split
    into rows at `],[`.  Such a ring's y, z text is its template, kept for
    the rest of the export: its rows' `y z` (`y,z` in the mesh CSV) joined
    by the byte 1 and ended by a line break; in the mesh CSV each row leads
    with its `j,` and the byte 2.  A ring is its head (`v x `, or `i,` in the mesh CSV) and
    its template with each byte 1 replaced by a line break and the head,
    and in the mesh CSV each byte 2 by `x,`.  A symmetric profile's
    mirrored half repeats its z bit for bit.  The bytes are those of one
    orjson.dumps per value, passed to write one window at a time.
    """
    n_ring = len(sin_phi)
    # what goes before each row of a template: a line break before the first (cut off
    # below, so that templates split at line breaks) and the byte 1 before the others
    leads = [b"\n"] + [b"\1"] * (n_ring - 1)
    if csv:
        leads = [lead + b"%d,\2" % j for j, lead in enumerate(leads)]
    keys = np.ascontiguousarray(z, dtype=float).view(np.int64).tolist()
    templates = {}  # z bits -> the ring's template
    step = max(1, VERTEX_WINDOW // n_ring)  # rings per window
    for lo in range(0, len(x), step):
        hi = min(lo + step, len(x))
        new = [key for key in dict.fromkeys(keys[lo:hi]) if key not in templates]
        if new:  # the window's z whose bits no earlier ring had
            zs = np.array(new, np.int64).view(float)
            yz = np.stack([np.outer(zs, sin_phi).ravel(), np.outer(zs, cos_phi).ravel()], axis=-1)
            rows = _floats(yz)[2:-2].split(b"],[")  # `y,z` of each vertex
            text = b"".join(itertools.chain.from_iterable(zip(leads * len(new), rows)))
            if not csv:
                text = text.replace(b",", b" ")
            templates.update(zip(new, (text[1:] + b"\n").splitlines(True)))
        parts = []
        for i, key, xt in zip(range(lo, hi), keys[lo:hi], _floats(x[lo:hi])[1:-1].split(b",")):
            head = b"%d," % i if csv else b"v " + xt + b" "
            text = templates[key].replace(b"\1", b"\n" + head)
            parts += [head, text.replace(b"\2", xt + b",") if csv else text]
        write(b"".join(parts))


def _face_text(faces: np.ndarray) -> bytes:
    """The `f a b c` rows of faces (1-based): the bytes of one f"f {a} {b} {c}" line per face.

    The text of each number from the block's smallest entry to its largest
    is made once, as a _number_cells cell; a block of a revolved mesh spans
    about half its faces plus a ring.  One take of whole words gathers
    three cells per face; the cells' last bytes take the spaces and the
    line break, and one bytes.replace puts 'f ' after each line break.
    """
    v = faces + 1
    lo, hi = int(v.min()), int(v.max())
    cells = _number_cells(np.arange(lo, hi + 1)).view(np.uint64).take(v - lo, axis=0)
    rows = cells.view(np.uint8).reshape(len(v), 3, -1)
    rows[:, :, -1] = ord(" ")
    rows[:, -1, -1] = ord("\n")
    return b"f " + cells_text(rows).replace(b"\n", b"\nf ", len(v) - 1)


def write_obj(sink, x, z, sin_phi, cos_phi, band) -> None:
    """Plain OBJ of a revolution: `v x y z` then 1-based `f a b c` lines, LF.

    The vertices are _write_rings's rings of x, z and the angle table.  The
    faces between rings i and i + 1 are band + i * len(sin_phi); blocks of
    whole bands, about FACE_BLOCK faces, go through _face_text.
    """
    n_ring, n_bands = len(sin_phi), max(len(x) - 1, 0)
    step = max(1, FACE_BLOCK // len(band))  # bands per block
    with byte_sink(sink) as write:
        _write_rings(write, x, z, sin_phi, cos_phi, False)
        for lo in range(0, n_bands, step):
            shift = np.arange(lo, min(lo + step, n_bands))[:, None, None] * n_ring
            write(_face_text((shift + band).reshape(-1, 3)))


def write_mesh_csv(sink, x, z, sin_phi, cos_phi) -> None:
    """Vertex table `i,j,x,y,z` of a revolution's rings (_write_rings), i the ring, j the angle."""
    with byte_sink(sink) as write:
        write(b"i,j,x,y,z\n")
        _write_rings(write, x, z, sin_phi, cos_phi, True)


def write_json(sink, doc) -> None:
    """doc as one line of _json's text, to a path or a handle."""
    with byte_sink(sink) as write:
        write(_json(doc) + b"\n")


def _json_rows(block: str):
    """The lines of block, 4 numbers each, as an (n, 4) float64 array; None where JSON cannot spell them.

    Every token must be a JSON number and every line must hold 4 of them.
    With no quote, bracket, brace, letter t or l (true, false, null) and no
    whitespace but the line feeds, every value orjson reads is a number, and
    orjson reads numbers correctly rounded, as np.loadtxt does.  Each line feed
    is read as a null, so the lines hold 4 values each exactly when the
    nulls are every fifth value.  Anything else (nan, +1, .5, 5., 01,
    1e400, comment and blank lines, ragged rows) returns None.
    """
    import orjson  # on first use, as in _json

    if any(c in block for c in '"tl[{ \t\r'):
        return None
    if not block.endswith("\n"):  # the last line of a file may have no line feed
        block += "\n"
    try:
        values = orjson.loads("[" + block.replace("\n", ",null,")[:-1] + "]")
    except orjson.JSONDecodeError:
        return None
    n = len(values) // 5
    if len(values) != 5 * n or values[4::5].count(None) != n:
        return None
    del values[4::5]
    data = np.fromiter(values, float, 4 * n)
    zeros = np.flatnonzero(data == 0.0)
    if len(zeros):  # JSON reads -0 as the integer 0: the sign is the token's first byte
        text = np.frombuffer(block.encode(), np.uint8)
        ends = np.flatnonzero((text == ord(",")) | (text == ord("\n")))  # one per token
        starts = np.where(zeros > 0, ends[zeros - 1] + 1, 0)
        data[zeros[text[starts] == ord("-")]] = -0.0
    return data.reshape(n, 4)


def _is_loadtxt_number(field: str) -> bool:
    """Whether np.loadtxt reads field as a float: ASCII strtod text with
    whitespace around it, which is float() without digit underscores."""
    try:
        float(field)
    except ValueError:
        return False
    return field.isascii() and "_" not in field


def _width_error(row: int, n: int) -> str:
    return f"profile CSV data row {row} has {n} column{'s' * (n != 1)}, expected 4 (t,x,z,theta)"


def _bad_row(block: str, row0: int, names: list) -> str:
    """The message for the first bad data row of block, whose first data row is row0 + 1.

    A data row is a line with text before any '#', as np.loadtxt reads it.
    """
    row = row0
    for line in block.split("\n"):
        fields = line.split("#", 1)[0]
        if not fields:
            continue
        row += 1
        fields = fields.split(",")
        if len(fields) != len(names):
            return _width_error(row, len(fields))
        for name, field in zip(names, fields):
            if not _is_loadtxt_number(field):
                return f"profile CSV data row {row}: {name} is {field!r}, not a number"
    return ""


def read_profile_csv(source) -> np.ndarray:
    """The (n, 4) rows under a t,x,z,theta header.

    The rows are read one block of about READ_BLOCK characters at a time.
    A block of JSON numbers, 4 a line, is parsed by orjson (_json_rows);
    any other block by np.loadtxt.  Both round correctly, so the bits do
    not depend on the path.  ValueError names a bad header, columns other
    than 4, and a value that is not a number or not finite, with its data
    row (comment and blank lines are not counted) and column.
    """
    parts, rows = [], 0
    with text_sink(source) as fh:
        header = fh.readline().strip()
        if header != "t,x,z,theta":
            raise ValueError(f"unexpected profile CSV header: {header!r}")
        names = header.split(",")
        while block := fh.read(READ_BLOCK):
            block += fh.readline()  # the block ends at a line end
            data = _json_rows(block)
            if data is None:
                try:
                    with warnings.catch_warnings():  # a block without rows is fine
                        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                        data = np.loadtxt(io.StringIO(block), delimiter=",", ndmin=2)
                except ValueError as exc:
                    raise ValueError(_bad_row(block, rows, names) or str(exc)) from None
            if len(data):
                parts.append(data)
                rows += len(data)
    widths = {part.shape[1] for part in parts}
    if widths != {4}:
        if len(widths) > 1:  # blocks of different widths: name the first row not 4 wide
            row = 1
            for part in parts:
                if part.shape[1] != 4:
                    raise ValueError(_width_error(row, part.shape[1]))
                row += len(part)
        raise ValueError(f"profile CSV rows have {widths.pop() if widths else 0} columns, "
                         f"expected 4 (t,x,z,theta)")
    data = np.concatenate(parts) if len(parts) > 1 else parts[0]
    if not np.isfinite(data).all():
        row, col = np.argwhere(~np.isfinite(data))[0]
        raise ValueError(f"profile CSV data row {row + 1}: {names[col]} "
                         f"is {data[row, col]}, not a finite number")
    return data


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
