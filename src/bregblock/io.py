"""Matrix file formats and synthetic planted-community instances.

Readers cover MatrixMarket (coordinate and array, real, general and
symmetric storage) and headerless CSV of floats; the writer emits dense
MatrixMarket array files with 17 significant digits so every double
round-trips bitwise.  A reader rescans the body line by line, in the same
slices, only after a bulk conversion or count check failed, to name the line.

The writer prints each value as ``"%.17g" % x`` does, byte for byte, but
with numpy arithmetic over slabs of at most _SLAB values: the double-double
scaling of _format_17g decides the correctly rounded 17 digits of every
finite value in its range, and hands the few it cannot decide (exact ties,
values at a power of ten, non-finite or out-of-range ones) to ``"%.17g"``
itself.  It holds the matrix and one slab's arrays at a time.

A reader decodes the file as UTF-8 and converts it in line-aligned slices
of about _CHUNK_CHARS characters straight into the result, so it holds the
matrix and one slice's text and tokens at a time, never the file's whole
text.  Coordinate indices go through int(), a slice at a time; values go
through _values, but in a CSV slice holding whitespace, whose cells go to
float() one by one.  _values reads them with _floats, bit for bit as
``float()`` does, with numpy arithmetic: one np.fromstring for the digits
of a slice's tokens and the writer's double-double scaling run backwards.
It hands the rare token it cannot decide to ``float()``, and a slice it
cannot read in bulk (one holding "nan", "inf", "_", non-ASCII text or a
malformed token, or one whose tokens it mostly cannot decide) to
``float()`` token by token, as it does a slice whose first tokens
``float()`` reads faster (short ones with an exponent) or that mostly
cannot be decided (20 digits or more).  Each slice is judged on its own.
"""

from __future__ import annotations

import functools
import io
import itertools
import math
import os
import re
from typing import Sequence

import numpy as np

from .blocks import Array, ParameterError


class ParseError(ValueError):
    """Malformed input file; carries the path and 1-based line number."""

    def __init__(self, path, line: int, message: str):
        self.path = str(path)
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


class ShapeError(ValueError):
    """Input matrix has the wrong shape for the requested operation."""


def read_matrix(path, require_square: bool = True) -> Array:
    """Load a matrix from a MatrixMarket or headerless CSV file.

    MatrixMarket symmetric storage is expanded to the full matrix.  With
    ``require_square`` (the default, suitable for solve input) non-square
    data raises ShapeError.  The file must be UTF-8 text, with or without a BOM.
    """
    # universal newlines: no "\r" is left
    with open(path, "r", encoding="utf-8-sig") as fh:  # "-sig": a leading BOM is dropped
        max_chars = os.fstat(fh.fileno()).st_size  # a character takes a byte or more
        if not fh.seekable():  # a pipe: a reader may read the file again
            data = fh.buffer.read()
            fh = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig")
            max_chars = len(data)
        try:
            first = next(_chunks(fh), "").splitlines()
            if first and first[0].lstrip().startswith("%%MatrixMarket"):
                matrix = _read_matrix_market(fh, max_chars, path)
            else:
                matrix = _read_csv(fh, path)
        except UnicodeDecodeError:
            # read again, each byte UTF-8 cannot decode as a lone surrogate
            fh.seek(0)  # drops what is decoded, which reconfigure requires
            fh.reconfigure(errors="surrogateescape")
            for no, line, _, _ in _lines(_chunks(fh)):
                if bad := _UNDECODED.search(line):
                    raise ParseError(path, no, f"cannot decode byte "
                                     f"0x{ord(bad[0]) - 0xDC00:02x} as UTF-8") from None
            raise
    if require_square and matrix.shape[0] != matrix.shape[1]:
        raise ShapeError(f"{path}: expected a square matrix, got {matrix.shape}")
    return matrix


_UNDECODED = re.compile("[\udc80-\udcff]")


# The line boundaries of str.splitlines; a line that splitlines(True) gives
# holds them only at its end.
_EOL = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def _lines(chunks):
    """(number, line, its chunk, offset just past it in the chunk) for each
    line of the text that the line-aligned ``chunks`` make up, split by
    str.splitlines slice by slice: every cut falls just after a newline, so
    the numbers are those of the whole text's splitlines."""
    no = 0
    for chunk in chunks:
        end = 0
        for no, line in enumerate(chunk.splitlines(True), no + 1):
            end += len(line)
            yield no, line.rstrip(_EOL), chunk, end


def _entry_lines(fh, after: int):
    """(number, tokens) for each non-blank, non-comment line of ``fh`` after
    line ``after``.  Only error paths rescan the body this way, to name the
    line at fault."""
    for no, line, _, _ in _lines(_chunks(fh)):
        tokens = line.split()
        if no > after and tokens and not tokens[0].startswith("%"):
            yield no, tokens


def _convert(kind, token: str, path, no: int, what: str):
    try:
        return kind(token)
    except ValueError:
        raise ParseError(path, no, f"bad {what}: {token!r}") from None


def _read_matrix_market(fh, max_chars: int, path) -> Array:
    chunks = _chunks(fh)
    lines = _lines(chunks)
    _, first, _, _ = next(lines)
    header = first.split()
    if len(header) != 5 or header[0] != "%%MatrixMarket" or header[1].lower() != "matrix":
        raise ParseError(path, 1, f"bad MatrixMarket header: {first!r}")
    fmt, field, symmetry = (tok.lower() for tok in header[2:5])
    if fmt not in ("coordinate", "array"):
        raise ParseError(path, 1, f"unsupported format {fmt!r}")
    if field not in ("real", "double", "integer"):
        raise ParseError(path, 1, f"unsupported field {field!r}")
    if symmetry not in ("general", "symmetric"):
        raise ParseError(path, 1, f"unsupported symmetry {symmetry!r}")

    size_no = 1
    for size_no, line, chunk, offset in lines:
        size_tok = line.split()
        if size_tok and not size_tok[0].startswith("%"):
            break
    else:
        raise ParseError(path, size_no, "missing size line")
    if len(size_tok) != (3 if fmt == "coordinate" else 2):
        shape = "'rows cols nnz'" if fmt == "coordinate" else "'rows cols'"
        raise ParseError(path, size_no, f"{fmt} size line must be {shape}")
    sizes = [_convert(int, tok, path, size_no, "size") for tok in size_tok]
    if min(sizes) < 0:
        raise ParseError(path, size_no, f"negative size in {line.strip()!r}")
    symmetric = symmetry == "symmetric"
    if symmetric and sizes[0] != sizes[1]:
        raise ParseError(path, size_no, "symmetric storage requires a square matrix")

    lines.close()  # frees the split lines of the slice that holds the size line
    body = itertools.chain((chunk[offset:],), chunks)
    if fmt == "coordinate":
        return _coordinate(body, fh, max_chars, size_no, *sizes, symmetric, path)
    return _array(body, fh, max_chars, size_no, *sizes, symmetric, path)


# A slice's tokens and index arrays take about 13 bytes per character for
# 17-digit values, and up to about 60 for one-digit ones.  Slices of 256 KiB
# read an m=1000 "%.17g" file about 5% faster, and raise a process's peak
# RSS by about 5 MB more.
_CHUNK_CHARS = 1 << 16


def _chunks(fh):
    """``fh`` from its start in slices of _CHUNK_CHARS characters, each carried
    on to the end of its line: in universal-newline mode, every cut but the
    last falls just after a newline, between two lines and two tokens."""
    fh.seek(0)
    while chunk := fh.read(_CHUNK_CHARS):
        if not chunk.endswith("\n"):
            chunk += fh.readline()
        yield chunk


def _uncommented(chunk: str) -> str:
    if "%" not in chunk:
        return chunk
    return "\n".join(line for line in chunk.splitlines() if not line.lstrip().startswith("%"))


def _array(body, fh, max_chars: int, size_no: int, rows: int, cols: int, symmetric: bool,
           path) -> Array:
    """Fill a matrix from the values of the array body in the slices ``body``
    of the file ``fh``, of at most ``max_chars`` characters; the values run
    down the columns (of the lower triangle, for symmetric storage)."""
    n = rows * (rows + 1) // 2 if symmetric else rows * cols
    pos = 0
    try:
        # each value takes a character and all but the last a separator
        if 2 * n - 1 > max_chars:
            raise ValueError("more values than characters")
        matrix = np.empty((rows, cols))
        if symmetric:  # value number start[c] is the diagonal entry of column c
            c = np.arange(rows)
            start = c * rows - c * (c - 1) // 2
        for data in map(_uncommented, body):
            values = _values(data)
            if pos + values.size > n:
                raise ValueError("more values than the size line gives")
            if symmetric:
                p = np.arange(pos, pos + values.size)
                c = np.searchsorted(start, p, side="right") - 1
                r = p - start[c] + c
                matrix[r, c] = matrix[c, r] = values
            elif values.size:  # value p is entry (p % rows, p // rows): fill by columns
                c, r = divmod(pos, rows)
                k = min(-r % rows, values.size)  # ends the column an earlier slice began
                matrix[r:r + k, c] = values[:k]
                c, (full, tail) = c + (r > 0), divmod(values.size - k, rows)
                matrix[:, c:c + full] = values[k:k + full * rows].reshape(full, rows).T
                matrix[:tail, c + full:c + full + 1] = values[values.size - tail:, None]
            pos += values.size
        if pos != n:
            raise ValueError("fewer values than the size line gives")
    except ValueError:
        found, last = 0, size_no
        for last, tokens in _entry_lines(fh, size_no):
            found += len(tokens)
        if found != n:
            raise ParseError(path, last, f"expected {n} values, found {found}") from None
        for no, tokens in _entry_lines(fh, size_no):
            for tok in tokens:
                _convert(float, tok, path, no, "value")
        raise
    return matrix


def _coordinate(body, fh, max_chars: int, size_no: int, rows: int, cols: int, nnz: int,
                symmetric: bool, path) -> Array:
    """Fill a matrix from the ``i j value`` lines of a coordinate body, as
    _array; a position's last entry wins, as in an entry-by-entry fill."""
    pos = 0
    try:
        # each entry takes three characters and all but the last three separators
        if 6 * nnz - 1 > max_chars:
            raise ValueError("more entries than characters")
        try:
            matrix = np.zeros((rows, cols))
        except (ValueError, MemoryError):
            raise ParseError(path, size_no, f"cannot allocate a {rows} x {cols} matrix") from None
        for data in map(_uncommented, body):
            counts = np.fromiter(map(len, map(str.split, data.splitlines())), int)
            counts = counts[counts > 0]
            n, pos = len(counts), pos + len(counts)
            if pos > nnz or (counts != 3).any():
                raise ValueError("more entries than the size line gives, or a short or long one")
            tokens = data.split()
            i = np.fromiter(map(int, tokens[0::3]), np.int64, count=n) - 1
            j = np.fromiter(map(int, tokens[1::3]), np.int64, count=n) - 1
            v = _values(" ".join(tokens[2::3]))
            if ((i < 0) | (i >= rows) | (j < 0) | (j >= cols)).any():
                raise ValueError("an index out of range")
            if symmetric:  # each entry writes (i, j), then its mirror (j, i)
                i, j, v = np.stack((i, j), 1).ravel(), np.stack((j, i), 1).ravel(), np.repeat(v, 2)
            # the slice's last write to a position wins; fancy assignment
            # leaves the order of repeated writes unspecified
            flat = i * cols + j
            _, first = np.unique(flat[::-1], return_index=True)
            last = flat.size - 1 - first
            matrix[i[last], j[last]] = v[last]
        if pos != nnz:
            raise ValueError("fewer entries than the size line gives")
    except (ValueError, OverflowError):
        found = sum(1 for _ in _entry_lines(fh, size_no))
        if found != nnz:
            raise ParseError(path, size_no, f"expected {nnz} entries, found {found}") from None
        for no, tok in _entry_lines(fh, size_no):
            if len(tok) != 3:
                raise ParseError(path, no, "coordinate entry must be 'i j value'") from None
            r = _convert(int, tok[0], path, no, "row index")
            c = _convert(int, tok[1], path, no, "column index")
            if not (1 <= r <= rows and 1 <= c <= cols):
                raise ParseError(path, no, f"index ({r}, {c}) out of range") from None
            _convert(float, tok[2], path, no, "value")
        raise
    return matrix


def _read_csv(fh, path) -> Array:
    # a first pass over the file checks each row's width and counts the
    # rows, so that a second converts the values straight into the matrix
    rows = width = 0
    try:
        for lines in _csv_rows(fh):
            width = width or (lines[0].count(",") + 1 if lines else 0)
            if any(line.count(",") != width - 1 for line in lines):
                raise ValueError("ragged rows")
            rows += len(lines)
        matrix = np.empty((rows, width))
        flat, pos = matrix.reshape(-1), 0
        for lines in filter(None, _csv_rows(fh)):
            text, n = ",".join(lines), len(lines) * width
            # splitlines leaves " ", "\t" and "\x1f" the only ASCII whitespace:
            # without them a cell holds one token or, empty, none, which the
            # count finds; with them, float() reads each cell alone
            if text.isascii() and not any(map(text.__contains__, " \t\x1f")):
                values = _values(text.replace(",", " "))
            else:
                values = np.fromiter(map(float, text.split(",")), float, count=n)
            flat[pos:pos + n] = values.reshape(n)  # a ValueError unless n values
            pos += n
    except ValueError:
        # name the first line with a bad cell or a different width
        for no, line, _, _ in _lines(_chunks(fh)):
            if not line.strip():
                continue
            cells = line.split(",")
            try:
                list(map(float, cells))
            except ValueError as exc:
                raise ParseError(path, no, f"not a number: {exc}") from None
            if len(cells) != width:
                raise ParseError(path, no, f"expected {width} columns, found {len(cells)}")
        raise
    if not rows:
        raise ParseError(path, 1, "no data found")
    return matrix


def _values(text: str) -> Array:
    """float() of each whitespace-separated token of ``text``, by _floats where it can."""
    if (values := _floats(text)) is None:
        tokens = text.split()
        values = np.fromiter(map(float, tokens), float, count=len(tokens))
    return values


def _csv_rows(fh):
    """The non-blank lines of each slice of ``fh``."""
    for chunk in _chunks(fh):
        yield list(filter(str.strip, chunk.splitlines()))


# "%.17g" in bulk.  For a finite x != 0 with decimal exponent K, "%.17g"
# prints D, the integer nearest |x|·10**(16 - K) (ties to even; 10**16 <= D
# < 10**17), in %g's fixed or exponential form.  With s = 16 - K from
# _SCALES, 10**s is held as H + L (H the double nearest it, L the double
# nearest the rest, both from exact integers: |10**s - H - L| <= 2**-106·H),
# and a Dekker two-product gives |x|·H = p + e exactly.  So y = |x|·10**s is
# p + t, t = e + |x|·L, to within 1e-14: |x|·L < 2**4 and |t| < 2**5 round
# by at most 2**-49 each, and |x|·(10**s - H - L) < 2**-49.  A value is
# decided when p lies 64 or more inside [10**16, 10**17), so that K is right
# and D does not carry into an 18th digit, and the fraction of t is 1e-6 or
# more away from 1/2, so that p + round(t) is the nearest integer to y.  The
# range of s keeps |x|, H and the halves and products of both finite and
# normal.  Everything else goes through "%.17g" itself.
_SCALES = range(-283, 301)
# the values, down the columns, that one slab of the writer holds
_SLAB = 1 << 12
# a printed value is a row of six words of eight bytes, the characters
# "%.17g" prints in their slots and 0 bytes in the unused slots, deleted on
# output: [sign, "0.000" for -4 <= K < 0, 0, 0], four words of four digits
# each with a point slot after it, [17th digit, point slot, exponent and "\n"]
_WORD = np.dtype("<u8")


def _split(a):
    """Veltkamp's split of ``a`` into halves of at most 26 bits each."""
    c = 134217729.0 * a  # (2**27 + 1)·a
    big = c - (c - a)
    return big, a - big


@functools.cache  # built on the first write, not on import: about 3 ms
def _scale_tables():
    """For each s in _SCALES: H, its halves and L; the first word's prefix,
    the last word's suffix, and the digit the point follows (negative when it is
    in the prefix; the point shows only before a fraction's digits)."""
    H, L, head, tail, point = [], [], [], [], []
    for s in _SCALES:
        if s >= 0:
            power = 10 ** s
            h = float(power)  # int to float rounds correctly
            rest = float(power - int(h))
        else:
            power = 10 ** -s
            h = 1 / power  # so does int / int
            m, e = math.frexp(h)
            k = 53 - e  # h = int(m·2**53) / 2**k
            rest = math.ldexp(((1 << k) - int(math.ldexp(m, 53)) * power) / power, -k)
        H.append(h)
        L.append(rest)
        K = 16 - s
        fixed = -4 <= K < 17
        head.append(int.from_bytes(b"\0" + b"0.000"[:1 - K] if K < 0 and fixed else b"", "little"))
        suffix = b"\n" if fixed else b"e%+03d\n" % K
        tail.append(int.from_bytes(b"\0\0" + suffix, "little"))
        point.append(K if fixed else 0)
    H = np.array(H)
    return (np.stack((H, *_split(H), np.array(L))), np.array(head, _WORD),
            np.array(tail, _WORD), np.array(point))


@functools.cache
def _digit_tables():
    """The four digits of each number below 10**4 in the digit slots of a
    word; how many zeros end them; and, at 12 + j, the word that keeps a
    word's first j digit slots, for j = -12..17 clipped to 0..4."""
    four = np.arange(10_000)
    digits = sum((48 + four // 10 ** (3 - i) % 10).astype(_WORD) << np.uint64(16 * i)
                 for i in range(4))
    trailing_zeros = sum((four % 10 ** i == 0) for i in range(1, 5))
    keep = np.array([sum(0xFF << 16 * i for i in range(min(max(j, 0), 4)))
                     for j in range(-12, 18)], _WORD)
    return digits, trailing_zeros, keep


_ZERO = _SCALES.index(16)  # 0 and -0 print as the layout of K = 0 gives them


def _format_17g(x: Array) -> str:
    """``"%.17g\n" * x.size % tuple(x)`` for a 1-D float64 array ``x``."""
    powers, heads, tails, points = _scale_tables()
    digits, trailing_zeros, keep = _digit_tables()
    n = x.size
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = 16 - np.floor(np.log10(a))
        in_range = (s >= _SCALES.start) & (s < _SCALES.stop)  # not 0, inf or nan
    row = np.where(in_range, s - _SCALES.start, _ZERO).astype(np.intp)
    a = np.where(in_range, a, 0.0)  # the others compute D = 0
    H, H_big, H_small, L = powers[:, row]
    p = a * H
    a_big, a_small = _split(a)
    e = a_small * H_small - (((p - a_big * H_big) - a_small * H_big) - a_big * H_small)
    t = e + a * L
    whole = np.floor(t)
    frac = t - whole
    decided = (np.abs(frac - 0.5) >= 1e-6) & (p >= 1e16 + 64) & (p < 1e17 - 64)
    undecided = np.flatnonzero(~(in_range & decided) & (x != 0))
    if 2 * undecided.size > n:  # mostly for "%.17g" itself: let it print them all
        return "%.17g\n" * n % tuple(x.tolist())
    D = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)

    # D's digits: four words of four, and the 17th
    high, low = np.divmod(D, 10 ** 9)
    first, second = np.divmod(high, 10 ** 4)
    third, low = np.divmod(low, 10 ** 5)
    fourth, last = np.divmod(low, 10)
    fours = (first, second, third, fourth)
    zeros = trailing_zeros[first]
    for four in fours[1:]:
        zeros = np.where(four == 0, zeros + 4, trailing_zeros[four])
    zeros = np.where(last == 0, zeros + 1, 0)
    point = points[row]
    shown = np.maximum(17 - zeros, point + 1)  # digits up to the point always show

    words = np.empty((n, 6), _WORD)
    words[:, 0] = heads[row] | np.signbit(x) * np.uint64(ord("-"))
    for w, four in enumerate(fours):
        words[:, w + 1] = digits[four] & keep[12 + shown - 4 * w]
    words[:, 5] = tails[row] | (48 + last).astype(_WORD) * (shown == 17)
    fraction = np.flatnonzero((point >= 0) & (17 - zeros > point + 1))
    point = point[fraction]
    words[fraction, 1 + point // 4] |= np.uint64(ord(".")) << (16 * (point % 4) + 8).astype(_WORD)

    if undecided.size:  # "S48" pads each line with 0 bytes to a row's width
        lines = np.array([b"%.17g\n" % v for v in x[undecided].tolist()], "S48")
        words.view(np.uint8).reshape(n, 48)[undecided] = lines.view(np.uint8).reshape(-1, 48)
    return words.tobytes().translate(None, b"\0").decode("ascii")


# Decimal tokens in bulk: the reverse of _format_17g.  A token
# [+-]digits[.digits][(e|E)[+-]digits] (the point may also lead or end the
# mantissa digits) is D·10**k, D the integer of its mantissa digits and k
# its exponent less its fraction digits, and float() rounds D·10**k
# correctly, ties to even.  np.fromstring reads every D and exponent of a
# slice at once, as unsigned 64-bit integers; it saturates one of 2**64 or
# more.  When every D is below 2**53 and every |k| at most 22, D and 10**|k|
# are exact doubles and one IEEE multiplication or division rounds
# correctly (Clinger's fast path).  Otherwise, with x the double nearest D
# (|D - x| <= 2**10) and 10**k = H + L from _scale_tables, a Dekker
# two-product x·H = p + e gives D·10**k = p + t, t = e + x·L + (D - x)·H,
# to within about 2**-94·p: the table's error and the rounding of x·L are
# below 2**-105·p, and when D >= 2**53 the omitted (D - x)·L and the
# roundings of (D - x)·H and of t's two sums are each at most about
# 2**-96·p (when D < 2**53, D - x is 0).  Rounding is monotonic, so when
# p + (t - d) and p + (t + d), d = 2**-90·p, round to one double r, r is
# the value: d covers that error and the roundings of t - d and t + d,
# another 2**-96·p, four times over.  Every token is decided but exact
# decimal ties (9007199254740993, 4503599627370496.5, 1e23), which no
# round-trip writer prints, and those within d of one.  p within (1e-263,
# 1e300) keeps k in the table, as 1 <= D < 2**64, and every product normal;
# D = 0 is 0 whatever k.  The one rule: a token is read in bulk when the
# double-double decides its rounding, and by float() otherwise.
_POINT, _PLUS, _MINUS = ord("."), ord("+"), ord("-")
_NOT_IN_TOKENS = np.ones(256, bool)  # bytes that no token of the bulk form holds
_NOT_IN_TOKENS[list(b"0123456789.eE+- \t\n\r\v\f")] = False
_POWERS_OF_TEN = np.array([float(10 ** i) for i in range(23)])  # exact doubles
# a slice's text for np.fromstring: "-1.5e-3" reads as the integers 15 and 3
_TO_INTEGERS = bytes.maketrans(b"eE+-", b"    ")


def _floats(text: str) -> Array | None:
    """The values of the whitespace-separated tokens of ``text``, bit for bit
    those of float(); None when the slice is for float() to read token by
    token: its first tokens are of a kind float() reads faster, it holds a
    token not of the bulk form (non-ASCII, "nan", "1_0", "1e5e5"), or
    float() would have to decide more than half of them."""
    if not text.isascii():
        return None
    # judged on its first whole tokens, a slice is for float() before any
    # numpy work when most hold 20 mantissa digits or more past their
    # leading zeros (most such D are 2**64 or more), or when over a third
    # hold an exponent and at most 15 digits: float() reads such a token on
    # its fast path, and the bulk pass takes about 1.5 times as long for it
    # (its exponent is a second integer), against 0.7 times without one
    head = [t.lstrip("+-0.").lower().partition("e") for t in text[:256].split()[:-1]]
    digits = [len(m) - ("." in m) for m, _, _ in head]
    short = sum(e == "e" and d <= 15 for d, (_, e, _) in zip(digits, head))
    if 2 * sum(d > 19 for d in digits) > len(head) or 3 * short > len(head):
        return None
    data = ("\n" + text + "\n").encode("ascii")  # a space on either side of each token
    chars = np.frombuffer(data, np.uint8)
    marks = np.flatnonzero((chars - 48) > 9)  # every byte but the digits
    kinds = chars[marks]
    count = np.bincount(kinds, minlength=256)
    if count[_NOT_IN_TOKENS].any():
        return None
    spaces = marks[kinds <= 32]
    gaps = np.diff(spaces) > 1  # the gaps between spaces that hold a token
    start, end = spaces[:-1][gaps] + 1, spaces[1:][gaps]
    n = start.size
    if not n:
        return np.empty(0)
    if marks.size == chars.size:  # no digit: np.fromstring would still read a 0
        return None
    # each token's point and exponent mark, where it has them: at most one
    # of each, the point first
    point, exp = np.full(n, -1), end.copy()
    for at, is_mark in ((point, kinds == _POINT), (exp, (kinds | 32) == ord("e"))):
        pos = marks[is_mark]
        if pos.size == n and ((start <= pos) & (pos < end)).all():
            at[:] = pos  # the common case: one in each token
        elif pos.size:
            token = np.searchsorted(start, pos, "right") - 1
            if (np.diff(token) == 0).any():
                return None
            at[token] = pos
    if (exp < point).any():
        return None
    has_exp = exp < end
    n_exp = np.count_nonzero(has_exp)
    first = chars[start]
    sign = (first == _PLUS) | (first == _MINUS)
    exp_sign = np.zeros(n, bool)
    if n_exp:
        after = chars[exp[has_exp] + 1]
        exp_sign[has_exp] = (after == _PLUS) | (after == _MINUS)
    # signs only at a token's start and just after its exponent mark
    if count[_PLUS] + count[_MINUS] != np.count_nonzero(sign) + np.count_nonzero(exp_sign):
        return None
    # with its points deleted and its signs and exponent marks made spaces,
    # the slice holds one run of digits per mantissa and exponent, or fewer
    # runs when one of them has no digits
    integers = np.fromstring(data.translate(_TO_INTEGERS, b"."), np.uint64, sep=" ")
    if integers.size != n + n_exp:
        return None
    k = np.where(point >= 0, point + 1 - exp, 0)
    if n_exp:
        with_exp = np.flatnonzero(has_exp)
        exponents = with_exp + np.arange(1, n_exp + 1)  # each follows its mantissa
        # an exponent of 2**40 or more keeps k far outside the table
        e = np.minimum(integers[exponents], 1 << 40).astype(np.int64)
        k[with_exp] += np.where(after == _MINUS, -e, e)
        integers = np.delete(integers, exponents)
    D = integers
    x = D.astype(float)  # rounds correctly
    if k.min() >= -22 and k.max() <= 22 and D.max() < 2**53:
        scale = _POWERS_OF_TEN[np.abs(k)]
        values = np.where(k < 0, x / scale, x * scale)
        undecided = ()
    else:
        values, decided = _scaled(D, x, k)
        undecided = np.flatnonzero(~decided)
        if 2 * undecided.size > n:
            return None
    np.negative(values, out=values, where=first == _MINUS)
    if len(undecided):
        tokens = map(slice, start[undecided].tolist(), end[undecided].tolist())
        values[undecided] = list(map(float, map(data.__getitem__, tokens)))
    return values


def _scaled(D, x, k):
    """D·10**k for unsigned integers D and their nearest doubles ``x``, and
    where the double-double decides its rounding (elsewhere, float() does)."""
    H, H_big, H_small, L = _scale_tables()[0].take(k - _SCALES.start, axis=1, mode="clip")
    with np.errstate(over="ignore", invalid="ignore"):
        in_range = x < 2.0**64  # D not saturated; then D - x wraps to the right value
        rest = (D - np.where(in_range, x, 0).astype(np.uint64)).view(np.int64)
        p = x * H
        x_big, x_small = _split(x)
        e = x_small * H_small - (((p - x_big * H_big) - x_small * H_big) - x_big * H_small)
        t = e + (x * L + rest * H)
        d = p * 2.0**-90
        r = p + (t - d)
        return r, in_range & ((D == 0) | ((p > 1e-263) & (p < 1e300) & (r == p + (t + d))))


def write_matrix_market(path, matrix: Array) -> None:
    """Write a dense MatrixMarket array file (real, general storage), each
    value as ``"%.17g" % x`` prints it."""
    if np.iscomplexobj(matrix):
        raise TypeError(f"can only write real matrices, got dtype {np.asarray(matrix).dtype}")
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ShapeError(f"can only write matrices, got shape {matrix.shape}")
    rows, cols = matrix.shape
    # a slab is whole columns, or one column's consecutive pieces when it is longer
    per_slab = max(1, _SLAB // max(rows, 1))
    with open(path, "w") as fh:
        fh.write(f"%%MatrixMarket matrix array real general\n{rows} {cols}\n")
        for j in range(0, cols, per_slab):
            columns = matrix[:, j:j + per_slab]
            for i in range(0, rows, _SLAB):
                fh.write(_format_17g(columns[i:i + _SLAB].T.ravel()))


def write_labels(path, labels: Sequence[int]) -> None:
    """One integer label per line (-1 marks an unassigned row)."""
    labels = [int(label) for label in labels]
    with open(path, "w") as fh:
        fh.write("%d\n" * len(labels) % tuple(labels))


def read_labels(path) -> Array:
    with open(path, "r") as fh:
        return np.array([int(line) for line in fh if line.strip()], dtype=int)


def _grid_uniform(rng: np.random.Generator, shape, lo: float, hi: float) -> Array:
    # values on the dyadic grid lo + (hi - lo) * k/64 so that small products
    # of entries stay exactly representable in double precision
    return lo + (hi - lo) * rng.integers(0, 64, size=shape) / 64.0


def synth_instance(
    m: int,
    r: int,
    noise_level: float = 0.0,
    density: float = 1.0,
    seed: int = 0,
) -> tuple[Array, Array, Array]:
    """Planted-community instance (X, U*, V*) with X = U* V* U*^T + noise.

    Row j of U* belongs to community j mod r: its dominant entry is drawn
    from [1, 2) and off-community entries from [0, 0.25), each present with
    probability ``density``.  V* is symmetric with diagonal in [1, 2) and
    off-diagonal entries in [0, 0.5) masked by ``density``.  All planted
    entries live on a dyadic grid, so in the noiseless case X equals
    U* V* U*^T exactly (bitwise) and is exactly symmetric.  The noise term
    is symmetric, nonnegative, and scaled to noise_level * mean(X); a
    noise_level that makes X overflow is refused.  Deterministic in ``seed``.
    """
    if m < 1 or not 1 <= r <= m:
        raise ParameterError(f"need 1 <= r <= m, got m={m}, r={r}")
    if not 0.0 <= noise_level < np.inf:
        raise ParameterError(f"noise_level must be finite and nonnegative, got {noise_level}")
    if not 0.0 < density <= 1.0:
        raise ParameterError(f"density must lie in (0, 1], got {density}")
    rng = np.random.default_rng(seed)
    labels = np.arange(m) % r

    U = _grid_uniform(rng, (m, r), 0.0, 0.25) * (rng.random((m, r)) < density)
    U[np.arange(m), labels] = _grid_uniform(rng, m, 1.0, 2.0)

    diag = _grid_uniform(rng, r, 1.0, 2.0)
    off = _grid_uniform(rng, (r, r), 0.0, 0.5) * (rng.random((r, r)) < density)
    V = np.triu(off, 1)
    V = V + V.T + np.diag(diag)

    X = U @ V @ U.T
    if noise_level > 0:
        raw = rng.random((m, m))
        with np.errstate(over="ignore", invalid="ignore"):
            X = X + noise_level * X.mean() * 0.5 * (raw + raw.T)
        if not np.isfinite(X).all():
            raise ParameterError(f"noise_level={noise_level} makes X overflow")
    return X, U, V
