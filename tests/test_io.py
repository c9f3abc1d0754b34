import math
import os
import threading
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bregblock import ParameterError, SymTriInstance, f_value
from bregblock import io as mio
from bregblock import symtrinmf as stf
from bregblock.io import (
    ParseError,
    ShapeError,
    read_labels,
    read_matrix,
    synth_instance,
    write_labels,
    write_matrix_market,
)


class TestCsvReader:
    def test_single_edge_adjacency(self, tmp_path):
        path = tmp_path / "edge.csv"
        path.write_text("0,1\n1,0\n")
        matrix = read_matrix(path)
        assert np.array_equal(matrix, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_bad_float_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1\n1,zap\n")
        with pytest.raises(ParseError) as err:
            read_matrix(path)
        assert err.value.line == 2

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("0,1\n1\n")
        with pytest.raises(ParseError) as err:
            read_matrix(path)
        assert err.value.line == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("\n\n")
        with pytest.raises(ParseError):
            read_matrix(path)

    def test_non_square_rejected_for_solve(self, tmp_path):
        path = tmp_path / "rect.csv"
        path.write_text("0,1,2\n3,4,5\n")
        with pytest.raises(ShapeError):
            read_matrix(path)
        assert read_matrix(path, require_square=False).shape == (2, 3)


class TestMatrixMarket:
    def test_symmetric_coordinate_expansion(self, tmp_path):
        path = tmp_path / "sym.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "% one stored off-diagonal entry\n"
            "3 3 1\n"
            "2 1 5.0\n"
        )
        matrix = read_matrix(path)
        assert np.count_nonzero(matrix) == 2
        assert matrix[1, 0] == 5.0 and matrix[0, 1] == 5.0

    def test_array_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        original = rng.standard_normal((10, 10))
        path = tmp_path / "dense.mtx"
        write_matrix_market(path, original)
        again = read_matrix(path)
        assert np.array_equal(again, original)

    def test_array_symmetric_storage(self, tmp_path):
        path = tmp_path / "symarr.mtx"
        # lower triangle of [[1, 2], [2, 3]] in column-major order
        path.write_text(
            "%%MatrixMarket matrix array real symmetric\n2 2\n1.0\n2.0\n3.0\n"
        )
        matrix = read_matrix(path)
        assert np.array_equal(matrix, np.array([[1.0, 2.0], [2.0, 3.0]]))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "hdr.mtx"
        path.write_text("%%MatrixMarket matrix coordinate complex hermitian\n1 1 0\n")
        with pytest.raises(ParseError) as err:
            read_matrix(path)
        assert err.value.line == 1

    @pytest.mark.parametrize("text, message", [
        ("%%MatrixMarket vector array real general\n1 1\n1\n",
         "1: bad MatrixMarket header: '%%MatrixMarket vector array real general'"),
        ("%%MatrixMarket matrix array real\n1 1\n1\n",
         "1: bad MatrixMarket header: '%%MatrixMarket matrix array real'"),
        ("%%MatrixMarket matrix dense real general\n1 1\n1\n", "1: unsupported format 'dense'"),
        ("%%MatrixMarket matrix array real skew-symmetric\n1 1\n1\n",
         "1: unsupported symmetry 'skew-symmetric'"),
        ("%%MatrixMarket matrix array real general\n% c\n-1 2\n", "3: negative size in '-1 2'"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 -1\n",
         "2: negative size in '2 2 -1'"),
    ])
    def test_header_and_size_rejections(self, tmp_path, text, message):
        path = tmp_path / "hdr.mtx"
        path.write_text(text)
        assert str(parse_error(path)) == f"{path}:{message}"

    def test_wrong_entry_count(self, tmp_path):
        path = tmp_path / "count.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 3.0\n")
        with pytest.raises(ParseError):
            read_matrix(path)

    def test_index_out_of_range(self, tmp_path):
        path = tmp_path / "range.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n")
        with pytest.raises(ParseError) as err:
            read_matrix(path)
        assert err.value.line == 3

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "val.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n1 2\n1.0\nxyz\n")
        with pytest.raises(ParseError) as err:
            read_matrix(path, require_square=False)
        assert err.value.line == 4

    def test_rectangular_factor_file(self, tmp_path):
        rng = np.random.default_rng(1)
        factor = rng.random((6, 2))
        path = tmp_path / "factor.mtx"
        write_matrix_market(path, factor)
        assert np.array_equal(read_matrix(path, require_square=False), factor)


class TestLabels:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "labels.txt"
        write_labels(path, [0, 2, 1, -1, 2])
        assert read_labels(path).tolist() == [0, 2, 1, -1, 2]

    @pytest.mark.parametrize("labels, text", [
        ([0, 2, 1, -1, 2], "0\n2\n1\n-1\n2\n"),
        ([np.int64(3), np.int32(-1), np.intp(12), 7], "3\n-1\n12\n7\n"),
        (np.array([-1, 0, 10**12]), "-1\n0\n1000000000000\n"),
        ([], ""),
    ])
    def test_bytes(self, tmp_path, labels, text):
        # the bytes of a writer that formats one label at a time
        path = tmp_path / "labels.txt"
        write_labels(path, labels)
        assert path.read_bytes() == "".join(f"{int(label)}\n" for label in labels).encode()
        assert path.read_text() == text


class TestSynthInstance:
    def test_noiseless_fit_is_exactly_zero(self):
        X, U, V = synth_instance(12, 3, noise_level=0.0, density=1.0, seed=7)
        inst = SymTriInstance(X, 3)
        assert f_value(inst, U, V) == 0.0

    def test_exactly_symmetric(self):
        for noise in (0.0, 0.3):
            X, _, _ = synth_instance(9, 2, noise_level=noise, density=0.8, seed=1)
            assert np.array_equal(X, X.T)

    def test_planted_structure(self):
        X, U, V = synth_instance(10, 3, noise_level=0.0, density=1.0, seed=2)
        assert (U >= 0).all() and (V >= 0).all() and (X >= 0).all()
        assert np.array_equal(V, V.T)
        labels = stf.community_assignment(U)
        assert labels.tolist() == [j % 3 for j in range(10)]

    def test_deterministic_in_seed(self):
        a = synth_instance(8, 2, noise_level=0.1, density=0.5, seed=4)
        b = synth_instance(8, 2, noise_level=0.1, density=0.5, seed=4)
        c = synth_instance(8, 2, noise_level=0.1, density=0.5, seed=5)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        assert not np.array_equal(a[0], c[0])

    def test_rank_one_all_ones(self):
        # planted algebra sanity: U = ones, V = (1) compose to the ones matrix
        U = np.ones((4, 1))
        V = np.ones((1, 1))
        assert np.array_equal(U @ V @ U.T, np.ones((4, 4)))

    def test_noise_magnitude(self):
        X0, U, V = synth_instance(10, 2, noise_level=0.0, density=1.0, seed=3)
        X1, U1, V1 = synth_instance(10, 2, noise_level=0.5, density=1.0, seed=3)
        assert np.array_equal(U, U1) and np.array_equal(V, V1)
        noise = X1 - X0
        assert (noise >= 0).all()
        assert 0.0 < noise.mean() <= 0.5 * X0.mean()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(m=0, r=1),
            dict(m=3, r=0),
            dict(m=3, r=4),
            dict(m=3, r=1, noise_level=-0.1),
            dict(m=3, r=1, noise_level=float("nan")),
            dict(m=3, r=1, noise_level=float("inf")),
            dict(m=3, r=1, density=0.0),
            dict(m=3, r=1, density=1.5),
        ],
    )
    def test_parameter_validation(self, kwargs):
        with pytest.raises(ParameterError):
            synth_instance(**kwargs)

    @pytest.mark.parametrize("noise_level", [1e308, 1.7e308])
    def test_noise_that_overflows_x_is_refused(self, noise_level):
        # noise_level * mean(X) overflows: refused by name, with no
        # RuntimeWarning first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError) as refused:
                synth_instance(4, 2, noise_level=noise_level)
        assert str(refused.value) == f"noise_level={noise_level} makes X overflow"


class TestFactorPersistence:
    def test_phi_reproduced_after_roundtrip(self, tmp_path):
        X, _, _ = synth_instance(8, 2, noise_level=0.2, density=1.0, seed=6)
        inst = SymTriInstance(X, 2)
        result, factors = stf.solve_instance(inst, kappa=0.3, seed=0, max_iters=40)
        write_matrix_market(tmp_path / "f_U.mtx", factors.U)
        write_matrix_market(tmp_path / "f_V.mtx", factors.V)
        U = read_matrix(tmp_path / "f_U.mtx", require_square=False)
        V = read_matrix(tmp_path / "f_V.mtx", require_square=False)
        before = f_value(inst, factors.U, factors.V)
        after = f_value(inst, U, V)
        assert after == pytest.approx(before, rel=1e-12)

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2), ()])
    def test_writer_rejects_non_matrices(self, tmp_path, shape):
        with pytest.raises(ShapeError) as err:
            write_matrix_market(tmp_path / "w.mtx", np.zeros(shape))
        assert str(err.value) == f"can only write matrices, got shape {shape}"
        assert not (tmp_path / "w.mtx").exists()

    def test_writer_rejects_complex_matrices(self, tmp_path):
        # numpy's float conversion would drop the imaginary part with a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TypeError) as err:
                write_matrix_market(tmp_path / "w.mtx", [[1 + 2j, 3]])
        assert str(err.value) == "can only write real matrices, got dtype complex128"
        assert not (tmp_path / "w.mtx").exists()


ARRAY_HEADER = "%%MatrixMarket matrix array real general\n"
COORD_HEADER = "%%MatrixMarket matrix coordinate real general\n"
BOM = b"\xef\xbb\xbf"  # UTF-8's byte-order mark, as Excel's "CSV UTF-8" writes it


def write_bytes(tmp_path, text, name="m.mtx"):
    # bytes, so that CR and CRLF line endings reach the reader unchanged
    path = tmp_path / name
    path.write_bytes(text.encode())
    return path


def parse_error(path, **kwargs):
    with pytest.raises(ParseError) as err:
        read_matrix(path, **kwargs)
    return err.value


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64)
    )


class TestMatrixMarketLayout:
    def test_comment_lines_between_array_values(self, tmp_path):
        path = write_bytes(
            tmp_path,
            ARRAY_HEADER + "% before the size line\n2 2\n1.0\n% between values\n"
            "   % indented comment\n2.0\n\n3.0\n%\n4.0\n% after the last value\n",
        )
        assert np.array_equal(read_matrix(path), np.array([[1.0, 3.0], [2.0, 4.0]]))

    def test_several_values_on_one_line(self, tmp_path):
        path = write_bytes(tmp_path, ARRAY_HEADER + "2 3\n1 2 3\n4\n  5\t6  \n")
        matrix = read_matrix(path, require_square=False)
        assert np.array_equal(matrix, np.array([[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]]))

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("tail", ["", "EOL", "EOL EOL EOL", "EOL  EOL"])
    def test_line_endings_and_trailing_lines(self, tmp_path, eol, tail):
        lines = ["%%MatrixMarket matrix array real symmetric", "% c", "2 2", "1.5", "-2", "3e2"]
        path = write_bytes(tmp_path, eol.join(lines) + tail.replace("EOL", eol))
        assert np.array_equal(read_matrix(path), np.array([[1.5, -2.0], [-2.0, 300.0]]))
        coord = ["%%MatrixMarket matrix coordinate real general", "2 2 2", "1 2 4", "2 2 5"]
        path = write_bytes(tmp_path, eol.join(coord) + tail.replace("EOL", eol))
        assert np.array_equal(read_matrix(path), np.array([[0.0, 4.0], [0.0, 5.0]]))
        path = write_bytes(tmp_path, eol.join(["1,2", "3,4"]) + tail.replace("EOL", eol), "m.csv")
        assert np.array_equal(read_matrix(path), np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_bad_token_deep_in_a_large_file(self, tmp_path):
        n, bad = 100_000, 73_421
        tokens = [repr(float(k)) for k in range(n)]
        tokens[bad] = "1.0e"
        lines = [ARRAY_HEADER.strip(), "% comment", f"{n} 1", *tokens[:bad], "% comment",
                 *tokens[bad:]]
        path = write_bytes(tmp_path, "\n".join(lines) + "\n")
        err = parse_error(path, require_square=False)
        assert err.line == lines.index("1.0e") + 1 == bad + 5
        assert str(err) == f"{path}:{bad + 5}: bad value: '1.0e'"

    def test_first_bad_token_is_reported(self, tmp_path):
        path = write_bytes(tmp_path, ARRAY_HEADER + "4 1\n1 x\n% c\ny 2\n")
        err = parse_error(path, require_square=False)
        assert err.line == 3 and "'x'" in str(err)

    @pytest.mark.parametrize(
        "body, line, found",
        [
            ("2 2\n1\n2\n3\n", 5, 3),
            ("2 2\n1 2\n3 4 5\n% trailing comment\n\n", 4, 5),
            ("2 2\n", 2, 0),
            ("2 2\n% only a comment\n", 2, 0),
            ("2 2\n1 2 3 zap zap\n", 3, 5),
        ],
    )
    def test_too_many_and_too_few_values(self, tmp_path, body, line, found):
        err = parse_error(write_bytes(tmp_path, ARRAY_HEADER + body))
        assert err.line == line
        assert str(err).endswith(f"expected 4 values, found {found}")

    def test_symmetric_value_count(self, tmp_path):
        text = "%%MatrixMarket matrix array real symmetric\n3 3\n1\n2\n3\n4\n5\n6\n7\n"
        err = parse_error(write_bytes(tmp_path, text))
        assert err.line == 9 and str(err).endswith("expected 6 values, found 7")

    def test_symmetric_array_must_be_square(self, tmp_path):
        text = "%%MatrixMarket matrix array real symmetric\n2 3\n1\n2\n3\n"
        assert parse_error(write_bytes(tmp_path, text)).line == 2

    def test_missing_size_line(self, tmp_path):
        path = write_bytes(tmp_path, ARRAY_HEADER + "% c\n\n% d\n")
        err = parse_error(path)
        assert err.line == 4 and str(err).endswith("missing size line")

    @pytest.mark.parametrize("size", ["2", "2 2 2", "2 x"])
    def test_bad_array_size_line(self, tmp_path, size):
        err = parse_error(write_bytes(tmp_path, ARRAY_HEADER + f"% c\n{size}\n1\n2\n"))
        assert err.line == 3

    def test_integer_field(self, tmp_path):
        text = "%%MatrixMarket matrix array integer general\n2 1\n3\n-4\n"
        matrix = read_matrix(write_bytes(tmp_path, text), require_square=False)
        assert matrix.dtype == np.float64
        assert np.array_equal(matrix, np.array([[3.0], [-4.0]]))
        text = "%%MatrixMarket matrix coordinate integer symmetric\n2 2 2\n1 1 7\n2 1 -1\n"
        assert np.array_equal(read_matrix(write_bytes(tmp_path, text)), [[7.0, -1.0], [-1.0, 0.0]])

    def test_one_by_one_and_column(self, tmp_path):
        path = write_bytes(tmp_path, ARRAY_HEADER + "1 1\n2.5\n")
        matrix = read_matrix(path)
        assert matrix.shape == (1, 1) and matrix[0, 0] == 2.5
        column = np.array([[0.5], [-1.0], [3.0], [1e-300], [-0.0]])
        write_matrix_market(tmp_path / "col.mtx", column)
        again = read_matrix(tmp_path / "col.mtx", require_square=False)
        assert same_bits(again, column)
        with pytest.raises(ShapeError):
            read_matrix(tmp_path / "col.mtx")

    def test_returns_a_writable_c_contiguous_array(self, tmp_path):
        write_matrix_market(tmp_path / "r.mtx", np.arange(6.0).reshape(2, 3))
        text = "%%MatrixMarket matrix array real symmetric\n2 2\n1\n2\n3\n"
        write_bytes(tmp_path, text, "s.mtx")
        write_bytes(tmp_path, COORD_HEADER + "2 2 1\n1 2 1\n", "c.mtx")
        write_bytes(tmp_path, "1,2\n3,4\n", "c.csv")
        for name in ("r.mtx", "s.mtx", "c.mtx", "c.csv"):
            matrix = read_matrix(tmp_path / name, require_square=False)
            assert matrix.dtype == np.float64
            assert matrix.flags.c_contiguous and matrix.flags.writeable


class TestCsvLayout:
    @pytest.mark.parametrize(
        "text, line", [("0,1\n1\n2,3,4\n", 2), ("0,1\n\n1,2,3\n4\n", 3), ("1,2\n3,x\n4\n", 2)]
    )
    def test_ragged_rows_with_the_right_cell_count(self, tmp_path, text, line):
        err = parse_error(write_bytes(tmp_path, text, "r.csv"), require_square=False)
        assert err.line == line

    def test_blank_lines_and_spaces_around_cells(self, tmp_path):
        path = write_bytes(tmp_path, "\n 1, 2\n  \n3 ,4e0\n\n", "s.csv")
        assert np.array_equal(read_matrix(path), np.array([[1.0, 2.0], [3.0, 4.0]]))


class TestCoordinateEntries:
    def test_duplicate_entries_last_wins(self, tmp_path):
        text = COORD_HEADER + "2 2 4\n1 1 1.0\n2 1 2.0\n1 1 3.0\n2 1 -0.0\n"
        matrix = read_matrix(write_bytes(tmp_path, text))
        assert same_bits(matrix, np.array([[3.0, 0.0], [-0.0, 0.0]]))

    @pytest.mark.parametrize(
        "entries, value",
        [("2 1 5.0\n1 2 7.0\n", 7.0), ("1 2 7.0\n2 1 5.0\n", 5.0), ("2 1 5.0\n2 1 6.0\n", 6.0)],
    )
    def test_symmetric_duplicates_through_the_mirror(self, tmp_path, entries, value):
        text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n" + entries
        matrix = read_matrix(write_bytes(tmp_path, text))
        assert np.array_equal(matrix, np.array([[0.0, value], [value, 0.0]]))

    def test_empty_coordinate_matrix(self, tmp_path):
        matrix = read_matrix(write_bytes(tmp_path, COORD_HEADER + "3 3 0\n"))
        assert np.array_equal(matrix, np.zeros((3, 3)))

    @pytest.mark.parametrize(
        "entries, line, message",
        [
            ("1 1 1.0\n2 1\n", 5, "coordinate entry must be 'i j value'"),
            ("1 1 1.0 9\n2 1 1\n", 4, "coordinate entry must be 'i j value'"),
            ("1 1\n2 2 2 2\n", 4, "coordinate entry must be 'i j value'"),
            ("1 1 1.0\n1.5 1 1\n", 5, "bad row index: '1.5'"),
            ("1 1 1.0\n1 j 1\n", 5, "bad column index: 'j'"),
            ("1 1 abc\n1 1 1\n", 4, "bad value: 'abc'"),
            ("1 1 1.0\n0 1 1\n", 5, "index (0, 1) out of range"),
            ("1 1 1.0\n1 3 1\n", 5, "index (1, 3) out of range"),
            ("1 -1 1.0\n1 1 1\n", 4, "index (1, -1) out of range"),
            ("1 1 1.0\n99999999999999999999 1 1\n", 5, "index (99999999999999999999, 1) out of range"),
            ("3 1 x\n1 1 1\n", 4, "index (3, 1) out of range"),
            ("% c\n\n2 2 nan\n% c\n1 1 zz\n", 8, "bad value: 'zz'"),
        ],
    )
    def test_entry_errors_name_their_line(self, tmp_path, entries, line, message):
        err = parse_error(write_bytes(tmp_path, COORD_HEADER + "% c\n2 2 2\n" + entries))
        assert err.line == line
        assert str(err).endswith(message)

    @pytest.mark.parametrize("entries", ["1 1 1\n", "1 1 1\n2 2 2\n% c\n1 2 3\n"])
    def test_wrong_entry_count_names_the_size_line(self, tmp_path, entries):
        err = parse_error(write_bytes(tmp_path, COORD_HEADER + "% c\n2 2 2\n" + entries))
        assert err.line == 3 and "expected 2 entries" in str(err)

    @given(
        n=st.integers(1, 5),
        symmetric=st.booleans(),
        entries=st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(-3, 3)), max_size=30
        ),
    )
    def test_matches_the_entry_by_entry_fill(self, tmp_path_factory, n, symmetric, entries):
        entries = [(i % n, j % n, float(v)) for i, j, v in entries]
        expected = np.zeros((n, n))
        for i, j, v in entries:
            expected[i, j] = v
            if symmetric:
                expected[j, i] = v
        lines = [f"{i + 1} {j + 1} {v!r}" for i, j, v in entries]
        storage = "symmetric" if symmetric else "general"
        text = f"%%MatrixMarket matrix coordinate real {storage}\n{n} {n} {len(lines)}\n"
        path = tmp_path_factory.mktemp("coord") / "m.mtx"
        path.write_text(text + "\n".join(lines) + "\n")
        assert same_bits(read_matrix(path), expected)
        # a position's entries fall in different slices, each placed in turn
        for chars in (1, 7, 64):
            assert same_bits(read_in_slices(path, chars), expected)

    @pytest.mark.parametrize("entry, message", [
        ("1 1 1.0", "2: cannot allocate a 4294967296 x 4294967296 matrix"),
        ("1 1 x", "3: bad value: 'x'"),  # a bad entry is still the line named
    ])
    def test_size_line_numpy_cannot_allocate(self, tmp_path, entry, message):
        # numpy refuses 2**32 x 2**32 doubles before it allocates anything
        path = write_bytes(tmp_path, COORD_HEADER + f"4294967296 4294967296 1\n{entry}\n")
        assert str(parse_error(path)) == f"{path}:{message}"


class TestArrayEntries:
    @given(rows=st.integers(1, 9), cols=st.integers(1, 9), width=st.integers(1, 4),
           data=st.data())
    def test_matches_the_entry_by_entry_fill(self, tmp_path_factory, rows, cols, width, data):
        values = data.draw(st.lists(st.integers(-9, 9), min_size=rows * cols,
                                    max_size=rows * cols))
        expected = np.empty((rows, cols))
        for p, v in enumerate(values):
            expected[p % rows, p // rows] = v
        tokens = [repr(float(v)) for v in values]
        lines = [" ".join(tokens[i:i + width]) for i in range(0, len(tokens), width)]
        path = tmp_path_factory.mktemp("array") / "m.mtx"
        path.write_text(f"{ARRAY_HEADER}{rows} {cols}\n" + "\n".join(lines) + "\n")
        assert same_bits(read_matrix(path, require_square=False), expected)
        # slices begin and end inside columns, and span whole ones
        for chars in (1, 7, 64):
            assert same_bits(read_in_slices(path, chars, require_square=False), expected)


finite_doubles = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


class TestRoundTripProperty:
    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=8),
                      elements=finite_doubles))
    @example(np.array([[-0.0, 0.0], [5e-324, -5e-324]]))
    @example(np.array([[1e308, -1e308, 1.7976931348623157e308, -2.2250738585072014e-308]]))
    @example(np.array([[0.1], [1 / 3], [2.0 ** -1074 * 3]]))
    def test_write_then_read_is_bitwise(self, tmp_path_factory, matrix):
        path = tmp_path_factory.mktemp("rt") / "m.mtx"
        write_matrix_market(path, matrix)
        assert same_bits(read_matrix(path, require_square=False), matrix)
        # the bytes of an entry-by-entry writer
        rows, cols = matrix.shape
        entries = "".join(f"{matrix[i, j]:.17g}\n" for j in range(cols) for i in range(rows))
        expected = f"%%MatrixMarket matrix array real general\n{rows} {cols}\n{entries}"
        assert path.read_text() == expected

    @settings(max_examples=150, deadline=None)
    @given(st.booleans(), st.data())
    def test_any_layout_reads_the_same(self, tmp_path_factory, symmetric, data):
        # the same values spread over lines of any width, with comment and blank lines
        rows, cols = data.draw(hnp.array_shapes(min_dims=2, max_dims=2, max_side=6))
        cols = rows if symmetric else cols
        matrix = data.draw(hnp.arrays(np.float64, (rows, cols), elements=finite_doubles))
        if symmetric:
            lower = np.tril_indices(rows)
            matrix[lower[::-1]] = matrix[lower]
            stored = [matrix[i, j] for j in range(cols) for i in range(j, rows)]
        else:
            stored = matrix.ravel(order="F")
        tokens = [repr(float(v)) for v in stored]
        lines = []
        while tokens:
            width = data.draw(st.integers(1, 4))
            lines.append(" ".join(tokens[:width]))
            del tokens[:width]
            lines.append(data.draw(st.sampled_from(["", "", "% note", "  ", " %x 1"])))
        eol = data.draw(st.sampled_from(["\n", "\r\n"]))
        path = tmp_path_factory.mktemp("layout") / "m.mtx"
        header = f"%%MatrixMarket matrix array real {'symmetric' if symmetric else 'general'}"
        text = eol.join([header, f"{rows} {cols}", *lines])
        path.write_bytes(text.encode())
        assert same_bits(read_matrix(path, require_square=False), matrix)


def read_in_slices(path, chars, **kwargs):
    """read_matrix with bodies converted ``chars`` characters at a time."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mio, "_CHUNK_CHARS", chars)
        return read_matrix(path, **kwargs)


def reference_17g(values) -> str:
    """The bytes of an entry-by-entry writer: "%.17g" of each value."""
    return "".join("%.17g\n" % v for v in np.asarray(values, float).tolist())


def ties_at_the_17th_digit():
    """Every double whose exact decimal has 18 significant digits ending in
    5 is odd/2**b, odd < 2**53, with 2 <= b <= 25, since odd·5**b has the
    18 digits; a few for each b, each side of 0."""
    rng = np.random.default_rng(17)
    ties = []
    for b in range(2, 26):
        lo, hi = -(-10**17 // 5**b), min(10**18 // 5**b, 2**53)
        for odd in rng.integers(lo // 2, hi // 2, size=40) * 2 + 1:
            ties.append(int(odd) / 2**b)
    ties = np.array(ties)
    return np.concatenate([ties, -ties])


class TestFormat17g:
    """The writer's bulk formatter against "%.17g" itself, byte for byte."""

    def check(self, values):
        values = np.asarray(values, float).ravel()
        for start in range(0, values.size, 1 << 16):
            part = values[start:start + (1 << 16)]
            assert mio._format_17g(part) == reference_17g(part)

    def test_scale_table_is_exact(self):
        # H is the double nearest 10**s, L the double nearest 10**s - H, and
        # H's halves have 26 significant bits at most, so their products
        # with |x|'s halves are exact
        for s, (H, big, small, L) in zip(mio._SCALES, mio._scale_tables()[0].T):
            power = Fraction(10) ** s
            assert H == float(power) and L == float(power - Fraction(H)), s
            assert big + small == H, s
            assert all((math.frexp(half)[0] * 2**26).is_integer() for half in (big, small)), s

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(3).integers(0, 2**64, size=1 << 20, dtype=np.uint64)
        self.check(bits.view(np.float64))

    def test_random_values_over_every_scale(self):
        rng = np.random.default_rng(4)
        n = 1 << 18
        self.check(rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n))
        self.check(rng.integers(1, 10**6, n) * 10.0 ** rng.integers(-12, 20, n))

    def test_powers_of_ten_and_their_neighbours(self):
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
        self.check(np.concatenate([values, -values]))

    def test_exact_ties_at_the_17th_digit(self):
        ties = ties_at_the_17th_digit()
        for tie in ties[:50]:
            digits = Decimal(float(tie)).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5
        self.check(ties)
        self.check(np.concatenate([np.nextafter(ties, 0), np.nextafter(ties, np.inf)]))

    def test_zeros_subnormals_and_non_finite_values(self):
        tiny = np.array([5e-324, 1e-323, 2.2250738585072009e-308, 2.2250738585072014e-308,
                         1.5e-310, 4.9406564584124654e-320])
        self.check(np.concatenate([[0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan], tiny, -tiny]))
        self.check(np.random.default_rng(5).integers(1, 2**52, 4096) * 5e-324)

    @pytest.mark.parametrize("edge", [1e-4, 1e17, 1e16, 1e-5])
    def test_fixed_and_exponential_switches(self, edge):
        # %g prints fixed digits for decimal exponents -4..16: the largest
        # double below 1e17 still prints 17 digits with no exponent
        below, above = np.nextafter(edge, 0), np.nextafter(edge, np.inf)
        near = edge * (1 + np.linspace(-1e-14, 1e-14, 201))
        self.check(np.concatenate([[edge, below, above], near, -near]))

    def test_fewer_digits(self):
        # trailing zeros and a bare point go, in both forms
        self.check([100.0, 120.5, 0.001, 1.5e-5, 1e20, 1.25e-7, 3.0, 12345678901234567.0,
                    0.1, 0.5, 2.5e18, 1e-4 * 3, 7e15, 7.5e16])


class TestSlabs:
    """write_matrix_market writes slabs of at most _SLAB values: slab edges
    change no byte, and reading the file back gives every bit."""

    @staticmethod
    def write_and_check(path, matrix):
        write_matrix_market(path, matrix)
        rows, cols = matrix.shape
        body = reference_17g(np.asarray(matrix).T.ravel())
        header = f"%%MatrixMarket matrix array real general\n{rows} {cols}\n"
        assert path.read_text() == header + body
        assert same_bits(read_matrix(path, require_square=False), np.asarray(matrix))

    @pytest.mark.parametrize("shape", [
        (20, 1), (7, 3), (3, 5), (6, 5), (1, 9), (0, 4), (4, 0), (0, 0), (8, 8), (15, 2),
    ])
    @pytest.mark.parametrize("slab", [1, 6, 7])
    def test_slab_edges(self, tmp_path, monkeypatch, shape, slab):
        # columns longer than a slab (20 > 7), column counts that are no
        # multiple of a slab's columns (5 columns of 3 in slabs of 2)
        monkeypatch.setattr(mio, "_SLAB", slab)
        matrix = np.random.default_rng(sum(shape)).standard_normal(shape) * 1e3
        self.write_and_check(tmp_path / "m.mtx", matrix)

    @pytest.mark.parametrize("shape", [(5000, 2), (3000, 3), (1000, 7), (1, 5000)])
    def test_default_slab_edges(self, tmp_path, shape):
        matrix = np.random.default_rng(8).standard_normal(shape)
        self.write_and_check(tmp_path / "m.mtx", matrix)

    def test_fortran_ordered_and_strided_inputs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(mio, "_SLAB", 10)
        base = np.random.default_rng(9).standard_normal((30, 24))
        for matrix in (np.asfortranarray(base), base[::3, ::5], base[::-2, 1::2], base.T,
                       np.asfortranarray(base)[5:, ::4]):
            self.write_and_check(tmp_path / "m.mtx", matrix)

    @pytest.mark.parametrize("shape", [(1000, 1000), (10**6, 1)])
    def test_peak_allocation(self, tmp_path, shape):
        # one slab's arrays and text, whatever the matrix (8 MB here)
        matrix = np.random.default_rng(10).standard_normal(shape)
        _, peak = peak_traced_bytes(write_matrix_market, tmp_path / "m.mtx", matrix)
        assert peak < 2 << 20, peak


def float_tokens(text):
    """The reference: float() of each whitespace-separated token."""
    return np.array([float(tok) for tok in text.split()])


def ladder(n):
    """The layouts the array reader is timed on, ``n`` values each, by name."""
    rng = np.random.default_rng(12)
    values = (rng.random(n) * 3 + 0.5).tolist()
    seventeen = ["%.17g" % v for v in values]
    return {
        "fixed %.17g": "\n".join(seventeen),
        "0/1 entries": "\n".join(map(str, rng.integers(0, 2, n).tolist())),
        "100 per line": "\n".join(" ".join(seventeen[i:i + 100]) for i in range(0, n, 100)),
        "%.6g": "\n".join("%.6g" % v for v in values),
        "exponent %.17g": "\n".join("%.17g" % (v * 1e-7) for v in values),
        "%.18e": "\n".join("%.18e" % v for v in values),
        "21 digits": "\n".join("%.20e" % v for v in values),
        "integer ties": "\n".join(["9007199254740993"] * n),
        "decimal ties": "\n".join(["4503599627370496.5"] * n),
        "mostly zeros %.17g": "\n".join(
            "%.17g" % v for v in np.where(rng.random(n) < 0.7, 0.0, values).tolist()),
    }


def is_exact_tie(token):
    """Whether the decimal ``token`` lies halfway between two doubles."""
    value, exact = float(token), Fraction(token)
    other = math.nextafter(value, math.copysign(math.inf, exact - Fraction(value)))
    return exact != value and 2 * exact == Fraction(value) + Fraction(other)


def record_bulk_reads(monkeypatch):
    """Wraps _floats and _scaled: the lists of what _floats returned for each
    slice and of each _scaled call's ``decided`` mask."""
    slices, masks = [], []
    floats, scaled = mio._floats, mio._scaled

    def record_floats(text):
        slices.append(floats(text))
        return slices[-1]

    def record_scaled(D, x, k):
        values, decided = scaled(D, x, k)
        masks.append(decided)
        return values, decided

    monkeypatch.setattr(mio, "_floats", record_floats)
    monkeypatch.setattr(mio, "_scaled", record_scaled)
    return slices, masks


class TestFloats:
    """The array reader's bulk converter against float() itself, bit for
    bit; a slice it leaves to float() (None) reads token by token."""

    @staticmethod
    def check(text, bulk=False):
        values = mio._floats(text)
        assert values is not None or not bulk, text[:80]
        if values is not None:
            assert same_bits(values, float_tokens(text)), text[:80]

    FORMATS = ["%.17g", "%r", "%.18e"] + [f"%.{p}e" for p in range(1, 20)] + [
        f"%.{p}f" for p in range(26)]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40),
           st.sampled_from(FORMATS), st.sampled_from([" ", "\n", "\t\n  "]))
    @example([0, 1 << 63, 1, (1 << 63) + 1, 0x0010000000000000], "%r", "\n")  # ±0, subnormals
    def test_formatted_bit_patterns(self, bits, fmt, sep):
        values = np.array(bits, np.uint64).view(np.float64).tolist()
        self.check(sep.join(fmt % v for v in values))

    token = st.builds(
        lambda sign, digits, point, exp: sign + digits[:point] + "." + digits[point:] + exp
        if point is not None else sign + digits + exp,
        st.sampled_from(["", "+", "-"]),
        st.text("0123456789", min_size=1, max_size=19),
        st.none() | st.integers(0, 19),
        st.just("") | st.builds("".join, st.tuples(
            st.sampled_from("eE"), st.sampled_from(["", "+", "-"]),
            st.text("0123456789", min_size=1, max_size=5))),
    )

    @settings(max_examples=300, deadline=None)
    @given(st.lists(token, min_size=1, max_size=40))
    @example(["0000000000000000001", "-.5", "+5.", "1E+00007", "00.000e-00330", "9" * 19])
    def test_digit_strings(self, tokens):
        self.check(" \n".join(tokens))

    @staticmethod
    def check_ties(tokens, monkeypatch):
        """A slice of ``tokens``, mostly exact ties, is for float() token by
        token; a slice of them with every other tie left out and as many
        "%.17g" tokens added is read in bulk, its ties patched by float()."""
        ties = [is_exact_tie(tok) for tok in tokens]
        text = "\n".join(tokens)
        assert 2 * sum(ties) > len(tokens) and mio._floats(text) is None
        assert same_bits(mio._values(text), float_tokens(text))
        kept = [tok for i, tok in enumerate(tokens) if not ties[i] or i % 2]
        rng = np.random.default_rng(16)
        kept += ["%.17g" % v for v in rng.standard_normal(len(kept)).tolist()]
        _, masks = record_bulk_reads(monkeypatch)
        TestFloats.check("\n".join(kept), bulk=True)
        (decided,) = masks
        assert not decided[[is_exact_tie(tok) for tok in kept]].any()

    def test_exact_decimal_ties_read_as_float_reads_them(self, monkeypatch):
        # decimals halfway between two doubles, rounding to the even one
        # either way: the double-double cannot decide them
        rng = np.random.default_rng(14)
        ties = [f"{2**52 + j}.5" for j in rng.integers(0, 2**52, 200).tolist()]
        ties += [f"{2**51 + j}.{q}" for j in rng.integers(0, 2**51, 50).tolist() for q in (25, 75)]
        ties += [f"{2**50 + j}.{q}" for j in rng.integers(0, 2**50, 25).tolist()
                 for q in (125, 375, 625, 875)]
        ties += ["1e23", "-1e23", "1E+23"]
        assert all(map(is_exact_tie, ties))
        assert {float(tie) - int(tie[:-2]) for tie in ties[:200]} == {0.0, 1.0}
        decided = ["%.17g" % v for v in rng.standard_normal(len(ties) // 2).tolist()]
        # for float() too: a tie of a 19-digit mantissa, a value 2**-99 from
        # a tie, and |x| below 1e-263
        rest = ["3689348814741911552e1", "0.06250028846205214067", "4503599627370497.5e-300"]
        self.check_ties(ties + decided + rest, monkeypatch)

    def test_integer_ties_read_as_float_reads_them(self, monkeypatch):
        # an integer token is the conversion of its D, ties to even
        ties = [2**53 + 2 * j + 1 for j in range(700)] + [2**63 + 2**10, 2**64 - 2**10]
        big = np.random.default_rng(15).integers(2**53, 2**63, 300, dtype=np.uint64).tolist()
        tokens = [("", "-", "+")[i % 3] + str(v) for i, v in enumerate(ties + big)]
        assert {abs(int(float(t))) - abs(int(t)) for t in tokens[:700]} == {-1, 1}
        assert all(map(is_exact_tie, tokens[:702]))
        self.check_ties(tokens, monkeypatch)

    @pytest.mark.parametrize("fmt, kind", [
        *[(fmt, "spread") for fmt in ("%.17g", "%r", "%.18e", "%.6g", "%.3f", "%.15e")],
        # mostly exact zeros, as in factors that the projection onto the orthant makes
        ("%.17g", "zeros"), ("%r", "zeros"), ("%.30f", "zeros"),
        # 20 fraction digits, the first three of them zeros
        ("%.17g", "1e-4"),
    ])
    def test_common_layouts_are_read_in_bulk(self, fmt, kind):
        rng = np.random.default_rng(13)
        values = rng.standard_normal(2000) * 10.0 ** rng.integers(-5, 6, 2000)
        if kind == "zeros":
            values[rng.random(2000) < 0.7] = 0.0
        elif kind == "1e-4":
            values = rng.uniform(1e-4, 1e-3, 2000)
        self.check("\n".join(fmt % v for v in values.tolist()), bulk=True)

    @pytest.mark.parametrize("fmt", ["%.20e", "%.1e", "%.3e", "%.14e"])
    def test_slices_float_reads_as_fast_are_left_to_it(self, fmt):
        # 21 mantissa digits mostly saturate D; an exponent and at most 15
        # digits cost the bulk pass a second integer a token, for no gain
        values = np.random.default_rng(17).standard_normal(300)
        assert mio._floats("\n".join(fmt % v for v in values.tolist())) is None

    @pytest.mark.parametrize("text", ["1e+", "0.5 1e", "0.5\n.e5", "5.e", "-", "+e5 2", "."])
    def test_parts_without_digits_are_left_to_float(self, text):
        # np.fromstring finds fewer integers than mantissas and exponents, or
        # reads a 0 from a slice without digits
        assert mio._floats(text) is None

    @pytest.mark.parametrize("text", ["", " ", " \t\n\n  ", "\n"])
    def test_whitespace_only(self, text):
        # np.fromstring reads " " as [-1.0] (float) or [0] (int)
        values = mio._floats(text)
        assert values is not None and values.shape == (0,)

    @pytest.mark.parametrize("token", [
        "1.5-2", "1e5e5", "--1", "+-1", "1e+", ".e5", "5.e", "1..2", "0x10", "nan(1)",
        "-nan", "1_0", "١", "inf", "1\x1c2", "1\xa02", ".5", "5.", "+.5", "-0",
        "-0e-400", "9007199254740993", "2.4703282292062328e-324",
        "1.7976931348623159e308", "  \t ", ".-5", "1e-5.5", "12e3.5", "12e-3.5", "-", "e5",
        "+e5", "1e5-", "1e", "1E-", "1e 2e", "1e99999",
        "12345678901234567890", "1.2345678901234567890", "0.5E-3",
        # exponents of 1000 or more, less the hundreds of fraction digits
        pytest.param("0." + "0" * 799 + "1e1000", id="1e200 in 806 characters"),
        pytest.param("0." + "0" * 699 + "1e999", id="1e299 in 705 characters"),
        pytest.param("-0." + "0" * 1199 + "5e1000", id="-5e-200 in 1207 characters"),
        pytest.param("0." + "0" * 799 + "1e" + "9" * 25, id="inf in 827 characters"),
    ])
    def test_edge_tokens_read_as_float_reads_them(self, tmp_path, token):
        # the same values as float() of each token, or the same ParseError;
        # 17-digit values lead, so the slice's first tokens call for the bulk pass
        lead = [repr(1 / 3 + i) for i in range(20)]
        body = "\n".join(lead + [token, "2"]) + "\n"
        tokens = body.split()
        path = write_bytes(tmp_path, ARRAY_HEADER + f"{len(tokens)} 1\n" + body)
        try:
            expected = float_tokens(body).reshape(-1, 1)
        except ValueError as exc:
            bad = str(exc).split(": ", 1)[1]  # float()'s message quotes the token
            err = parse_error(path, require_square=False)
            assert str(err) == f"{path}:{3 + len(lead)}: bad value: {bad}"
        else:
            assert same_bits(read_matrix(path, require_square=False), expected)

    @pytest.mark.parametrize("layout", list(ladder(1)))
    def test_every_ladder_layout_reads_the_bits_of_float(self, tmp_path, layout):
        text = ladder(3000)[layout]
        expected = float_tokens(text)
        path = write_bytes(tmp_path, ARRAY_HEADER + f"{expected.size} 1\n{text}\n")
        for chars in (None, 1 << 10):
            matrix = read_in_slices(path, chars or mio._CHUNK_CHARS, require_square=False)
            assert same_bits(matrix, expected.reshape(-1, 1))


class TestWrittenFilesReadInBulk:
    """Every token of a file write_matrix_market writes is decided in bulk:
    "%.17g" reads back to its double, which lies strictly nearer it than any
    other double, so no such file holds an exact tie for float() to decide."""

    @pytest.fixture(params=["spread", "noisy X"])
    def matrix(self, request):
        if request.param == "noisy X":
            return synth_instance(1000, 10, noise_level=0.1, seed=3)[0]
        rng = np.random.default_rng(18)
        X = rng.choice([-1.0, 1.0], (400, 250)) * 10.0 ** rng.uniform(-250, 290, (400, 250))
        X[::7, ::3] = 0.0
        X[1::7, ::3] = -0.0
        return X

    @pytest.mark.parametrize("chars", [None, 1 << 12])
    def test_every_slice_is_read_in_bulk(self, tmp_path, monkeypatch, matrix, chars):
        path = tmp_path / "m.mtx"
        write_matrix_market(path, matrix)
        slices, masks = record_bulk_reads(monkeypatch)
        read = read_in_slices(path, chars or mio._CHUNK_CHARS, require_square=False)
        assert same_bits(read, matrix)
        # each slice goes through the double-double, which decides every token
        assert len(slices) > 10 and all(values is not None for values in slices)
        assert len(masks) == len(slices) and all(decided.all() for decided in masks)


def mixed_tokens(n):
    """``n`` "%.17g" tokens with every 20th replaced by one that only float()
    reads: one not of the bulk form, or an exact tie."""
    rng = np.random.default_rng(5)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 31, n)
    tokens = ["%.17g" % v for v in values.tolist()]
    special = ["1e23", "nan", "1_0", "-0", "9007199254740993", "-inf", "4503599627370496.5"]
    for k, i in enumerate(range(7, n, 20)):
        tokens[i] = special[k % len(special)]
    return tokens


class TestValueColumns:
    """Coordinate values and CSV cells go through the array body's converter:
    each reads bit for bit as float() reads its token, whether its slice is
    read in bulk or left to float()."""

    ROWS, COLS = 60, 50

    @pytest.fixture
    def tokens(self):
        return mixed_tokens(self.ROWS * self.COLS)

    def read_both_ways(self, path, expected, monkeypatch):
        # small slices hold both kinds: ones with a special token go to float()
        seen = []
        floats = mio._floats
        monkeypatch.setattr(mio, "_floats", lambda text: seen.append(floats(text)) or seen[-1])
        for chars in (1 << 8, 1 << 10, mio._CHUNK_CHARS):
            assert same_bits(read_in_slices(path, chars, require_square=False), expected)
        assert any(v is None for v in seen) and any(v is not None and v.size for v in seen)

    def test_coordinate_values(self, tmp_path, tokens, monkeypatch):
        # entry k is (k % ROWS, k // ROWS), each position once
        body = "".join(f"{k % self.ROWS + 1} {k // self.ROWS + 1} {tok}\n"
                       for k, tok in enumerate(tokens))
        path = write_bytes(tmp_path, COORD_HEADER + f"{self.ROWS} {self.COLS} {len(tokens)}\n"
                           + body)
        expected = float_tokens(" ".join(tokens)).reshape(self.COLS, self.ROWS).T
        self.read_both_ways(path, expected, monkeypatch)

    def test_csv_cells(self, tmp_path, tokens, monkeypatch):
        lines = [",".join(tokens[i:i + self.COLS]) for i in range(0, len(tokens), self.COLS)]
        lines[3] = " " + lines[3].replace(",", " , ")  # whitespace: each cell alone
        path = write_bytes(tmp_path, "\n".join(lines) + "\n", "m.csv")
        expected = float_tokens(" ".join(tokens)).reshape(self.ROWS, self.COLS)
        self.read_both_ways(path, expected, monkeypatch)

    @pytest.mark.parametrize("bad, line, cell", [
        (["1,,3"], 31, "''"),
        (["1 2,3,4"], 31, "'1 2'"),
        (["1,2,"], 31, "''"),
        (["1 2,,3"], 31, "'1 2'"),  # one token too many and one too few
        (["1 2,3,4", "5,,6"], 31, "'1 2'"),  # the same, over two lines
        (["1,2,3", "4\xa05,6,7", ",8,9"], 32, "'4\\xa05'"),
        (["1,2,3\x1f4"], 31, "'3\\x1f4'"),
    ])
    def test_bad_cell_names_its_line(self, tmp_path, bad, line, cell):
        good = ["%.17g,%.17g,%.17g" % (1 / 3, 2 / 3, k) for k in range(30)]
        path = write_bytes(tmp_path, "\n".join(good + bad + good[:5]) + "\n", "m.csv")
        for chars in (1 << 6, 1 << 9, mio._CHUNK_CHARS):
            with pytest.raises(ParseError) as err:
                read_in_slices(path, chars, require_square=False)
            assert str(err.value) == (f"{path}:{line}: not a number: "
                                      f"could not convert string to float: {cell}")


class TestSlicedBody:
    """A body converted a few lines at a time reads, and fails, as one read
    in one piece: the slice boundaries fall on every line in turn."""

    @pytest.mark.parametrize(
        "text, line, message",
        [
            (ARRAY_HEADER + "2 3\n1\n2\n% c\n3\n4\n5\n6x\n", 9, "bad value: '6x'"),
            (ARRAY_HEADER + "2 3\n1\n2\n3\n% c\n4\n5\n6\n7\n", 10, "expected 6 values, found 7"),
            (ARRAY_HEADER + "2 3\n1\n2\n3\n4\n% c\n5\n% d\n", 8, "expected 6 values, found 5"),
            (ARRAY_HEADER + "2 3\n1\nzap\n3\n4\n5\n6\n7\n", 9, "expected 6 values, found 7"),
            (COORD_HEADER + "% c\n3 3 4\n1 1 1\n2 2 2\n% c\n3 3 3\n1 2 x\n", 8, "bad value: 'x'"),
            (COORD_HEADER + "% c\n3 3 4\n1 1 1\n2 2 2\n3 3 3\n1 2 3\n% c\n2 1 4\n", 3,
             "expected 4 entries, found 5"),
            (COORD_HEADER + "% c\n3 3 4\n1 1 1\n2 2 2\n% c\n3 3 3\n", 3,
             "expected 4 entries, found 3"),
            (COORD_HEADER + "% c\n3 3 4\n1 1 1\n2 2 2\n3 3 3\n% c\n3 4 1\n", 8,
             "index (3, 4) out of range"),
            (COORD_HEADER + "% c\n3 3 4\n1 1 1\n2 2 2\n3 3 3\n3 1\n", 7,
             "coordinate entry must be 'i j value'"),
            ("%%MatrixMarket matrix array real symmetric\n2 2\n1\n2\n% c\n3\n4\n", 7,
             "expected 3 values, found 4"),
            ("1,2\n3,4\n5,6\n7,x\n", 4, "not a number: could not convert string to float: 'x'"),
            ("1,2\n3,4\n\n5,6\n7\n", 5, "expected 2 columns, found 1"),
        ],
    )
    def test_errors_in_a_later_slice(self, tmp_path, text, line, message):
        path = write_bytes(tmp_path, text, "m.mtx" if text.startswith("%%") else "m.csv")
        for chars in range(1, len(text) + 2):
            with pytest.raises(ParseError) as err:
                read_in_slices(path, chars, require_square=False)
            assert err.value.line == line
            assert str(err.value) == f"{path}:{line}: {message}"

    @pytest.mark.parametrize(
        "text, expected",
        [
            (ARRAY_HEADER + "2 2\n% a\n1\n% b\n  % c\n2\n\n3\n%\n4\n% e\n", [[1, 3], [2, 4]]),
            ("%%MatrixMarket matrix array real symmetric\n2 2\n% a\n1\n% b\n  % c\n2\n\n%\n3\n%\n",
             [[1, 2], [2, 3]]),
            (COORD_HEADER + "% s\n2 2 3\n% a\n1 1 1\n% b\n% c\n2 1 2\n%\n2 2 3\n% d\n",
             [[1, 0], [2, 3]]),
        ],
    )
    def test_comment_lines_on_both_sides_of_a_boundary(self, tmp_path, text, expected):
        path = write_bytes(tmp_path, text)
        for chars in range(1, len(text) + 2):
            assert same_bits(read_in_slices(path, chars), np.array(expected, dtype=float))

    def test_several_values_on_one_line(self, tmp_path):
        body = "2 3\n1 2 3 4 5\n6\n"
        path = write_bytes(tmp_path, ARRAY_HEADER + body)
        expected = np.array([[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])
        for chars in range(1, len(body) + 2):
            assert same_bits(read_in_slices(path, chars, require_square=False), expected)
        path = write_bytes(tmp_path, "1, 2,3\n4,5 ,6\n", "m.csv")
        for chars in range(1, 16):
            matrix = read_in_slices(path, chars, require_square=False)
            assert same_bits(matrix, np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["array", "coordinate", "csv"]), st.booleans(), st.integers(1, 40),
           st.data())
    def test_tiny_slices_read_the_default_bits(self, tmp_path_factory, layout, symmetric, chars,
                                               data):
        symmetric = symmetric and layout != "csv"
        rows, cols = data.draw(hnp.array_shapes(min_dims=2, max_dims=2, max_side=6))
        cols = rows if symmetric else cols
        matrix = data.draw(hnp.arrays(np.float64, (rows, cols), elements=finite_doubles))
        gap = st.sampled_from(["", "", "% note", "  "] if layout != "csv" else ["", " "])
        lines = []
        if layout == "csv":
            for row in matrix.tolist():
                lines += [",".join(map(repr, row)), data.draw(gap)]
        elif layout == "coordinate":
            entries = [(i, j) for i in range(rows) for j in range(cols)]
            picked = data.draw(st.lists(st.sampled_from(entries), max_size=40)) if entries else []
            for i, j in picked:
                lines += [f"{i + 1} {j + 1} {float(matrix[i, j])!r}", data.draw(gap)]
            lines.insert(0, f"{rows} {cols} {len(picked)}")
        else:
            if symmetric:
                stored = [float(matrix[i, j]) for j in range(cols) for i in range(j, rows)]
            else:
                stored = matrix.ravel(order="F").tolist()
            tokens = list(map(repr, stored))
            while tokens:
                width = data.draw(st.integers(1, 4))
                lines += [" ".join(tokens[:width]), data.draw(gap)]
                del tokens[:width]
            lines.insert(0, f"{rows} {cols}")
        if layout != "csv":
            storage = "symmetric" if symmetric else "general"
            lines.insert(0, f"%%MatrixMarket matrix {layout} real {storage}")
        path = tmp_path_factory.mktemp("slices") / ("m.csv" if layout == "csv" else "m.mtx")
        path.write_text("\n".join(lines) + data.draw(st.sampled_from(["", "\n"])))
        if layout == "csv" and matrix.size == 0:
            return
        whole = read_matrix(path, require_square=False)
        sliced = read_in_slices(path, chars, require_square=False)
        assert same_bits(sliced, whole)
        assert sliced.flags.c_contiguous and sliced.flags.writeable


def peak_traced_bytes(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestReaderMemory:
    """Reading holds the matrix and one slice's text and tokens at a time:
    never the file's whole text, nor a token object per value of it."""

    M = 200

    @classmethod
    def write(cls, path, fmt, last=None):
        """A symmetric M x M matrix in the format ``fmt``, written with
        ``last`` in place of its last value when one is given."""
        m = cls.M
        X = np.random.default_rng(5).standard_normal((m, m))
        X += X.T
        if fmt == "array":
            write_matrix_market(path, X)
            lines = path.read_text().splitlines()
        elif fmt == "symmetric":
            lines = ["%%MatrixMarket matrix array real symmetric", f"{m} {m}"] + [
                repr(float(X[i, j])) for j in range(m) for i in range(j, m)]
        elif fmt == "coordinate":
            lines = [COORD_HEADER.strip(), f"{m} {m} {m * m}"] + [
                f"{i + 1} {j + 1} {float(X[i, j])!r}" for i in range(m) for j in range(m)]
        else:
            lines = [",".join(map(repr, row)) for row in X.tolist()]
        if last is not None:
            lines[-1] = lines[-1][:max(lines[-1].rfind(sep) for sep in " ,") + 1] + last
        path.write_text("\n".join(lines) + "\n")
        return X, len(lines)

    @staticmethod
    def bound(X):
        # no term grows with the file: a slice's tokens take about ten
        # times its characters
        return X.nbytes + 32 * (1 << 14)

    @pytest.mark.parametrize("fmt", ["array", "symmetric", "coordinate", "csv"])
    def test_peak_allocation(self, tmp_path, monkeypatch, fmt):
        monkeypatch.setattr(mio, "_CHUNK_CHARS", 1 << 14)
        X, _ = self.write(tmp_path / fmt, fmt)
        matrix, peak = peak_traced_bytes(read_matrix, tmp_path / fmt)
        assert same_bits(matrix, X)
        assert (tmp_path / fmt).stat().st_size > 20 * (1 << 14)  # over 20 slices
        assert peak < self.bound(X), (peak, self.bound(X))

    def test_one_digit_values_peak_allocation(self, tmp_path, monkeypatch):
        # the bulk converter's arrays take about 60 bytes per character of
        # a slice of one-digit values, whatever the file's length
        monkeypatch.setattr(mio, "_CHUNK_CHARS", 1 << 14)
        m = 600
        X = (np.random.default_rng(6).random((m, m)) < 0.5) * 1.0
        path = write_bytes(tmp_path, ARRAY_HEADER + f"{m} {m}\n" + "".join(
            "%d\n" % v for v in X.T.ravel().tolist()))
        matrix, peak = peak_traced_bytes(read_matrix, path)
        assert same_bits(matrix, X)
        assert path.stat().st_size > 40 * (1 << 14)  # over 40 slices
        assert peak < X.nbytes + 80 * (1 << 14), peak

    @pytest.mark.parametrize("fmt, message", [
        ("array", "bad value: '1.0.0'"),
        ("coordinate", "bad value: '1.0.0'"),
        ("csv", "not a number: could not convert string to float: '1.0.0'"),
    ])
    def test_error_path_peak_allocation(self, tmp_path, monkeypatch, fmt, message):
        # the rescan that names the bad line reads the file in slices too
        monkeypatch.setattr(mio, "_CHUNK_CHARS", 1 << 14)
        path = tmp_path / fmt
        X, n_lines = self.write(path, fmt, last="1.0.0")
        err, peak = peak_traced_bytes(parse_error, path)
        assert str(err) == f"{path}:{n_lines}: {message}"
        assert peak < self.bound(X), (peak, self.bound(X))

    @pytest.mark.parametrize("text, message", [
        (ARRAY_HEADER + "100000 100000\n1\n", "3: expected 10000000000 values, found 1"),
        (COORD_HEADER + "100000 100000 10000000000\n1 1 1\n",
         "2: expected 10000000000 entries, found 1"),
    ])
    def test_size_line_past_the_file_allocates_nothing(self, tmp_path, text, message):
        # a size line that promises more values than the file has characters
        # is refused before the matrix is allocated
        path = write_bytes(tmp_path, text)
        err, peak = peak_traced_bytes(parse_error, path)
        assert str(err) == f"{path}:{message}"
        assert peak < 1 << 20, peak

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize(
        "text, expected",
        [
            (ARRAY_HEADER + "2 2\n1\n2\n% c\n3\n4\n", [[1.0, 3.0], [2.0, 4.0]]),
            (ARRAY_HEADER + "2 2\n1\n2\n% c\n3\n4x\n", "7: bad value: '4x'"),
            ("1,2\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
            ("1,2\n3,x\n", "2: not a number: could not convert string to float: 'x'"),
            # after a byte-order mark, the same values and lines
            ("\ufeff" + ARRAY_HEADER + "2 2\n1\n2\n% c\n3\n4\n", [[1.0, 3.0], [2.0, 4.0]]),
            ("\ufeff" + COORD_HEADER + "2 2 2\n1 1 1\n2 2 4\n", [[1.0, 0.0], [0.0, 4.0]]),
            ("\ufeff1,2\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
            ("\ufeff1,2\n3,x\n", "2: not a number: could not convert string to float: 'x'"),
        ],
    )
    def test_reads_a_pipe(self, tmp_path, monkeypatch, text, expected):
        # a pipe cannot be read twice, as the error paths and the CSV
        # reader's second pass read a file, so it is read in one piece
        monkeypatch.setattr(mio, "_CHUNK_CHARS", 2)
        pipe = tmp_path / "in"
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_text, args=(text,))
        writer.start()
        try:
            if isinstance(expected, str):
                with pytest.raises(ParseError) as err:
                    read_matrix(pipe)
                assert str(err.value) == f"{pipe}:{expected}"
            else:
                assert same_bits(read_matrix(pipe), np.array(expected))
        finally:
            writer.join()


class TestEncoding:
    """Files are read as UTF-8, whatever the locale; a byte that UTF-8
    cannot decode raises ParseError naming its line, wherever it is."""

    @pytest.mark.parametrize("data, line, byte", [
        (ARRAY_HEADER.encode() + b"% caf\xe9\n1 1\n1\n", 2, 0xE9),  # Latin-1
        (ARRAY_HEADER.encode() + b"2 1\n1\n2\xff\n", 4, 0xFF),
        (ARRAY_HEADER.encode() + b"2 1\n1\nx\n\xc3", 5, 0xC3),  # after a bad value, cut off
        (COORD_HEADER.encode() + b"1 1 1\r\n% \xe9\r\n1 1 1\r\n", 3, 0xE9),
        (b"1,2\r3,\x804\r", 2, 0x80),
        (b"\x93NUMPY\x01\x00v\x00{'descr': '<f8'}\n", 1, 0x93),  # a binary file
        # after a byte-order mark, the same lines
        (BOM + ARRAY_HEADER.encode() + b"% caf\xe9\n1 1\n1\n", 2, 0xE9),
        (BOM + b"1,2\r3,\x804\r", 2, 0x80),
    ])
    def test_undecodable_byte_names_its_line(self, tmp_path, data, line, byte):
        path = tmp_path / "m.mtx"
        path.write_bytes(data)
        for chars in (1, 5, 1 << 16):
            with pytest.raises(ParseError) as err:
                read_in_slices(path, chars, require_square=False)
            assert str(err.value) == f"{path}:{line}: cannot decode byte 0x{byte:02x} as UTF-8"

    def test_utf8_text_reads(self, tmp_path):
        path = write_bytes(tmp_path, ARRAY_HEADER + "% café ✓\n2 1\n١\n٢.5\n")
        assert same_bits(read_matrix(path, require_square=False), np.array([[1.0], [2.5]]))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_through_a_pipe(self, tmp_path):
        pipe = tmp_path / "in"
        os.mkfifo(pipe)
        data = ARRAY_HEADER.encode() + b"% caf\xe9\n1 1\n1\n"
        writer = threading.Thread(target=pipe.write_bytes, args=(data,))
        writer.start()
        try:
            with pytest.raises(ParseError) as err:
                read_matrix(pipe)
            assert str(err.value) == f"{pipe}:2: cannot decode byte 0xe9 as UTF-8"
        finally:
            writer.join()


class TestByteOrderMark:
    """A UTF-8 file may start with a byte-order mark: it reads the bits of
    the same file without one, and its errors name the same lines (see also
    TestEncoding and TestReaderMemory.test_reads_a_pipe)."""

    @pytest.mark.parametrize("text, name", [
        ("1.5,2\n-3e-5,4\n", "m.csv"),
        (ARRAY_HEADER + "% note\n2 2\n1.5\n-3e-5\n2\n4\n", "m.mtx"),
        (COORD_HEADER + "2 2 3\n1 1 1.5\n2 1 -3e-5\n2 2 4\n", "m.mtx"),
    ], ids=["csv", "array", "coordinate"])
    def test_reads_the_bits_of_the_file_without_it(self, tmp_path, text, name):
        expected = read_matrix(write_bytes(tmp_path, text, name))
        path = tmp_path / ("bom_" + name)
        path.write_bytes(BOM + text.encode())
        for chars in (1, 5, 1 << 16):  # every slice, and each rescan, starts at a seek(0)
            assert same_bits(read_in_slices(path, chars), expected)

    @pytest.mark.parametrize("data, message", [
        (b"1,2\n3,4\n5,x\n", "3: not a number: could not convert string to float: 'x'"),
        (ARRAY_HEADER.encode() + b"2 1\nx\n2\n", "3: bad value: 'x'"),
        (COORD_HEADER.encode() + b"1 1 2\n1 1 x\n1 1 1\n", "3: bad value: 'x'"),
    ], ids=["csv", "array", "coordinate"])
    def test_a_bad_value_names_the_same_line(self, tmp_path, data, message):
        path = tmp_path / "m.mtx"
        path.write_bytes(BOM + data)
        for chars in (1, 5, 1 << 16):
            with pytest.raises(ParseError) as err:
                read_in_slices(path, chars, require_square=False)
            assert str(err.value) == f"{path}:{message}"
