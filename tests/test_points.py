"""Point-set container and CSV round trips."""

import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import variobern as vb
from variobern.errors import ParameterError


def test_basic_shape_and_properties():
    ps = vb.PointSet(np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]))
    assert ps.n == 3 and ps.d == 2
    assert ps.lags().shape == (3, 3, 2)
    # lags antisymmetric
    L = ps.lags()
    assert np.allclose(L, -L.transpose(1, 0, 2))


def test_values_length_checked():
    with pytest.raises(ParameterError):
        vb.PointSet(np.zeros((3, 1)), values=np.zeros(2))


def test_coords_are_read_only():
    ps = vb.PointSet(np.zeros((2, 1)))
    with pytest.raises(ValueError):
        ps.coords[0, 0] = 1.0


def test_min_separation():
    ps = vb.PointSet(np.array([[0.0], [3.0], [3.5]]))
    assert ps.min_separation() == 0.5
    dup = vb.PointSet(np.array([[1.0], [1.0]]))
    assert dup.min_separation() == 0.0


def test_csv_round_trip(tmp_path):
    ps = vb.PointSet(np.array([[0.25, -1.5], [2.0, 3.125]]),
                     values=np.array([1.5, -0.5]))
    path = tmp_path / "pts.csv"
    vb.write_points_csv(ps, path)
    back = vb.read_points_csv(path)
    assert np.array_equal(back.coords, ps.coords)
    assert np.array_equal(back.values, ps.values)


def test_csv_no_values(tmp_path):
    ps = vb.PointSet(np.array([[1.0], [2.0]]))
    path = tmp_path / "pts.csv"
    vb.write_points_csv(ps, path)
    back = vb.read_points_csv(path)
    assert back.values is None


def test_csv_header_diagnostic(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ParameterError, match="x1"):
        vb.read_points_csv(path)


def test_csv_bad_row_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1\n1.0\nnot_a_number\n")
    with pytest.raises(ParameterError, match="(row|line)"):
        vb.read_points_csv(path)


def test_csv_non_finite_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1\ninf\n")
    with pytest.raises(ParameterError):
        vb.read_points_csv(path)


def _read_error(tmp_path, text):
    path = tmp_path / "sites.csv"
    path.write_text(text)
    with pytest.raises(ParameterError) as info:
        vb.read_points_csv(path)
    prefix = f"{path}: "
    assert str(info.value).startswith(prefix)
    return str(info.value)[len(prefix):]


@pytest.mark.parametrize("text, message", [
    ("x1,x2\n1,2\n3,abc\n", "row 3, column 'x2': could not parse 'abc' as a number"),
    ("x1,value\n1,2\n ,4\n", "row 3, column 'x1': could not parse '' as a number"),
    ("x1,value\n1,inf\n", "row 2, column 'value': value must be finite"),
    ("x1,x2\n1,2\n-inf,2\n", "row 3, column 'x1': value must be finite"),
    ("x1,x2\nnan,2\n", "row 2, column 'x1': value must be finite"),
    ("x1,x2\n1,1e999\n", "row 2, column 'x2': value must be finite"),
    ("x1,x2\n1,2\n3\n", "row 3 has 1 fields, expected 2"),
    ("x1,x2\n1,2,3\n", "row 2 has 3 fields, expected 2"),
    ("x1,x2\n1\n2\n", "row 2 has 1 fields, expected 2"),
    ("x1,x2\n1,2,3,4\n", "row 2 has 4 fields, expected 2"),
], ids=["word", "empty-cell", "inf", "minus-inf", "nan", "overflow", "short", "long",
        "all-short", "one-long"])
def test_csv_error_names_row_column_and_cell(tmp_path, text, message):
    assert _read_error(tmp_path, text) == message


@pytest.mark.parametrize("text, message", [
    # the first offending cell in reading order is reported, whatever its fault
    ("x1,x2\n1,inf\n2,abc\n", "row 2, column 'x2': value must be finite"),
    ("x1,x2\n1,abc\n2,inf\n", "row 2, column 'x2': could not parse 'abc' as a number"),
    ("x1,x2\nnan,abc\n", "row 2, column 'x1': value must be finite"),
    ("x1,x2\nabc,nan\n", "row 2, column 'x1': could not parse 'abc' as a number"),
    ("x1,x2\ninf,2\n3\n", "row 2, column 'x1': value must be finite"),
    ("x1,x2\n1,2\nabc\n", "row 3 has 1 fields, expected 2"),
])
def test_csv_error_is_the_first_bad_cell(tmp_path, text, message):
    assert _read_error(tmp_path, text) == message


@pytest.mark.parametrize("text, message", [
    ("x1\n\n1\nabc\n", "row 4, column 'x1': could not parse 'abc' as a number"),
    ("\nx1,x2\n1,2\n,\n3\n", "row 5 has 1 fields, expected 2"),
    ("x1,x2\n\n\n1,inf\n", "row 4, column 'x2': value must be finite"),
    ('x1,x2\n"1\n",2\n3,abc\n', "row 4, column 'x2': could not parse 'abc' as a number"),
], ids=["blank", "leading-and-comma-only", "two-blank", "quoted-newline"])
def test_csv_error_names_the_line_in_the_file(tmp_path, text, message):
    """Blank lines, and lines inside a quoted cell, count toward the row."""
    assert _read_error(tmp_path, text) == message


@pytest.mark.parametrize("text, error", [
    ("x1,x2\n\n1,2\n3,4\n", None),
    ("x1,x2\n\n1,2\n3,abc\n", "row 4, column 'x2'"),
], ids=["good", "bad"])
def test_csv_is_opened_once(tmp_path, monkeypatch, text, error):
    """The rows keep their line numbers from the one read, so an error is
    reported without opening the file again."""
    path = tmp_path / "sites.csv"
    path.write_text(text)
    opened = []

    def counting_open(*args, **kw):
        opened.append(args[0])
        return open(*args, **kw)

    monkeypatch.setattr(vb.points, "open", counting_open, raising=False)
    if error is None:
        vb.read_points_csv(path)
    else:
        with pytest.raises(ParameterError, match=error):
            vb.read_points_csv(path)
    assert opened == [path]


def test_csv_cells_with_surrounding_spaces(tmp_path):
    # str.strip also drops the separators \x1c-\x1f, which float() keeps
    path = tmp_path / "sites.csv"
    path.write_text(" x1 , x2 ,value\n  1.5 , -2 ,\t3e-1 \n\x1c0\x1f,  +4.25,-0\n")
    ps = vb.read_points_csv(path)
    assert np.array_equal(ps.coords, [[1.5, -2.0], [0.0, 4.25]])
    assert np.array_equal(ps.values, [0.3, -0.0])


def test_csv_blank_lines_skipped(tmp_path):
    path = tmp_path / "sites.csv"
    path.write_text("\nx1,value\n\n1,2\n   \n , \n3,4\n\n")
    ps = vb.read_points_csv(path)
    assert np.array_equal(ps.coords, [[1.0], [3.0]])
    assert np.array_equal(ps.values, [2.0, 4.0])


def test_csv_header_only_has_no_points(tmp_path):
    path = tmp_path / "sites.csv"
    path.write_text("x1,x2\n")
    with pytest.raises(ParameterError, match="n, d >= 1"):
        vb.read_points_csv(path)


# ----------------------------------------------------------------------
# the site reader: numpy's C reader for the common file, csv and float()
# cell by cell for every other form and for the first fault

def _reference_rows(text: str) -> list[list[float]]:
    """The data rows of a site file by csv and per-cell float()."""
    rows = [r for r in csv.reader(io.StringIO(text, newline="")) if "".join(r).strip()]
    return [[float(c.strip()) for c in row] for row in rows[1:]]


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_BLANK_LINES = st.sampled_from(["", "   ", "\t", ",", " , ", ",,,", '""'])


@st.composite
def _site_files(draw):
    """(text, d, with_values, values) of a site file written with repr, its
    cells padded or quoted, its rows ending in \n or \r\n, blank rows
    anywhere."""
    d = draw(st.integers(1, 3))
    with_values = draw(st.booleans())
    width = d + with_values
    values = draw(st.lists(st.lists(_FINITE, min_size=width, max_size=width),
                           min_size=1, max_size=12))
    decorate = draw(st.booleans())  # else a plain file, numpy's common case
    lines = [",".join(f"x{i + 1}" for i in range(d)) + (",value" if with_values else "")]
    for row in values:
        cells = []
        for v in row:
            cell = repr(v)
            if decorate:
                cell = draw(st.sampled_from(["", " ", "\t "])) + cell + draw(
                    st.sampled_from(["", " ", " \t"]))
                if draw(st.booleans()):
                    cell = f'"{cell}"'
            cells.append(cell)
        lines.append(",".join(cells))
    if decorate:
        for _ in range(draw(st.integers(0, 4))):
            lines.insert(draw(st.integers(0, len(lines))), draw(_BLANK_LINES))
        ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    else:
        ends = ["\n"] * len(lines)
    return "".join(l + e for l, e in zip(lines, ends)), d, with_values, values


@settings(max_examples=150, deadline=None)
@given(_site_files())
def test_site_file_reads_bitwise_as_float_per_cell(tmp_path_factory, case):
    text, d, with_values, values = case
    path = tmp_path_factory.mktemp("sites") / "sites.csv"
    path.write_bytes(text.encode())
    want = np.array(_reference_rows(text))
    assert want.tobytes() == np.array(values).tobytes()
    ps = vb.read_points_csv(path)
    assert ps.coords.tobytes() == np.ascontiguousarray(want[:, :d]).tobytes()
    if with_values:
        assert ps.values.tobytes() == want[:, d].tobytes()
    else:
        assert ps.values is None


@pytest.mark.parametrize("text, coords, values", [
    ('x1,value\n"1.5"," 2"\n3,4\n', [[1.5], [3.0]], [2.0, 4.0]),
    ("x1,value\n3_0,1_000.5\n1,2\n", [[30.0], [1.0]], [1000.5, 2.0]),
    ("x1,value\r\n1,2\r\n\r\n3,4\r\n", [[1.0], [3.0]], [2.0, 4.0]),
    ("x1,value\r1,2\r3,4\r", [[1.0], [3.0]], [2.0, 4.0]),
    ("x1,value\n1,2\n\t\n,\n3,4\n", [[1.0], [3.0]], [2.0, 4.0]),
], ids=["quoted", "underscore", "crlf", "cr", "whitespace-and-comma-rows"])
def test_site_file_forms_numpy_refuses_still_load(tmp_path, text, coords, values):
    path = tmp_path / "sites.csv"
    path.write_bytes(text.encode())
    ps = vb.read_points_csv(path)
    assert np.array_equal(ps.coords, coords)
    assert np.array_equal(ps.values, values)


def test_a_plain_site_file_is_not_read_cell_by_cell(tmp_path, monkeypatch):
    """The common file stays on numpy's C reader."""
    def refuse(*args):
        raise AssertionError("a plain site file was read cell by cell")

    monkeypatch.setattr(vb.points, "_parse_rows", refuse)
    rng = np.random.default_rng(3)
    ps = vb.PointSet(rng.normal(size=(50, 2)), rng.normal(size=50))
    path = tmp_path / "sites.csv"
    vb.write_points_csv(ps, path)
    back = vb.read_points_csv(path)
    assert np.array_equal(back.coords, ps.coords)
    assert np.array_equal(back.values, ps.values)


_LONG = "x1,x2\n" + "".join(f"{i},{i}.5\n" for i in range(2000))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text, message", [
    ("x1,x2\n1,2\n3\n", "{path}: row 3 has 1 fields, expected 2"),
    ("x1,x2\n1,2,3\n4,5,6\n", "{path}: row 2 has 3 fields, expected 2"),
    (_LONG + "1,2,3\n", "{path}: row 2002 has 3 fields, expected 2"),
    ("x1,x2\n1,2\n3,abc\n", "{path}: row 3, column 'x2': could not parse 'abc' as a number"),
    (_LONG + "#1,2\n", "{path}: row 2002, column 'x1': could not parse '#1' as a number"),
    ("x1,value\n1,nan\n", "{path}: row 2, column 'value': value must be finite"),
    (_LONG + "inf,2\n", "{path}: row 2002, column 'x1': value must be finite"),
    ("x1,x2\n1,-inf\n", "{path}: row 2, column 'x2': value must be finite"),
    ("x,y\n1,2\n", "{path}: header must be x1,...,xd with an optional trailing "
                     "'value' column, got ['x', 'y']"),
    ("value\n1\n", "{path}: header must be x1,...,xd with an optional trailing "
                     "'value' column, got ['value']"),
    ("\n , \n", "{path}: file is empty"),
    ("x1,x2\n", "coords must be an (n, d) array with n, d >= 1"),
    ("x1,x2,value\r\n\r\n  \n,,\n", "coords must be an (n, d) array with n, d >= 1"),
], ids=["ragged", "all-long", "late-ragged", "bad-cell", "late-comment", "nan",
        "late-inf", "minus-inf", "bad-header", "value-only-header", "empty",
        "header-only", "header-and-blank-rows"])
def test_site_file_error_texts_without_a_warning(tmp_path, text, message):
    path = tmp_path / "sites.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ParameterError) as info:
        vb.read_points_csv(path)
    assert str(info.value) == message.format(path=path)


def test_sample_point_sets_deterministic():
    a = vb.sample_point_sets(3, 6, 2, seed=7)
    b = vb.sample_point_sets(3, 6, 2, seed=7)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.coords, pb.coords)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 10), st.integers(1, 3), st.integers(0, 1000))
def test_sample_point_sets_separation(n, d, seed):
    """Every sampled set respects the requested minimum separation."""
    (ps,) = vb.sample_point_sets(1, n, d, seed=seed, box=2.0, min_sep=1e-2)
    assert ps.n == n and ps.d == d
    assert ps.min_separation() >= 1e-2
    assert ps.coords.min() >= 0.0 and ps.coords.max() <= 2.0


def test_sample_min_sep_density_gate():
    with pytest.raises(ParameterError):
        vb.sample_point_sets(1, 100, 1, seed=0, box=1.0, min_sep=0.5)


def test_sample_point_sets_jammed_line_raises():
    """The density gate admits this request, but random sequential
    placement on a line jams at about 0.7476 coverage, far short of
    1000 points 0.00099 apart; the sampler must stop, not loop."""
    with pytest.raises(ParameterError, match="rejected draws"):
        vb.sample_point_sets(1, 1000, 1, seed=0, box=1.0, min_sep=0.00099)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sample_point_sets_draws_match_unbounded_rejection(seed):
    """Bounding the rejection loop leaves every successful draw unchanged."""
    n, min_sep = 600, 1e-3  # dense enough that candidates get rejected
    rng = np.random.default_rng(seed)
    want = np.empty((n, 1))
    k = 0
    while k < n:
        cand = rng.uniform(0.0, 1.0, size=1)
        if k == 0 or np.sqrt(((want[:k] - cand) ** 2).sum(axis=1)).min() >= min_sep:
            want[k] = cand
            k += 1
    (ps,) = vb.sample_point_sets(1, n, 1, seed=seed, box=1.0, min_sep=min_sep)
    assert np.array_equal(ps.coords, want)


@pytest.mark.parametrize("build, message", [
    (lambda path: vb.PointSet(np.array([[0.0, 1.0], [np.nan, 2.0]])), "coords must be finite"),
    (lambda path: vb.read_points_csv(path), "{path}: file is empty"),
])
def test_point_set_errors_name_the_input(tmp_path, build, message):
    path = tmp_path / "sites.csv"
    path.write_text("\n \n")
    with pytest.raises(ParameterError) as info:
        build(path)
    assert str(info.value) == message.format(path=path)
