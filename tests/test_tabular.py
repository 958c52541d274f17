import csv
import gzip
import os
import threading

import numpy as np
import pytest

from dprep import Dataset, IngestionError, encode_categoricals, read_schema, read_table, tabular


def test_two_level_categorical_single_indicator():
    ds = encode_categoricals(
        ["sex", "age"],
        [["F", "30"], ["M", "41"], ["F", "25"]],
        {"sex": "categorical", "age": "numeric"},
    )
    # sorted levels (F, M): F is the reference, M gets the indicator
    assert ds.column_names == ("sex_M", "age")
    assert ds.column("sex_M").tolist() == [0.0, 1.0, 0.0]
    assert ds.column("age").tolist() == [30.0, 41.0, 25.0]


def test_all_numeric_table_passes_through():
    ds = encode_categoricals(
        ["a", "b"], [["1", "2"], ["3", "4.5"]], {"a": "numeric", "b": "numeric"}
    )
    assert ds.column_names == ("a", "b")
    assert ds.column("b").tolist() == [2.0, 4.5]


def test_three_level_one_hot_property():
    rows = [["white"], ["black"], ["asian"], ["white"], ["asian"]]
    ds = encode_categoricals(["race"], rows, {"race": "categorical"})
    assert ds.column_names == ("race_black", "race_white")  # "asian" is the reference
    stacked = np.column_stack([ds.column(c) for c in ds.column_names])
    sums = stacked.sum(axis=1)
    assert set(sums.tolist()) <= {0.0, 1.0}
    assert np.all((stacked == 0) | (stacked == 1))


def test_missing_value_names_row_and_column():
    with pytest.raises(IngestionError, match=r"row 2.*'b'"):
        encode_categoricals(["a", "b"], [["1", "2"], ["3", ""]], {})
    with pytest.raises(IngestionError, match="row 1"):
        encode_categoricals(["a"], [["NA"]], {})


def test_constant_categorical_rejected():
    with pytest.raises(IngestionError, match="constant"):
        encode_categoricals(["g"], [["x"], ["x"]], {"g": "categorical"})


def test_non_numeric_cell_rejected():
    with pytest.raises(IngestionError, match="non-numeric"):
        encode_categoricals(["a"], [["1"], ["oops"]], {"a": "numeric"})


def test_header_problems():
    with pytest.raises(IngestionError, match="duplicate"):
        encode_categoricals(["a", "a"], [["1", "2"]], {})
    with pytest.raises(IngestionError, match="no data rows"):
        encode_categoricals(["a"], [], {})
    with pytest.raises(IngestionError, match="fields"):
        encode_categoricals(["a", "b"], [["1"]], {})


def test_schema_validation(tmp_path):
    p = tmp_path / "schema.json"
    p.write_text('{"a": "numeric", "g": "categorical"}')
    assert read_schema(p) == {"a": "numeric", "g": "categorical"}
    p.write_text('{"a": "continuous"}')
    with pytest.raises(IngestionError, match="unknown kind"):
        read_schema(p)


def test_read_table_with_delimiter(tmp_path):
    table = tmp_path / "data.txt"
    table.write_text("y;sex\n1.5;F\n2.5;M\n3.5;F\n")
    schema = tmp_path / "schema.json"
    schema.write_text('{"y": "numeric", "sex": "categorical"}')
    ds = read_table(table, schema, delimiter=";")
    assert ds.n_rows == 3
    assert ds.column("sex_M").tolist() == [0.0, 1.0, 0.0]
    with pytest.raises(IngestionError, match="not present"):
        read_table(table, {"nope": "numeric"}, delimiter=";")


def test_dataset_invariants():
    with pytest.raises(IngestionError, match="length"):
        Dataset({"a": np.ones(3), "b": np.ones(4)})
    with pytest.raises(IngestionError):
        Dataset({})
    with pytest.raises(IngestionError, match="non-finite"):
        Dataset({"a": np.array([1.0, np.nan])})
    ds = Dataset({"a": np.arange(5.0)})
    with pytest.raises(ValueError):
        ds.column("a")[0] = 99.0  # columns are read-only
    with pytest.raises(IngestionError, match="no column"):
        ds.column("zzz")


# ------------------------------------------- bulk parse against the per-cell path

def _per_cell(path, schema, delimiter=","):
    """The oracle: ``encode_categoricals`` over ``csv.reader`` rows, with
    undecodable bytes and csv's own errors (before Python 3.11 it refuses
    NUL) worded as ``read_table`` words them."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
            rows = [row for row in reader if row]
        except UnicodeDecodeError as exc:
            raise IngestionError(
                f"{path}: not UTF-8 text ({exc.reason} 0x{exc.object[exc.start]:02x})"
            ) from None
        except csv.Error as exc:
            raise IngestionError(f"{path}: line {reader.line_num}: {exc}") from None
    return encode_categoricals(header, rows, schema)


def _outcome(read, path, schema, delimiter=","):
    """The Dataset read, or the error text."""
    try:
        return read(path, schema, delimiter)
    except IngestionError as exc:
        return f"{type(exc).__name__}: {exc}"


def _assert_same(want, got):
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert got.column_names == want.column_names
    for name in want.column_names:
        assert got.column(name).dtype == want.column(name).dtype
        assert np.array_equal(got.column(name), want.column(name))


NUM = {"a": "numeric", "b": "numeric"}
CAT = {"a": "numeric", "g": "categorical"}
# name -> (file text, schema, delimiter)
CORPUS = {
    "padded numbers": (" a , b \n 1 ,\t2.5\n3\t, -4 \n", {}, ","),
    "underscore digits": ("a,b\n1_000,2\n3,4\n", NUM, ","),
    "full-width digits": ("a,b\n１２,2\n3,4\n", NUM, ","),
    "inf numeric": ("a,b\n1,2\ninf,4\n", NUM, ","),
    "1e400 numeric": ("a,b\n1,2\n1e400,4\n", NUM, ","),
    "NaN numeric": ("a,b\n1,2\nNaN,4\n", NUM, ","),
    "NULL numeric": ("a,b\n1,NULL\n3,4\n", NUM, ","),
    "na numeric": ("a,b\n1,2\n3,na\n", NUM, ","),
    "empty quoted numeric": ('a,b\n1,2\n"",4\n', NUM, ","),
    "inf level": ("a,g\n1,inf\n2,x\n3,1e400\n", CAT, ","),
    "NaN level": ("a,g\n1,x\n2,NaN\n", CAT, ","),
    "NULL level": ("a,g\n1,NULL\n2,x\n", CAT, ","),
    "na level": ("a,g\n1,x\n2, na \n", CAT, ","),
    "empty quoted level": ('a,g\n1,x\n2,""\n', CAT, ","),
    "quoted cells": ('a,g\n"1","x"\n2,"y, z"\n"3",x\n', CAT, ","),
    "doubled quote": ('a,g\n1,"say ""x"""\n2,y\n', CAT, ","),
    "quoted newline in data": ('a,g\n1,"x\ny"\n2,y\n3,"x\r\ny"\n', CAT, ","),
    "quoted newline in header": ('"a\nb",g\n1,x\n2,y\n', {"g": "categorical"}, ","),
    "quote inside cell": ('a,g\n1,x"y"\n2,"x"y\n', CAT, ","),
    "blank lines": ("a,b\n\n1,2\n\n\n3,4\n\n", NUM, ","),
    "whitespace-only line": ("a,b\n1,2\n  \n3,4\n", NUM, ","),
    "whitespace-only line, one column": ("a\n1\n \t\n3\n", {}, ","),
    "CRLF": ("a,g\r\n1,x\r\n2,y\r\n", CAT, ","),
    "CR": ("a,g\r1,x\r2,y\r", CAT, ","),
    "no final newline": ("a,g\n1,x\n2,y", CAT, ","),
    "hash-leading cell": ("a,g\n#1,x\n2,y\n", CAT, ","),
    "hash-leading level": ("a,g\n1,#x\n2,y\n", CAT, ","),
    "trailing delimiter": ("a,b\n1,2,\n3,4,\n", NUM, ","),
    "short row": ("a,b\n1,2\n3\n", NUM, ","),
    "long row": ("a,b\n1,2\n3,4,5\n", NUM, ","),
    "long row, categorical": ("a,g\n1,x\n2,y,5\n", CAT, ","),
    "padded levels": ("a,g\n1,x\n2, x\n3,y \n", CAT, ","),
    "levels differing by case": ("a,g\n1,x\n2,X\n3,x\n", CAT, ","),
    "constant level": ("a,g\n1,x\n2,x\n", CAT, ","),
    "NUL in a level": ("a,g\n1,x\x00\n2,y\n", CAT, ","),
    "non-ASCII level": ("a,g\n1,é\n2,e\n", CAT, ","),
    "one data row": ("a,b\n1,2\n", NUM, ","),
    "header only": ("a,b\n", NUM, ","),
    "duplicate header": ("a,a\n1,2\n", {}, ","),
    "schema column missing": ("a,b\n1,2\n", {"c": "numeric"}, ","),
    "non-numeric": ("a,b\n1,2\n3,oops\n", NUM, ","),
    "semicolon": ("a;g\n1.5;x\n2;y\n", CAT, ";"),
    "semicolon, decimal comma": ("a;b\n1,5;2\n", NUM, ";"),
    "tab": ("a\tg\n1\tx\n 2 \ty\n", CAT, "\t"),
    "tab, empty field": ("a\tb\n1\t\n", NUM, "\t"),
    "newline delimiter": ("a\nb\n1\n", {}, "\n"),
    "quote delimiter": ('a"b\n1"2\n', {}, '"'),
    # past the first block the header read decodes
    "invalid UTF-8": ("a,g\n" + "1,x\n2,y\n" * 2000 + "3,\udcff\n", CAT, ","),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", CORPUS)
def test_read_table_matches_per_cell_path(tmp_path, name):
    text, schema, delimiter = CORPUS[name]
    path = tmp_path / "table.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    _assert_same(_outcome(_per_cell, path, schema, delimiter),
                 _outcome(read_table, path, schema, delimiter))


def _seeded_table(tmp_path, n=20_000, seed=5):
    rng = np.random.default_rng(seed)
    x = np.char.mod("%.6f", rng.normal(size=n))
    g = np.array(["low", "mid", "high", "top"])[rng.integers(0, 4, n)]
    path = tmp_path / "seeded.csv"
    path.write_text("x,g\n" + "".join(f"{a},{b}\n" for a, b in zip(x, g)))
    return path, {"x": "numeric", "g": "categorical"}


def test_read_table_matches_per_cell_path_on_seeded_table(tmp_path):
    path, schema = _seeded_table(tmp_path)
    ds = read_table(path, schema)
    _assert_same(_per_cell(path, schema), ds)
    assert ds.column_names == ("x", "g_low", "g_mid", "g_top")  # "high" is the reference


def test_clean_tables_load_without_the_per_cell_path(tmp_path, monkeypatch):
    def per_cell(*args):
        raise AssertionError("per-cell path used")

    monkeypatch.setattr(tabular, "encode_categoricals", per_cell)
    path, schema = _seeded_table(tmp_path, n=500)
    assert read_table(path, schema).n_rows == 500
    for name in ("padded numbers", "quoted cells", "doubled quote", "quoted newline in data",
                 "quoted newline in header", "blank lines", "CRLF", "CR",
                 "no final newline", "hash-leading level", "levels differing by case",
                 "non-ASCII level", "one data row", "semicolon", "tab"):
        text, schema, delimiter = CORPUS[name]
        path = tmp_path / "table.csv"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        read_table(path, schema, delimiter)


# ------------------------------------------------ numpy reads the path in blocks

def test_a_clean_table_reaches_loadtxt_as_a_str_path(tmp_path, monkeypatch):
    sources = []
    loadtxt = np.loadtxt

    def recording(source, *args, **kwargs):
        sources.append(source)
        return loadtxt(source, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", recording)
    path, schema = _seeded_table(tmp_path, n=500)
    assert read_table(path, schema).n_rows == 500
    assert sources == [os.path.abspath(path)]


def _no_network(*args, **kwargs):
    raise AssertionError("ingest opened a URL")


# name -> (file name under tmp_path, bytes written, path handed to read_table)
BLOCK_PATH_CASES = {
    "plain text named .gz": ("table.csv.gz", b"a,g\n1,x\n2,y\n", "table.csv.gz"),
    "relative name that parses as a URL": ("http:/x/t.csv", b"a,g\n1,x\n2,y\n",
                                           "http://x/t.csv"),
    "bytes path": ("table.csv", b"a,g\n1,x\n2,y\n", b"table.csv"),
    "CR only": ("table.csv", b"a,g\r1,x\r2,y\r", "table.csv"),
    "CRLF, quoted CRLF in a level": ("table.csv", b'a,g\r\n1,"x\r\ny"\r\n2,y\r\n3,x\r\n',
                                     "table.csv"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", BLOCK_PATH_CASES)
def test_block_path_edge_cases_read_as_the_per_cell_path(tmp_path, monkeypatch, name):
    file, data, given = BLOCK_PATH_CASES[name]
    monkeypatch.setattr("urllib.request.urlopen", _no_network)
    monkeypatch.chdir(tmp_path)
    (tmp_path / file).parent.mkdir(parents=True, exist_ok=True)
    (tmp_path / file).write_bytes(data)
    want = _per_cell(given, CAT)
    assert not isinstance(want, str)
    _assert_same(want, _outcome(read_table, given, CAT))


def test_a_quoted_cr_level_keeps_its_cr_without_the_per_cell_path(tmp_path, monkeypatch):
    def per_cell(*args):
        raise AssertionError("per-cell path used")

    monkeypatch.setattr(tabular, "encode_categoricals", per_cell)
    path = tmp_path / "table.csv"
    path.write_bytes(b'a,g\r\n1,"x\r\ny"\r\n2,"x\ny"\r\n3,"x\ry"\r\n')
    # universal newlines would merge the three levels into one constant "x\ny"
    assert read_table(path, CAT).column_names == ("a", "g_x\r\ny", "g_x\ry")


def test_a_table_reads_without_a_working_directory(tmp_path, monkeypatch):
    # numpy's DataSource resolves the working directory even for an absolute path
    path, schema = _seeded_table(tmp_path, n=50)
    gone = tmp_path / "gone"
    gone.mkdir()
    monkeypatch.chdir(gone)
    gone.rmdir()
    _assert_same(_per_cell(path, schema), read_table(path, schema))


# ------------------------------------- the rows come from the header's file

def _swap_before_the_bulk_parse(monkeypatch, swap):
    """Patch ``np.loadtxt`` to run ``swap(path)`` just before it parses a path:
    the table changes between ``read_table``'s open and numpy's."""
    loadtxt = np.loadtxt

    def racing(source, *args, **kwargs):
        if isinstance(source, str):
            swap(source)
        return loadtxt(source, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", racing)


TABLE, OTHER = "x,g\n1,a\n3,b\n", "x,g\n100,a\n300,b\n"

RACES = {  # each: the file put beside t.csv, and what happens to t.csv
    # numpy's DataSource opens <path>.gz when <path> is gone
    "removed beside a gzip sibling": ("t.csv.gz", gzip.compress(OTHER.encode()), os.remove),
    "removed beside a corrupt gzip sibling": ("t.csv.gz", b"not gzip", os.remove),
    "replaced by another table": ("t.csv.new", OTHER.encode(),
                                  lambda path: os.replace(path + ".new", path)),
}


@pytest.mark.parametrize("race", RACES)
def test_the_rows_come_from_the_file_the_header_came_from(tmp_path, monkeypatch, race):
    path = tmp_path / "t.csv"
    path.write_text(TABLE)
    want = _per_cell(path, {"g": "categorical"})
    name, content, swap = RACES[race]
    (tmp_path / name).write_bytes(content)
    _swap_before_the_bulk_parse(monkeypatch, swap)
    got = read_table(path, {"g": "categorical"})
    _assert_same(want, got)
    assert got.column("x").tolist() == [1.0, 3.0]


def test_a_table_in_a_pipe_reads_whole(tmp_path):
    """A fifo cannot be read twice: the rows come from the open file, past
    the block its header's read buffered."""
    rows = [f"{i},{'ab'[i % 2]}" for i in range(5000)]  # about 40 kB
    text = "x,g\n" + "\n".join(rows) + "\n"
    path = tmp_path / "t.csv"
    path.write_text(text)
    want = read_table(path, {"g": "categorical"})
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)

    def write():
        with open(fifo, "w") as fh:
            fh.write(text)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        got = read_table(fifo, {"g": "categorical"})
    finally:
        writer.join(timeout=10)
    _assert_same(want, got)
    assert got.n_rows == 5000
