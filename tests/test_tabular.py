import numpy as np
import pytest

from dprep import Dataset, IngestionError, encode_categoricals, read_schema, read_table


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
