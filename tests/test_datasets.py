import numpy as np
import pytest

from pemi.datasets import load_dataset
from pemi.errors import ParseError, SchemaError


def test_minimal_prediction_file(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("mu_hat,y\n1.5,2.0\n-0.5,0.25\n")
    data = load_dataset(path)
    assert len(data) == 2
    assert data.feature_names == ("mu_hat",)
    assert data.X[:, 0].tolist() == [1.5, -0.5]
    assert data.y.tolist() == [2.0, 0.25]


def test_missing_label_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("mu_hat,z\n1,2\n")
    with pytest.raises(SchemaError):
        load_dataset(path)


def test_need_some_features(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y\n1\n")
    with pytest.raises(SchemaError):
        load_dataset(path)


def test_both_feature_styles_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x_0,mu_hat,y\n1,2,3\n")
    with pytest.raises(SchemaError):
        load_dataset(path)


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("mu_hat,y\n1.0,2.0\noops,3.0\n")
    with pytest.raises(ParseError, match=":3:"):
        load_dataset(path)


def test_ragged_row_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("mu_hat,y\n1.0\n")
    with pytest.raises(ParseError, match=":2:"):
        load_dataset(path)


def test_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(7, 3))
    y = rng.normal(size=7)
    c = rng.normal(size=7)
    path = tmp_path / "str.csv"
    rows = [",".join(repr(float(v)) for v in (*X[i], y[i], c[i])) for i in range(7)]
    path.write_text("x_0,x_1,x_2,y,c\n" + "\n".join(rows) + "\n")
    back = load_dataset(path)
    assert np.array_equal(back.X, X)
    assert np.array_equal(back.y, y)
    assert np.array_equal(back.cutoffs, c)
    assert back.feature_names == ("x_0", "x_1", "x_2")


def test_model_columns_and_cutoffs(tmp_path):
    path = tmp_path / "full.csv"
    path.write_text("mu_hat,f1,f2,y,c\n1,2,3,4,5\n6,7,8,9,10\n")
    data = load_dataset(path)
    assert data.feature_names == ("mu_hat", "f1", "f2")
    assert data.cutoffs.tolist() == [5.0, 10.0]
    assert "inf" == repr(float("inf"))  # the CSV literal for infinite sizes
