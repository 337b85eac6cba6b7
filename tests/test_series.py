import numpy as np
import pytest

from wsol.errors import InputError, ValidationError
from wsol.series import LabeledSeries, read_series_csv, write_series_csv


def test_rejects_predictions_on_boundary():
    with pytest.raises(ValidationError):
        LabeledSeries(np.array([0.0, 0.5]), np.array([0, 1]))
    with pytest.raises(ValidationError):
        LabeledSeries(np.array([0.5, 1.0]), np.array([0, 1]))


def test_rejects_nonbinary_labels():
    with pytest.raises(ValidationError):
        LabeledSeries(np.array([0.5]), np.array([2]))


def test_rejects_empty():
    with pytest.raises(ValidationError):
        LabeledSeries(np.array([]), np.array([]))


def test_arrays_are_frozen():
    s = LabeledSeries(np.array([0.5, 0.6]), np.array([0, 1]))
    with pytest.raises(ValueError):
        s.predictions[0] = 0.1


def test_csv_round_trip(tmp_path):
    s = LabeledSeries(np.array([0.25, 0.5, 0.9]), np.array([0, 1, 1]))
    path = tmp_path / "series.csv"
    write_series_csv(path, s)
    back = read_series_csv(path)
    np.testing.assert_array_equal(back.predictions, s.predictions)
    np.testing.assert_array_equal(back.labels, s.labels)


def test_csv_without_timestamp_column(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("label,prediction\n0,0.2\n1,0.8\n")
    s = read_series_csv(path)
    assert s.n == 2 and s.labels.tolist() == [0, 1]


def test_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(InputError, match="empty series"):
        read_series_csv(path)


def test_csv_header_only(tmp_path):
    path = tmp_path / "head.csv"
    path.write_text("timestamp,label,prediction\n")
    with pytest.raises(InputError, match="empty series"):
        read_series_csv(path)


def test_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("foo,bar\n1,2\n")
    with pytest.raises(InputError, match="expected header"):
        read_series_csv(path)


def test_csv_out_of_domain_prediction(tmp_path):
    path = tmp_path / "dom.csv"
    path.write_text("label,prediction\n0,1.5\n")
    with pytest.raises(InputError):
        read_series_csv(path)
