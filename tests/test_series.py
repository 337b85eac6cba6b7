import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wsol.errors import InputError, ValidationError
from wsol.series import (
    LabeledSeries,
    read_dataset_csv,
    read_series_csv,
    write_series_csv,
)


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


def test_class_masks_are_frozen_floats_of_the_labels():
    s = LabeledSeries(np.array([0.5, 0.6, 0.7]), np.array([0, 1, 1]))
    np.testing.assert_array_equal(s.pos, [0.0, 1.0, 1.0])
    np.testing.assert_array_equal(s.neg, [1.0, 0.0, 0.0])
    assert s.pos.dtype == s.neg.dtype == np.float64
    for mask in (s.pos, s.neg):
        with pytest.raises(ValueError):
            mask[0] = 0.5


def test_with_predictions_shares_labels_and_masks():
    s = LabeledSeries(np.array([0.5, 0.6, 0.7]), np.array([0, 1, 1]))
    moved = s.with_predictions(np.array([0.1, 0.2, 0.3]))
    np.testing.assert_array_equal(moved.predictions, [0.1, 0.2, 0.3])
    assert moved.labels is s.labels and moved.pos is s.pos and moved.neg is s.neg
    np.testing.assert_array_equal(s.predictions, [0.5, 0.6, 0.7])
    with pytest.raises(ValueError):
        moved.predictions[0] = 0.5


@pytest.mark.parametrize(
    "preds",
    [[0.5, np.nan, 0.5], [0.0, 0.5, 0.5], [0.5, 0.5, 1.0], [0.5, 0.5], [[0.5] * 3]],
    ids=["nan", "zero", "one", "short", "2d"],
)
def test_with_predictions_checks_the_new_predictions(preds):
    s = LabeledSeries(np.array([0.5, 0.6, 0.7]), np.array([0, 1, 1]))
    with pytest.raises(ValidationError):
        s.with_predictions(np.array(preds))


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


def test_csv_row_error_names_the_file_line(tmp_path):
    # A quoted field may span lines; the bad record is on the file's line 5.
    path = tmp_path / "quoted.csv"
    path.write_text('timestamp,label,prediction\n"a\nb",1,0.5\n1,0,0.3\n2,x,0.4\n')
    with pytest.raises(InputError, match=r"quoted\.csv:5: invalid literal"):
        read_series_csv(path)


@pytest.mark.parametrize(
    "reader, text",
    [
        (read_series_csv, "timestamp,label,prediction\n0,1,0.8\n1,0,0.3\n"),
        (read_dataset_csv, "f1,label\n0.5,1\n-2.0,0\n"),
    ],
    ids=["series", "dataset"],
)
def test_csv_readers_accept_a_byte_order_mark(reader, text, tmp_path):
    # Spreadsheet exports often start UTF-8 files with a byte-order mark.
    plain = tmp_path / "plain.csv"
    plain.write_text(text, encoding="utf-8")
    marked = tmp_path / "marked.csv"
    marked.write_text(text, encoding="utf-8-sig")
    want, got = reader(plain), reader(marked)
    if isinstance(want, LabeledSeries):
        want, got = (want.predictions, want.labels), (got.predictions, got.labels)
    for w, g in zip(want, got):
        np.testing.assert_array_equal(g, w)


def test_csv_out_of_domain_prediction(tmp_path):
    path = tmp_path / "dom.csv"
    path.write_text("label,prediction\n0,1.5\n")
    with pytest.raises(InputError):
        read_series_csv(path)


# Fields near the edges of what float(), int() and the domain checks take.
_FIELD = st.one_of(
    st.sampled_from(
        ["0", "1", "2", "-1", "0.5", "1e-320", "5e-324", "0.99999999999999999",
         "nan", "inf", "-inf", "1e400", "", " 1 ", "1_0", "0x1", "\u0661", "1" * 40]
    ),
    st.floats().map(repr),
    st.integers().map(str),
    st.text(max_size=4),
)
_BIT = st.sampled_from(["0", "1"])
# Each reader with a header it takes and the fields of a row that header takes.
_FORMATS = {
    read_series_csv: (
        "timestamp,label,prediction",
        (
            st.integers(0, 99).map(str),
            _BIT,
            st.floats(0, 1, exclude_min=True, exclude_max=True).map(repr),
        ),
    ),
    read_dataset_csv: (
        "f1,f2,label",
        (
            st.floats(-1e3, 1e3).map(repr),
            st.floats(allow_nan=False, allow_infinity=False).map(repr),
            _BIT,
        ),
    ),
}


def _document(header: str, rows: list[list[str]], newline: str) -> bytes:
    return newline.join([header, *map(",".join, rows)]).encode()


def _csv_bytes(header: str, fields: tuple) -> st.SearchStrategy[bytes]:
    """A valid header over rows each valid or one field off, anything CSV-shaped,
    or arbitrary bytes."""
    good = st.tuples(*fields).map(list)
    one_off = st.builds(
        lambda row, j, value: row[:j] + [value] + row[j + 1 :],
        good,
        st.integers(0, len(fields) - 1),
        _FIELD,
    )
    anything = st.lists(_FIELD, min_size=1, max_size=4)
    headers = st.sampled_from(["label,prediction", "f1,label", "label"]) | st.lists(
        st.text(max_size=4), max_size=3
    ).map(",".join)
    newline = st.sampled_from(["\n", "\r\n", "\r"])
    return st.one_of(
        st.builds(
            _document, st.just(header), st.lists(good | one_off, max_size=4), newline
        ),
        st.builds(_document, headers, st.lists(one_off | anything, max_size=4), newline),
        st.binary(max_size=80),
    )


_CSV_BYTES = {reader: _csv_bytes(*fmt) for reader, fmt in _FORMATS.items()}


@pytest.mark.parametrize("reader", list(_CSV_BYTES))
@settings(
    max_examples=200,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_csv_readers_return_finite_arrays_or_raise_input_error(reader, tmp_path, data):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(data.draw(_CSV_BYTES[reader]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = reader(path)
        except InputError:
            return
    if isinstance(result, LabeledSeries):
        arrays = (result.predictions, result.labels)
    else:
        arrays = result
        assert arrays[0].ndim == 2 and arrays[0].dtype == np.float64
    assert all(np.all(np.isfinite(a)) for a in arrays)
    assert arrays[0].shape[0] == arrays[1].shape[0] > 0
    assert set(np.unique(arrays[1])) <= {0, 1}
