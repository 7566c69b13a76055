"""Unit tests for the LabeledFrame storage primitive."""

import numpy as np
import pytest

from repro.frames import (
    DuplicateLabelError,
    LabeledFrame,
    LabelError,
    ShapeError,
)


@pytest.fixture()
def frame():
    return LabeledFrame(
        ["u1", "u2", "u3"],
        ["t0", "t1", "t2"],
        [[1, 1, 0], [0, 1, 1], [0, 0, 0]],
    )


class TestConstruction:
    def test_shape(self, frame):
        assert frame.shape == (3, 3)
        assert frame.n_rows == 3
        assert frame.n_cols == 3

    def test_labels_are_tuples(self, frame):
        assert frame.row_labels == ("u1", "u2", "u3")
        assert frame.col_labels == ("t0", "t1", "t2")

    def test_values_are_copied(self):
        data = np.zeros((2, 2))
        frame = LabeledFrame(["a", "b"], ["x", "y"], data)
        data[0, 0] = 99
        assert frame.cell("a", "x") == 0

    def test_duplicate_row_labels_rejected(self):
        with pytest.raises(DuplicateLabelError):
            LabeledFrame(["a", "a"], ["x"], [[1], [2]])

    def test_duplicate_col_labels_rejected(self):
        with pytest.raises(DuplicateLabelError):
            LabeledFrame(["a"], ["x", "x"], [[1, 2]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            LabeledFrame(["a", "b"], ["x"], [[1]])

    def test_empty_constructor(self):
        frame = LabeledFrame.empty(["x", "y"])
        assert frame.n_rows == 0
        assert frame.col_labels == ("x", "y")

    def test_from_rows(self):
        frame = LabeledFrame.from_rows({"a": [1, 2], "b": [3, 4]}, ["x", "y"])
        assert frame.cell("b", "y") == 4

    def test_from_rows_empty(self):
        frame = LabeledFrame.from_rows({}, ["x", "y"])
        assert frame.n_rows == 0

    def test_from_rows_bad_width(self):
        with pytest.raises(ShapeError):
            LabeledFrame.from_rows({"a": [1]}, ["x", "y"])

    def test_zeros(self):
        frame = LabeledFrame.zeros(["a", "b"], ["x"])
        assert frame.values.sum() == 0
        assert frame.values.dtype == np.uint8

    def test_tuple_row_labels_supported(self):
        frame = LabeledFrame([("u", "v"), ("v", "w")], ["t0"], [[1], [0]])
        assert frame.cell(("u", "v"), "t0") == 1


class TestAccess:
    def test_cell(self, frame):
        assert frame.cell("u1", "t0") == 1
        assert frame.cell("u2", "t0") == 0

    def test_unknown_row_raises_label_error(self, frame):
        with pytest.raises(LabelError):
            frame.cell("nope", "t0")

    def test_unknown_col_raises_label_error(self, frame):
        with pytest.raises(LabelError):
            frame.cell("u1", "nope")

    def test_label_error_is_key_error(self, frame):
        with pytest.raises(KeyError):
            frame.row_position("nope")

    def test_row_returns_copy(self, frame):
        row = frame.row("u1")
        row[0] = 42
        assert frame.cell("u1", "t0") == 1

    def test_row_dict(self, frame):
        assert frame.row_dict("u2") == {"t0": 0, "t1": 1, "t2": 1}

    def test_column(self, frame):
        assert frame.column("t1").tolist() == [1, 1, 0]

    def test_iter_rows_order(self, frame):
        labels = [label for label, _ in frame.iter_rows()]
        assert labels == ["u1", "u2", "u3"]

    def test_contains(self, frame):
        assert "u1" in frame
        assert "zz" not in frame

    def test_len(self, frame):
        assert len(frame) == 3

    def test_has_row_has_col(self, frame):
        assert frame.has_row("u2")
        assert not frame.has_row("t0")
        assert frame.has_col("t0")
        assert not frame.has_col("u2")


class TestSelection:
    def test_restrict_cols(self, frame):
        sub = frame.restrict_cols(["t1", "t2"])
        assert sub.col_labels == ("t1", "t2")
        assert sub.row("u1").tolist() == [1, 0]

    def test_restrict_cols_reorders(self, frame):
        sub = frame.restrict_cols(["t2", "t0"])
        assert sub.row("u1").tolist() == [0, 1]

    def test_restrict_cols_unknown(self, frame):
        with pytest.raises(LabelError):
            frame.restrict_cols(["bogus"])

    def test_select_rows(self, frame):
        sub = frame.select_rows(["u3", "u1"])
        assert sub.row_labels == ("u3", "u1")

    def test_select_rows_present_skips_unknown(self, frame):
        sub = frame.select_rows_present(["u1", "ghost"])
        assert sub.row_labels == ("u1",)

    def test_mask_rows(self, frame):
        sub = frame.mask_rows(np.array([True, False, True]))
        assert sub.row_labels == ("u1", "u3")

    def test_mask_rows_wrong_shape(self, frame):
        with pytest.raises(ShapeError):
            frame.mask_rows(np.array([True]))


class TestBooleanReductions:
    def test_any_mask_all_cols(self, frame):
        assert frame.any_mask().tolist() == [True, True, False]

    def test_any_mask_subset(self, frame):
        assert frame.any_mask(["t0"]).tolist() == [True, False, False]

    def test_any_mask_empty_cols_is_false(self, frame):
        assert frame.any_mask([]).tolist() == [False, False, False]

    def test_all_mask(self, frame):
        assert frame.all_mask(["t0", "t1"]).tolist() == [True, False, False]

    def test_all_mask_empty_cols_is_true(self, frame):
        # Vacuous truth, matching numpy.all over an empty axis.
        assert frame.all_mask([]).tolist() == [True, True, True]

    def test_none_mask(self, frame):
        assert frame.none_mask(["t2"]).tolist() == [True, False, True]

    def test_rows_any(self, frame):
        assert frame.rows_any(["t1"]) == ("u1", "u2")

    def test_rows_all(self, frame):
        assert frame.rows_all(["t1", "t2"]) == ("u2",)

    def test_count_nonzero_by_row(self, frame):
        counts = frame.count_nonzero_by_row()
        assert counts == {"u1": 2, "u2": 2, "u3": 0}

    def test_count_nonzero_by_row_subset(self, frame):
        counts = frame.count_nonzero_by_row(["t0"])
        assert counts == {"u1": 1, "u2": 0, "u3": 0}

    def test_count_nonzero_empty_cols(self, frame):
        counts = frame.count_nonzero_by_row([])
        assert counts == {"u1": 0, "u2": 0, "u3": 0}


class TestCombination:
    def test_concat_rows(self, frame):
        other = LabeledFrame(["u4"], ["t0", "t1", "t2"], [[1, 0, 1]])
        combined = frame.concat_rows(other)
        assert combined.n_rows == 4
        assert combined.cell("u4", "t2") == 1

    def test_concat_rows_column_mismatch(self, frame):
        other = LabeledFrame(["u4"], ["t0"], [[1]])
        with pytest.raises(ShapeError):
            frame.concat_rows(other)

    def test_concat_rows_duplicate_labels(self, frame):
        with pytest.raises(DuplicateLabelError):
            frame.concat_rows(frame)

    def test_copy_is_independent(self, frame):
        clone = frame.copy()
        clone.values[clone.row_position("u1"), clone.col_position("t0")] = 0
        assert clone.cell("u1", "t0") == 0
        assert frame.cell("u1", "t0") == 1

    def test_equality(self, frame):
        assert frame == frame.copy()
        assert frame != LabeledFrame.empty(["t0", "t1", "t2"])

    def test_equality_other_type(self, frame):
        assert frame.__eq__(42) is NotImplemented


class TestRendering:
    def test_to_string_contains_labels(self, frame):
        text = frame.to_string()
        assert "u1" in text and "t2" in text

    def test_to_string_truncates(self, frame):
        text = frame.to_string(max_rows=1)
        assert "more rows" in text

    def test_repr(self, frame):
        assert "3 rows x 3 cols" in repr(frame)
