"""Confusion-matrix metrics and the boundary-band exclusion mask."""

import numpy as np
import pytest

from shadowseg.evaluate import evaluate, label_boundary_mask


def test_identity_prediction_is_perfect():
    rng = np.random.default_rng(35)
    frames = [rng.integers(1, 4, size=(8, 8)) for _ in range(3)]
    report = evaluate(frames, frames)
    assert report.pixel_accuracy == 1.0
    assert np.trace(report.confusion) == 3 * 64
    assert np.count_nonzero(report.confusion) == np.count_nonzero(np.diag(report.confusion))
    for name in ("background", "shadow", "foreground"):
        assert report.precision[name] == 1.0
        assert report.recall[name] == 1.0


def test_all_background_prediction():
    truth = np.array([[1, 1, 2], [1, 3, 1]])
    pred = np.ones_like(truth)
    report = evaluate([pred], [truth])
    assert report.recall["background"] == 1.0
    assert report.recall["shadow"] == 0.0
    assert report.recall["foreground"] == 0.0
    assert np.isclose(report.precision["background"], 4 / 6)
    # nothing predicted shadow or foreground: empty denominators score 1
    assert report.precision["shadow"] == 1.0
    assert report.precision["foreground"] == 1.0
    assert np.isclose(report.pixel_accuracy, 4 / 6)


def test_hand_worked_two_by_two():
    pred = np.array([[1, 2], [3, 1]])
    truth = np.array([[1, 1], [3, 2]])
    report = evaluate([pred], [truth])
    assert report.confusion.tolist() == [[1, 1, 0], [1, 0, 0], [0, 0, 1]]
    assert report.pixel_accuracy == 0.5
    assert report.precision["background"] == 0.5
    assert report.precision["shadow"] == 0.0
    assert report.precision["foreground"] == 1.0
    assert report.recall["background"] == 0.5
    assert report.recall["shadow"] == 0.0
    assert report.recall["foreground"] == 1.0


def test_rows_are_truth_columns_are_predicted():
    pred = np.full((2, 2), 3)
    truth = np.full((2, 2), 2)
    report = evaluate([pred], [truth])
    assert report.confusion[1, 2] == 4
    assert report.confusion.sum() == 4


def test_counts_accumulate_over_frames():
    a = (np.ones((2, 2), dtype=int), np.ones((2, 2), dtype=int))
    b = (np.full((2, 2), 2), np.full((2, 2), 2))
    report = evaluate([a[0], b[0]], [a[1], b[1]])
    assert report.confusion[0, 0] == 4
    assert report.confusion[1, 1] == 4


def test_ignore_mask_removes_pixels():
    pred = np.array([[1, 2], [1, 1]])
    truth = np.ones((2, 2), dtype=int)
    ignore = np.array([[False, True], [False, False]])
    report = evaluate([pred], [truth], ignore=[ignore])
    assert report.pixel_accuracy == 1.0
    assert report.confusion.sum() == 3


def test_mismatched_inputs_raise():
    with pytest.raises(ValueError):
        evaluate([np.ones((2, 2))], [np.ones((2, 2))] * 2)
    with pytest.raises(ValueError):
        evaluate([np.ones((2, 2))], [np.ones((2, 3))])


def test_to_dict_is_json_friendly():
    report = evaluate([np.ones((2, 2), dtype=int)], [np.ones((2, 2), dtype=int)])
    d = report.to_dict()
    assert d["confusion"] == [[4, 0, 0], [0, 0, 0], [0, 0, 0]]
    assert set(d["precision"]) == {"background", "shadow", "foreground"}
    assert d["pixel_accuracy"] == 1.0


def test_boundary_mask_constant_field_is_empty():
    assert not label_boundary_mask(np.ones((5, 5), dtype=int)).any()


def test_boundary_mask_vertical_split():
    labels = np.ones((4, 6), dtype=int)
    labels[:, 3:] = 3
    mask = label_boundary_mask(labels)
    expected = np.zeros((4, 6), dtype=bool)
    expected[:, 2:4] = True
    assert np.array_equal(mask, expected)


def test_boundary_mask_radius_grows_the_band():
    labels = np.ones((5, 9), dtype=int)
    labels[:, 5:] = 2
    mask = label_boundary_mask(labels, radius=2)
    expected = np.zeros((5, 9), dtype=bool)
    expected[:, 3:7] = True
    assert np.array_equal(mask, expected)


def test_boundary_mask_rejects_a_radius_below_one():
    labels = np.ones((5, 9), dtype=int)
    labels[:, 5:] = 2
    for radius in (0, -1):
        with pytest.raises(ValueError, match="radius must be >= 1"):
            label_boundary_mask(labels, radius=radius)


def test_boundary_mask_marks_both_sides_of_a_blob():
    labels = np.ones((7, 7), dtype=int)
    labels[3, 3] = 3
    mask = label_boundary_mask(labels)
    expected = np.zeros((7, 7), dtype=bool)
    expected[2:5, 2:5] = True
    assert np.array_equal(mask, expected)
