"""Classification metrics against brute-force and hand-derived oracles."""

import numpy as np
import pytest

from opinionlab.metrics import compute_metrics, confusion_matrix


def brute_force_metrics(true_labels, pred_labels, num_classes, include_empty=False):
    """Independent re-computation with explicit python loops."""
    n = len(true_labels)
    matrix = [[0] * num_classes for _ in range(num_classes)]
    for t, p in zip(true_labels, pred_labels):
        matrix[t][p] += 1
    accuracy = sum(matrix[c][c] for c in range(num_classes)) / n
    f1s = []
    for c in range(num_classes):
        tp = matrix[c][c]
        fp = sum(matrix[r][c] for r in range(num_classes)) - tp
        fn = sum(matrix[c]) - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        if tp + fn > 0 or include_empty:
            f1s.append(f1)
    macro = sum(f1s) / len(f1s) if f1s else 0.0
    return np.array(matrix), accuracy, macro


class TestConfusionMatrix:
    def test_hand_example(self):
        m = confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1], 2)
        np.testing.assert_array_equal(m, [[1, 1], [0, 2]])

    def test_orientation_is_true_then_pred(self):
        m = confusion_matrix([0], [1], 2)
        assert m[0, 1] == 1
        assert m[1, 0] == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 1], [0], 2)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 2], [0, 1], 2)

    @pytest.mark.parametrize("true, pred", [([-1], [0]), ([0], [-1]), ([0, 1, -2], [1, 1, 1])])
    def test_negative_label_rejected(self, true, pred):
        """A label of -1 must not wrap around into the last class."""
        with pytest.raises(ValueError, match="label out of range"):
            confusion_matrix(true, pred, 3)

    @pytest.mark.parametrize("num_classes", [1, 2, 5, 9])
    def test_matches_add_at_randomized(self, num_classes):
        """The pair count against the unbuffered scatter-add it replaced."""
        rng = np.random.default_rng(num_classes)
        for n in [0, 1, 2, 17, 12_000]:
            true = rng.integers(0, num_classes, size=n)
            pred = rng.integers(0, num_classes, size=n)
            expected = np.zeros((num_classes, num_classes), dtype=int)
            np.add.at(expected, (true, pred), 1)
            got = confusion_matrix(true, pred, num_classes)
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)


class TestComputeMetrics:
    def test_hand_derived_example(self):
        """true=[0,0,0,1], pred=[0,0,1,1]: accuracy 3/4; class-0 F1 = 4/5,
        class-1 F1 = 2/3, so macro-F1 = 11/15."""
        m = compute_metrics([0, 0, 0, 1], [0, 0, 1, 1], 2)
        assert m.accuracy == pytest.approx(0.75)
        assert m.macro_f1 == pytest.approx(11 / 15)
        assert m.per_class[0].precision == pytest.approx(1.0)
        assert m.per_class[0].recall == pytest.approx(2 / 3)
        assert m.per_class[1].precision == pytest.approx(0.5)
        assert m.per_class[1].recall == pytest.approx(1.0)

    @pytest.mark.parametrize("num_classes", [2, 4, 5])
    def test_matches_brute_force_randomized(self, num_classes):
        rng = np.random.default_rng(num_classes)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            true = rng.integers(0, num_classes, size=n)
            pred = rng.integers(0, num_classes, size=n)
            got = compute_metrics(true, pred, num_classes)
            matrix, acc, macro = brute_force_metrics(true.tolist(), pred.tolist(), num_classes)
            np.testing.assert_array_equal(got.confusion, matrix)
            assert got.accuracy == pytest.approx(acc)
            assert got.macro_f1 == pytest.approx(macro)

    def test_include_empty_classes(self):
        """Classes with no support stay out of the macro average."""
        default = compute_metrics([0, 0], [0, 0], 3)
        assert default.macro_f1 == pytest.approx(1.0)

    def test_perfect_predictions(self):
        got = compute_metrics([0, 1, 2], [0, 1, 2], 3)
        assert got.accuracy == 1.0
        assert got.macro_f1 == 1.0

    def test_all_wrong(self):
        got = compute_metrics([0, 1], [1, 0], 2)
        assert got.accuracy == 0.0
        assert got.macro_f1 == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        true = rng.integers(0, 5, size=50)
        pred = rng.integers(0, 5, size=50)
        perm = rng.permutation(50)
        a = compute_metrics(true, pred, 5)
        b = compute_metrics(true[perm], pred[perm], 5)
        assert a.accuracy == b.accuracy
        assert a.macro_f1 == b.macro_f1
        np.testing.assert_array_equal(a.confusion, b.confusion)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([], [], 3)

    def test_accuracy_is_python_float(self):
        got = compute_metrics([0, 1], [0, 1], 2)
        assert type(got.accuracy) is float
        assert type(got.macro_f1) is float
