"""Classification metrics: accuracy, per-class precision/recall/F1, macro-F1.

Macro-F1 averages per-class F1 over the classes that actually occur in the
true labels; classes with zero support are excluded.  A class whose
precision and recall are both undefined contributes an F1 of zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ClassReport:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    macro_f1: float
    per_class: tuple[ClassReport, ...]
    confusion: np.ndarray  # confusion[true, pred]


def confusion_matrix(true_labels, pred_labels, num_classes: int) -> np.ndarray:
    true_labels = np.asarray(true_labels, dtype=int)
    pred_labels = np.asarray(pred_labels, dtype=int)
    if true_labels.shape != pred_labels.shape:
        raise ValueError("label vectors must have equal length")
    if true_labels.size and (min(true_labels.min(), pred_labels.min()) < 0
                             or max(true_labels.max(), pred_labels.max()) >= num_classes):
        raise ValueError("label out of range")
    pairs = true_labels.reshape(-1) * num_classes + pred_labels.reshape(-1)
    return np.bincount(pairs, minlength=num_classes * num_classes).reshape(num_classes, num_classes)


def compute_metrics(true_labels, pred_labels, num_classes: int) -> Metrics:
    matrix = confusion_matrix(true_labels, pred_labels, num_classes)
    total = matrix.sum()
    if total == 0:
        raise ValueError("empty label vectors")
    accuracy = float(np.trace(matrix) / total)

    reports = []
    f1_values = []
    for c in range(num_classes):
        tp = matrix[c, c]
        support = int(matrix[c].sum())
        predicted = int(matrix[:, c].sum())
        precision = tp / predicted if predicted else 0.0
        recall = tp / support if support else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        reports.append(ClassReport(float(precision), float(recall), float(f1), support))
        if support > 0:
            f1_values.append(f1)
    macro_f1 = float(np.mean(f1_values)) if f1_values else 0.0
    return Metrics(accuracy, macro_f1, tuple(reports), matrix)
