"""Segmentation metrics against ground-truth label maps.

The confusion matrix is indexed [truth, predicted] over the label order
background, shadow, foreground; per-class precision and recall and the
overall pixel accuracy derive from it. Empty denominators score 1.0 so a
class absent from both prediction and truth is not penalized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from shadowseg.energy import LABELS, NEIGHBORS_8

CLASS_NAMES = ("background", "shadow", "foreground")


@dataclass
class EvalReport:
    confusion: np.ndarray       # (3, 3) counts, rows truth, cols predicted
    precision: dict[str, float]
    recall: dict[str, float]
    pixel_accuracy: float

    def to_dict(self) -> dict:
        return {
            "confusion": self.confusion.astype(int).tolist(),
            "precision": dict(self.precision),
            "recall": dict(self.recall),
            "pixel_accuracy": self.pixel_accuracy,
        }


def _ratio(numer: float, denom: float) -> float:
    return numer / denom if denom > 0 else 1.0


def evaluate(predicted, truth, ignore=None) -> EvalReport:
    """Accumulate metrics over matched (predicted, truth) label frames.

    `predicted` and `truth` are sequences of (H, W) arrays with values in
    {1, 2, 3}; `ignore`, if given, is a matching sequence of boolean masks
    marking pixels to leave out (e.g. a boundary band).
    """
    if len(predicted) != len(truth):
        raise ValueError(f"{len(predicted)} predicted frames vs {len(truth)} truth frames")
    confusion = np.zeros((3, 3), dtype=np.int64)
    for idx, (pred, true) in enumerate(zip(predicted, truth)):
        pred = np.asarray(pred)
        true = np.asarray(true)
        if pred.shape != true.shape:
            raise ValueError(f"frame {idx}: shape {pred.shape} vs {true.shape}")
        keep = np.ones(true.shape, dtype=bool)
        if ignore is not None:
            keep &= ~np.asarray(ignore[idx], dtype=bool)
        for t in LABELS:
            for p in LABELS:
                confusion[t - 1, p - 1] += np.count_nonzero((true == t) & (pred == p) & keep)
    total = int(confusion.sum())
    correct = int(np.trace(confusion))
    precision = {name: _ratio(confusion[i, i], confusion[:, i].sum())
                 for i, name in enumerate(CLASS_NAMES)}
    recall = {name: _ratio(confusion[i, i], confusion[i, :].sum())
              for i, name in enumerate(CLASS_NAMES)}
    return EvalReport(confusion=confusion, precision=precision, recall=recall,
                      pixel_accuracy=_ratio(correct, total))


def label_boundary_mask(labels, radius: int = 1) -> np.ndarray:
    """Pixels within `radius` (Chebyshev) of a label change in `labels`.

    Used to exclude the thin band around object and shadow outlines where
    mixed pixels make ground truth ambiguous.
    """
    if radius < 1:
        raise ValueError(f"boundary radius must be >= 1, got {radius}")
    labels = np.asarray(labels)
    height, width = labels.shape
    boundary = np.zeros((height, width), dtype=bool)
    for dr, dc, _ in NEIGHBORS_8:
        src = labels[max(0, dr):height + min(0, dr), max(0, dc):width + min(0, dc)]
        dst = labels[max(0, -dr):height + min(0, -dr), max(0, -dc):width + min(0, -dc)]
        differs = src != dst
        boundary[max(0, -dr):height + min(0, -dr), max(0, -dc):width + min(0, -dc)] |= differs
    mask = boundary
    for _ in range(radius - 1):
        grown = mask.copy()
        for dr, dc, _ in NEIGHBORS_8:
            src = mask[max(0, dr):height + min(0, dr), max(0, dc):width + min(0, dc)]
            grown[max(0, -dr):height + min(0, -dr), max(0, -dc):width + min(0, -dc)] |= src
        mask = grown
    return mask
