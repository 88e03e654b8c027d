"""Segmentation metrics against ground-truth label maps.

The confusion matrix is indexed [truth, predicted] over the label order
background, shadow, foreground; per-class precision and recall and the
overall pixel accuracy derive from it. Empty denominators score 1.0 so a
class absent from both prediction and truth is not penalized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from shadowseg.energy import LABELS

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


def evaluate(predicted, truth) -> EvalReport:
    """Accumulate metrics over matched (predicted, truth) label frames.

    `predicted` and `truth` are sequences of arrays with values in
    {1, 2, 3}, anything else a ValueError; each pair has one shape, (H, W)
    for whole frames. To leave pixels out, pass the kept ones, `pred[keep]`
    and `true[keep]`: the acceptance test drops the band around label
    boundaries that `label_boundary_mask` in ``tests/oracles.py`` marks.
    """
    if len(predicted) != len(truth):
        raise ValueError(f"{len(predicted)} predicted frames vs {len(truth)} truth frames")
    confusion = np.zeros((3, 3), dtype=np.int64)
    for idx, (pred, true) in enumerate(zip(predicted, truth)):
        pred, true = np.asarray(pred), np.asarray(true)
        if pred.shape != true.shape:
            raise ValueError(f"frame {idx}: shape {pred.shape} vs {true.shape}")
        for name, labels in (("predicted", pred), ("truth", true)):
            if (bad := np.setdiff1d(labels, LABELS)).size:
                raise ValueError(f"frame {idx}: {name} labels {bad.tolist()} are not 1, 2 or 3")
        cells = 3 * true.astype(np.int64) + pred.astype(np.int64) - 4
        confusion += np.bincount(cells.ravel(), minlength=9).reshape(3, 3)
    total = int(confusion.sum())
    correct = int(np.trace(confusion))
    precision = {name: _ratio(confusion[i, i], confusion[:, i].sum())
                 for i, name in enumerate(CLASS_NAMES)}
    recall = {name: _ratio(confusion[i, i], confusion[i, :].sum())
              for i, name in enumerate(CLASS_NAMES)}
    return EvalReport(confusion=confusion, precision=precision, recall=recall,
                      pixel_accuracy=_ratio(correct, total))

