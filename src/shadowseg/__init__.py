"""Adaptive segmentation of grayscale image sequences into background,
moving cast shadow, and foreground.

Per-pixel mixture-of-Gaussians background maintenance, an edge-difference
model, and a global linear shadow transform feed a Bayesian labeling
energy with an MRF smoothness prior, minimized per frame by a Highest
Confidence First solver.

This namespace holds the engine API; each layer lives in its own module.
"""

from shadowseg.energy import BACKGROUND, FOREGROUND, SHADOW
from shadowseg.pgmio import PgmError, read_frame, read_labels, write_labels
from shadowseg.pipeline import (EngineConfig, EngineState, FrameDiagnostics,
                                detection_potentials, process_frame)

__version__ = "0.1.0"
