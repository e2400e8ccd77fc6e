"""Diagnostic gait signatures from joint-angle trajectories: Morlet
scalograms, region/level feature vectors, and SOM classification."""

import os

# Set before numpy loads: no stage uses BLAS threads (the LOOCV folds
# already fill every CPU, and som.train's one matrix-vector product per
# presentation is small), and idle threads cost CPU in every process.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .data import (
    CANONICAL_GRID_SIZE,
    ClassLabel,
    GaitTrajectory,
    Joint,
    NORMAL,
    ParseError,
    SchemaError,
    Side,
    Subject,
    ingest_csv,
    resample,
    write_csv,
)
from .evaluate import EvalReport, kappa, label_nodes, loocv
from .features import FeatureMatrix, Level, extract_features, split_regions
from .som import (
    BORDER,
    InitMode,
    Kernel,
    SomMap,
    TrainSchedule,
    UMatrix,
    attraction_field,
    best_match,
    clusters,
    init,
    train,
    umatrix,
)
from .synth import GaitRegion, PerturbationSpec, SynthSpec, generate
from .wavelet import MorletParams, ScaleGrid, Scalogram, cwt, morlet

__version__ = "0.1.0"
