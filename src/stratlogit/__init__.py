"""stratlogit: explainable logistic attribution for scholar activity data.

Turns a CSV of scholar social-media records into derived activity
indicators and a stratification mobility label, fits and selects
logistic regression models by information criteria, scores them on a
held-out partition, explains them with exact additive attributions and
attribution trend curves, and detects collaboration communities by
betweenness-based graph division.  A single deterministic pipeline (and
a matching CLI) wires the stages together and emits machine-readable
reports.
"""

__version__ = "0.1.0"

from .emit import write_report_files  # noqa: F401
from .errors import (  # noqa: F401
    CellParseError,
    ConfigError,
    DataError,
    DegenerateInputError,
    DuplicateIdError,
    InvariantBreachError,
    MissingColumnError,
    NotConvergedError,
    NumericalError,
    PipelineError,
    RecordInvariantError,
    SeparationError,
    SingularMatrixError,
    StratLogitError,
)
from .indicators import CompositeWeights, FeatureMatrix, build_feature_matrix  # noqa: F401
from .ingest import Dataset, ScholarRecord, filter_eligible, parse_dataset  # noqa: F401
from .logit import DesignMatrix, LogitFit, fit_logistic  # noqa: F401
from .pipeline import AnalysisReport, RunConfig, run_pipeline  # noqa: F401
