"""Per-segment discard thresholds: percentile targets from engagement logs,
then a linear model over segment features so unseen segments get a prediction.

The target for a segment is the score that keeps the top p fraction of its
engaged results. The percentile convention is a step function on the
empirical multiset (the k-th largest engaged score for k = ceil(p * N)), not
an interpolated quantile: the returned threshold is always an observed score,
and raising it to the next larger observed score drops retention below p.

The model is an intercept plus one coefficient per value of each segment
feature (user country, language, query intent, doc source type) seen at fit
time; a value never seen contributes 0. The coefficients are the
minimum-norm unweighted least-squares solution, which is unique although
each feature's columns sum to the intercept column. When the fitted
segments admit an exact fit, each is cut at its own target.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .corpus import EngagementRecord, Intent, SegmentKey, SourceType
from .errors import GuardrailError, InvalidParameter
from .jsonl import Record, read_json, write_json

DEFAULT_P = 0.9
DEFAULT_MIN_SUPPORT = 20


def percentile_threshold(scores: Sequence[float], p: float) -> float:
    """Largest observed score t with |{s >= t}| / N >= p.

    Equivalently the k-th largest score for k = ceil(p * N), which handles
    ties correctly: every copy of a value counts toward retention.
    """
    if not 0.0 < p <= 1.0:
        raise InvalidParameter(f"p must be in (0, 1], got {p}")
    arr = np.sort(np.asarray(scores, dtype=np.float64))[::-1]
    if arr.size == 0:
        raise GuardrailError("no scores to take a percentile of")
    k = math.ceil(p * arr.size)
    return float(arr[k - 1])


def segment_targets(
    log: Sequence[EngagementRecord],
    p: float = DEFAULT_P,
    *,
    min_support: int = DEFAULT_MIN_SUPPORT,
    transform: Callable[[float], float] | None = None,
) -> dict[SegmentKey, float]:
    """Per-segment discard targets from engaged records only.

    Records are grouped by their segment key; a segment contributes a target
    only when it has at least min_support engaged records, so sparse segments
    fall back to the fitted model instead of injecting noisy targets.

    transform, when given, maps each raw logged score before the percentile
    is taken (pass the score pipeline's sigmoid so targets live in the same
    space where discarding happens). Without it, logged scores are used
    as-is.
    """
    if not 0.0 < p <= 1.0:
        raise InvalidParameter(f"p must be in (0, 1], got {p}")
    if min_support < 1:
        raise InvalidParameter(f"min_support must be >= 1, got {min_support}")
    if not log:
        raise GuardrailError("engagement log is empty")
    by_segment: dict[SegmentKey, list[float]] = defaultdict(list)
    for rec in log:
        if rec.engaged:
            score = rec.raw_score if transform is None else transform(rec.raw_score)
            by_segment[rec.segment].append(score)
    return {
        seg: percentile_threshold(scores, p)
        for seg, scores in by_segment.items()
        if len(scores) >= min_support
    }


# The segment features in SegmentKey.sort_key() order, named as in engagement.jsonl.
FEATURES = ("user_country", "language", "query_intent", "doc_source_type")


@dataclass(frozen=True)
class FitReport(Record):
    mse: float
    max_residual: float
    n_segments: int


@dataclass(frozen=True)
class ThresholdModel(Record):
    """intercept plus, per feature in FEATURES, a coefficient for each value seen at fit time."""

    intercept: float
    coefficients: dict[str, dict[str, float]]
    p: float
    fit_report: FitReport

    def __post_init__(self) -> None:
        """ValueError unless coefficients has exactly the FEATURES and its intent
        and source-type values name a member; InvalidParameter unless p is in (0, 1]."""
        unknown = sorted(set(self.coefficients) - set(FEATURES))
        if unknown:
            raise ValueError(f"coefficients has unknown feature {unknown[0]!r}")
        for name in FEATURES:
            if name not in self.coefficients:
                raise ValueError(f"missing field {name!r}")
        for name, enum in (("query_intent", Intent), ("doc_source_type", SourceType)):
            unknown = sorted(set(self.coefficients[name]) - {e.value for e in enum})
            if unknown:
                raise ValueError(f"{name} has unknown value {unknown[0]!r}")
        if not 0.0 < self.p <= 1.0:
            raise InvalidParameter(f"p must be in (0, 1], got {self.p}")

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "intercept": self.intercept,
            "coefficients": self.coefficients,
            "fit_report": asdict(self.fit_report),
        }


def fit(targets: Mapping[SegmentKey, float], p: float = DEFAULT_P) -> ThresholdModel:
    """Minimum-norm least-squares fit of segment targets; returns the model with its fit report.

    X has an intercept column, then one 0/1 column per (feature, seen value)
    in FEATURES order and sorted value order. Of the coefficient vectors
    that minimise |X beta - y|, lstsq returns the one of least norm (the
    pseudo-inverse solution), so no regularization constant is needed.
    """
    if len(targets) < 2:
        raise GuardrailError(f"need >= 2 segments to fit, got {len(targets)}")
    segments = sorted(targets, key=SegmentKey.sort_key)
    rows = [s.sort_key() for s in segments]
    columns = [
        (name, value) for i, name in enumerate(FEATURES) for value in sorted({r[i] for r in rows})
    ]
    column_of = {c: j for j, c in enumerate(columns, start=1)}
    X = np.zeros((len(rows), 1 + len(columns)), dtype=np.float64)
    X[:, 0] = 1.0
    for i, row in enumerate(rows):
        X[i, [column_of[c] for c in zip(FEATURES, row)]] = 1.0
    y = np.array([targets[s] for s in segments], dtype=np.float64)
    beta = np.linalg.lstsq(X, y, rcond=None)[0]
    residuals = X @ beta - y
    coefficients: dict[str, dict[str, float]] = {name: {} for name in FEATURES}
    for (name, value), b in zip(columns, beta[1:]):
        coefficients[name][value] = float(b)
    report = FitReport(
        mse=float(np.mean(residuals**2)),
        max_residual=float(np.max(np.abs(residuals))),
        n_segments=len(segments),
    )
    return ThresholdModel(float(beta[0]), coefficients, p, report)


def predict_threshold(model: ThresholdModel, segment: SegmentKey) -> float:
    """intercept plus the coefficient of each of the segment's values, clamped
    to [0, 1] because it thresholds sigmoid outputs. A value not seen at fit
    time contributes 0."""
    values = zip(FEATURES, segment.sort_key())
    raw = sum((model.coefficients[name].get(value, 0.0) for name, value in values), model.intercept)
    return min(1.0, max(0.0, raw))


def save_model(model: ThresholdModel, path: str | Path) -> None:
    write_json(path, model.to_dict())


def load_model(path: str | Path) -> ThresholdModel:
    """Read model.json; broken JSON or a missing field is a MalformedRecord."""
    return read_json(path, ThresholdModel.from_dict)
