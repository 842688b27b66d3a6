"""Per-segment discard thresholds: percentile targets from engagement logs,
then a linear model over segment features so unseen segments get a prediction.

The target for a segment is the score that keeps the top p fraction of its
engaged results. The percentile convention is a step function on the
empirical multiset (the k-th largest engaged score for k = ceil(p * N)), not
an interpolated quantile: the returned threshold is always an observed score,
and raising it to the next larger observed score drops retention below p.

The regression is plain unweighted least squares over one-hot segment
features (user country, language, query intent, doc source type) plus an
intercept, solved by normal equations with a tiny diagonal jitter for
numerical stability. One-hot blocks are collinear with the intercept, so the
coefficient vector is not unique; predictions are.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .corpus import EngagementRecord, SegmentKey
from .errors import GuardrailError, InvalidParameter
from .jsonl import json_int, json_number, read_json, write_json

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


@dataclass(frozen=True)
class FeatureEncoding:
    """One-hot layout: intercept, then a block per feature with an unknown slot."""

    countries: tuple[str, ...]
    languages: tuple[str, ...]
    intents: tuple[str, ...]
    source_types: tuple[str, ...]

    @classmethod
    def from_segments(cls, segments: Sequence[SegmentKey]) -> "FeatureEncoding":
        return cls(
            countries=tuple(sorted({s.user_country for s in segments})),
            languages=tuple(sorted({s.language for s in segments})),
            intents=tuple(sorted({s.query_intent.value for s in segments})),
            source_types=tuple(sorted({s.doc_source_type.value for s in segments})),
        )

    def _blocks(self) -> list[tuple[str, tuple[str, ...]]]:
        return [
            ("user_country", self.countries),
            ("language", self.languages),
            ("query_intent", self.intents),
            ("doc_source_type", self.source_types),
        ]

    @property
    def length(self) -> int:
        # Intercept + (categories + unknown slot) per block.
        return 1 + sum(len(cats) + 1 for _, cats in self._blocks())

    def encode(self, segment: SegmentKey) -> np.ndarray:
        """Intercept-plus-one-hot feature vector; unseen categories hit the unknown slot."""
        values = (
            segment.user_country,
            segment.language,
            segment.query_intent.value,
            segment.doc_source_type.value,
        )
        x = np.zeros(self.length, dtype=np.float64)
        x[0] = 1.0
        pos = 1
        for (name, cats), value in zip(self._blocks(), values):
            x[pos + (cats.index(value) if value in cats else len(cats))] = 1.0
            pos += len(cats) + 1
        return x

    def to_dict(self) -> dict:
        return {
            "countries": list(self.countries),
            "languages": list(self.languages),
            "intents": list(self.intents),
            "source_types": list(self.source_types),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureEncoding":
        return cls(
            countries=tuple(d["countries"]),
            languages=tuple(d["languages"]),
            intents=tuple(d["intents"]),
            source_types=tuple(d["source_types"]),
        )


@dataclass(frozen=True)
class FitReport:
    mse: float
    max_residual: float
    n_segments: int


@dataclass(frozen=True)
class ThresholdModel:
    beta: np.ndarray
    encoding: FeatureEncoding
    p: float
    fit_report: FitReport

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "beta": [float(b) for b in self.beta],
            "encoding": self.encoding.to_dict(),
            "fit_report": asdict(self.fit_report),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ThresholdModel":
        report = d["fit_report"]
        return cls(
            beta=np.array([json_number(b, f"beta[{i}]") for i, b in enumerate(d["beta"])]),
            encoding=FeatureEncoding.from_dict(d["encoding"]),
            p=json_number(d["p"], "p"),
            fit_report=FitReport(
                mse=json_number(report["mse"], "mse"),
                max_residual=json_number(report["max_residual"], "max_residual"),
                n_segments=json_int(report["n_segments"], "n_segments"),
            ),
        )


_JITTER = 1e-8


def fit(targets: Mapping[SegmentKey, float], p: float = DEFAULT_P) -> ThresholdModel:
    """Least-squares fit of segment targets; returns the model with its fit report.

    Solved via (X'X + jitter*I) beta = X'y. The jitter is numerical
    stabilization for the one-hot collinearity, small enough (1e-8) not to
    act as statistical regularization.
    """
    if len(targets) < 2:
        raise GuardrailError(f"need >= 2 segments to fit, got {len(targets)}")
    segments = sorted(targets, key=SegmentKey.sort_key)
    encoding = FeatureEncoding.from_segments(segments)
    X = np.vstack([encoding.encode(s) for s in segments])
    y = np.array([targets[s] for s in segments], dtype=np.float64)
    gram = X.T @ X + _JITTER * np.eye(X.shape[1])
    beta = np.linalg.solve(gram, X.T @ y)
    residuals = X @ beta - y
    report = FitReport(
        mse=float(np.mean(residuals**2)),
        max_residual=float(np.max(np.abs(residuals))),
        n_segments=len(segments),
    )
    return ThresholdModel(beta=beta, encoding=encoding, p=p, fit_report=report)


def predict_threshold(model: ThresholdModel, segment: SegmentKey) -> float:
    """Dot product of beta with the encoded segment, clamped to [0, 1]
    because it thresholds sigmoid outputs."""
    raw = float(model.encoding.encode(segment) @ model.beta)
    return min(1.0, max(0.0, raw))


def save_model(model: ThresholdModel, path: str | Path) -> None:
    write_json(path, model.to_dict())


def load_model(path: str | Path) -> ThresholdModel:
    """Read model.json; broken JSON or a missing field is a MalformedRecord."""
    return read_json(path, ThresholdModel.from_dict)
