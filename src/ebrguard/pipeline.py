"""Request orchestration: trigger check, EBR top-k, sigmoid calibration,
per-segment discard, integrity demotion, and the merge with text retrieval.

Score conventions baked in here:

- The sigmoid calibration g(s) = 1 / (1 + exp(-(a*s + b))) with a > 0 is
  order-preserving, so it never reshuffles EBR candidates, only rescales
  them into (0, 1) for thresholding.
- Discarding is inclusive: a candidate exactly at its segment threshold is
  kept.
- Merging sorts by score descending with EBR winning ties over text, then
  doc_id ascending; a doc retrieved by both routes keeps its higher score.
  Text overlap scores and calibrated EBR scores share one axis by
  convention, documented rather than reconciled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import Query, SegmentKey, first_repeat
from .embedder import Side, embed_text
from .errors import InvalidParameter
from .integrity import LabelStore, apply_demotion
from .jsonl import Record
from .text_retrieval import InvertedIndex, search_text_pairs
from .thresholds import ThresholdModel, predict_threshold
from .triggers import RuleSet, TriggerAction
from .vector_index import CandidateSource, Index, topk_each


@dataclass(frozen=True, slots=True)
class SigmoidParams:
    """Linear transform applied inside the logistic: g(a*s + b)."""

    a: float = 1.0
    b: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and self.a > 0):
            raise InvalidParameter(
                f"sigmoid scale a must be finite and > 0 to preserve order, got {self.a}"
            )
        if not math.isfinite(self.b):
            raise InvalidParameter(f"sigmoid offset b must be finite, got {self.b}")


DEFAULT_SIGMOID = SigmoidParams()


def sigmoid_transform(s_score, params: SigmoidParams = DEFAULT_SIGMOID):
    """Calibrated score in (0, 1), strictly increasing in s_score.

    Accepts a scalar or an ndarray.
    """
    z = params.a * np.asarray(s_score, dtype=np.float64) + params.b
    out = 1.0 / (1.0 + np.exp(-z))
    if np.ndim(s_score) == 0:
        return float(out)
    return out


@dataclass(frozen=True, slots=True)
class SearchResult(Record):
    doc_id: str
    transformed_score: float
    source: CandidateSource
    demoted: bool = False


@dataclass(frozen=True)
class ResultPage(Record):
    query_id: str
    ebr_triggered: bool
    results: tuple[SearchResult, ...]

    @classmethod
    def from_dict(cls, d: dict) -> "ResultPage":
        """Record.from_dict, then ValueError for a page that lists a doc twice
        (checked on reading only, so pages built in memory are not checked)."""
        page = super().from_dict(d)
        twice = first_repeat(r.doc_id for r in page.results)
        if twice is not None:
            raise ValueError(f"page {page.query_id!r} lists doc_id {twice!r} twice")
        return page


@dataclass(frozen=True)
class RetrievalConfig:
    k: int = 10
    sigmoid: SigmoidParams = field(default_factory=SigmoidParams)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InvalidParameter(f"k must be >= 1, got {self.k}")


def apply_threshold(results: list[SearchResult], threshold: float) -> list[SearchResult]:
    """Keep results with transformed_score >= threshold, order preserved.

    Pass float("-inf") to keep everything (the no-discard baseline).
    """
    return [r for r in results if r.transformed_score >= threshold]


_SOURCE_RANK = {CandidateSource.EBR: 0, CandidateSource.TEXT: 1}


def merge_candidates(ebr: list[SearchResult], text: list[SearchResult]) -> list[SearchResult]:
    """All rows sorted by score desc / EBR-first / doc_id asc, keeping each
    doc_id's first row: the higher-scored route, EBR on exact ties."""
    first: dict[str, SearchResult] = {}
    for row in sorted(
        [*ebr, *text], key=lambda r: (-r.transformed_score, _SOURCE_RANK[r.source], r.doc_id)
    ):
        first.setdefault(row.doc_id, row)
    return list(first.values())


def retrieve(
    query: Query,
    index: Index,
    text_index: InvertedIndex,
    threshold_model: ThresholdModel | None,
    trigger_rules: RuleSet,
    integrity_store: LabelStore,
    config: RetrievalConfig = RetrievalConfig(),
) -> ResultPage:
    """Run one search request through the full guarded pipeline.

    For each source type present in the index, trigger rules decide whether
    EBR fires. Enabled sources contribute top-k cosine candidates (one
    topk_each call screens them all with one scan), sigmoid
    calibrated and discarded at the (user country, language, intent, source
    type) segment's predicted threshold; with no model the threshold is
    -inf, keeping everything. Text-retrieval candidates are merged in, the
    integrity store demotes or deletes labeled docs, and the page is cut to
    k rows. With every present source disabled, ebr_triggered is False and
    results come solely from text retrieval.
    """
    enabled = [
        st
        for st in sorted(index.source_types_present(), key=lambda s: s.value)
        if trigger_rules.evaluate(query.intent, st, query.country)
        is TriggerAction.ENABLE
    ]
    ebr_rows: list[SearchResult] = []
    if enabled:
        query_vec = embed_text(query.text, Side.QUERY, index.dim)
        for st, pairs in zip(enabled, topk_each(index, query_vec, config.k, enabled)):
            segment = SegmentKey(
                user_country=query.country,
                language=query.language,
                query_intent=query.intent,
                doc_source_type=st,
            )
            threshold = (
                predict_threshold(threshold_model, segment)
                if threshold_model is not None
                else -math.inf
            )
            # One array call per result list; each element gets the scalar call's bits.
            scores = sigmoid_transform(
                np.array([score for score, _ in pairs], dtype=np.float64), config.sigmoid
            )
            rows = [
                SearchResult(doc_id=doc_id, transformed_score=s, source=CandidateSource.EBR)
                for (_, doc_id), s in zip(pairs, scores.tolist())
            ]
            ebr_rows.extend(apply_threshold(rows, threshold))

    text_rows = [
        SearchResult(doc_id=doc_id, transformed_score=score, source=CandidateSource.TEXT)
        for score, doc_id in search_text_pairs(text_index, query, config.k)
    ]
    merged = merge_candidates(ebr_rows, text_rows)
    final = apply_demotion(merged, integrity_store)[: config.k]
    return ResultPage(
        query_id=query.query_id,
        results=tuple(final),
        ebr_triggered=bool(enabled),
    )
