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

retrieve keeps page rows as (-score, route, doc_id) tuples until the cut:
one sort merges both routes, one pass drops repeats and Removable docs and
moves Demotable ones after the rest, and it stops once k rows are kept, so
a SearchResult is built only for the k or fewer rows of the page.
apply_threshold, merge_candidates and integrity.apply_demotion do the same
steps over SearchResults, one at a time; they are the reference retrieve's
pages are checked against, in tests and in the benchmark's correctness gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import Query, SegmentKey, first_repeat
from .embedder import Side, embed_text
from .errors import InvalidParameter
from .integrity import LabelStore, Severity
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

    Pass float("-inf") to keep everything (the no-discard baseline). The
    reference for retrieve's discard, which cuts its tuple rows the same way.
    """
    return [r for r in results if r.transformed_score >= threshold]


# Sources in merge order: EBR wins an exact score tie. A tuple row's route is
# its source's index here.
_ROUTES = (CandidateSource.EBR, CandidateSource.TEXT)
_SOURCE_RANK = {source: route for route, source in enumerate(_ROUTES)}


def merge_candidates(ebr: list[SearchResult], text: list[SearchResult]) -> list[SearchResult]:
    """All rows sorted by score desc / EBR-first / doc_id asc, keeping each
    doc_id's first row: the higher-scored route, EBR on exact ties.

    The reference for retrieve's merge, which sorts (-score, route, doc_id)
    tuples in the same order (module docstring)."""
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
    k rows: the page apply_threshold, merge_candidates and apply_demotion
    build, with SearchResults for the page rows only (module docstring).
    With every present source disabled, ebr_triggered is False and results
    come solely from text retrieval.
    """
    enabled = [
        st
        for st in sorted(index.source_types_present(), key=lambda s: s.value)
        if trigger_rules.evaluate(query.intent, st, query.country)
        is TriggerAction.ENABLE
    ]
    k = config.k
    # Page rows are (-score, route, doc_id) tuples until the cut (route: _ROUTES).
    rows: list[tuple[float, int, str]] = []
    if enabled:
        query_vec = embed_text(query.text, Side.QUERY, index.dim)
        for st, pairs in zip(enabled, topk_each(index, query_vec, k, enabled)):
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
            rows.extend(
                (-s, 0, doc_id)
                for (_, doc_id), s in zip(pairs, scores.tolist())
                if s >= threshold
            )
    rows.extend((-score, 1, doc_id) for score, doc_id in search_text_pairs(text_index, query, k))
    rows.sort()

    # merge_candidates, then apply_demotion, then the cut to k.
    seen: set[str] = set()
    kept: list[tuple[float, int, str]] = []
    demoted: list[tuple[float, int, str]] = []
    for row in rows:
        doc_id = row[2]
        if doc_id in seen:
            continue
        seen.add(doc_id)
        lab = integrity_store.lookup(doc_id)
        if lab is None:
            kept.append(row)
            if len(kept) == k:
                break
        elif lab.severity is not Severity.REMOVABLE:
            demoted.append(row)
    return ResultPage(
        query.query_id,
        bool(enabled),
        tuple(
            [SearchResult(doc_id, -neg, _ROUTES[route]) for neg, route, doc_id in kept]
            + [
                SearchResult(doc_id, -neg, _ROUTES[route], True)
                for neg, route, doc_id in demoted[: k - len(kept)]
            ]
        ),
    )
