"""`retrieve` and a label write, replayed step by step through the public
functions they call, in the same order, with a span around each call.

The traced pass uses these with the program's `topk`; the correctness gate
uses `replay_page` with the benchmark's reference top-k to build the page
each request should have served.
"""

from __future__ import annotations

import math

from ebrguard.corpus import Query, SegmentKey
from ebrguard.embedder import Side, embed_text
from ebrguard.integrity import IntegrityLabel, apply_demotion
from ebrguard.pipeline import (
    ResultPage,
    SearchResult,
    apply_threshold,
    merge_candidates,
    sigmoid_transform,
)
from ebrguard.text_retrieval import search_text
from ebrguard.thresholds import predict_threshold
from ebrguard.triggers import TriggerAction
from ebrguard.vector_index import CandidateSource, topk

from workloads import ServeState


def program_topk(st: ServeState, query_vec, k, source_type):
    return topk(st.index, query_vec, k, source_filter=source_type)


def replay_page(query: Query, st: ServeState, topk_fn, tr, topk_log=None) -> ResultPage:
    """The page `retrieve` serves for query, computed with topk_fn.

    topk_log, when given, receives (source_type, query_vec, candidates) for
    every top-k call so they can be checked after the pass.
    """
    root = tr.start("pipeline.retrieve", query.query_id)
    s = tr.start("vector_index.source_types")
    present = st.index.source_types_present()
    tr.end(s)
    enabled = []
    for source_type in sorted(present, key=lambda x: x.value):
        s = tr.start("triggers.evaluate")
        action = st.rules.evaluate(query.intent, source_type, query.country)
        tr.end(s)
        if action is TriggerAction.ENABLE:
            enabled.append(source_type)
    ebr_rows: list[SearchResult] = []
    if enabled:
        s = tr.start("embedder.embed_text")
        query_vec = embed_text(query.text, Side.QUERY, st.index.dim)
        tr.end(s)
        for source_type in enabled:
            segment = SegmentKey(
                user_country=query.country,
                language=query.language,
                query_intent=query.intent,
                doc_source_type=source_type,
            )
            s = tr.start("thresholds.predict")
            threshold = (
                predict_threshold(st.model, segment) if st.model is not None else -math.inf
            )
            tr.end(s)
            s = tr.start("vector_index.topk")
            candidates = topk_fn(st, query_vec, st.config.k, source_type)
            tr.end(s)
            s = tr.start("pipeline.calibrate")
            rows = [
                SearchResult(
                    doc_id=c.doc_id,
                    transformed_score=sigmoid_transform(c.raw_score, st.config.sigmoid),
                    source=CandidateSource.EBR,
                )
                for c in candidates
            ]
            tr.end(s)
            s = tr.start("pipeline.discard")
            kept = apply_threshold(rows, threshold)
            tr.end(s)
            ebr_rows.extend(kept)
            tr.add("pipeline.fetched", len(rows))
            tr.add("pipeline.discarded", len(rows) - len(kept))
            tr.add("vector_index.results", len(candidates))
            if topk_log is not None:
                topk_log.append((source_type, query_vec, candidates))
    else:
        tr.add("triggers.ebr_off_queries")
    s = tr.start("text_retrieval.search")
    text_rows = [
        SearchResult(doc_id=c.doc_id, transformed_score=c.raw_score, source=CandidateSource.TEXT)
        for c in search_text(st.text_index, query, st.config.k)
    ]
    tr.end(s)
    tr.add("text_retrieval.results", len(text_rows))
    s = tr.start("pipeline.merge")
    merged = merge_candidates(ebr_rows, text_rows)
    tr.end(s)
    s = tr.start("integrity.demote")
    demoted = apply_demotion(merged, st.store)
    tr.end(s)
    tr.add("integrity.removed_at_serve", len(merged) - len(demoted))
    tr.add("integrity.demoted_rows", sum(r.demoted for r in demoted))
    page = ResultPage(
        query_id=query.query_id,
        results=tuple(demoted[: st.config.k]),
        ebr_triggered=bool(enabled),
    )
    tr.end(root)
    return page


def replay_label(lab: IntegrityLabel, st: ServeState, tr) -> None:
    """`LabelStore.add` then the body of `apply_index_removal`, on st."""
    root = tr.start("integrity.label_write", lab.doc_id)
    s = tr.start("integrity.add")
    st.store.add(lab)
    tr.end(s)
    s = tr.start("integrity.apply_removal")
    present = [doc_id for doc_id in st.store.removable_ids() if doc_id in st.index]
    r = tr.start("vector_index.remove")
    st.index = st.index.remove_many(sorted(present))
    tr.end(r)
    tr.end(s)
    if present:
        tr.add("vector_index.remove_calls")
        tr.add("vector_index.removed", len(present))
        tr.add("vector_index.rows_copied", len(st.index))
    tr.end(root)
