"""Tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

import dataclasses

import pytest

from ebrguard.corpus import Document, Intent, Query, SourceType
from ebrguard.embedder import Side, embed_corpus, embed_text
from ebrguard.integrity import IntegrityLabel, LabelReason, LabelStore, Severity
from ebrguard.pipeline import RetrievalConfig, retrieve
from ebrguard.synth import generate_synthetic
from ebrguard.text_retrieval import build_text_index
from ebrguard.triggers import DEFAULT_RULES, RuleSet, TriggerAction
from ebrguard.vector_index import build_index, topk

from gate import check_stream, page_problems
from spans import Span, Tracer, self_times
from stats import percentile
from workloads import (
    LABEL,
    QUERY,
    WORKLOADS,
    Prepared,
    ServeState,
    interleave,
    synthetic_spec,
)


def test_percentile_needs_ten_samples_beyond():
    assert percentile(list(range(1000)), 99) == 989
    with pytest.raises(ValueError):
        percentile(list(range(999)), 99)
    assert percentile(list(range(20)), 50) == 9
    with pytest.raises(ValueError):
        percentile(list(range(19)), 50)


def test_self_time_subtracts_the_union_of_clipped_children():
    spans = [
        Span("root", 0, 100, -1, "q"),
        Span("a", 10, 30, 0, "q"),
        Span("b", 20, 50, 0, "q"),  # overlaps a: [10, 50] is covered once
        Span("c", 90, 120, 0, "q"),  # clipped to the root's end at 100
        Span("a.child", 12, 18, 1, "q"),
    ]
    assert self_times(spans) == [50, 14, 30, 30, 6]


def test_tracer_records_parents_and_op_ids():
    tr = Tracer()
    root = tr.start("root", "q1")
    child = tr.start("child")
    tr.end(child)
    tr.end(root)
    assert [(s.name, s.parent, s.op_id) for s in tr.spans] == [
        ("root", -1, "q1"),
        ("child", 0, "q1"),
    ]
    durations = [s.end_ns - s.start_ns for s in tr.spans]
    assert self_times(tr.spans) == [durations[0] - durations[1], durations[1]]


def _doc(doc_id, text):
    return Document(doc_id, text, "", "en", "US", "pacific", "hiking", SourceType.UN)


def _tiny(events_labels=()):
    """Two docs with one text (tied everywhere) plus distractors, one query."""
    corpus = [
        _doc("d1", "hiking trail club"),
        _doc("d2", "hiking trail club"),
        _doc("d3", "hiking trail friends"),
        _doc("d4", "baking sourdough ovens"),
        _doc("d5", "chess gambit society"),
    ]
    query = Query("q1", "hiking trail club", "en", "US", "pacific", Intent.GROUP_TOPIC)
    embeddings = embed_corpus(corpus, d=32)
    base = ServeState(
        build_index(corpus, embeddings), build_text_index(corpus), None, RuleSet(),
        LabelStore(), RetrievalConfig(k=3),
    )
    events = [(LABEL, lab) for lab in events_labels] + [(QUERY, query)]
    return Prepared(corpus, [], [], embeddings, events, base, {})


def _served(prep):
    st = prep.base
    return retrieve(prep.events[-1][1], st.index, st.text_index, st.model, st.rules, st.store, st.config)


def test_gate_accepts_the_served_page_and_flags_swapped_ties():
    prep = _tiny()
    page = _served(prep)
    assert [r.doc_id for r in page.results][:2] == ["d1", "d2"]
    assert page.results[0].transformed_score == page.results[1].transformed_score
    assert check_stream(prep, [page]).failures == {}

    swapped = dataclasses.replace(page, results=(page.results[1], page.results[0], *page.results[2:]))
    assert page_problems(swapped, 3, frozenset()) == []  # ties keep scores non-increasing
    assert 0 in check_stream(prep, [swapped]).failures


def test_gate_flags_swapped_ties_in_a_topk_call():
    prep = _tiny()
    page = _served(prep)
    qvec = embed_text("hiking trail club", Side.QUERY, 32)
    good = topk(prep.base.index, qvec, 3, source_filter=SourceType.UN)
    assert check_stream(prep, [page], [[(SourceType.UN, qvec, good)]]).failures == {}
    bad = [good[1], good[0], good[2]]
    result = check_stream(prep, [page], [[(SourceType.UN, qvec, bad)]])
    assert "brute force" in result.failures[0][0]


def test_gate_flags_a_removable_doc_served_after_its_label():
    removal = IntegrityLabel("d1", Severity.REMOVABLE, LabelReason.MISINFORMATION)
    prep = _tiny([removal])
    stale = _served(prep)  # served from an index and store that never saw the label
    assert "d1" in [r.doc_id for r in stale.results]
    problems = check_stream(prep, [stale]).failures[0]
    assert any("Removable doc served" in p for p in problems)


def test_page_invariants():
    page = _served(_tiny())
    rows = page.results
    demoted_first = dataclasses.replace(
        page, results=(dataclasses.replace(rows[0], demoted=True), *rows[1:])
    )
    assert page_problems(demoted_first, 3, frozenset()) == ["demoted row above an undemoted row"]
    assert page_problems(page, 2, frozenset()) == ["3 rows > k=2"]
    duplicated = dataclasses.replace(page, results=(rows[0], rows[0]))
    assert page_problems(duplicated, 3, frozenset()) == ["duplicate doc on page"]
    rising = dataclasses.replace(page, results=(rows[2], rows[0]))
    assert page_problems(rising, 3, frozenset()) == ["undemoted scores increase down the page"]


def test_labels_arrive_evenly_before_queries():
    queries = [Query(f"q{i}", "x y z", "en", "US", "pacific", Intent.GROUP_TOPIC) for i in range(1000)]
    labels = [IntegrityLabel(f"d{j}", Severity.DEMOTABLE, LabelReason.OTHER) for j in range(750)]
    events = interleave(queries, labels)
    assert [item for kind, item in events if kind == LABEL] == labels
    assert [item for kind, item in events if kind == QUERY] == queries
    assert events[-1][0] == QUERY
    # 750 arrivals over 1,000 queries: never more than two queries between two arrivals.
    gaps, run = [], 0
    for kind, _ in events:
        if kind == QUERY:
            run += 1
        else:
            gaps.append(run)
            run = 0
    assert max(gaps[1:]) <= 2


def test_fallback_workload_is_mostly_ebr_off():
    data = generate_synthetic(synthetic_spec(WORKLOADS["fallback-10k"], seed=7))
    present = {d.source_type for d in data.corpus}
    off = sum(
        all(DEFAULT_RULES.evaluate(q.intent, st, q.country) is TriggerAction.DISABLE for st in present)
        for q in data.queries
    )
    assert off / len(data.queries) >= 0.75
