"""Label store semantics, index removal, and stable-partition demotion."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ebrguard import (
    CandidateSource,
    LabelStore,
    SourceType,
    apply_index_removal,
    build_index,
    labels_from_judgments,
    load_labels,
    save_labels,
)
from ebrguard.corpus import FailureCategory, RelevanceJudgment
from ebrguard.integrity import (
    DEFAULT_SEVERITY_FOR_REASON,
    IntegrityLabel,
    LabelReason,
    Severity,
    apply_demotion,
)
from ebrguard.pipeline import SearchResult
from ebrguard.vector_index import topk
from tests.test_vector_index import make_fixture, random_unit


class TestLabelStore:
    def test_label_then_lookup(self):
        store = LabelStore()
        store.add(IntegrityLabel("d1", Severity.DEMOTABLE, LabelReason.UNTRUSTWORTHY))
        lab = store.lookup("d1")
        assert lab.severity is Severity.DEMOTABLE
        assert lab.reason is LabelReason.UNTRUSTWORTHY

    def test_latest_write_wins_with_audit_trail(self):
        store = LabelStore()
        store.add(IntegrityLabel("d1", Severity.DEMOTABLE, LabelReason.UNTRUSTWORTHY))
        store.add(IntegrityLabel("d1", Severity.REMOVABLE, LabelReason.MISINFORMATION))
        assert store.lookup("d1").severity is Severity.REMOVABLE
        assert len(store.audit) == 2
        assert store.removable_ids() == {"d1"}

    def test_relabelling_moves_a_doc_in_and_out_of_the_removable_set(self):
        store = LabelStore()
        store.add(IntegrityLabel("d1", Severity.REMOVABLE, LabelReason.MISINFORMATION))
        store.add(IntegrityLabel("d2", Severity.REMOVABLE, LabelReason.OFFENSIVE))
        store.add(IntegrityLabel("d1", Severity.DEMOTABLE, LabelReason.UNTRUSTWORTHY))
        assert store.removable_ids() == {"d2"}
        assert store.lookup("d1").severity is Severity.DEMOTABLE
        store.add(IntegrityLabel("d1", Severity.REMOVABLE, LabelReason.OFFENSIVE))
        store.add(IntegrityLabel("d2", Severity.DEMOTABLE, LabelReason.OTHER))
        assert store.removable_ids() == {"d1"}
        assert LabelStore(store.audit).removable_ids() == {"d1"}

    @given(
        st.lists(
            st.tuples(st.sampled_from(["d1", "d2", "d3"]), st.sampled_from(list(LabelReason))),
            max_size=20,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_removable_ids_are_the_docs_whose_latest_label_is_removable(self, writes):
        store = LabelStore()
        latest = {}
        for doc_id, reason in writes:
            severity = DEFAULT_SEVERITY_FOR_REASON[reason]
            store.add(IntegrityLabel(doc_id, severity, reason))
            latest[doc_id] = severity
            assert store.removable_ids() == {
                d for d, sev in latest.items() if sev is Severity.REMOVABLE
            }

    def test_unlabeled_lookup_absent(self):
        assert LabelStore().lookup("ghost") is None

    def test_file_round_trip_preserves_audit(self, tmp_path):
        store = LabelStore()
        store.add(IntegrityLabel("d1", Severity.DEMOTABLE, LabelReason.UNTRUSTWORTHY, ts="t1"))
        store.add(IntegrityLabel("d1", Severity.REMOVABLE, LabelReason.OFFENSIVE, ts="t2"))
        path = tmp_path / "labels.jsonl"
        save_labels(store, path)
        loaded = load_labels(path)
        assert len(loaded.audit) == 2
        assert loaded.lookup("d1").severity is Severity.REMOVABLE

    def test_labels_from_judgments_uses_default_mapping(self):
        judgments = [
            RelevanceJudgment("q1", "d1", 0, FailureCategory.MISINFORMATION),
            RelevanceJudgment("q1", "d2", 0, FailureCategory.UNTRUSTWORTHY),
            RelevanceJudgment("q1", "d3", 0, FailureCategory.OFFENSIVE),
            RelevanceJudgment("q1", "d4", 0, FailureCategory.FUZZY_TEXT_MATCH),
            RelevanceJudgment("q1", "d5", 2),
        ]
        store = labels_from_judgments(judgments)
        assert store.removable_ids() == {"d1", "d3"}
        assert store.lookup("d2").severity is Severity.DEMOTABLE
        assert store.lookup("d4") is None and store.lookup("d5") is None


class TestIndexRemoval:
    def test_removes_every_removable_and_counts(self):
        rng = np.random.default_rng(0)
        docs, embeddings = make_fixture(rng, 10)
        index = build_index(docs, embeddings)
        store = LabelStore()
        store.add(IntegrityLabel("d0002", Severity.REMOVABLE, LabelReason.MISINFORMATION))
        store.add(IntegrityLabel("d0007", Severity.REMOVABLE, LabelReason.OFFENSIVE))
        store.add(IntegrityLabel("d0004", Severity.DEMOTABLE, LabelReason.UNTRUSTWORTHY))
        cleaned, removed = apply_index_removal(index, store)
        assert removed == 2
        assert len(cleaned) == 8
        for _ in range(25):
            q = random_unit(rng, 16)
            hits = {
                c.doc_id
                for source_type in SourceType
                for c in topk(cleaned, q, 10, source_filter=source_type)
            }
            assert not hits & {"d0002", "d0007"}
            assert "d0004" in hits

    def test_doc_relabelled_demotable_before_removal_stays_in_the_index(self):
        rng = np.random.default_rng(3)
        docs, embeddings = make_fixture(rng, 6)
        index = build_index(docs, embeddings)
        store = LabelStore()
        store.add(IntegrityLabel("d0001", Severity.REMOVABLE, LabelReason.MISINFORMATION))
        store.add(IntegrityLabel("d0002", Severity.REMOVABLE, LabelReason.OFFENSIVE))
        store.add(IntegrityLabel("d0001", Severity.DEMOTABLE, LabelReason.UNTRUSTWORTHY))
        cleaned, removed = apply_index_removal(index, store)
        assert removed == 1
        assert "d0001" in cleaned and "d0002" not in cleaned

    def test_empty_store_is_noop(self):
        rng = np.random.default_rng(1)
        docs, embeddings = make_fixture(rng, 5)
        index = build_index(docs, embeddings)
        cleaned, removed = apply_index_removal(index, LabelStore())
        assert removed == 0
        assert cleaned is index

    def test_second_application_removes_nothing(self):
        rng = np.random.default_rng(2)
        docs, embeddings = make_fixture(rng, 6)
        index = build_index(docs, embeddings)
        store = LabelStore()
        store.add(IntegrityLabel("d0001", Severity.REMOVABLE, LabelReason.MISINFORMATION))
        once, first = apply_index_removal(index, store)
        twice, second = apply_index_removal(once, store)
        assert (first, second) == (1, 0)
        assert twice is once


def result(doc_id, score=0.5):
    return SearchResult(doc_id, score, CandidateSource.EBR)


class TestDemotion:
    def test_no_labels_is_identity(self):
        rows = [result("a"), result("b")]
        assert apply_demotion(rows, LabelStore()) == rows

    def test_top_demotable_sinks_to_bottom(self):
        store = LabelStore()
        store.add(IntegrityLabel("a", Severity.DEMOTABLE, LabelReason.UNTRUSTWORTHY))
        rows = [result("a", 0.9), result("b", 0.5), result("c", 0.4)]
        out = apply_demotion(rows, store)
        assert [r.doc_id for r in out] == ["b", "c", "a"]
        assert [r.demoted for r in out] == [False, False, True]

    def test_all_demotable_keeps_order(self):
        store = LabelStore()
        for doc_id in ("a", "b", "c"):
            store.add(IntegrityLabel(doc_id, Severity.DEMOTABLE, LabelReason.OTHER))
        rows = [result("a", 0.9), result("b", 0.5), result("c", 0.4)]
        out = apply_demotion(rows, store)
        assert [r.doc_id for r in out] == ["a", "b", "c"]
        assert all(r.demoted for r in out)

    def test_removable_dropped_outright(self):
        store = LabelStore()
        store.add(IntegrityLabel("b", Severity.REMOVABLE, LabelReason.MISINFORMATION))
        rows = [result("a"), result("b"), result("c")]
        out = apply_demotion(rows, store)
        assert [r.doc_id for r in out] == ["a", "c"]

    @given(st.lists(st.sampled_from("abcdefgh"), unique=True, max_size=8), st.data())
    @settings(max_examples=100, deadline=None)
    def test_stable_partition_property(self, doc_ids, data):
        store = LabelStore()
        demotable = set()
        for doc_id in doc_ids:
            if data.draw(st.booleans()):
                demotable.add(doc_id)
                store.add(IntegrityLabel(doc_id, Severity.DEMOTABLE, LabelReason.OTHER))
        rows = [result(d, score=1.0 - i / 10) for i, d in enumerate(doc_ids)]
        out = apply_demotion(rows, store)
        kept = [r.doc_id for r in out if not r.demoted]
        sunk = [r.doc_id for r in out if r.demoted]
        assert kept + sunk == [r.doc_id for r in out]
        assert kept == [d for d in doc_ids if d not in demotable]
        assert sunk == [d for d in doc_ids if d in demotable]

    def test_idempotent(self):
        store = LabelStore()
        store.add(IntegrityLabel("b", Severity.DEMOTABLE, LabelReason.OTHER))
        rows = [result("a"), result("b"), result("c")]
        once = apply_demotion(rows, store)
        assert apply_demotion(once, store) == once
