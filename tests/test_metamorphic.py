"""Metamorphic relations of the guarded pipeline, through retrieve.

Each relation says how every page must move when one input moves, so it
holds whatever the generator, the index layout or the pinned digests are.
Worlds are small and drawn by hypothesis: docs whose titles share words
from a small vocabulary (so text overlap and trigram similarity, and ties,
are common), both source types, labels already applied, trigger rules and
sometimes a fitted threshold model.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ebrguard import (
    CandidateSource,
    Intent,
    LabelStore,
    RetrievalConfig,
    RuleSet,
    SegmentKey,
    SigmoidParams,
    SourceType,
    TriggerAction,
    TriggerRule,
    apply_index_removal,
    build_index,
    build_text_index,
    embed_corpus,
    fit,
    predict_threshold,
    retrieve,
)
from ebrguard.corpus import Query
from ebrguard.embedder import Side, embed_text
from ebrguard.integrity import IntegrityLabel, LabelReason, Severity
from ebrguard.thresholds import DEFAULT_P, FEATURES, FitReport, ThresholdModel
from tests.test_corpus import make_doc

WORDS = ["hiking", "club", "austin", "denver", "photo", "maria", "trail", "music"]
COUNTRIES = ["US", "BR"]
# Every (intent, source type) pair a rule can disable.
PAIRS = [(i, t) for i in Intent for t in SourceType]
DIM = 32


def phrase(draw, lo, hi):
    return " ".join(draw(st.lists(st.sampled_from(WORDS), min_size=lo, max_size=hi)))


@st.composite
def worlds(draw, one_hot=False):
    """(docs, vectors, queries, store, rules, model, config): a world served by retrieve.

    vectors are embed_corpus's, or with one_hot a signed basis vector per doc
    (from 8 of the 32 axes, so equal vectors are common). A one-hot row
    scores exactly one query component, whatever the summation order.
    """
    n = draw(st.integers(1, 24))
    labels = draw(st.permutations(range(n)))
    docs = [
        make_doc(
            f"d{label}",
            title=phrase(draw, 1, 3),
            description=phrase(draw, 0, 2),
            country=draw(st.sampled_from(COUNTRIES)),
            source_type=draw(st.sampled_from(list(SourceType))),
        )
        for label in labels
    ]
    if one_hot:
        vectors = {
            doc.doc_id: draw(st.sampled_from([-1.0, 1.0])) * np.eye(DIM)[draw(st.integers(0, 7))]
            for doc in docs
        }
    else:
        vectors = embed_corpus(docs, d=DIM)
    queries = [
        Query(
            f"q{i}",
            phrase(draw, 1, 3),
            "en",
            draw(st.sampled_from(COUNTRIES)),
            "south",
            draw(st.sampled_from(list(Intent))),
        )
        for i in range(draw(st.integers(1, 6)))
    ]
    store = LabelStore()
    for doc in draw(st.lists(st.sampled_from(docs), max_size=3)):
        severity = draw(st.sampled_from(list(Severity)))
        store.add(IntegrityLabel(doc.doc_id, severity, LabelReason.OTHER))
    disabled = draw(st.sets(st.sampled_from(PAIRS), max_size=4))
    rules = [TriggerRule(i, t, TriggerAction.DISABLE) for i, t in sorted(disabled)]
    model = None
    if draw(st.booleans()):
        segments = {
            SegmentKey(c, "en", i, t): draw(st.floats(0.3, 0.8))
            for c, i, t in draw(
                st.sets(
                    st.tuples(
                        st.sampled_from(COUNTRIES),
                        st.sampled_from(list(Intent)),
                        st.sampled_from(list(SourceType)),
                    ),
                    min_size=2,
                    max_size=6,
                )
            )
        }
        model = fit(segments)
    config = RetrievalConfig(
        k=draw(st.integers(1, 6)),
        sigmoid=SigmoidParams(a=draw(st.sampled_from([1.0, 6.0])), b=-3.0 * draw(st.booleans())),
    )
    return docs, vectors, queries, store, rules, model, config


def serve(world, index, store, rules):
    docs, _, queries, _, _, model, config = world
    text_index = build_text_index(docs)
    return [retrieve(q, index, text_index, model, rules, store, config) for q in queries]


def labelled_index(world, store):
    docs, vectors = world[:2]
    return apply_index_removal(build_index(docs, vectors), store)[0]


def pages_around_removal(world, x):
    """Every query's page before and after doc x is labelled Removable."""
    _, _, _, store, rules, _, _ = world
    after = LabelStore([*store.audit, IntegrityLabel(x, Severity.REMOVABLE, LabelReason.OTHER)])
    return (
        serve(world, labelled_index(world, store), store, RuleSet(rules)),
        serve(world, labelled_index(world, after), after, RuleSet(rules)),
    )


def removal_holds(old, new, x):
    """Relation 1 between the rows of a page before and after doc x turned
    Removable (see TestRemovalRelation)."""
    if x in {r.doc_id for r in new}:
        return False

    def holds_beside(entrant):
        kept = [r for r in old if r.doc_id not in (x, entrant)]
        rest = [r for r in new if r.doc_id != entrant]
        stayed = [r for r in rest if r in kept]
        return (
            stayed == [r for r in kept if r in stayed]
            and len(rest) - len(stayed) <= 1
            and len(kept) - len(stayed) <= 1
        )

    ebr = [r.doc_id for r in new if r.source is CandidateSource.EBR]
    return any(holds_beside(entrant) for entrant in [None, *ebr])


class TestRemovalRelation:
    """A new Removable label for doc x, applied to the index and the store as
    serving applies it, removes x from every page. Apart from the entrant,
    the old page's other rows keep their relative order, at most one of them
    is pushed below the cut, and at most one row that was not on the old
    page slides up from below it.

    The entrant is the one doc that may take x's place in an EBR top k. It
    may be new to the page, or already on it as a text row, which then takes
    the higher EBR score and moves up (merge_candidates keeps a doc's higher
    row): test_entrant_may_replace_its_text_row pins that case.

    Rows are compared with their exact scores, so the drawn worlds use
    one-hot vectors, whose scores do not depend on a row's position in its
    block; the xfail test shows why the trigram vectors cannot be used yet."""

    @given(worlds(one_hot=True), st.data())
    @settings(max_examples=150, deadline=None)
    def test_removable_label_takes_out_only_that_doc(self, world, data):
        x = data.draw(st.sampled_from(world[0])).doc_id
        for old, new in zip(*pages_around_removal(world, x)):
            assert removal_holds(old.results, new.results, x)

    def test_entrant_may_replace_its_text_row(self):
        """k=2 over CN docs x > a > z by EBR score, a Demotable. The old page
        is x, then z as a text row, since demoted a sinks. Removing x lets z
        into the EBR top 2: its row takes the EBR score, and text's s slides
        up. Two rows are new, so the relation needs its entrant."""
        query = Query("q1", "hiking", "en", "US", "south", Intent.GROUP_TOPIC)
        axes = np.argsort(-embed_text(query.text, Side.QUERY, DIM), kind="stable")
        titles = {"x": "alpha", "a": "beta", "z": "hiking one two three"}
        titles["s"] = "hiking one two three four"
        docs = [
            make_doc(i, title=t, description="", source_type=SourceType.CN)
            for i, t in titles.items()
        ]
        vectors = {i: np.eye(DIM)[axes[j]] for j, i in enumerate(["x", "a", "z"])}
        vectors["s"] = np.eye(DIM)[axes[-1]]
        store = LabelStore([IntegrityLabel("a", Severity.DEMOTABLE, LabelReason.OTHER)])
        world = (docs, vectors, [query], store, [], None, RetrievalConfig(k=2))
        (old,), (new,) = pages_around_removal(world, "x")
        assert [(r.doc_id, r.source) for r in old.results] == [
            ("x", CandidateSource.EBR), ("z", CandidateSource.TEXT)
        ]
        assert [(r.doc_id, r.source) for r in new.results] == [
            ("z", CandidateSource.EBR), ("s", CandidateSource.TEXT)
        ]
        assert removal_holds(old.results, new.results, "x")

    @pytest.mark.xfail(
        strict=True,
        reason="a raw_score is the row's bits in a gemv over the live block, "
        "so removing one row can move another row's score by an ulp",
    )
    def test_removal_keeps_every_other_score_bit_with_trigram_vectors(self):
        """The relation at exact score bits with embed_corpus's vectors. With
        k = 5 every doc is on the page, so no doc can enter and every row but
        d0's must stay as it was.

        It fails today: removing d0 makes d4 the 4th of 4 live rows instead of
        the one remainder row of 5, and OpenBLAS's 4-row kernel sums it in
        another order, so d4's score moves by one ulp and the page row changes.
        (Worlds drawn with these vectors hit the same thing now and then, and
        where vectors tie, an ulp also reorders the docs.) Scores defined
        independently of the row's position make this pass.
        """
        titles = ["hiking club", "trail photo", "hiking", "photo", "club maria maria"]
        docs = [
            make_doc(f"d{i}", title=t, description="", source_type=SourceType.CN)
            for i, t in enumerate(titles)
        ]
        query = Query("q1", "maria", "en", "US", "south", Intent.GROUP_TOPIC)
        vectors = embed_corpus(docs, d=DIM)
        world = (docs, vectors, [query], LabelStore(), [], None, RetrievalConfig(k=5))
        (old,), (new,) = pages_around_removal(world, "d0")
        assert "d4" in {r.doc_id for r in old.results}
        assert [r for r in new.results if r.doc_id != "d0"] == [
            r for r in old.results if r.doc_id != "d0"
        ]


class TestTriggerRelation:
    """A rule that disables (intent, source type) serves that intent the same
    page, score bits included, as an index without that source type's docs."""

    @given(worlds(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_disable_rule_equals_serving_without_the_source_type(self, world, data):
        docs, _, queries, store, rules, _, _ = world
        free = [p for p in PAIRS if p not in {(r.intent, r.source_type) for r in rules}]
        intent, source_type = data.draw(st.sampled_from(free))
        index = labelled_index(world, store)
        disabled = RuleSet([*rules, TriggerRule(intent, source_type, TriggerAction.DISABLE)])
        by_rule = serve(world, index, store, disabled)
        without = index.remove_many(d.doc_id for d in docs if d.source_type is source_type)
        by_absence = serve(world, without, store, RuleSet(rules))
        for q, ruled, absent in zip(queries, by_rule, by_absence):
            if q.intent is intent:
                assert ruled.to_dict() == absent.to_dict()
                assert [np.float64(r.transformed_score).tobytes() for r in ruled.results] == [
                    np.float64(r.transformed_score).tobytes() for r in absent.results
                ]


# A model whose every threshold is 0, for worlds drawn without one.
ZERO_MODEL = ThresholdModel(
    DEFAULT_P, 0.0, {name: {} for name in FEATURES}, FitReport(0.0, 0.0, 0)
)


def raised(model, source_type, delta):
    """model with source_type's doc_source_type coefficient raised by delta,
    so on every page the threshold of that one segment rises and no other moves."""
    by_type = dict(model.coefficients["doc_source_type"])
    by_type[source_type.value] = by_type.get(source_type.value, 0.0) + delta
    return replace(model, coefficients={**model.coefficients, "doc_source_type": by_type})


class TestThresholdRelation:
    """Raising one segment's threshold takes off each page exactly the EBR
    rows of that segment scored below the new threshold. Every other row of
    the old page stays, in the same relative order; what joins the page
    slides up from below the cut, or is a text row that the removed EBR row
    of the same doc hid."""

    @given(worlds(), st.sampled_from(list(SourceType)), st.floats(0.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_raising_one_segment_removes_only_its_ebr_rows(self, world, source_type, delta):
        docs, _, queries, store, rules, model, config = world
        low = model or ZERO_MODEL
        high = raised(low, source_type, delta)
        index = labelled_index(world, store)
        before, after = (
            serve((*world[:5], m, config), index, store, RuleSet(rules)) for m in (low, high)
        )
        type_of = {d.doc_id: d.source_type for d in docs}
        for q, old, new in zip(queries, before, after):
            cut = predict_threshold(high, SegmentKey(q.country, q.language, q.intent, source_type))
            below = [
                r
                for r in old.results
                if r.source is CandidateSource.EBR
                and type_of[r.doc_id] is source_type
                and r.transformed_score < cut
            ]
            assert [r for r in old.results if r not in new.results] == below
            stayed = [r for r in new.results if r in old.results]
            assert stayed == [r for r in old.results if r in new.results]


class TestDemotionRelation:
    """A new Demotable label for doc x moves x below every undemoted row, or
    off the page. No other row of the old page leaves it or changes its
    relative order; at most a row from below the cut takes x's place."""

    @given(worlds(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_demotable_label_sinks_only_that_doc(self, world, data):
        docs, _, _, store, rules, _, _ = world
        x = data.draw(st.sampled_from(docs)).doc_id
        # A Removable doc is out of the index; relabelling it would bring it back.
        assume(x not in store.removable_ids())
        label = IntegrityLabel(x, Severity.DEMOTABLE, LabelReason.OTHER)
        after = LabelStore([*store.audit, label])
        index = labelled_index(world, store)
        for old, new in zip(
            serve(world, index, store, RuleSet(rules)), serve(world, index, after, RuleSet(rules))
        ):
            for i, row in enumerate(new.results):
                if row.doc_id == x:
                    assert all(r.demoted for r in new.results[i:])
            old_rest = [r for r in old.results if r.doc_id != x]
            assert [r for r in new.results if r.doc_id != x][: len(old_rest)] == old_rest
