"""Sigmoid calibration, threshold discard, merging, and the full retrieve flow."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebrguard import (
    CandidateSource,
    Intent,
    LabelStore,
    RetrievalConfig,
    RuleSet,
    SigmoidParams,
    SourceType,
    TriggerAction,
    TriggerRule,
    build_index,
    build_text_index,
    embed_corpus,
    fit,
    retrieve,
    sigmoid_transform,
    SegmentKey,
)
from ebrguard.corpus import Query
from ebrguard.errors import InvalidParameter
from ebrguard.integrity import IntegrityLabel, LabelReason, Severity
from ebrguard.pipeline import (
    ResultPage,
    SearchResult,
    apply_threshold,
    merge_candidates,
)
from tests.test_corpus import make_doc


class TestSigmoidTransform:
    def test_symmetry_point(self):
        assert sigmoid_transform(0.0) == 0.5

    def test_derived_value(self):
        assert sigmoid_transform(0.7) == pytest.approx(0.66819, abs=1e-5)

    def test_logistic_symmetry(self):
        rng = np.random.default_rng(0)
        for s in rng.uniform(-1, 1, size=200):
            total = sigmoid_transform(s) + sigmoid_transform(-s)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_open_interval_and_monotone(self):
        params = SigmoidParams(a=3.0, b=-1.0)
        xs = np.linspace(-1, 1, 500)
        ys = sigmoid_transform(xs, params)
        assert np.all(ys > 0) and np.all(ys < 1)
        assert np.all(np.diff(ys) > 0)

    def test_linear_transform_applied(self):
        assert sigmoid_transform(0.5, SigmoidParams(a=2.0, b=-1.0)) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_argsort_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            scores = rng.uniform(-1, 1, size=40)
            a = float(rng.uniform(0.1, 8.0))
            b = float(rng.uniform(-2.0, 2.0))
            transformed = sigmoid_transform(scores, SigmoidParams(a=a, b=b))
            np.testing.assert_array_equal(
                np.argsort(scores, kind="stable"),
                np.argsort(transformed, kind="stable"),
            )

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            SigmoidParams(a=0.0)
        with pytest.raises(ValueError):
            SigmoidParams(a=-1.0)

    @pytest.mark.parametrize(
        ("a", "b"), [(math.inf, 0.0), (math.nan, 0.0), (1.0, math.nan), (1.0, -math.inf)]
    )
    def test_non_finite_params_rejected(self, a, b):
        with pytest.raises(InvalidParameter):
            SigmoidParams(a=a, b=b)


def rows(*pairs, source=CandidateSource.EBR):
    return [SearchResult(doc_id, score, source) for doc_id, score in pairs]


class TestApplyThreshold:
    def test_minus_inf_sentinel_keeps_all(self):
        data = rows(("a", 0.1), ("b", 0.9))
        assert apply_threshold(data, -math.inf) == data

    def test_threshold_one_discards_all_sigmoid_scores(self):
        data = rows(("a", 0.9999), ("b", 0.5))
        assert apply_threshold(data, 1.0) == []

    def test_boundary_inclusive(self):
        data = rows(("a", 0.3), ("b", 0.7), ("c", 0.71))
        kept = apply_threshold(data, 0.7)
        assert [r.doc_id for r in kept] == ["b", "c"]

    def test_order_preserved(self):
        data = rows(("z", 0.9), ("a", 0.8), ("m", 0.85))
        kept = apply_threshold(data, 0.81)
        assert [r.doc_id for r in kept] == ["z", "m"]


class TestMergeCandidates:
    def test_ebr_wins_exact_score_ties(self):
        ebr = rows(("e", 0.5))
        text = rows(("t", 0.5), source=CandidateSource.TEXT)
        merged = merge_candidates(ebr, text)
        assert [r.doc_id for r in merged] == ["e", "t"]

    def test_dedup_keeps_higher_score(self):
        ebr = rows(("a", 0.4))
        text = rows(("a", 0.9), source=CandidateSource.TEXT)
        merged = merge_candidates(ebr, text)
        assert len(merged) == 1
        assert merged[0].source is CandidateSource.TEXT
        assert merged[0].transformed_score == 0.9

    def test_dedup_equal_scores_keeps_ebr(self):
        ebr = rows(("a", 0.6))
        text = rows(("a", 0.6), source=CandidateSource.TEXT)
        merged = merge_candidates(ebr, text)
        assert merged[0].source is CandidateSource.EBR

    def test_sorted_by_score_then_source_then_doc_id(self):
        ebr = rows(("b", 0.5), ("a", 0.5))
        text = rows(("c", 0.8), source=CandidateSource.TEXT)
        merged = merge_candidates(ebr, text)
        assert [r.doc_id for r in merged] == ["c", "a", "b"]


_SOURCE_RANK = {CandidateSource.EBR: 0, CandidateSource.TEXT: 1}


def reference_merge(ebr, text):
    """The best-of merge merge_candidates replaced: dedup by doc_id keeping the
    higher-scored route (EBR on exact ties, else the first row), then sort."""
    best = {}
    for row in list(ebr) + list(text):
        cur = best.get(row.doc_id)
        if cur is None or row.transformed_score > cur.transformed_score or (
            row.transformed_score == cur.transformed_score
            and _SOURCE_RANK[row.source] < _SOURCE_RANK[cur.source]
        ):
            best[row.doc_id] = row
    return sorted(
        best.values(),
        key=lambda r: (-r.transformed_score, _SOURCE_RANK[r.source], r.doc_id),
    )


def result_rows(source):
    """Rows drawn from few doc_ids and few scores, so duplicates and exact ties
    are common; demoted tells apart two rows that tie on every sort key."""
    return st.lists(
        st.builds(
            SearchResult,
            doc_id=st.sampled_from("abcde"),
            transformed_score=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
            source=st.just(source),
            demoted=st.booleans(),
        ),
        max_size=12,
    )


@given(result_rows(CandidateSource.EBR), result_rows(CandidateSource.TEXT))
@settings(max_examples=500, deadline=None)
def test_merge_candidates_matches_reference_merge(ebr, text):
    assert merge_candidates(ebr, text) == reference_merge(ebr, text)


def build_fixture(docs):
    embeddings = embed_corpus(docs, d=32)
    return build_index(docs, embeddings), build_text_index(docs)


def make_query(text, intent=Intent.GROUP_TOPIC, query_id="q1", country="US"):
    return Query(query_id, text, "en", country, "south", intent)


NO_RULES = RuleSet()


class TestRetrieve:
    def test_empty_corpus_gives_empty_page(self):
        index, text_index = build_fixture([])
        page = retrieve(
            make_query("hiking club"), index, text_index, None, NO_RULES, LabelStore()
        )
        assert page.results == ()
        assert page.ebr_triggered is False

    def test_disable_rule_forces_text_only(self):
        docs = [
            make_doc("d1", title="maria alvarez fan club", source_type=SourceType.UN),
            make_doc("d2", title="denver hiking club", source_type=SourceType.UN),
        ]
        index, text_index = build_fixture(docs)
        rules = RuleSet(
            [TriggerRule(Intent.PERSON_NAME, SourceType.UN, TriggerAction.DISABLE)]
        )
        page = retrieve(
            make_query("maria alvarez", intent=Intent.PERSON_NAME),
            index,
            text_index,
            None,
            rules,
            LabelStore(),
        )
        assert page.ebr_triggered is False
        assert page.results
        assert all(r.source is CandidateSource.TEXT for r in page.results)

    def test_enabled_intent_mixes_ebr(self):
        # trigram-similar but token-disjoint, so only the EBR route reaches it
        docs = [
            make_doc(
                "d1",
                title="denverside hikingtrails clubhouse",
                description="local walkers",
                source_type=SourceType.UN,
            ),
            make_doc(
                "d2",
                title="quartz dwelling artists",
                description="pottery kiln",
                source_type=SourceType.UN,
            ),
        ]
        index, text_index = build_fixture(docs)
        page = retrieve(
            make_query("hiking club denver"), index, text_index, None, NO_RULES, LabelStore()
        )
        assert page.ebr_triggered is True
        assert any(r.source is CandidateSource.EBR for r in page.results)

    def test_partial_disable_keeps_other_source(self):
        docs = [
            make_doc(
                "un1",
                title="denverside hikingtrails clubhouse",
                description="local walkers",
                source_type=SourceType.UN,
            ),
            make_doc(
                "cn1",
                title="hikingway denvertown clubs",
                description="weekly walkers",
                source_type=SourceType.CN,
            ),
        ]
        index, text_index = build_fixture(docs)
        rules = RuleSet(
            [TriggerRule(Intent.GROUP_TOPIC, SourceType.UN, TriggerAction.DISABLE)]
        )
        page = retrieve(
            make_query("hiking denver club"), index, text_index, None, rules, LabelStore()
        )
        assert page.ebr_triggered is True
        ebr_ids = {r.doc_id for r in page.results if r.source is CandidateSource.EBR}
        assert "un1" not in ebr_ids
        assert "cn1" in ebr_ids

    def test_demotable_doc_sinks_below_clean_results(self):
        docs = [
            make_doc("bad", title="denver hiking club", source_type=SourceType.UN),
            make_doc("ok1", title="hiking club denver area", source_type=SourceType.UN),
            make_doc("ok2", title="denver hikes", source_type=SourceType.UN),
        ]
        index, text_index = build_fixture(docs)
        store = LabelStore()
        store.add(IntegrityLabel("bad", Severity.DEMOTABLE, LabelReason.UNTRUSTWORTHY))
        page = retrieve(
            make_query("denver hiking club"), index, text_index, None, NO_RULES, store
        )
        ids = [r.doc_id for r in page.results]
        assert "bad" in ids
        assert ids[-1] == "bad"
        assert page.results[-1].demoted is True
        assert all(not r.demoted for r in page.results[:-1])

    def test_removable_doc_never_appears_even_via_text(self):
        docs = [
            make_doc("poison", title="denver hiking club", source_type=SourceType.UN),
            make_doc("fine", title="denver hiking group", source_type=SourceType.UN),
        ]
        index, text_index = build_fixture(docs)
        store = LabelStore()
        store.add(IntegrityLabel("poison", Severity.REMOVABLE, LabelReason.MISINFORMATION))
        page = retrieve(
            make_query("denver hiking club"), index, text_index, None, NO_RULES, store
        )
        assert "poison" not in {r.doc_id for r in page.results}

    def test_threshold_model_discards_low_ebr_scores(self):
        docs = [
            make_doc("d1", title="hiking club denver", source_type=SourceType.UN),
            make_doc("d2", title="totally unrelated ramble", source_type=SourceType.UN),
        ]
        index, text_index = build_fixture(docs)
        seg_a = SegmentKey("US", "en", Intent.GROUP_TOPIC, SourceType.UN)
        seg_b = SegmentKey("GB", "en", Intent.GROUP_TOPIC, SourceType.CN)
        model = fit({seg_a: 0.62, seg_b: 0.5})
        page = retrieve(
            make_query("hiking club denver"),
            index,
            text_index,
            model,
            NO_RULES,
            LabelStore(),
        )
        for r in page.results:
            if r.source is CandidateSource.EBR:
                assert r.transformed_score >= 0.62 - 1e-9

    def test_page_truncates_to_k(self):
        docs = [
            make_doc(f"d{i}", title=f"hiking club variant {i}", source_type=SourceType.UN)
            for i in range(8)
        ]
        index, text_index = build_fixture(docs)
        page = retrieve(
            make_query("hiking club"),
            index,
            text_index,
            None,
            NO_RULES,
            LabelStore(),
            RetrievalConfig(k=3),
        )
        assert len(page.results) == 3

    def test_result_pages_keep_block_ordering_invariant(self):
        from ebrguard import SyntheticSpec, generate_synthetic, labels_from_judgments

        data = generate_synthetic(SyntheticSpec(seed=5, n_docs=280, n_queries=40))
        index = build_index(data.corpus, embed_corpus(data.corpus, d=32))
        text_index = build_text_index(data.corpus)
        store = labels_from_judgments(data.judgments)
        src_rank = {CandidateSource.EBR: 0, CandidateSource.TEXT: 1}
        for query in data.queries:
            page = retrieve(query, index, text_index, None, NO_RULES, store)
            flags = [r.demoted for r in page.results]
            assert flags == sorted(flags), "demoted rows must trail clean rows"
            for block_flag in (False, True):
                block = [r for r in page.results if r.demoted is block_flag]
                keys = [
                    (-r.transformed_score, src_rank[r.source], r.doc_id) for r in block
                ]
                assert keys == sorted(keys)

    def test_ebr_scores_have_the_scalar_calibration_bits(self):
        """retrieve calibrates each topk result list with one array call; every
        EBR row's score equals the scalar sigmoid_transform of its raw score."""
        from ebrguard import SyntheticSpec, generate_synthetic
        from ebrguard.embedder import Side, embed_text
        from ebrguard.vector_index import topk

        data = generate_synthetic(SyntheticSpec(seed=7, n_docs=240, n_queries=30))
        index = build_index(data.corpus, embed_corpus(data.corpus))
        text_index = build_text_index(data.corpus)
        checked = 0
        for params in (SigmoidParams(), SigmoidParams(a=6.0, b=-3.0)):
            config = RetrievalConfig(sigmoid=params)
            for query in data.queries:
                query_vec = embed_text(query.text, Side.QUERY, index.dim)
                raw = {
                    c.doc_id: c.raw_score
                    for st in index.source_types_present()
                    for c in topk(index, query_vec, config.k, source_filter=st)
                }
                page = retrieve(query, index, text_index, None, NO_RULES, LabelStore(), config)
                for r in page.results:
                    if r.source is CandidateSource.EBR:
                        want = sigmoid_transform(raw[r.doc_id], params)
                        assert type(r.transformed_score) is float
                        assert r.transformed_score.hex() == want.hex()
                        checked += 1
        assert checked > 300

    def test_page_round_trip(self):
        page = ResultPage(
            query_id="q1",
            results=(
                SearchResult("a", 0.8, CandidateSource.EBR),
                SearchResult("b", 0.5, CandidateSource.TEXT, demoted=True),
            ),
            ebr_triggered=True,
        )
        assert ResultPage.from_dict(page.to_dict()) == page

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("transformed_score", True),
            ("transformed_score", "0.5"),
            ("demoted", "yes"),
            ("demoted", 0),
            ("ebr_triggered", "false"),
        ],
    )
    def test_page_fields_must_have_their_json_type(self, field, value):
        page = ResultPage("q1", True, (SearchResult("a", 0.8, CandidateSource.EBR),)).to_dict()
        (page if field in page else page["results"][0])[field] = value
        with pytest.raises(TypeError, match=field):
            ResultPage.from_dict(page)

    def test_integer_score_reads_as_float(self):
        row = SearchResult("a", 1.0, CandidateSource.EBR).to_dict()
        row["transformed_score"] = 1
        got = SearchResult.from_dict(row).transformed_score
        assert type(got) is float and got == 1.0
