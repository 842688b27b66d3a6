"""Acceptance suite: one test per exit criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
pass/fail lines.
"""

import math
from functools import partial

import numpy as np
import pytest

from ebrguard import (
    CandidateSource,
    EngagementRecord,
    Intent,
    LabelStore,
    RuleSet,
    SegmentKey,
    SigmoidParams,
    SourceType,
    SyntheticSpec,
    TriggerAction,
    TriggerRule,
    apply_index_removal,
    build_index,
    build_text_index,
    embed_corpus,
    fit,
    generate_synthetic,
    ndcg_at_k,
    paired_bootstrap,
    predict_threshold,
    retrieve,
    segment_targets,
    sessions_from_result_pages,
    sigmoid_transform,
)
from ebrguard.evaluation import EvalSession
from ebrguard.integrity import IntegrityLabel, LabelReason, Severity
from ebrguard.pipeline import SearchResult, apply_threshold, merge_candidates
from ebrguard.synth import DEFAULT_FAILURE_MIX
from ebrguard.text_retrieval import search_text
from ebrguard.thresholds import FEATURES
from ebrguard.vector_index import topk
SEG = SegmentKey("US", "en", Intent.PERSON_NAME, SourceType.UN)


def engaged_log(segment, scores):
    return [
        EngagementRecord(f"q{i}", f"d{i}", s, True, segment)
        for i, s in enumerate(scores)
    ]


def test_criterion_01_percentile_worked_example():
    """Ten engaged scores spanning [0.2, 1.0]; the 30%-retention threshold is 0.7."""
    scores = [0.2, 0.3, 0.35, 0.4, 0.5, 0.6, 0.65, 0.7, 0.85, 1.0]
    targets = segment_targets(engaged_log(SEG, scores), p=0.30, min_support=10)
    assert targets[SEG] == 0.7


def test_criterion_02_retention_tightness_on_randomized_segments():
    """Retention >= p at the target and < p one observed score higher, vs a
    brute-force scan, on 100 seeded random segments for p in {0.5, 0.9, 1.0}."""
    rng = np.random.default_rng(20)
    countries = ["US", "GB", "BR", "MX", "CA"]
    for trial in range(100):
        n = int(rng.integers(5, 400))
        # round half the segments to 2 decimals so ties occur
        scores = rng.uniform(0.0, 1.0, size=n)
        if trial % 2:
            scores = np.round(scores, 2)
        scores = [float(s) for s in scores]
        segment = SegmentKey(
            countries[trial % len(countries)],
            "en",
            list(Intent)[trial % len(Intent)],
            SourceType.UN if trial % 2 else SourceType.CN,
        )
        log = engaged_log(segment, scores)
        for p in (0.5, 0.9, 1.0):
            y = segment_targets(log, p, min_support=1)[segment]
            retained = sum(s >= y for s in scores) / n
            assert retained >= p
            larger = [s for s in set(scores) if s > y]
            if larger:
                t_next = min(larger)
                assert sum(s >= t_next for s in scores) / n < p
            # brute-force scan over every candidate threshold
            eligible = [
                t for t in sorted(set(scores))
                if sum(s >= t for s in scores) / n >= p
            ]
            assert y == max(eligible)


def test_criterion_03_ols_recovery_of_planted_coefficients():
    """Targets built from a planted intercept plus one coefficient per feature
    value: fitted predictions match to 1e-6 over 50 segments."""
    rng = np.random.default_rng(21)
    countries = ["US", "GB", "BR", "MX", "CA", "DE", "FR"]
    languages = ["en", "es", "pt", "de"]
    intents = list(Intent)
    segments = set()
    while len(segments) < 50:
        segments.add(
            SegmentKey(
                str(rng.choice(countries)),
                str(rng.choice(languages)),
                intents[int(rng.integers(len(intents)))],
                SourceType.UN if rng.random() < 0.5 else SourceType.CN,
            )
        )
    segments = sorted(segments, key=SegmentKey.sort_key)
    intercept = float(rng.uniform(-1.0, 1.0))
    planted = {}
    for i, name in enumerate(FEATURES):
        values = sorted({s.sort_key()[i] for s in segments})
        planted[name] = {v: float(rng.uniform(-1.0, 1.0)) for v in values}

    def linear(coefficients, intercept, s):
        return intercept + sum(coefficients[n][v] for n, v in zip(FEATURES, s.sort_key()))

    targets = {s: linear(planted, intercept, s) for s in segments}
    model = fit(targets)
    errors = [
        abs(linear(model.coefficients, model.intercept, s) - targets[s]) for s in segments
    ]
    assert max(errors) <= 1e-6


def test_criterion_04_topk_equals_full_sort_brute_force_at_scale():
    """1,000 random queries over a 10k-doc index, k in {1, 10, 100}, for each
    source type: doc order identical to a full sort of that type's rows, tie
    order included."""
    rng = np.random.default_rng(22)
    n_docs, dim = 10_000, 64
    raw = rng.normal(size=(n_docs, dim))
    # plant exact duplicates so ties genuinely occur; source types alternate
    # by index parity, so an even offset keeps each copy in its original's type
    for i in range(0, n_docs, 97):
        raw[i] = raw[(i + 7918) % n_docs]
    from tests.test_corpus import make_doc

    docs = [
        make_doc(f"d{i:05d}", source_type=SourceType.UN if i % 2 else SourceType.CN)
        for i in range(n_docs)
    ]
    embeddings = {doc.doc_id: raw[i] for i, doc in enumerate(docs)}
    index = build_index(docs, embeddings)

    normalized = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    rows_of = {
        st: [i for i, d in enumerate(docs) if d.source_type is st] for st in SourceType
    }
    queries = rng.normal(size=(1000, dim))
    tied_pairs = 0
    for q in queries:
        q_unit = q / np.linalg.norm(q)
        for st, rows in rows_of.items():
            scores = np.clip(normalized[rows] @ q_unit, -1.0, 1.0)
            oracle = sorted(
                zip([docs[i].doc_id for i in rows], scores.tolist()),
                key=lambda t: (-t[1], t[0]),
            )
            tied_pairs += sum(a[1] == b[1] for a, b in zip(oracle[:100], oracle[1:101]))
            for k in (1, 10, 100):
                mine = topk(index, q, k, source_filter=st)
                assert [c.doc_id for c in mine] == [doc_id for doc_id, _ in oracle[:k]]
                np.testing.assert_allclose(
                    [c.raw_score for c in mine],
                    [s for _, s in oracle[:k]],
                    rtol=0,
                    atol=1e-12,
                )
    assert tied_pairs > 0


@pytest.fixture(scope="module")
def default_synthetic():
    return generate_synthetic(SyntheticSpec())


def test_criterion_05_index_removal_zeroes_removable_nonrec(default_synthetic):
    """Removable labels on 5% of docs: after index removal, no session's top 10
    contains a Removable doc, and a second removal pass removes nothing."""
    corpus, queries, judgments, _ = default_synthetic
    store = LabelStore()
    removable = sorted(d.doc_id for d in corpus)[::20]  # 5% of 1000
    assert len(removable) == 50
    for doc_id in removable:
        store.add(IntegrityLabel(doc_id, Severity.REMOVABLE, LabelReason.MISINFORMATION))

    index = build_index(corpus, embed_corpus(corpus, d=32))
    cleaned, removed_count = apply_index_removal(index, store)
    assert removed_count == 50
    again, removed_again = apply_index_removal(cleaned, store)
    assert removed_again == 0
    assert again is cleaned

    removable_set = set(removable)
    text_index = build_text_index(corpus)
    pages = [
        retrieve(q, cleaned, text_index, None, RuleSet(), store) for q in queries
    ]
    sessions = sessions_from_result_pages(pages, judgments)
    violations = sum(
        any(doc_id in removable_set for doc_id in s.ranked[:10]) for s in sessions
    )
    assert violations == 0

    # and directly at the index layer, for every query and a range of k
    from ebrguard.embedder import Side, embed_text

    for q in queries[:25]:
        qvec = embed_text(q.text, Side.QUERY, cleaned.dim)
        for k in (1, 10, 100):
            for st in SourceType:
                hits = {c.doc_id for c in topk(cleaned, qvec, k, source_filter=st)}
                assert not hits & removable_set


def test_criterion_06_trigger_control_person_name_un():
    """Unconnected-navigation corpus with the (PersonName, UN) disable rule:
    PersonName queries get zero EBR results, text retrieval serves them all."""
    mix = {
        SegmentKey("US", "en", Intent.PERSON_NAME, SourceType.UN): 0.4,
        SegmentKey("US", "en", Intent.GROUP_TOPIC, SourceType.UN): 0.35,
        SegmentKey("GB", "en", Intent.GROUP_TOPIC, SourceType.UN): 0.25,
    }
    data = generate_synthetic(SyntheticSpec(seed=9, n_docs=600, n_queries=80, segment_mix=mix))
    rules = RuleSet(
        [TriggerRule(Intent.PERSON_NAME, SourceType.UN, TriggerAction.DISABLE)]
    )
    index = build_index(data.corpus, embed_corpus(data.corpus, d=32))
    text_index = build_text_index(data.corpus)
    store = LabelStore()

    saw_person_name_results = False
    saw_group_ebr = False
    for query in data.queries:
        page = retrieve(query, index, text_index, None, rules, store)
        if query.intent is Intent.PERSON_NAME:
            assert page.ebr_triggered is False
            assert all(r.source is CandidateSource.TEXT for r in page.results)
            saw_person_name_results = saw_person_name_results or bool(page.results)
        else:
            saw_group_ebr = saw_group_ebr or any(
                r.source is CandidateSource.EBR for r in page.results
            )
    assert saw_person_name_results, "text fallback should actually serve results"
    assert saw_group_ebr, "the rule must not disable other intents"


# -- criterion 7 machinery ---------------------------------------------------

SIGMOID_7 = SigmoidParams(a=6.0, b=-3.0)


def _query_sessions(data, transform):
    """Per query: calibrated EBR rows from logged impressions plus cached text
    rows, ready for threshold variants."""
    text_index = build_text_index(data.corpus)
    grades = {}
    for j in data.judgments:
        grades.setdefault(j.query_id, {})[j.doc_id] = j.grade
    by_query = {}
    for rec in data.engagement_log:
        by_query.setdefault(rec.query_id, []).append(rec)
    sessions = []
    for query in data.queries:
        ebr_rows = sorted(
            (
                SearchResult(rec.doc_id, transform(rec.raw_score), CandidateSource.EBR)
                for rec in by_query[query.query_id]
            ),
            key=lambda r: (-r.transformed_score, r.doc_id),
        )
        text_rows = [
            SearchResult(c.doc_id, c.raw_score, CandidateSource.TEXT)
            for c in search_text(text_index, query, 10)
        ]
        segment = by_query[query.query_id][0].segment
        sessions.append((query, segment, ebr_rows, text_rows, grades[query.query_id]))
    return sessions


def _ndcg5_for_threshold(sessions, threshold_for_segment):
    values = []
    for query, segment, ebr_rows, text_rows, grades in sessions:
        kept = apply_threshold(ebr_rows, threshold_for_segment(segment))
        merged = merge_candidates(kept, text_rows)[:10]
        session = EvalSession(
            query_id=query.query_id,
            ranked=tuple(r.doc_id for r in merged),
            grades=grades,
        )
        values.append(ndcg_at_k(session, 5))
    return np.array(values)


def test_criterion_07_customized_thresholds_beat_best_global():
    """Per-segment predicted thresholds vs the best of 101 global thresholds:
    mean NDCG@5 improvement > 0 with paired-bootstrap p < 0.05 over 500 sessions."""
    data = generate_synthetic(SyntheticSpec(seed=13, n_docs=4000, n_queries=500))
    transform = partial(sigmoid_transform, params=SIGMOID_7)
    targets = segment_targets(data.engagement_log, p=0.9, min_support=20, transform=transform)
    assert len(targets) >= 4
    model = fit(targets, p=0.9)

    sessions = _query_sessions(data, transform)
    customized = _ndcg5_for_threshold(
        sessions, lambda seg: predict_threshold(model, seg)
    )

    grid = np.linspace(0.0, 1.0, 101)
    best_global = None
    best_mean = -1.0
    for t in grid:
        values = _ndcg5_for_threshold(sessions, lambda seg: t)
        if values.mean() > best_mean:
            best_mean = float(values.mean())
            best_global = values

    assert customized.mean() > best_mean
    boot = paired_bootstrap(best_global, customized, seed=3)
    assert boot.mean_diff > 0
    assert boot.p_value < 0.05


def test_criterion_08_sigmoid_calibration_invariants():
    """Argsort invariance under the calibration for a > 0 on 1,000 random score
    lists; g(0) = 0.5 and g(s) + g(-s) = 1 to 1e-12 with b = 0."""
    assert sigmoid_transform(0.0) == 0.5
    rng = np.random.default_rng(23)
    for _ in range(1000):
        n = int(rng.integers(2, 50))
        scores = rng.uniform(-1.0, 1.0, size=n)
        params = SigmoidParams(
            a=float(rng.uniform(0.05, 8.0)), b=float(rng.uniform(-2.0, 2.0))
        )
        transformed = sigmoid_transform(scores, params)
        np.testing.assert_array_equal(
            np.argsort(scores, kind="stable"),
            np.argsort(transformed, kind="stable"),
        )
    s = rng.uniform(-5.0, 5.0, size=4000)
    residual = sigmoid_transform(s) + sigmoid_transform(-s) - 1.0
    assert np.max(np.abs(residual)) <= 1e-12


def _reference_ndcg(system_grades, pool_grades, k):
    def dcg(grades):
        return sum((2**g - 1) / math.log2(i + 2) for i, g in enumerate(grades[:k]))

    idcg = dcg(sorted(pool_grades, reverse=True))
    return 0.0 if idcg == 0 else dcg(system_grades) / idcg


def test_criterion_09_ndcg_golden_values_and_monotone_swaps():
    """Hand-computed golden value, boundary conventions, and the monotone-swap
    property on 1,000 randomized sessions vs the brute-force reference."""
    session = EvalSession("q", ("a", "b"), {"a": 1, "b": 3})
    assert ndcg_at_k(session, 2) == pytest.approx(0.70981, abs=1e-5)

    ideal = EvalSession("q", ("a", "b", "c"), {"a": 3, "b": 2, "c": 0})
    assert ndcg_at_k(ideal, 3) == pytest.approx(1.0, abs=1e-5)
    zeros = EvalSession("q", ("a", "b"), {"a": 0, "b": 0})
    assert ndcg_at_k(zeros, 5) == 0.0

    rng = np.random.default_rng(24)
    for _ in range(1000):
        n = int(rng.integers(2, 12))
        grades = [int(g) for g in rng.integers(0, 4, size=n)]
        ranked = tuple(f"d{i}" for i in range(n))
        session = EvalSession("q", ranked, dict(zip(ranked, grades)))
        k = int(rng.integers(1, 8))
        assert ndcg_at_k(session, k) == pytest.approx(
            _reference_ndcg(grades, grades, k), abs=1e-12
        )
        i, j = sorted(rng.choice(n, size=2, replace=False))
        if grades[j] > grades[i]:
            swapped = list(grades)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            improved = EvalSession("q", ranked, dict(zip(ranked, swapped)))
            assert ndcg_at_k(improved, k) >= ndcg_at_k(session, k) - 1e-12


def test_criterion_10_failure_mix_reproduces_reference_distribution(default_synthetic):
    """Default generation at n_docs=1000: grade-0 category counts match the
    53/18/4/10/10/5 mix within one count per category."""
    counts = {}
    for j in default_synthetic.judgments:
        if j.grade == 0:
            counts[j.failure_category] = counts.get(j.failure_category, 0) + 1
    total = sum(counts.values())
    assert total == 300
    for cat, share in DEFAULT_FAILURE_MIX.items():
        assert abs(counts.get(cat, 0) - share * total) <= 1.0
