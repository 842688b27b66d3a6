"""NDCG/NONREC metrics against an independent reference, plus run comparison."""

import math

import numpy as np
import pytest

from ebrguard import (
    CandidateSource,
    compare_runs,
    evaluate_run,
    ndcg_at_k,
    paired_bootstrap,
    sessions_from_result_pages,
)
from ebrguard.corpus import FailureCategory, RelevanceJudgment
from ebrguard.errors import GuardrailError
from ebrguard.evaluation import EvalReport, EvalSession, nonrec_at_10
from ebrguard.pipeline import ResultPage, SearchResult
from ebrguard.evaluation import load_report, render_delta_table, render_report, save_report


def reference_ndcg(system_grades, pool_grades, k):
    """Independent brute-force NDCG: exponential gain, log2 discount."""
    def dcg(grades):
        return sum((2**g - 1) / math.log2(i + 2) for i, g in enumerate(grades[:k]))

    idcg = dcg(sorted(pool_grades, reverse=True))
    if idcg == 0:
        return 0.0
    return dcg(system_grades) / idcg


def session_from_grades(ranked_grades, extra_pool=(), query_id="q1"):
    ranked = tuple(f"d{i}" for i in range(len(ranked_grades)))
    grades = {f"d{i}": g for i, g in enumerate(ranked_grades)}
    grades.update({f"x{i}": g for i, g in enumerate(extra_pool)})
    return EvalSession(query_id=query_id, ranked=ranked, grades=grades)


class TestNdcg:
    def test_ideal_ranking_scores_one(self):
        session = session_from_grades([3, 2, 1, 0])
        for k in (1, 3, 5):
            assert ndcg_at_k(session, k) == pytest.approx(1.0)

    def test_all_zero_grades_score_zero(self):
        session = session_from_grades([0, 0, 0])
        assert ndcg_at_k(session, 5) == 0.0

    def test_hand_computed_golden_value(self):
        # system order grades (1, 3), judged pool {3, 1}:
        # DCG = 1/log2(2) + 7/log2(3); IDCG = 7/log2(2) + 1/log2(3)
        session = session_from_grades([1, 3])
        expected = (1 + 7 / math.log2(3)) / (7 + 1 / math.log2(3))
        assert ndcg_at_k(session, 2) == pytest.approx(0.70981, abs=1e-5)
        assert ndcg_at_k(session, 2) == pytest.approx(expected, abs=1e-12)

    def test_missed_relevant_docs_penalize(self):
        # a grade-3 doc exists in the pool but was not retrieved
        session = session_from_grades([2, 1], extra_pool=[3])
        assert ndcg_at_k(session, 5) < 1.0

    def test_unjudged_ranked_docs_count_as_grade_zero(self):
        session = EvalSession("q1", ("mystery", "d0"), {"d0": 3})
        assert ndcg_at_k(session, 2) == pytest.approx(
            reference_ndcg([0, 3], [3], 2)
        )

    def test_matches_reference_on_random_sessions(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(1, 12))
            grades = [int(g) for g in rng.integers(0, 4, size=n)]
            pool_extra = [int(g) for g in rng.integers(0, 4, size=rng.integers(0, 4))]
            session = session_from_grades(grades, extra_pool=pool_extra)
            for k in (1, 3, 5, 10):
                value = ndcg_at_k(session, k)
                expected = reference_ndcg(grades, grades + pool_extra, k)
                assert value == pytest.approx(expected, abs=1e-12)
                assert 0.0 <= value <= 1.0

    def test_monotone_swap_never_decreases(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(2, 10))
            grades = [int(g) for g in rng.integers(0, 4, size=n)]
            i, j = sorted(rng.choice(n, size=2, replace=False))
            if grades[j] <= grades[i]:
                continue
            swapped = list(grades)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            for k in (1, 3, 5):
                before = ndcg_at_k(session_from_grades(grades), k)
                after = ndcg_at_k(session_from_grades(swapped), k)
                assert after >= before - 1e-12

    def test_duplicate_ranked_docs_rejected(self):
        with pytest.raises(ValueError):
            EvalSession("q1", ("d1", "d1"), {})


def session_with_failure(rank, total=12, category=FailureCategory.MISINFORMATION):
    ranked = tuple(f"d{i}" for i in range(total))
    categories = {f"d{rank - 1}": category}
    return EvalSession("q1", ranked, {}, categories)


class TestNonrec:
    def test_clean_session_is_false(self):
        assert nonrec_at_10(session_from_grades([3, 2, 0])) is False

    def test_rank_11_is_outside_the_window(self):
        assert nonrec_at_10(session_with_failure(11)) is False

    def test_rank_10_is_inside_the_window(self):
        assert nonrec_at_10(session_with_failure(10)) is True

    def test_junkiness_categories_do_not_flag(self):
        session = session_with_failure(1, category=FailureCategory.FUZZY_TEXT_MATCH)
        assert nonrec_at_10(session) is False

    def test_all_integrity_categories_flag(self):
        for cat in (
            FailureCategory.MISINFORMATION,
            FailureCategory.UNTRUSTWORTHY,
            FailureCategory.OFFENSIVE,
        ):
            assert nonrec_at_10(session_with_failure(3, category=cat)) is True


class TestEvaluateRun:
    def test_one_perfect_session(self):
        report = evaluate_run([session_from_grades([3, 2, 1])])
        assert report.ndcg_at == {1: 1.0, 3: 1.0, 5: 1.0}
        assert report.nonrec_rate == 0.0
        assert report.n_sessions == 1

    def test_half_violated_sessions(self):
        sessions = [session_from_grades([3, 2]), session_with_failure(1)]
        report = evaluate_run(sessions)
        assert report.nonrec_rate == 0.5

    def test_failure_breakdown_sums_to_one(self):
        ranked = ("a", "b", "c")
        session = EvalSession(
            "q1",
            ranked,
            {"a": 0, "b": 0, "c": 0},
            {
                "a": FailureCategory.FUZZY_TEXT_MATCH,
                "b": FailureCategory.FUZZY_TEXT_MATCH,
                "c": FailureCategory.OFFENSIVE,
            },
        )
        report = evaluate_run([session])
        assert sum(report.failure_breakdown.values()) == pytest.approx(1.0, abs=1e-9)
        assert report.failure_breakdown[FailureCategory.FUZZY_TEXT_MATCH] == pytest.approx(2 / 3)

    def test_session_order_invariance(self):
        rng = np.random.default_rng(2)
        sessions = [
            session_from_grades(
                [int(g) for g in rng.integers(0, 4, size=6)], query_id=f"q{i}"
            )
            for i in range(20)
        ]
        fwd = evaluate_run(sessions)
        rev = evaluate_run(list(reversed(sessions)))
        assert fwd.ndcg_at == rev.ndcg_at
        assert fwd.nonrec_rate == rev.nonrec_rate

    def test_empty_sessions_rejected(self):
        with pytest.raises(GuardrailError, match="zero sessions"):
            evaluate_run([])


class TestCompareRuns:
    def report(self, ndcg5, nonrec, n=10):
        return EvalReport(
            ndcg_at={1: ndcg5, 3: ndcg5, 5: ndcg5},
            nonrec_rate=nonrec,
            failure_breakdown={},
            n_sessions=n,
        )

    def test_identical_runs_have_zero_deltas(self):
        delta = compare_runs(self.report(0.5, 0.2), self.report(0.5, 0.2))
        assert all(v == 0.0 for v in delta.deltas.values())

    def test_ten_percent_gain(self):
        delta = compare_runs(self.report(0.5, 0.2), self.report(0.55, 0.2))
        assert delta.deltas["ndcg_at_5"] == pytest.approx(0.10)

    def test_zero_control_marks_undefined(self):
        delta = compare_runs(self.report(0.0, 0.0), self.report(0.5, 0.1))
        assert delta.deltas["ndcg_at_5"] is None
        assert delta.deltas["nonrec_rate"] is None

    def test_render_delta_table_contains_undefined_marker(self):
        delta = compare_runs(self.report(0.0, 0.2), self.report(0.5, 0.1))
        text = render_delta_table([("treatment", delta)])
        assert "undefined" in text
        assert "NDCG@5" in text


class TestPairedBootstrap:
    def test_clear_improvement_is_significant(self):
        rng = np.random.default_rng(3)
        control = rng.normal(0.5, 0.05, size=400)
        test = control + 0.05
        result = paired_bootstrap(control, test, seed=1)
        assert result.mean_diff == pytest.approx(0.05, abs=1e-9)
        assert result.p_value < 0.01

    def test_no_effect_is_insignificant(self):
        rng = np.random.default_rng(4)
        control = rng.normal(0.5, 0.05, size=400)
        test = control + rng.normal(0.0, 0.01, size=400)
        result = paired_bootstrap(control, test, seed=1)
        assert result.p_value > 0.05 or abs(result.mean_diff) < 1e-3

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        control = rng.normal(0.5, 0.1, size=100)
        test = control + 0.01
        a = paired_bootstrap(control, test, seed=42)
        b = paired_bootstrap(control, test, seed=42)
        assert a == b

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            paired_bootstrap([0.1, 0.2], [0.1])


class TestSessionsFromPages:
    def test_join_with_judgments(self):
        pages = [
            ResultPage(
                "q1",
                True,
                (
                    SearchResult("d1", 0.9, CandidateSource.EBR),
                    SearchResult("d2", 0.5, CandidateSource.TEXT),
                ),
            )
        ]
        judgments = [
            RelevanceJudgment("q1", "d1", 3),
            RelevanceJudgment("q1", "d2", 0, FailureCategory.OFFENSIVE),
            RelevanceJudgment("q1", "d9", 2),
        ]
        sessions = sessions_from_result_pages(pages, judgments)
        assert len(sessions) == 1
        s = sessions[0]
        assert s.ranked == ("d1", "d2")
        assert s.grades == {"d1": 3, "d2": 0, "d9": 2}
        assert s.failure_categories == {"d2": FailureCategory.OFFENSIVE}
        assert nonrec_at_10(s) is True


class TestReportFiles:
    def test_round_trip(self, tmp_path):
        report = evaluate_run(
            [session_from_grades([3, 0, 1]), session_with_failure(2)]
        )
        path = tmp_path / "report.json"
        save_report(report, path)
        loaded = load_report(path)
        assert loaded == report

    def test_render_report_mentions_metrics(self):
        report = evaluate_run([session_from_grades([3, 2, 1])])
        text = render_report(report)
        assert "NDCG@5" in text and "NONREC" in text
