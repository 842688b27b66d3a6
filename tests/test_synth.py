"""Synthetic generator: determinism, planted mixes, and score structure."""

from collections import Counter, defaultdict

import numpy as np
import pytest

from ebrguard import (
    Intent,
    SegmentKey,
    SourceType,
    SyntheticSpec,
    generate_synthetic,
    save_corpus,
    load_corpus,
)
from ebrguard.corpus import FailureCategory
from ebrguard.errors import InvalidParameter
from ebrguard.synth import DEFAULT_FAILURE_MIX, DEFAULT_SEGMENT_MIX, largest_remainder


@pytest.fixture(scope="module")
def default_data():
    return generate_synthetic(SyntheticSpec())


class TestLargestRemainder:
    def test_sums_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            raw = rng.random(n)
            fractions = list(raw / raw.sum())
            total = int(rng.integers(0, 500))
            counts = largest_remainder(fractions, total)
            assert sum(counts) == total
            for c, f in zip(counts, fractions):
                assert abs(c - f * total) < 1.0 + 1e-9

    def test_exact_when_divisible(self):
        assert largest_remainder([0.5, 0.25, 0.25], 8) == [4, 2, 2]


class TestSpecValidation:
    def test_segment_mix_must_sum_to_one(self):
        seg = SegmentKey("US", "en", Intent.GROUP_TOPIC, SourceType.UN)
        with pytest.raises(InvalidParameter, match="sums to 0.5"):
            generate_synthetic(SyntheticSpec(segment_mix={seg: 0.5}))

    def test_negative_fraction_rejected(self):
        mix = dict(DEFAULT_SEGMENT_MIX)
        first, second = list(mix)[:2]
        mix[second] += mix[first] + 0.05
        mix[first] = -0.05
        assert abs(sum(mix.values()) - 1.0) < 1e-9
        with pytest.raises(InvalidParameter, match="negative fraction"):
            generate_synthetic(SyntheticSpec(segment_mix=mix))

    def test_too_few_docs_rejected(self):
        with pytest.raises(InvalidParameter, match="n_docs=11"):
            generate_synthetic(SyntheticSpec(n_docs=11, n_queries=2))
        with pytest.raises(InvalidParameter, match="got 9"):
            generate_synthetic(SyntheticSpec(n_docs=9, n_queries=1))


class TestGeneratedShape:
    def test_counts(self, default_data):
        corpus, queries, judgments, log = default_data
        assert len(corpus) == 1000
        assert len(queries) == 100
        assert len({d.doc_id for d in corpus}) == 1000
        assert len({q.query_id for q in queries}) == 100

    def test_each_query_has_at_least_five_judged_docs(self, default_data):
        judged = Counter(j.query_id for j in default_data.judgments)
        assert set(judged) == {q.query_id for q in default_data.queries}
        assert min(judged.values()) >= 5

    def test_failure_mix_counts_within_one(self, default_data):
        fails = Counter(
            j.failure_category for j in default_data.judgments if j.grade == 0
        )
        assert None not in fails
        total = sum(fails.values())
        for cat, fraction in DEFAULT_FAILURE_MIX.items():
            assert abs(fails[cat] - fraction * total) <= 1.0

    def test_planted_docs_embody_their_category(self, default_data):
        corpus = {d.doc_id: d for d in default_data.corpus}
        queries = {q.query_id: q for q in default_data.queries}
        for j in default_data.judgments:
            if j.failure_category is FailureCategory.LOCATION_MISMATCH:
                assert corpus[j.doc_id].country != queries[j.query_id].country
            elif j.failure_category is FailureCategory.LANGUAGE_MISMATCH:
                assert corpus[j.doc_id].language != queries[j.query_id].language

    def test_determinism_and_file_round_trip(self, tmp_path, default_data):
        again = generate_synthetic(SyntheticSpec())
        assert again == default_data
        path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_corpus(default_data.corpus, path_a)
        save_corpus(again.corpus, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
        assert load_corpus(path_a) == default_data.corpus

    def test_different_seed_differs(self, default_data):
        other = generate_synthetic(SyntheticSpec(seed=8))
        assert other != default_data


class TestEngagementStructure:
    def test_scores_in_range_and_action_consistency(self, default_data):
        for rec in default_data.engagement_log:
            assert -1.0 <= rec.raw_score <= 1.0

    def test_engaged_dominate_within_each_segment(self, default_data):
        by_segment = defaultdict(lambda: {"e": [], "n": []})
        for rec in default_data.engagement_log:
            by_segment[rec.segment]["e" if rec.engaged else "n"].append(rec.raw_score)
        for seg, scores in by_segment.items():
            engaged = np.array(scores["e"])
            junk = np.array(scores["n"])
            assert engaged.size and junk.size
            assert engaged.mean() > junk.mean()
            assert np.median(engaged) > np.median(junk)

    def test_segment_centers_differ(self, default_data):
        means = {}
        for rec in default_data.engagement_log:
            if rec.engaged:
                means.setdefault(rec.segment, []).append(rec.raw_score)
        centers = sorted(float(np.mean(v)) for v in means.values())
        assert len(centers) >= 4
        assert centers[-1] - centers[0] > 0.2
