"""Percentile targets, one-hot encoding, and the least-squares threshold model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebrguard import (
    EngagementRecord,
    Intent,
    SegmentKey,
    SourceType,
    fit,
    load_model,
    predict_threshold,
    save_model,
    segment_targets,
)
from ebrguard.errors import GuardrailError, InvalidParameter
from ebrguard.thresholds import FeatureEncoding, percentile_threshold

SEG_A = SegmentKey("US", "en", Intent.GROUP_TOPIC, SourceType.UN)
SEG_B = SegmentKey("GB", "en", Intent.GROUP_TOPIC, SourceType.CN)
SEG_C = SegmentKey("BR", "pt", Intent.PERSON_NAME, SourceType.UN)

# Ten engaged scores spanning [0.2, 1.0]; exactly 3 of 10 sit at or above 0.7,
# so the 30%-retention threshold lands on 0.7.
WORKED_SCORES = [0.2, 0.3, 0.35, 0.4, 0.5, 0.6, 0.65, 0.7, 0.85, 1.0]


def records_for(segment, scores, engaged=True):
    return [
        EngagementRecord(f"q{i}", f"d{i}", s, engaged, segment)
        for i, s in enumerate(scores)
    ]


def brute_force_threshold(scores, p):
    """Independent oracle: scan every observed score for the largest one
    retaining at least a p fraction."""
    n = len(scores)
    eligible = [
        t for t in sorted(set(scores)) if sum(s >= t for s in scores) / n >= p
    ]
    return max(eligible)


class TestPercentileThreshold:
    def test_worked_example(self):
        assert percentile_threshold(WORKED_SCORES, 0.30) == 0.7

    def test_p_one_returns_minimum(self):
        assert percentile_threshold(WORKED_SCORES, 1.0) == 0.2

    def test_degenerate_all_equal(self):
        for p in (0.1, 0.5, 0.9, 1.0):
            assert percentile_threshold([0.42] * 7, p) == 0.42

    def test_invalid_p(self):
        for p in (0.0, -0.5, 1.0001):
            with pytest.raises(InvalidParameter):
                percentile_threshold(WORKED_SCORES, p)

    @given(
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False).map(lambda x: round(x, 2)),
            min_size=1,
            max_size=60,
        ),
        st.floats(0.01, 1.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_scan(self, scores, p):
        assert percentile_threshold(scores, p) == brute_force_threshold(scores, p)

    @given(
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False).map(lambda x: round(x, 2)),
            min_size=2,
            max_size=60,
        ),
        st.floats(0.01, 1.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_retention_and_tightness(self, scores, p):
        t = percentile_threshold(scores, p)
        n = len(scores)
        assert sum(s >= t for s in scores) / n >= p
        larger = [s for s in set(scores) if s > t]
        if larger:
            t_next = min(larger)
            assert sum(s >= t_next for s in scores) / n < p


class TestSegmentTargets:
    def test_worked_example_through_the_log(self):
        log = records_for(SEG_A, WORKED_SCORES)
        targets = segment_targets(log, 0.30, min_support=10)
        assert targets == {SEG_A: 0.7}

    def test_only_engaged_records_count(self):
        log = records_for(SEG_A, WORKED_SCORES) + records_for(
            SEG_A, [0.01] * 50, engaged=False
        )
        targets = segment_targets(log, 0.30, min_support=10)
        assert targets[SEG_A] == 0.7

    def test_min_support_omits_sparse_segments(self):
        log = records_for(SEG_A, WORKED_SCORES) + records_for(SEG_B, [0.5] * 30)
        targets = segment_targets(log, 0.9, min_support=20)
        assert SEG_A not in targets and SEG_B in targets

    def test_transform_applies_before_percentile(self):
        log = records_for(SEG_A, WORKED_SCORES)
        targets = segment_targets(
            log, 0.30, min_support=1, transform=lambda s: s / 2.0
        )
        assert targets[SEG_A] == 0.35

    def test_empty_log(self):
        with pytest.raises(GuardrailError, match="engagement log is empty"):
            segment_targets([], 0.9)

    def test_invalid_p(self):
        with pytest.raises(InvalidParameter):
            segment_targets(records_for(SEG_A, WORKED_SCORES), 1.5)


class TestEncoding:
    def test_intercept_and_one_hot_blocks(self):
        encoding = FeatureEncoding.from_segments([SEG_A, SEG_B, SEG_C])
        x = encoding.encode(SEG_A)
        assert x[0] == 1.0
        # intercept + one active slot in each of the four blocks
        assert x.sum() == 5.0
        assert set(np.unique(x)) == {0.0, 1.0}

    def test_unseen_category_hits_unknown_slot(self):
        encoding = FeatureEncoding.from_segments([SEG_A, SEG_B])
        stranger = SegmentKey("ZZ", "en", Intent.GROUP_TOPIC, SourceType.UN)
        x = encoding.encode(stranger)
        # the country block starts after the intercept; its unknown slot is last
        assert x[1 + len(encoding.countries)] == 1.0
        assert x.sum() == 5.0

    def test_distinct_segments_get_distinct_vectors(self):
        encoding = FeatureEncoding.from_segments([SEG_A, SEG_B, SEG_C])
        xs = [tuple(encoding.encode(s)) for s in (SEG_A, SEG_B, SEG_C)]
        assert len(set(xs)) == 3


class TestFit:
    def test_two_segments_interpolate_exactly(self):
        model = fit({SEG_A: 0.4, SEG_B: 0.6})
        assert predict_threshold(model, SEG_A) == pytest.approx(0.4, abs=1e-6)
        assert predict_threshold(model, SEG_B) == pytest.approx(0.6, abs=1e-6)
        assert model.fit_report.mse == pytest.approx(0.0, abs=1e-12)

    def test_constant_targets_fit_via_intercept(self):
        model = fit({SEG_A: 0.55, SEG_B: 0.55, SEG_C: 0.55})
        for seg in (SEG_A, SEG_B, SEG_C):
            assert predict_threshold(model, seg) == pytest.approx(0.55, abs=1e-9)
        assert model.fit_report.mse == pytest.approx(0.0, abs=1e-12)

    def test_planted_coefficients_recovered_in_prediction(self):
        rng = np.random.default_rng(17)
        countries = ["US", "GB", "BR", "MX", "CA"]
        languages = ["en", "es", "pt"]
        intents = list(Intent)
        segments = list(
            {
                SegmentKey(
                    str(rng.choice(countries)),
                    str(rng.choice(languages)),
                    intents[int(rng.integers(len(intents)))],
                    SourceType.UN if rng.random() < 0.5 else SourceType.CN,
                )
                for _ in range(80)
            }
        )[:50]
        encoding = FeatureEncoding.from_segments(segments)
        beta_star = rng.uniform(-1, 1, size=encoding.length)
        targets = {
            seg: float(encoding.encode(seg) @ beta_star) for seg in segments
        }
        model = fit(targets)
        for seg in segments:
            planted = float(encoding.encode(seg) @ beta_star)
            fitted = float(model.encoding.encode(seg) @ model.beta)
            assert abs(fitted - planted) <= 1e-6

    def test_reported_mse_matches_recomputation(self):
        rng = np.random.default_rng(5)
        segments = [SEG_A, SEG_B, SEG_C]
        targets = {seg: float(rng.uniform(0.2, 0.8)) for seg in segments}
        model = fit(targets)
        residuals = [
            float(model.encoding.encode(s) @ model.beta) - targets[s]
            for s in sorted(segments, key=SegmentKey.sort_key)
        ]
        assert model.fit_report.mse == pytest.approx(
            float(np.mean(np.square(residuals))), abs=1e-12
        )
        assert model.fit_report.max_residual == pytest.approx(
            float(np.max(np.abs(residuals))), abs=1e-12
        )

    def test_first_order_optimality(self):
        rng = np.random.default_rng(11)
        segments = [SEG_A, SEG_B, SEG_C]
        targets = {seg: float(rng.uniform(0.2, 0.8)) for seg in segments}
        model = fit(targets)
        ordered = sorted(segments, key=SegmentKey.sort_key)
        X = np.vstack([model.encoding.encode(s) for s in ordered])
        y = np.array([targets[s] for s in ordered])
        base_mse = float(np.mean((X @ model.beta - y) ** 2))
        for j in range(len(model.beta)):
            for step in (1e-3, -1e-3):
                beta = model.beta.copy()
                beta[j] += step
                perturbed = float(np.mean((X @ beta - y) ** 2))
                assert perturbed >= base_mse - 1e-9

    def test_single_segment_is_degenerate(self):
        with pytest.raises(GuardrailError, match="got 1"):
            fit({SEG_A: 0.5})


class TestPredict:
    def test_unseen_segment_prediction_is_finite_and_clamped(self):
        model = fit({SEG_A: 0.4, SEG_B: 0.6})
        stranger = SegmentKey("ZZ", "xx", Intent.OTHER, SourceType.CN)
        value = predict_threshold(model, stranger)
        assert 0.0 <= value <= 1.0

    def test_clamping_to_unit_interval(self):
        model = fit({SEG_A: 0.4, SEG_B: 0.6})
        object.__setattr__(model, "beta", model.beta * 50.0)
        assert predict_threshold(model, SEG_B) == 1.0

    def test_prediction_is_plain_dot_product(self):
        model = fit({SEG_A: 0.3, SEG_B: 0.5, SEG_C: 0.7})
        for seg in (SEG_A, SEG_B, SEG_C):
            manual = float(model.encoding.encode(seg) @ model.beta)
            assert abs(predict_threshold(model, seg) - min(1.0, max(0.0, manual))) <= 1e-12


class TestModelPersistence:
    def test_round_trip(self, tmp_path):
        model = fit({SEG_A: 0.4, SEG_B: 0.6, SEG_C: 0.5}, p=0.9)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.p == model.p
        assert loaded.encoding == model.encoding
        np.testing.assert_allclose(loaded.beta, model.beta)
        for seg in (SEG_A, SEG_B, SEG_C):
            assert predict_threshold(loaded, seg) == predict_threshold(model, seg)
