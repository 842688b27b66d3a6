"""Percentile targets and the least-squares threshold model."""

import itertools
import json
import re
from dataclasses import replace
from functools import partial
from pathlib import Path

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
from ebrguard.pipeline import SigmoidParams, sigmoid_transform
from ebrguard.synth import SyntheticSpec, generate_synthetic
from ebrguard.thresholds import FEATURES, ThresholdModel, percentile_threshold

SEG_A = SegmentKey("US", "en", Intent.GROUP_TOPIC, SourceType.UN)
SEG_B = SegmentKey("GB", "en", Intent.GROUP_TOPIC, SourceType.CN)
SEG_C = SegmentKey("BR", "pt", Intent.PERSON_NAME, SourceType.UN)
SEG_D = SegmentKey("GB", "en", Intent.PERSON_NAME, SourceType.UN)

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


class TestUnseenValues:
    def test_coefficients_cover_exactly_the_seen_values(self):
        model = fit({SEG_A: 0.3, SEG_C: 0.5, SEG_D: 0.7})
        assert model.coefficients.keys() == set(FEATURES)
        assert model.coefficients["user_country"].keys() == {"BR", "GB", "US"}
        assert model.coefficients["language"].keys() == {"en", "pt"}
        assert model.coefficients["query_intent"].keys() == {"GroupTopic", "PersonName"}
        assert model.coefficients["doc_source_type"].keys() == {"UN"}

    def test_unseen_value_contributes_exactly_zero(self):
        model = fit({SEG_A: 0.3, SEG_C: 0.5, SEG_D: 0.7})
        unseen = ("ZZ", "xx", Intent.OTHER.value, SourceType.CN.value)
        for i in range(len(FEATURES)):
            values = list(SEG_A.sort_key())
            values[i] = unseen[i]
            stranger = SegmentKey(values[0], values[1], Intent(values[2]), SourceType(values[3]))
            seen_sum = model.intercept
            for j, (name, v) in enumerate(zip(FEATURES, values)):
                if j != i:
                    seen_sum += model.coefficients[name][v]
            assert predict_threshold(model, stranger) == min(1.0, max(0.0, seen_sum))
        all_unseen = SegmentKey(unseen[0], unseen[1], Intent.OTHER, SourceType.CN)
        assert predict_threshold(model, all_unseen) == min(1.0, max(0.0, model.intercept))


def linear_part(model, segment):
    """The model's prediction for a fitted segment before clamping."""
    return model.intercept + sum(
        model.coefficients[name][value] for name, value in zip(FEATURES, segment.sort_key())
    )


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
        planted_intercept = float(rng.uniform(-1, 1))
        planted = {}
        for i, name in enumerate(FEATURES):
            values = sorted({s.sort_key()[i] for s in segments})
            planted[name] = {v: float(rng.uniform(-1, 1)) for v in values}
        targets = {
            seg: planted_intercept
            + sum(planted[name][v] for name, v in zip(FEATURES, seg.sort_key()))
            for seg in segments
        }
        model = fit(targets)
        for seg in segments:
            assert abs(linear_part(model, seg) - targets[seg]) <= 1e-6

    def test_reported_mse_matches_recomputation(self):
        rng = np.random.default_rng(5)
        segments = [SEG_A, SEG_B, SEG_C]
        targets = {seg: float(rng.uniform(0.2, 0.8)) for seg in segments}
        model = fit(targets)
        residuals = [linear_part(model, s) - targets[s] for s in segments]
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

        def mse(m):
            return float(np.mean([(linear_part(m, s) - targets[s]) ** 2 for s in segments]))

        base_mse = mse(model)
        for step in (1e-3, -1e-3):
            assert mse(replace(model, intercept=model.intercept + step)) >= base_mse - 1e-9
            for name, coefs in model.coefficients.items():
                for value in coefs:
                    shifted = {**coefs, value: coefs[value] + step}
                    perturbed = replace(model, coefficients={**model.coefficients, name: shifted})
                    assert mse(perturbed) >= base_mse - 1e-9

    def test_single_segment_is_degenerate(self):
        with pytest.raises(GuardrailError, match="got 1"):
            fit({SEG_A: 0.5})


@pytest.fixture(scope="module")
def seed7_targets():
    """Targets of the seed-7 10k-doc, 1k-query log at p=0.9 in the a=6, b=-3
    sigmoid space: 6 segments whose design matrix has rank 6."""
    data = generate_synthetic(SyntheticSpec(seed=7, n_docs=10_000, n_queries=1_000))
    transform = partial(sigmoid_transform, params=SigmoidParams(a=6.0, b=-3.0))
    return segment_targets(data.engagement_log, 0.9, transform=transform)


def one_hot(model, values):
    """The intercept-plus-one-hot row of values over the model's (feature, seen value) columns."""
    present = set(zip(FEATURES, values))
    return [1.0] + [
        1.0 if (name, v) in present else 0.0 for name in FEATURES for v in model.coefficients[name]
    ]


class TestMinimumNorm:
    def test_fitted_segments_are_cut_at_their_own_target(self, seed7_targets):
        model = fit(seed7_targets, p=0.9)
        X = np.array([one_hot(model, s.sort_key()) for s in seed7_targets])
        assert len(seed7_targets) == 6 and np.linalg.matrix_rank(X) == 6
        for seg, target in seed7_targets.items():
            assert abs(linear_part(model, seg) - target) <= 1e-12
        assert model.fit_report.max_residual <= 1e-12

    def test_every_seen_combination_matches_the_pseudo_inverse(self, seed7_targets):
        model = fit(seed7_targets, p=0.9)
        segments = list(seed7_targets)
        X = np.array([one_hot(model, s.sort_key()) for s in segments])
        beta = np.linalg.pinv(X) @ np.array([seed7_targets[s] for s in segments])
        for values in itertools.product(*(model.coefficients[name] for name in FEATURES)):
            manual = float(np.array(one_hot(model, values)) @ beta)
            raw = model.intercept + sum(
                model.coefficients[name][v] for name, v in zip(FEATURES, values)
            )
            assert abs(raw - manual) <= 1e-12


class TestPredict:
    def test_unseen_segment_prediction_is_finite_and_clamped(self):
        model = fit({SEG_A: 0.4, SEG_B: 0.6})
        stranger = SegmentKey("ZZ", "xx", Intent.OTHER, SourceType.CN)
        value = predict_threshold(model, stranger)
        assert 0.0 <= value <= 1.0

    def test_clamping_to_unit_interval(self):
        model = fit({SEG_A: 0.4, SEG_B: 0.6})
        scaled = replace(
            model,
            intercept=model.intercept * 50.0,
            coefficients={
                name: {v: c * 50.0 for v, c in coefs.items()}
                for name, coefs in model.coefficients.items()
            },
        )
        assert predict_threshold(scaled, SEG_B) == 1.0

    def test_prediction_is_plain_dot_product(self):
        """The prediction equals the dot product of the intercept-plus-one-hot
        vector over every (feature, seen value) with the model's parameters."""
        model = fit({SEG_A: 0.3, SEG_B: 0.5, SEG_C: 0.7})
        columns = [(name, v) for name, coefs in model.coefficients.items() for v in coefs]
        params = np.array([model.intercept] + [model.coefficients[n][v] for n, v in columns])
        for seg in (SEG_A, SEG_B, SEG_C):
            features = set(zip(FEATURES, seg.sort_key()))
            x = np.array([1.0] + [1.0 if c in features else 0.0 for c in columns])
            manual = float(x @ params)
            assert abs(predict_threshold(model, seg) - min(1.0, max(0.0, manual))) <= 1e-12


class TestModelPersistence:
    def test_round_trip(self, tmp_path):
        model = fit({SEG_A: 0.4, SEG_B: 0.6, SEG_C: 0.5}, p=0.9)
        path = tmp_path / "model.json"
        save_model(model, path)
        assert load_model(path) == model

    def test_formats_doc_example_parses(self):
        doc = (Path(__file__).resolve().parents[1] / "docs" / "formats.md").read_text()
        example = re.search(r"## model\.json\n.*?```json\n(.*?)```", doc, re.S).group(1)
        model = ThresholdModel.from_dict(json.loads(example))
        assert model.coefficients.keys() == set(FEATURES)
        assert 0.0 <= predict_threshold(model, SEG_A) <= 1.0

    def test_unknown_feature_is_rejected(self):
        payload = fit({SEG_A: 0.4, SEG_B: 0.6}).to_dict()
        payload["coefficients"]["country"] = {"US": 0.1}
        with pytest.raises(ValueError, match="unknown feature 'country'"):
            ThresholdModel.from_dict(payload)


class TestModelChecks:
    """A model built in memory is checked as one read from model.json is."""

    def test_p_outside_unit_interval_is_rejected(self):
        model = fit({SEG_A: 0.4, SEG_B: 0.6})
        with pytest.raises(ValueError, match=re.escape("p must be in (0, 1], got 2.0")):
            ThresholdModel(model.intercept, model.coefficients, p=2.0, fit_report=model.fit_report)

    def test_fifth_feature_is_rejected(self):
        model = fit({SEG_A: 0.4, SEG_B: 0.6})
        coefficients = {**model.coefficients, "country": {"US": 0.1}}
        with pytest.raises(ValueError, match="unknown feature 'country'"):
            ThresholdModel(model.intercept, coefficients, model.p, model.fit_report)
