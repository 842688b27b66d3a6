"""Trigger rule evaluation and the per-segment diagnostic report."""

import pytest

from ebrguard import (
    DEFAULT_RULES,
    EngagementRecord,
    Intent,
    RuleSet,
    SegmentKey,
    SourceType,
    TriggerAction,
    TriggerRule,
    diagnose_segment,
    load_rules,
    save_rules,
    segment_targets,
)
from ebrguard.errors import GuardrailError, MalformedRecord
from ebrguard.jsonl import write_jsonl

SEG = SegmentKey("US", "en", Intent.PERSON_NAME, SourceType.UN)


class TestEvaluateRules:
    def test_default_rules_disable_person_name_un(self):
        assert (
            DEFAULT_RULES.evaluate(Intent.PERSON_NAME, SourceType.UN)
            is TriggerAction.DISABLE
        )

    def test_default_rules_disable_connected_celebrity(self):
        assert (
            DEFAULT_RULES.evaluate(Intent.CELEBRITY_CONNECTED, SourceType.CN)
            is TriggerAction.DISABLE
        )

    def test_no_rule_defaults_to_enable(self):
        assert (
            DEFAULT_RULES.evaluate(Intent.GROUP_TOPIC, SourceType.CN)
            is TriggerAction.ENABLE
        )

    def test_country_scoped_rule_beats_general(self):
        rules = RuleSet(
            [
                TriggerRule(Intent.GROUP_TOPIC, SourceType.UN, TriggerAction.ENABLE),
                TriggerRule(
                    Intent.GROUP_TOPIC,
                    SourceType.UN,
                    TriggerAction.DISABLE,
                    country="US",
                ),
            ]
        )
        assert rules.evaluate(Intent.GROUP_TOPIC, SourceType.UN, "US") is TriggerAction.DISABLE
        assert rules.evaluate(Intent.GROUP_TOPIC, SourceType.UN, "GB") is TriggerAction.ENABLE
        assert rules.evaluate(Intent.GROUP_TOPIC, SourceType.UN) is TriggerAction.ENABLE

    def test_duplicate_rule_rejected(self):
        rule = TriggerRule(Intent.PERSON_NAME, SourceType.UN, TriggerAction.DISABLE)
        with pytest.raises(GuardrailError, match="intent=PersonName, source_type=UN"):
            RuleSet([rule, rule])

    def test_rules_file_round_trip(self, tmp_path):
        rules = RuleSet(
            [
                TriggerRule(
                    Intent.PERSON_NAME, SourceType.UN, TriggerAction.DISABLE, note="x"
                ),
                TriggerRule(
                    Intent.GROUP_TOPIC,
                    SourceType.CN,
                    TriggerAction.DISABLE,
                    country="GB",
                ),
            ]
        )
        path = tmp_path / "rules.jsonl"
        save_rules(rules, path)
        loaded = load_rules(path)
        assert {r for r in loaded.rules()} == {r for r in rules.rules()}

    def test_rules_file_with_a_repeated_slot_names_the_file(self, tmp_path):
        rule = TriggerRule(Intent.PERSON_NAME, SourceType.UN, TriggerAction.DISABLE)
        path = tmp_path / "rules.jsonl"
        write_jsonl(path, [rule.to_dict(), rule.to_dict()])
        with pytest.raises(MalformedRecord) as err:
            load_rules(path)
        assert str(err.value) == (
            f"{path}: rule for (intent, source_type, country) ('PersonName', 'UN', None) "
            "is on more than one line"
        )


def make_log(scores, engaged=True, segment=SEG):
    return [
        EngagementRecord(f"q{i}", f"d{i}", s, engaged, segment)
        for i, s in enumerate(scores)
    ]


class TestDiagnoseSegment:
    def test_zero_engaged_reports_empty_quantiles(self):
        log = make_log([0.5, 0.6], engaged=False)
        report = diagnose_segment(log, SEG, [0.9])
        assert report.engaged_count == 0
        assert report.engaged_rate == 0.0
        assert report.score_quantiles == {}
        assert report.thresholds == {}

    def test_low_scores_surface_as_evidence_for_disabling(self):
        log = make_log([0.05, 0.1, 0.15, 0.2, 0.25])
        report = diagnose_segment(log, SEG, [0.9])
        assert report.thresholds[0.9] < 0.3

    def test_p_one_gives_min_engaged_score(self):
        log = make_log([0.4, 0.2, 0.9])
        report = diagnose_segment(log, SEG, [1.0])
        assert report.thresholds[1.0] == 0.2

    def test_agrees_with_segment_targets(self):
        log = make_log([0.2, 0.3, 0.35, 0.4, 0.5, 0.6, 0.65, 0.7, 0.85, 1.0])
        other = make_log([0.5] * 25, segment=SegmentKey("GB", "en", Intent.GROUP_TOPIC, SourceType.CN))
        for p in (0.3, 0.5, 0.9, 1.0):
            report = diagnose_segment(log + other, SEG, [p])
            targets = segment_targets(log + other, p, min_support=1)
            assert report.thresholds[p] == targets[SEG]

    def test_engaged_rate_counts_segment_records_only(self):
        log = make_log([0.5, 0.7]) + make_log([0.1, 0.2, 0.3], engaged=False)
        other_seg = SegmentKey("GB", "en", Intent.GROUP_TOPIC, SourceType.CN)
        log += make_log([0.9] * 5, segment=other_seg)
        report = diagnose_segment(log, SEG, [])
        assert report.engaged_count == 2
        assert report.engaged_rate == pytest.approx(2 / 5)
