"""Trigger rule evaluation and the rules.jsonl round trip."""

import pytest

from ebrguard import (
    DEFAULT_RULES,
    Intent,
    RuleSet,
    SourceType,
    TriggerAction,
    TriggerRule,
    load_rules,
    save_rules,
)
from ebrguard.errors import GuardrailError, MalformedRecord
from ebrguard.jsonl import write_jsonl


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

