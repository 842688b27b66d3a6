"""The typed field readers shared by every file format, and Record's one read rule."""

import math
import re
from dataclasses import dataclass, fields, replace

import pytest

from ebrguard.corpus import FailureCategory, Intent, Query, RelevanceJudgment, SourceType
from ebrguard.errors import MalformedRecord
from ebrguard.integrity import IntegrityLabel, LabelReason, Severity
from ebrguard.jsonl import Record, json_number, read_lines
from ebrguard.pipeline import SearchResult
from ebrguard.triggers import TriggerAction, TriggerRule
from ebrguard.vector_index import CandidateSource
from tests.test_corpus import SEGMENT, make_doc


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_json_number_rejects_non_finite_values(value):
    with pytest.raises(TypeError, match="is not a finite number"):
        json_number(value, "x")


RULE = TriggerRule(Intent.PERSON_NAME, SourceType.UN, TriggerAction.DISABLE, note="n")
# Every enum field of every record, with a record that has it.
ENUM_FIELDS = [
    (make_doc(), "source_type"),
    (Query("q1", "hiking", "en", "US", "south", Intent.OTHER), "intent"),
    (SEGMENT, "query_intent"),
    (SEGMENT, "doc_source_type"),
    (RelevanceJudgment("q1", "d1", 0, FailureCategory.OFFENSIVE), "failure_category"),
    (IntegrityLabel("d1", Severity.REMOVABLE, LabelReason.OTHER), "severity"),
    (IntegrityLabel("d1", Severity.REMOVABLE, LabelReason.OTHER), "reason"),
    (RULE, "intent"),
    (RULE, "source_type"),
    (RULE, "action"),
    (SearchResult("d1", 0.5, CandidateSource.EBR), "source"),
]


@pytest.mark.parametrize(("record", "field"), ENUM_FIELDS)
def test_every_enum_field_reads_only_a_string_naming_a_value(record, field):
    d = record.to_dict()
    assert type(record).from_dict(d) == record
    for bad in (5, ["x"], True):
        with pytest.raises(TypeError, match=f"{field} .* is not a string"):
            type(record).from_dict({**d, field: bad})
    with pytest.raises(ValueError, match=f"{field} 'Nope' is not a valid"):
        type(record).from_dict({**d, field: "Nope"})


def test_optional_fields_may_be_null_or_absent_and_required_ones_may_not():
    d = RULE.to_dict()
    plain = TriggerRule(RULE.intent, RULE.source_type, RULE.action)
    for note in ({"note": None}, {}):
        rest = {k: v for k, v in d.items() if k != "note"}
        assert TriggerRule.from_dict({**rest, **note}) == plain
    assert "note" not in plain.to_dict()
    with pytest.raises(TypeError, match="action None is not a string"):
        TriggerRule.from_dict({**d, "action": None})
    with pytest.raises(KeyError, match="action"):
        TriggerRule.from_dict({k: v for k, v in d.items() if k != "action"})
    assert TriggerRule.from_dict({**d, "extra": [1]}) == RULE


@dataclass(frozen=True)
class Keyed(Record):
    by_count: dict[int, float]
    by_source: dict[SourceType, float]
    nested: dict[str, dict[str, float]]


KEYED = {"by_count": {"1": 0.5, "10": 2}, "by_source": {"CN": 0.25}, "nested": {"a": {"b": 1.0}}}


def test_dict_fields_convert_their_keys_and_read_every_entry():
    assert Keyed.from_dict(KEYED) == Keyed(
        {1: 0.5, 10: 2.0}, {SourceType.CN: 0.25}, {"a": {"b": 1.0}}
    )
    assert Keyed.from_dict({**KEYED, "nested": {}}).nested == {}


def test_dict_fields_reject_a_bad_key_or_value_naming_the_entry():
    message = "by_source['XN'] key is not a valid SourceType"
    with pytest.raises(ValueError, match=re.escape(message)):
        Keyed.from_dict({**KEYED, "by_source": {"CN": 0.25, "XN": 0.5}})
    with pytest.raises(ValueError, match=re.escape("by_count['one'] key is not an integer")):
        Keyed.from_dict({**KEYED, "by_count": {"one": 0.5}})
    with pytest.raises(TypeError, match=re.escape("by_count [0.5] is not an object")):
        Keyed.from_dict({**KEYED, "by_count": [0.5]})
    with pytest.raises(TypeError, match=re.escape("nested['a'] [1.0] is not an object")):
        Keyed.from_dict({**KEYED, "nested": {"a": [1.0]}})
    with pytest.raises(TypeError, match=re.escape("by_source['CN'] '0.25' is not a number")):
        Keyed.from_dict({**KEYED, "by_source": {"CN": "0.25"}})
    for value in (math.nan, math.inf):
        message = f"nested['a']['b'] {value!r} is not a finite number"
        with pytest.raises(TypeError, match=re.escape(message)):
            Keyed.from_dict({**KEYED, "nested": {"a": {"b": value}}})


@pytest.mark.parametrize("key", ["1_0", " 1", "1 ", "01", "+1", "-0", "1.0", "\u0661", ""])
def test_int_keys_are_only_what_str_writes(key):
    """int() takes every one of these keys; none of them is str(k) of an int k,
    so reading them would merge or rename entries."""
    with pytest.raises(ValueError, match=re.escape(f"by_count[{key!r}] key is not an integer")):
        Keyed.from_dict({**KEYED, "by_count": {"1": 0.5, key: 0.7}})


def test_negative_and_zero_int_keys_read():
    read = Keyed.from_dict({**KEYED, "by_count": {"-3": 1.0, "0": 2.0}})
    assert read.by_count == {-3: 1.0, 0: 2.0}


@dataclass(frozen=True)
class Inner(Record):
    name: str
    source: SourceType


@dataclass(frozen=True)
class Written(Record):
    count: int
    source: SourceType
    inner: Inner
    items: tuple[Inner, ...]
    tags: tuple[str, ...]
    by_count: dict[int, float]
    by_source: dict[SourceType, dict[str, bool]]
    note: str | None = None


WRITTEN = Written(
    count=3,
    source=SourceType.UN,
    inner=Inner("a", SourceType.CN),
    items=(Inner("b", SourceType.UN), Inner("c", SourceType.CN)),
    tags=("x", "y"),
    by_count={10: 0.5, 1: 0.25},
    by_source={SourceType.UN: {"k": True}},
)


def test_to_dict_writes_fields_in_field_order_by_their_annotations():
    d = WRITTEN.to_dict()
    assert d == {
        "count": 3,
        "source": "UN",
        "inner": {"name": "a", "source": "CN"},
        "items": [{"name": "b", "source": "UN"}, {"name": "c", "source": "CN"}],
        "tags": ["x", "y"],
        "by_count": {"10": 0.5, "1": 0.25},
        "by_source": {"UN": {"k": True}},
    }
    assert list(d) == [f.name for f in fields(Written) if f.name != "note"]
    assert list(d["by_count"]) == ["10", "1"]
    assert type(d["source"]) is str and type(next(iter(d["by_source"]))) is str
    assert Written.from_dict(d) == WRITTEN


def test_to_dict_leaves_out_an_optional_field_that_is_none():
    assert "note" not in WRITTEN.to_dict()
    noted = replace(WRITTEN, note="n")
    assert list(noted.to_dict())[-1] == "note"
    assert Written.from_dict(noted.to_dict()) == noted


def test_errors_in_nested_records_and_list_items_name_their_path():
    d = WRITTEN.to_dict()
    with pytest.raises(ValueError, match=re.escape("inner.source 'XN' is not a valid SourceType")):
        Written.from_dict({**d, "inner": {"name": "a", "source": "XN"}})
    with pytest.raises(KeyError, match=re.escape("inner.name")):
        Written.from_dict({**d, "inner": {"source": "CN"}})
    items = [d["items"][0], {"name": 7, "source": "CN"}]
    with pytest.raises(TypeError, match=re.escape("items[1].name 7 is not a string")):
        Written.from_dict({**d, "items": items})
    with pytest.raises(TypeError, match=re.escape("tags[1] 2 is not a string")):
        Written.from_dict({**d, "tags": ["x", 2]})
    with pytest.raises(TypeError, match=re.escape("items[0] 'b' is not an object")):
        Written.from_dict({**d, "items": ["b"]})


def test_read_lines_splits_on_every_newline_and_names_an_undecodable_line(tmp_path):
    path = tmp_path / "lines.txt"
    path.write_bytes("a\r\nb\rc\n\né\n".encode())
    assert read_lines(path, str) == ["a", "b", "c", "é"]
    path.write_bytes(b"a\r\nb\xe9\n")
    with pytest.raises(MalformedRecord, match=re.escape(f"{path}:2: invalid UTF-8: byte 0xe9")):
        read_lines(path, str)
