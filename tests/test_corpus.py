"""Record validation and JSONL round-trips for the corpus file formats."""

import json

import pytest

from ebrguard import (
    EngagementRecord,
    Intent,
    SegmentKey,
    SourceType,
    TriggerAction,
    TriggerRule,
    load_corpus,
    load_engagement_log,
    load_judgments,
    load_labels,
    load_queries,
    load_rules,
    save_corpus,
    save_engagement_log,
    save_judgments,
    save_queries,
)
from ebrguard.corpus import Document, FailureCategory, Query, RelevanceJudgment
from ebrguard.errors import MalformedRecord
from ebrguard.integrity import IntegrityLabel, LabelReason, Severity


def make_doc(doc_id="d1", **overrides):
    base = dict(
        doc_id=doc_id,
        title="austin hiking club",
        description="a hiking gathering",
        language="en",
        country="US",
        region="south",
        topic="hiking",
        source_type=SourceType.UN,
    )
    base.update(overrides)
    return Document(**base)


SEGMENT = SegmentKey("US", "en", Intent.GROUP_TOPIC, SourceType.UN)


class TestRecordValidation:
    def test_doc_id_must_be_nonempty(self):
        with pytest.raises(ValueError):
            make_doc(doc_id="")

    def test_engagement_score_range(self):
        with pytest.raises(ValueError):
            EngagementRecord("q1", "d1", 1.5, True, SEGMENT)

    def test_grade_zero_may_carry_category(self):
        RelevanceJudgment("q1", "d1", 0, FailureCategory.OFFENSIVE)
        RelevanceJudgment("q1", "d1", 0, None)

    def test_positive_grade_rejects_category(self):
        with pytest.raises(ValueError):
            RelevanceJudgment("q1", "d1", 2, FailureCategory.OFFENSIVE)


class TestLoadCorpus:
    def test_empty_file_gives_empty_list(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("")
        assert load_corpus(path) == []

    def test_two_lines_in_order(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        save_corpus([make_doc("a"), make_doc("b")], path)
        docs = load_corpus(path)
        assert [d.doc_id for d in docs] == ["a", "b"]

    def test_duplicate_doc_id_is_an_error(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        save_corpus([make_doc("g1"), make_doc("g2"), make_doc("g1")], path)
        with pytest.raises(MalformedRecord) as err:
            load_corpus(path)
        assert err.value.line_no is None
        assert str(err.value) == f"{path}: doc_id 'g1' is on more than one line"

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            load_corpus(tmp_path / "nope.jsonl")

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps(make_doc("a").to_dict()) + "\n{broken\n")
        with pytest.raises(MalformedRecord) as err:
            load_corpus(path)
        assert err.value.line_no == 2

    def test_schema_violation_reports_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"doc_id": "x"}\n')
        with pytest.raises(MalformedRecord) as err:
            load_corpus(path)
        assert err.value.line_no == 1


# One valid record per loader; the malformed-line tests put a bad line after it.
VALID_LINE = {
    load_corpus: make_doc("a").to_dict(),
    load_queries: Query("q1", "hiking club", "en", "US", "south", Intent.GROUP_TOPIC).to_dict(),
    load_judgments: RelevanceJudgment("q1", "d1", 3).to_dict(),
    load_engagement_log: EngagementRecord("q1", "d1", 0.8, True, SEGMENT).to_dict(),
    load_labels: IntegrityLabel("d1", Severity.REMOVABLE, LabelReason.OTHER).to_dict(),
    load_rules: TriggerRule(Intent.PERSON_NAME, SourceType.UN, TriggerAction.DISABLE).to_dict(),
}


class TestMalformedLines:
    """Every JSONL loader rejects a bad line with MalformedRecord naming that line."""

    @pytest.mark.parametrize("loader", list(VALID_LINE), ids=lambda f: f.__name__)
    @pytest.mark.parametrize(
        "bad_line",
        ["{broken", "[1, 2]", '{"unrelated": 1}'],
        ids=["broken-json", "json-list", "missing-key"],
    )
    def test_bad_line_reports_path_and_line(self, tmp_path, loader, bad_line):
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(VALID_LINE[loader]) + "\n\n" + bad_line + "\n")
        with pytest.raises(MalformedRecord) as err:
            loader(path)
        assert err.value.path == str(path)
        assert err.value.line_no == 3


class TestRoundTrips:
    def test_corpus_round_trip(self, tmp_path):
        docs = [make_doc("a"), make_doc("b", language="pt", source_type=SourceType.CN)]
        path = tmp_path / "c.jsonl"
        save_corpus(docs, path)
        assert load_corpus(path) == docs

    def test_queries_round_trip_and_duplicates(self, tmp_path):
        queries = [
            Query("q1", "hiking club", "en", "US", "south", Intent.GROUP_TOPIC),
            Query("q2", "maria alvarez", "en", "US", "south", Intent.PERSON_NAME),
        ]
        path = tmp_path / "q.jsonl"
        save_queries(queries, path)
        assert load_queries(path) == queries
        save_queries([queries[0], queries[0]], path)
        with pytest.raises(MalformedRecord, match="'q1'"):
            load_queries(path)

    def test_judgments_round_trip(self, tmp_path):
        judgments = [
            RelevanceJudgment("q1", "d1", 3),
            RelevanceJudgment("q1", "d2", 0, FailureCategory.LOCATION_MISMATCH),
        ]
        path = tmp_path / "j.jsonl"
        save_judgments(judgments, path)
        assert load_judgments(path) == judgments

    def test_judgments_grading_a_pair_twice_is_an_error(self, tmp_path):
        path = tmp_path / "j.jsonl"
        save_judgments(
            [RelevanceJudgment("q1", "d1", 3), RelevanceJudgment("q1", "d2", 1),
             RelevanceJudgment("q1", "d1", 0)],
            path,
        )
        with pytest.raises(MalformedRecord) as err:
            load_judgments(path)
        assert err.value.line_no is None
        assert str(err.value) == (
            f"{path}: (query_id, doc_id) ('q1', 'd1') is on more than one line"
        )

    def test_engagement_round_trip(self, tmp_path):
        records = [
            EngagementRecord("q1", "d1", 0.8, True, SEGMENT),
            EngagementRecord("q1", "d2", -0.1, False, SEGMENT),
        ]
        path = tmp_path / "e.jsonl"
        save_engagement_log(records, path)
        assert load_engagement_log(path) == records

    def test_field_names_are_snake_case_on_disk(self, tmp_path):
        path = tmp_path / "c.jsonl"
        save_corpus([make_doc("a")], path)
        raw = json.loads(path.read_text().splitlines()[0])
        assert set(raw) == {
            "doc_id",
            "title",
            "description",
            "language",
            "country",
            "region",
            "topic",
            "source_type",
        }
