"""End-to-end CLI workflows: every subcommand, exit codes, determinism."""

import json

import pytest

from ebrguard import (
    DEFAULT_RULES,
    RetrievalConfig,
    SigmoidParams,
    apply_index_removal,
    build_index,
    build_text_index,
    embed_corpus,
    labels_from_judgments,
    load_corpus,
    load_engagement_log,
    load_judgments,
    load_model,
    load_queries,
    retrieve,
    save_engagement_log,
    save_labels,
)
from ebrguard.cli import main
from ebrguard.jsonl import write_jsonl


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One generated dataset and its index/embeddings.tsv, shared by the workflow tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    code = main(
        ["gen-data", "--seed", "7", "--n-docs", "240", "--n-queries", "30", "--out", str(data)]
    )
    assert code == 0
    code = main(
        ["build-index", "--corpus", str(data / "corpus.jsonl"), "--out", str(root / "index")]
    )
    assert code == 0
    return root


def search_inputs(workdir):
    """The input flags every `search` call in these tests passes."""
    data = workdir / "data"
    return [
        "--queries", str(data / "queries.jsonl"), "--corpus", str(data / "corpus.jsonl"),
        "--embeddings", str(workdir / "index" / "embeddings.tsv"),
    ]


def fitted_model(capsys, workdir, tmp_path):
    """A model.json fitted from the shared engagement log, and its parsed payload."""
    model_path = tmp_path / "model.json"
    code, _, _ = run(
        capsys, "fit-thresholds", "--log", str(workdir / "data" / "engagement.jsonl"),
        "--min-support", "5", "--out", str(model_path),
    )
    assert code == 0
    return model_path, json.loads(model_path.read_text())


def field_at(payload, where):
    """The object holding the last key of path where in nested JSON payload, and that key."""
    *outer, field = where
    for key in outer:
        payload = payload[key]
    return payload, field


class TestGenData:
    def test_writes_all_four_files(self, workdir):
        data = workdir / "data"
        for name in ("corpus.jsonl", "queries.jsonl", "judgments.jsonl", "engagement.jsonl"):
            assert (data / name).exists()

    def test_same_seed_twice_is_byte_identical(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            code, _, _ = run(
                capsys, "gen-data", "--seed", "11", "--n-docs", "60",
                "--n-queries", "8", "--out", str(out),
            )
            assert code == 0
        for name in ("corpus.jsonl", "queries.jsonl", "judgments.jsonl", "engagement.jsonl"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_invalid_spec_exits_one(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "gen-data", "--n-docs", "10", "--n-queries", "50",
            "--out", str(tmp_path / "x"),
        )
        assert code == 1
        assert "error" in err


class TestBuildIndex:
    def test_writes_index_files(self, workdir, tmp_path, capsys):
        out = tmp_path / "index"
        code, _, _ = run(
            capsys, "build-index", "--corpus", str(workdir / "data" / "corpus.jsonl"),
            "--out", str(out),
        )
        assert code == 0
        assert (out / "embeddings.tsv").exists()

    def test_missing_corpus_exits_two(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "build-index", "--corpus", str(tmp_path / "nope.jsonl"),
            "--out", str(tmp_path / "idx"),
        )
        assert code == 2
        assert "i/o error" in err


class TestFitThresholds:
    def test_fits_and_persists_model(self, workdir, capsys):
        model_path = workdir / "model.json"
        code, out, _ = run(
            capsys, "fit-thresholds", "--log", str(workdir / "data" / "engagement.jsonl"),
            "--p", "0.9", "--min-support", "5", "--out", str(model_path),
        )
        assert code == 0
        assert "fit" in out
        payload = json.loads(model_path.read_text())
        assert set(payload) == {"p", "intercept", "coefficients", "fit_report"}
        assert list(payload["coefficients"]) == [
            "user_country", "language", "query_intent", "doc_source_type"
        ]
        assert payload["p"] == 0.9

    def test_invalid_p_exits_one(self, workdir, capsys):
        code, _, err = run(
            capsys, "fit-thresholds", "--log", str(workdir / "data" / "engagement.jsonl"),
            "--p", "1.5", "--out", str(workdir / "bad.json"),
        )
        assert code == 1
        assert "p must be in (0, 1]" in err

    def test_log_with_legacy_action_key_fits_the_same_model(self, workdir, tmp_path, capsys):
        """Engagement lines that still carry the "action" key earlier versions
        wrote load as the same records and fit a byte-identical model.json."""
        records = load_engagement_log(workdir / "data" / "engagement.jsonl")
        current = tmp_path / "current.jsonl"
        save_engagement_log(records, current)
        legacy = tmp_path / "legacy.jsonl"
        with legacy.open("w", encoding="utf-8") as fh:
            for rec in records:
                d = rec.to_dict()
                segment = d.pop("segment")
                un = segment["doc_source_type"] == "UN"
                d["action"] = ("Join" if un else "Click") if rec.engaged else "None"
                d["segment"] = segment
                fh.write(json.dumps(d, ensure_ascii=False) + "\n")
        assert load_engagement_log(legacy) == records
        models = []
        for log in (current, legacy):
            model_path = tmp_path / f"{log.stem}-model.json"
            code, _, _ = run(
                capsys, "fit-thresholds", "--log", str(log), "--min-support", "5",
                "--out", str(model_path),
            )
            assert code == 0
            models.append(model_path.read_bytes())
        assert models[0] == models[1]


class TestSearchEvaluateCompare:
    def test_full_pipeline(self, workdir, tmp_path, capsys):
        data = workdir / "data"
        model_path = tmp_path / "model.json"
        code, _, _ = run(
            capsys, "fit-thresholds", "--log", str(data / "engagement.jsonl"),
            "--min-support", "5", "--out", str(model_path),
        )
        assert code == 0
        results = tmp_path / "results.jsonl"
        code, _, _ = run(
            capsys, "search", *search_inputs(workdir),
            "--model", str(model_path),
            "--k", "10", "--out", str(results),
        )
        assert code == 0
        pages = [json.loads(line) for line in results.read_text().splitlines()]
        assert len(pages) == 30

        report_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "evaluate", "--results", str(results),
            "--judgments", str(data / "judgments.jsonl"),
            "--out", str(report_path),
        )
        assert code == 0
        assert "NDCG@5" in out
        report = json.loads(report_path.read_text())
        assert report["n_sessions"] == 30

        code, out, _ = run(
            capsys, "compare", str(report_path), str(report_path),
        )
        assert code == 0
        assert "+0.000%" in out or "undefined" in out

    def test_search_is_deterministic(self, workdir, tmp_path, capsys):
        out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (out_a, out_b):
            code, _, _ = run(capsys, "search", *search_inputs(workdir), "--out", str(out))
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_search_matches_library_pages_byte_for_byte(self, workdir, tmp_path, capsys):
        """Pages from build-index's embeddings.tsv equal pages over in-memory embeddings."""
        data = workdir / "data"
        model_path, labels = tmp_path / "model.json", tmp_path / "labels.jsonl"
        sigmoid = ["--sigmoid-a", "6", "--sigmoid-b", "-3"]
        code, _, _ = run(
            capsys, "fit-thresholds", "--log", str(data / "engagement.jsonl"),
            "--min-support", "5", *sigmoid, "--out", str(model_path),
        )
        assert code == 0
        judgments = load_judgments(data / "judgments.jsonl")
        save_labels(labels_from_judgments(judgments), labels)
        cli_out = tmp_path / "cli.jsonl"
        code, _, _ = run(
            capsys, "search", *search_inputs(workdir), "--model", str(model_path),
            "--labels", str(labels), *sigmoid, "--out", str(cli_out),
        )
        assert code == 0

        corpus = load_corpus(data / "corpus.jsonl")
        store = labels_from_judgments(judgments)
        index, _ = apply_index_removal(build_index(corpus, embed_corpus(corpus)), store)
        text_index, model = build_text_index(corpus), load_model(model_path)
        config = RetrievalConfig(k=10, sigmoid=SigmoidParams(a=6.0, b=-3.0))
        lib_out = tmp_path / "lib.jsonl"
        write_jsonl(
            lib_out,
            (
                retrieve(q, index, text_index, model, DEFAULT_RULES, store, config).to_dict()
                for q in load_queries(data / "queries.jsonl")
            ),
        )
        assert cli_out.read_bytes() == lib_out.read_bytes()


class TestLabel:
    def test_appends_and_search_respects_it(self, workdir, capsys):
        data = workdir / "data"
        labels = workdir / "labels.jsonl"
        target = json.loads((data / "corpus.jsonl").read_text().splitlines()[0])["doc_id"]
        code, _, _ = run(
            capsys, "label", "--labels", str(labels), "--doc-id", target,
            "--severity", "Removable", "--reason", "Misinformation",
            "--ts", "2024-01-01T00:00:00+00:00",
        )
        assert code == 0
        rec = json.loads(labels.read_text().splitlines()[0])
        assert rec == {
            "doc_id": target,
            "severity": "Removable",
            "reason": "Misinformation",
            "ts": "2024-01-01T00:00:00+00:00",
        }

        results = workdir / "labeled_results.jsonl"
        code, _, _ = run(
            capsys, "search", *search_inputs(workdir), "--labels", str(labels),
            "--out", str(results),
        )
        assert code == 0
        for line in results.read_text().splitlines():
            page = json.loads(line)
            assert target not in {r["doc_id"] for r in page["results"]}

    def test_search_counts_labels_for_docs_not_in_the_corpus(self, workdir, tmp_path, capsys):
        target = json.loads((workdir / "data" / "corpus.jsonl").read_text().splitlines()[0])
        labels = tmp_path / "labels.jsonl"
        write_jsonl(labels, [
            {"doc_id": doc_id, "severity": "Removable", "reason": "Misinformation"}
            for doc_id in (target["doc_id"], "zzz_unknown", "zzz_unknown")
        ])
        code, out, err = run(
            capsys, "search", *search_inputs(workdir), "--labels", str(labels),
            "--out", str(tmp_path / "results.jsonl"),
        )
        assert code == 0 and err == ""
        assert "1 docs removed for integrity, 2 labels for docs not in the corpus" in out

    def test_two_labels_keep_append_order(self, tmp_path, capsys):
        labels = tmp_path / "labels.jsonl"
        for sev in ("Demotable", "Removable"):
            code, _, _ = run(
                capsys, "label", "--labels", str(labels), "--doc-id", "d1",
                "--severity", sev, "--reason", "Untrustworthy", "--ts", "t",
            )
            assert code == 0
        lines = labels.read_text().splitlines()
        assert [json.loads(l)["severity"] for l in lines] == ["Demotable", "Removable"]


class TestBadInputExitsOne:
    """Bad files and out-of-range flags end in `error: ...` and exit 1, never a traceback."""

    def test_evaluate_bad_results_line_names_file_and_line(self, workdir, tmp_path, capsys):
        results = tmp_path / "results.jsonl"
        results.write_text(
            '{"query_id": "q0000", "ebr_triggered": true, "results": []}\n[1, 2]\n'
        )
        code, _, err = run(
            capsys, "evaluate", "--results", str(results),
            "--judgments", str(workdir / "data" / "judgments.jsonl"),
            "--out", str(tmp_path / "report.json"),
        )
        assert code == 1
        assert err.startswith(f"error: {results}:2: ")

    def test_evaluate_page_listing_a_doc_twice_names_file_and_line(
        self, workdir, tmp_path, capsys
    ):
        row = {"doc_id": "a", "transformed_score": 0.5, "source": "EBR", "demoted": False}
        page = {"query_id": "q0001", "ebr_triggered": True, "results": [row, row]}
        results = tmp_path / "results.jsonl"
        results.write_text(
            '{"query_id": "q0000", "ebr_triggered": true, "results": []}\n'
            + json.dumps(page) + "\n"
        )
        code, _, err = run(
            capsys, "evaluate", "--results", str(results),
            "--judgments", str(workdir / "data" / "judgments.jsonl"),
            "--out", str(tmp_path / "report.json"),
        )
        assert code == 1
        assert err.startswith(f"error: {results}:2: ")
        assert "'a'" in err

    def test_evaluate_query_on_two_lines_names_file_and_query(self, workdir, tmp_path, capsys):
        results = tmp_path / "results.jsonl"
        line = '{"query_id": "q1", "ebr_triggered": true, "results": []}\n'
        results.write_text(line * 2)
        code, _, err = run(
            capsys, "evaluate", "--results", str(results),
            "--judgments", str(workdir / "data" / "judgments.jsonl"),
            "--out", str(tmp_path / "report.json"),
        )
        assert code == 1
        assert err.startswith(f"error: {results}: ")
        assert "'q1'" in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("grade", [2.9, True], ids=["float", "bool"])
    def test_evaluate_grade_not_an_integer_names_file_and_line(
        self, workdir, tmp_path, capsys, grade
    ):
        judgments = tmp_path / "judgments.jsonl"
        judgments.write_text(
            '{"query_id": "q0000", "doc_id": "d00000", "grade": 3}\n'
            + json.dumps({"query_id": "q0000", "doc_id": "d00001", "grade": grade}) + "\n"
        )
        results = tmp_path / "results.jsonl"
        results.write_text('{"query_id": "q0000", "ebr_triggered": true, "results": []}\n')
        code, _, err = run(
            capsys, "evaluate", "--results", str(results), "--judgments", str(judgments),
            "--out", str(tmp_path / "report.json"),
        )
        assert code == 1
        assert err.startswith(f"error: {judgments}:2: ")
        assert "grade" in err

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("raw_score", True), ("engaged", "no"), ("user_country", 5),
            ("query_id", 0), ("doc_id", 17),
        ],
        ids=["bool-score", "str-flag", "int-country", "int-query-id", "int-doc-id"],
    )
    def test_fit_thresholds_log_field_of_wrong_type_names_file_and_line(
        self, workdir, tmp_path, capsys, field, value
    ):
        lines = (workdir / "data" / "engagement.jsonl").read_text().splitlines(keepends=True)
        record = json.loads(lines[1])
        assert record["engaged"] is True
        (record["segment"] if field == "user_country" else record)[field] = value
        log = tmp_path / "engagement.jsonl"
        log.write_text(lines[0] + json.dumps(record) + "\n" + "".join(lines[2:]))
        code, _, err = run(
            capsys, "fit-thresholds", "--log", str(log), "--min-support", "5",
            "--out", str(tmp_path / "model.json"),
        )
        assert code == 1
        assert err.startswith(f"error: {log}:2: ")
        assert field in err
        assert not (tmp_path / "model.json").exists()

    def test_fit_thresholds_with_too_few_supported_segments_names_log_and_min_support(
        self, workdir, tmp_path, capsys
    ):
        record = json.loads((workdir / "data" / "engagement.jsonl").read_text().splitlines()[0])
        record["engaged"] = False
        log = tmp_path / "engagement.jsonl"
        log.write_text(json.dumps(record) + "\n")
        code, _, err = run(
            capsys, "fit-thresholds", "--log", str(log), "--min-support", "5",
            "--out", str(tmp_path / "model.json"),
        )
        assert code == 1
        assert err.startswith(f"error: {log}: ")
        assert "--min-support 5" in err
        assert "got 0" in err
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize(
        ("field", "value"), [("query_id", 0), ("doc_id", 17)], ids=["int-query-id", "int-doc-id"]
    )
    def test_evaluate_judgment_id_not_a_string_names_file_and_line(
        self, workdir, tmp_path, capsys, field, value
    ):
        lines = (workdir / "data" / "judgments.jsonl").read_text().splitlines(keepends=True)
        record = json.loads(lines[1])
        record[field] = value
        judgments = tmp_path / "judgments.jsonl"
        judgments.write_text(lines[0] + json.dumps(record) + "\n" + "".join(lines[2:]))
        results = tmp_path / "results.jsonl"
        results.write_text('{"query_id": "q0000", "ebr_triggered": true, "results": []}\n')
        code, _, err = run(
            capsys, "evaluate", "--results", str(results), "--judgments", str(judgments),
            "--out", str(tmp_path / "report.json"),
        )
        assert code == 1
        assert err.startswith(f"error: {judgments}:2: {field} {value} is not a string")
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        ("field", "value"),
        [("query_id", 0), ("query_id", [0]), ("doc_id", 5)],
        ids=["int-query-id", "list-query-id", "int-doc-id"],
    )
    def test_evaluate_result_id_not_a_string_names_file_and_line(
        self, workdir, tmp_path, capsys, field, value
    ):
        row = {"doc_id": "d00001", "transformed_score": 0.5, "source": "EBR", "demoted": False}
        page = {"query_id": "q0001", "ebr_triggered": True, "results": [row]}
        (page if field == "query_id" else row)[field] = value
        results = tmp_path / "results.jsonl"
        results.write_text(
            '{"query_id": "q0000", "ebr_triggered": true, "results": []}\n'
            + json.dumps(page) + "\n"
        )
        code, _, err = run(
            capsys, "evaluate", "--results", str(results),
            "--judgments", str(workdir / "data" / "judgments.jsonl"),
            "--out", str(tmp_path / "report.json"),
        )
        assert code == 1
        name = field if field == "query_id" else f"results[0].{field}"
        assert err.startswith(f"error: {results}:2: {name} {value!r} is not a string")
        assert not (tmp_path / "report.json").exists()

    def test_search_label_doc_id_not_a_string_names_file_and_line(
        self, workdir, tmp_path, capsys
    ):
        labels = tmp_path / "labels.jsonl"
        labels.write_text(
            '{"doc_id": "d00000", "severity": "Removable", "reason": "Misinformation"}\n'
            '{"doc_id": 5, "severity": "Removable", "reason": "Misinformation"}\n'
        )
        code, _, err = run(
            capsys, "search", *search_inputs(workdir), "--labels", str(labels),
            "--out", str(tmp_path / "results.jsonl"),
        )
        assert code == 1
        assert err.startswith(f"error: {labels}:2: doc_id 5 is not a string")

    def test_search_label_ts_not_a_string_names_file_and_line(self, workdir, tmp_path, capsys):
        labels = tmp_path / "labels.jsonl"
        labels.write_text(
            '{"doc_id": "d00000", "severity": "Removable", "reason": "Misinformation", "ts": null}\n'
            '{"doc_id": "d00001", "severity": "Removable", "reason": "Misinformation", "ts": 5}\n'
        )
        code, _, err = run(
            capsys, "search", *search_inputs(workdir), "--labels", str(labels),
            "--out", str(tmp_path / "results.jsonl"),
        )
        assert code == 1
        assert err.startswith(f"error: {labels}:2: ts 5 is not a string")

    @pytest.mark.parametrize(
        ("where", "value", "message"),
        [
            (("coefficients",), [0.1], "coefficients [0.1] is not an object"),
            (
                ("coefficients", "user_country"), "BRGBMXUS",
                "coefficients['user_country'] 'BRGBMXUS' is not an object",
            ),
        ],
        ids=["list-coefficients", "str-country"],
    )
    def test_search_model_coefficients_not_an_object_names_file(
        self, workdir, tmp_path, capsys, where, value, message
    ):
        model_path, payload = fitted_model(capsys, workdir, tmp_path)
        parent, field = field_at(payload, where)
        parent[field] = value
        model_path.write_text(json.dumps(payload))
        code, _, err = run(
            capsys, "search", *search_inputs(workdir), "--model", str(model_path),
            "--out", str(tmp_path / "results.jsonl"),
        )
        assert code == 1
        assert err.startswith(f"error: {model_path}: {message}")

    def test_evaluate_demoted_not_a_bool_names_file_and_line(self, workdir, tmp_path, capsys):
        row = {"doc_id": "a", "transformed_score": 0.5, "source": "EBR", "demoted": "yes"}
        results = tmp_path / "results.jsonl"
        results.write_text(
            '{"query_id": "q0000", "ebr_triggered": true, "results": []}\n'
            + json.dumps({"query_id": "q0001", "ebr_triggered": True, "results": [row]}) + "\n"
        )
        code, _, err = run(
            capsys, "evaluate", "--results", str(results),
            "--judgments", str(workdir / "data" / "judgments.jsonl"),
            "--out", str(tmp_path / "report.json"),
        )
        assert code == 1
        assert err.startswith(f"error: {results}:2: ")
        assert "demoted" in err

    @pytest.mark.parametrize("value", [{}, ""], ids=["object", "string"])
    def test_evaluate_results_not_a_list_names_file_and_line(
        self, workdir, tmp_path, capsys, value
    ):
        results = tmp_path / "results.jsonl"
        results.write_text(
            '{"query_id": "q0000", "ebr_triggered": true, "results": []}\n'
            + json.dumps({"query_id": "q0001", "ebr_triggered": True, "results": value}) + "\n"
        )
        code, _, err = run(
            capsys, "evaluate", "--results", str(results),
            "--judgments", str(workdir / "data" / "judgments.jsonl"),
            "--out", str(tmp_path / "report.json"),
        )
        assert code == 1
        assert err.startswith(f"error: {results}:2: results {value!r} is not a list")

    def test_search_model_p_not_a_number_names_file(self, workdir, tmp_path, capsys):
        model_path, payload = fitted_model(capsys, workdir, tmp_path)
        payload["p"] = "0.9"
        model_path.write_text(json.dumps(payload))
        code, _, err = run(
            capsys, "search", *search_inputs(workdir), "--model", str(model_path),
            "--out", str(tmp_path / "results.jsonl"),
        )
        assert code == 1
        assert err.startswith(f"error: {model_path}: p '0.9' is not a number")

    @pytest.mark.parametrize(
        ("where", "value", "message"),
        [
            (("intercept",), "0.61", "intercept '0.61' is not a number"),
            (("intercept",), float("nan"), "intercept nan is not a finite number"),
            (
                ("coefficients", "query_intent", "PersonName"), True,
                "coefficients['query_intent']['PersonName'] True is not a number",
            ),
            (
                ("coefficients", "language", "en"), float("-inf"),
                "coefficients['language']['en'] -inf is not a finite number",
            ),
            (("fit_report", "n_segments"), 2.9, "fit_report.n_segments 2.9 is not an integer"),
        ],
        ids=[
            "str-intercept", "nan-intercept", "bool-coefficient", "inf-coefficient", "float-count"
        ],
    )
    def test_search_model_field_of_wrong_type_names_file(
        self, workdir, tmp_path, capsys, where, value, message
    ):
        model_path, payload = fitted_model(capsys, workdir, tmp_path)
        parent, field = field_at(payload, where)
        parent[field] = value
        model_path.write_text(json.dumps(payload))
        code, _, err = run(
            capsys, "search", *search_inputs(workdir), "--model", str(model_path),
            "--out", str(tmp_path / "results.jsonl"),
        )
        assert code == 1
        assert err.startswith(f"error: {model_path}: {message}")

    @pytest.mark.parametrize(
        ("where", "value", "message"),
        [
            (
                ("coefficients", "query_intent", "PersonNmae"), 0.5,
                "query_intent has unknown value 'PersonNmae'",
            ),
            (
                ("coefficients", "doc_source_type", "XN"), 0.5,
                "doc_source_type has unknown value 'XN'",
            ),
            (("p",), 7, "p must be in (0, 1], got 7.0"),
            (("p",), 0, "p must be in (0, 1], got 0.0"),
            (("fit_report",), [1], "fit_report [1] is not an object"),
        ],
        ids=["misspelled-intent", "unknown-source-type", "p-above-one", "p-zero", "list-report"],
    )
    def test_search_model_value_out_of_range_names_file(
        self, workdir, tmp_path, capsys, where, value, message
    ):
        model_path, payload = fitted_model(capsys, workdir, tmp_path)
        parent, field = field_at(payload, where)
        parent[field] = value
        model_path.write_text(json.dumps(payload))
        code, _, err = run(
            capsys, "search", *search_inputs(workdir), "--model", str(model_path),
            "--out", str(tmp_path / "results.jsonl"),
        )
        assert code == 1
        assert err.startswith(f"error: {model_path}: {message}")

    def test_search_model_not_an_object_names_file(self, workdir, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text("[1, 2]\n")
        code, _, err = run(
            capsys, "search", *search_inputs(workdir), "--model", str(model_path),
            "--out", str(tmp_path / "results.jsonl"),
        )
        assert code == 1
        assert err.startswith(f"error: {model_path}: expected a JSON object, got list")

    def test_compare_report_not_an_object_names_file(self, tmp_path, capsys):
        report = {"ndcg_at": {"1": 0.5}, "nonrec_rate": 0.0, "failure_breakdown": {}, "n_sessions": 3}
        control, test = tmp_path / "control.json", tmp_path / "test.json"
        control.write_text(json.dumps(report))
        test.write_text("[1, 2]\n")
        code, _, err = run(capsys, "compare", str(control), str(test))
        assert code == 1
        assert err.startswith(f"error: {test}: expected a JSON object, got list")

    def test_fit_thresholds_segment_not_an_object_names_file_and_line(
        self, workdir, tmp_path, capsys
    ):
        lines = (workdir / "data" / "engagement.jsonl").read_text().splitlines(keepends=True)
        record = json.loads(lines[1])
        record["segment"] = [1]
        log = tmp_path / "engagement.jsonl"
        log.write_text(lines[0] + json.dumps(record) + "\n" + "".join(lines[2:]))
        code, _, err = run(
            capsys, "fit-thresholds", "--log", str(log), "--min-support", "5",
            "--out", str(tmp_path / "model.json"),
        )
        assert code == 1
        assert err.startswith(f"error: {log}:2: segment [1] is not an object")
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            ("nonrec_rate", "0", "nonrec_rate '0' is not a number"),
            ("n_sessions", 2.9, "n_sessions 2.9 is not an integer"),
            ("ndcg_at", [0.5], "ndcg_at [0.5] is not an object"),
            ("failure_breakdown", [], "failure_breakdown [] is not an object"),
        ],
        ids=["str-rate", "float-count", "list-ndcg", "list-breakdown"],
    )
    def test_compare_report_field_of_wrong_type_names_file(
        self, tmp_path, capsys, field, value, message
    ):
        report = {"ndcg_at": {"1": 0.5}, "nonrec_rate": 0.0, "failure_breakdown": {}, "n_sessions": 3}
        control, test = tmp_path / "control.json", tmp_path / "test.json"
        control.write_text(json.dumps(report))
        test.write_text(json.dumps({**report, field: value}))
        code, _, err = run(capsys, "compare", str(control), str(test))
        assert code == 1
        assert err.startswith(f"error: {test}: {message}")

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            ("ndcg_at", {"one": 0.5}, "ndcg_at['one'] key is not an integer"),
            ("ndcg_at", {"1_0": 0.5, " 1": 0.7}, "ndcg_at['1_0'] key is not an integer"),
            ("ndcg_at", {"1": 0.5, "01": 0.7}, "ndcg_at['01'] key is not an integer"),
            (
                "failure_breakdown",
                {"Nope": 1.0},
                "failure_breakdown['Nope'] key is not a valid FailureCategory",
            ),
        ],
        ids=["word", "underscore", "leading-zero", "unknown-category"],
    )
    def test_compare_report_bad_key_names_file_and_entry(
        self, tmp_path, capsys, field, value, message
    ):
        report = {"ndcg_at": {"1": 0.5}, "nonrec_rate": 0.0, "failure_breakdown": {}, "n_sessions": 3}
        control, test = tmp_path / "control.json", tmp_path / "test.json"
        control.write_text(json.dumps(report))
        test.write_text(json.dumps({**report, field: value}))
        code, _, err = run(capsys, "compare", str(control), str(test))
        assert code == 1
        assert err.startswith(f"error: {test}: {message}")

    def test_build_index_title_not_a_string_names_file_and_line(
        self, workdir, tmp_path, capsys
    ):
        lines = (workdir / "data" / "corpus.jsonl").read_text().splitlines(keepends=True)
        record = json.loads(lines[1])
        record["title"] = 5
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(lines[0] + json.dumps(record) + "\n")
        code, _, err = run(
            capsys, "build-index", "--corpus", str(corpus), "--out", str(tmp_path / "idx")
        )
        assert code == 1
        assert err.startswith(f"error: {corpus}:2: title 5 is not a string")

    @pytest.mark.parametrize("field", ["text", "intent"])
    def test_search_query_field_not_a_string_names_file_and_line(
        self, workdir, tmp_path, capsys, field
    ):
        data = workdir / "data"
        lines = (data / "queries.jsonl").read_text().splitlines(keepends=True)
        record = json.loads(lines[1])
        record[field] = 7
        queries = tmp_path / "queries.jsonl"
        queries.write_text(lines[0] + json.dumps(record) + "\n")
        code, _, err = run(
            capsys, "search", "--queries", str(queries), "--corpus", str(data / "corpus.jsonl"),
            "--embeddings", str(workdir / "index" / "embeddings.tsv"),
            "--out", str(tmp_path / "results.jsonl"),
        )
        assert code == 1
        assert err.startswith(f"error: {queries}:2: {field} 7 is not a string")

    def test_search_query_with_unknown_intent_names_file_and_line(
        self, workdir, tmp_path, capsys
    ):
        """A misspelled intent is not read as Other, which would serve the
        query under another cohort's trigger rules and thresholds."""
        lines = (workdir / "data" / "queries.jsonl").read_text().splitlines(keepends=True)
        record = json.loads(lines[1])
        record["intent"] = "Personname"
        queries = tmp_path / "queries.jsonl"
        queries.write_text(lines[0] + json.dumps(record) + "\n" + "".join(lines[2:]))
        out = tmp_path / "results.jsonl"
        code, _, err = run(
            capsys, "search", "--queries", str(queries), *search_inputs(workdir)[2:],
            "--out", str(out),
        )
        assert code == 1
        assert err == f"error: {queries}:2: intent 'Personname' is not a valid Intent\n"
        assert not out.exists()

    def test_fit_thresholds_log_with_unknown_intent_names_file_and_line(
        self, workdir, tmp_path, capsys
    ):
        lines = (workdir / "data" / "engagement.jsonl").read_text().splitlines(keepends=True)
        record = json.loads(lines[1])
        record["segment"]["query_intent"] = "Personname"
        log = tmp_path / "engagement.jsonl"
        log.write_text(lines[0] + json.dumps(record) + "\n" + "".join(lines[2:]))
        code, _, err = run(
            capsys, "fit-thresholds", "--log", str(log), "--min-support", "5",
            "--out", str(tmp_path / "model.json"),
        )
        assert code == 1
        assert err == f"error: {log}:2: segment.query_intent 'Personname' is not a valid Intent\n"
        assert not (tmp_path / "model.json").exists()

    def test_fit_thresholds_log_with_invalid_utf8_names_file_and_line(
        self, workdir, tmp_path, capsys
    ):
        lines = (workdir / "data" / "engagement.jsonl").read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b'"query_id": "', b'"query_id": "\xff', 1)
        log = tmp_path / "engagement.jsonl"
        log.write_bytes(b"".join(lines))
        code, _, err = run(
            capsys, "fit-thresholds", "--log", str(log), "--min-support", "5",
            "--out", str(tmp_path / "model.json"),
        )
        assert code == 1
        assert err == f"error: {log}:3: invalid UTF-8: byte 0xff\n"
        assert not (tmp_path / "model.json").exists()

    def test_fit_thresholds_empty_log_names_file(self, tmp_path, capsys):
        log = tmp_path / "engagement.jsonl"
        log.write_text("")
        code, _, err = run(
            capsys, "fit-thresholds", "--log", str(log), "--out", str(tmp_path / "model.json")
        )
        assert code == 1
        assert err == f"error: {log}: engagement log is empty\n"
        assert not (tmp_path / "model.json").exists()

    def test_evaluate_empty_results_names_file(self, workdir, tmp_path, capsys):
        results = tmp_path / "results.jsonl"
        results.write_text("\n")
        code, _, err = run(
            capsys, "evaluate", "--results", str(results),
            "--judgments", str(workdir / "data" / "judgments.jsonl"),
            "--out", str(tmp_path / "report.json"),
        )
        assert code == 1
        assert err.startswith(f"error: {results}: ")
        assert not (tmp_path / "report.json").exists()

    def test_build_index_small_dim_on_empty_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("")
        code, _, err = run(
            capsys, "build-index", "--corpus", str(corpus), "--dim", "4",
            "--out", str(tmp_path / "idx"),
        )
        assert code == 1
        assert "dimension 4 too small" in err
        assert not (tmp_path / "idx").exists()

    def test_search_rule_with_unknown_intent_names_file_and_line(
        self, workdir, tmp_path, capsys
    ):
        rules = tmp_path / "rules.jsonl"
        rules.write_text(
            '{"intent": "PersonName", "source_type": "UN", "action": "Disable"}\n'
            '{"intent": "PersonNmae", "source_type": "UN", "action": "Disable"}\n'
        )
        code, _, err = run(
            capsys, "search", *search_inputs(workdir), "--rules", str(rules),
            "--out", str(tmp_path / "results.jsonl"),
        )
        assert code == 1
        assert err.startswith(f"error: {rules}:2: ")
        assert "'PersonNmae'" in err

    @pytest.mark.parametrize(
        ("field", "value"),
        [("country", 5), ("country", ["US"]), ("note", 5)],
        ids=["int-country", "list-country", "int-note"],
    )
    def test_search_rule_field_not_a_string_names_file_and_line(
        self, workdir, tmp_path, capsys, field, value
    ):
        rule = {"intent": "GroupTopic", "source_type": "UN", "action": "Disable", field: value}
        rules = tmp_path / "rules.jsonl"
        rules.write_text(
            '{"intent": "PersonName", "source_type": "UN", "action": "Disable", "country": null}\n'
            + json.dumps(rule) + "\n"
        )
        code, _, err = run(
            capsys, "search", *search_inputs(workdir), "--rules", str(rules),
            "--out", str(tmp_path / "results.jsonl"),
        )
        assert code == 1
        assert err.startswith(f"error: {rules}:2: {field} {value!r} is not a string")

    @pytest.mark.parametrize(
        "where", [("intercept",), ("coefficients",), ("coefficients", "language")],
        ids=lambda where: ".".join(where),
    )
    def test_search_model_without_field_names_file(self, workdir, tmp_path, capsys, where):
        model_path, payload = fitted_model(capsys, workdir, tmp_path)
        parent, field = field_at(payload, where)
        del parent[field]
        model_path.write_text(json.dumps(payload))
        code, _, err = run(
            capsys, "search", *search_inputs(workdir), "--model", str(model_path),
            "--out", str(tmp_path / "results.jsonl"),
        )
        assert code == 1
        assert err.startswith(f"error: {model_path}: missing field '{field}'")

    def test_search_embeddings_line_for_unknown_doc_names_file_and_id(
        self, workdir, tmp_path, capsys
    ):
        embeddings = tmp_path / "embeddings.tsv"
        built = (workdir / "index" / "embeddings.tsv").read_text()
        vector = built.splitlines()[0].split("\t")[1]
        embeddings.write_text(f"{built}zzz_unknown\t{vector}\n")
        data = workdir / "data"
        code, _, err = run(
            capsys, "search", "--queries", str(data / "queries.jsonl"),
            "--corpus", str(data / "corpus.jsonl"), "--embeddings", str(embeddings),
            "--out", str(tmp_path / "results.jsonl"),
        )
        assert code == 1
        assert err.startswith(f"error: {embeddings}: ")
        assert "'zzz_unknown'" in err

    def test_search_embeddings_without_a_corpus_doc_names_file_and_id(
        self, workdir, tmp_path, capsys
    ):
        built = (workdir / "index" / "embeddings.tsv").read_text().splitlines(keepends=True)
        dropped = built[100].split("\t")[0]
        embeddings = tmp_path / "embeddings.tsv"
        embeddings.write_text("".join(built[:100] + built[101:]))
        data = workdir / "data"
        code, _, err = run(
            capsys, "search", "--queries", str(data / "queries.jsonl"),
            "--corpus", str(data / "corpus.jsonl"), "--embeddings", str(embeddings),
            "--out", str(tmp_path / "results.jsonl"),
        )
        assert code == 1
        assert err.startswith(f"error: {embeddings}: no embedding for doc_id {dropped!r}")
        assert not (tmp_path / "results.jsonl").exists()

    def test_search_embeddings_below_embedder_minimum_names_file(
        self, workdir, tmp_path, capsys
    ):
        data = workdir / "data"
        corpus = data / "corpus.jsonl"
        doc_ids = [json.loads(line)["doc_id"] for line in corpus.read_text().splitlines()]
        embeddings = tmp_path / "embeddings.tsv"
        embeddings.write_text("".join(f"{d}\t1.0,0.5,0.0,0.25\n" for d in doc_ids))
        code, _, err = run(
            capsys, "search", "--queries", str(data / "queries.jsonl"),
            "--corpus", str(corpus), "--embeddings", str(embeddings),
            "--out", str(tmp_path / "results.jsonl"),
        )
        assert code == 1
        assert err.startswith(f"error: {embeddings}: dimension 4 is below")
        assert not (tmp_path / "results.jsonl").exists()

    @pytest.mark.parametrize(
        "value", ["1e308", "1e-200", "1e-160"], ids=["overflows", "underflows", "subnormal"]
    )
    def test_search_embedding_whose_squared_norm_leaves_float64_names_doc(
        self, workdir, tmp_path, capsys, value
    ):
        """A row of 1e308s squares to inf, one of 1e-200s to 0 and one of
        1e-160s to a subnormal that has lost bits: none can be scaled to unit
        norm, and numpy would only warn (or not even that)."""
        built = (workdir / "index" / "embeddings.tsv").read_text().splitlines(keepends=True)
        doc_id, vector = built[100].rstrip("\n").split("\t")
        built[100] = f"{doc_id}\t{','.join([value] * len(vector.split(',')))}\n"
        embeddings = tmp_path / "embeddings.tsv"
        embeddings.write_text("".join(built))
        data = workdir / "data"
        code, _, err = run(
            capsys, "search", "--queries", str(data / "queries.jsonl"),
            "--corpus", str(data / "corpus.jsonl"), "--embeddings", str(embeddings),
            "--out", str(tmp_path / "results.jsonl"),
        )
        assert code == 1
        assert err == (
            f"error: embedding for doc_id {doc_id!r} has a squared norm"
            " outside float64's normal range\n"
        )
        assert not (tmp_path / "results.jsonl").exists()

    def test_search_embeddings_with_invalid_utf8_names_file_and_line(
        self, workdir, tmp_path, capsys
    ):
        built = (workdir / "index" / "embeddings.tsv").read_bytes().splitlines(keepends=True)
        built[100] = built[100].replace(b",", b",\xff", 1)
        embeddings = tmp_path / "embeddings.tsv"
        embeddings.write_bytes(b"".join(built))
        data = workdir / "data"
        code, _, err = run(
            capsys, "search", "--queries", str(data / "queries.jsonl"),
            "--corpus", str(data / "corpus.jsonl"), "--embeddings", str(embeddings),
            "--out", str(tmp_path / "results.jsonl"),
        )
        assert code == 1
        assert err == f"error: {embeddings}:101: invalid UTF-8: byte 0xff\n"

    def test_search_empty_corpus_and_embeddings_has_no_dimension_to_check(
        self, workdir, tmp_path, capsys
    ):
        corpus, embeddings = tmp_path / "corpus.jsonl", tmp_path / "embeddings.tsv"
        corpus.write_text("")
        embeddings.write_text("")
        code, _, _ = run(
            capsys, "search", "--queries", str(workdir / "data" / "queries.jsonl"),
            "--corpus", str(corpus), "--embeddings", str(embeddings),
            "--out", str(tmp_path / "results.jsonl"),
        )
        assert code == 0

    def test_search_model_with_invalid_utf8_names_file_and_line(
        self, workdir, tmp_path, capsys
    ):
        model_path, _ = fitted_model(capsys, workdir, tmp_path)
        lines = model_path.read_bytes().splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines) if line.lstrip().startswith(b'"p"'))
        lines[at] = lines[at].replace(b'"p"', b'"p\xff"', 1)
        model_path.write_bytes(b"".join(lines))
        code, _, err = run(
            capsys, "search", *search_inputs(workdir), "--model", str(model_path),
            "--out", str(tmp_path / "results.jsonl"),
        )
        assert code == 1
        assert err == f"error: {model_path}:{at + 1}: invalid UTF-8: byte 0xff\n"
        assert not (tmp_path / "results.jsonl").exists()

    def test_compare_report_with_invalid_utf8_names_file_and_line(self, tmp_path, capsys):
        report = {"ndcg_at": {"1": 0.5}, "nonrec_rate": 0.0, "failure_breakdown": {}, "n_sessions": 3}
        control, test = tmp_path / "control.json", tmp_path / "test.json"
        control.write_text(json.dumps(report, indent=2))
        text = json.dumps(report, indent=2).encode()
        test.write_bytes(text.replace(b'"nonrec_rate"', b'"nonrec\xfe_rate"'))
        line = text[: text.index(b'"nonrec_rate"')].count(b"\n") + 1
        code, _, err = run(capsys, "compare", str(control), str(test))
        assert code == 1
        assert err == f"error: {test}:{line}: invalid UTF-8: byte 0xfe\n"

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            ("ndcg_at", {"1": 0.5, "5": 3.5}, "ndcg_at['5'] 3.5 is outside [0, 1]"),
            ("ndcg_at", {"1": -0.25}, "ndcg_at['1'] -0.25 is outside [0, 1]"),
            ("nonrec_rate", -1, "nonrec_rate -1.0 is outside [0, 1]"),
            ("nonrec_rate", 1.5, "nonrec_rate 1.5 is outside [0, 1]"),
            (
                "failure_breakdown",
                {"Offensive": 1.25},
                "failure_breakdown['Offensive'] 1.25 is outside [0, 1]",
            ),
            ("n_sessions", 0, "n_sessions 0 is below 1"),
            ("n_sessions", -1, "n_sessions -1 is below 1"),
        ],
        ids=[
            "ndcg-above-one", "ndcg-negative", "nonrec-negative", "nonrec-above-one",
            "share-above-one", "zero-sessions", "negative-sessions",
        ],
    )
    def test_compare_report_value_out_of_range_names_file(
        self, tmp_path, capsys, field, value, message
    ):
        report = {"ndcg_at": {"1": 0.5}, "nonrec_rate": 0.0, "failure_breakdown": {}, "n_sessions": 3}
        control, test = tmp_path / "control.json", tmp_path / "test.json"
        control.write_text(json.dumps(report))
        test.write_text(json.dumps({**report, field: value}))
        code, out, err = run(capsys, "compare", str(control), str(test))
        assert code == 1
        assert out == ""
        assert err == f"error: {test}: {message}\n"

    def test_compare_truncated_report_names_file(self, tmp_path, capsys):
        report = {"ndcg_at": {"1": 0.5}, "nonrec_rate": 0.0, "failure_breakdown": {}, "n_sessions": 3}
        control, truncated = tmp_path / "control.json", tmp_path / "test.json"
        control.write_text(json.dumps(report, indent=2))
        truncated.write_text(json.dumps(report, indent=2)[:40])
        code, _, err = run(capsys, "compare", str(control), str(truncated))
        assert code == 1
        assert err.startswith(f"error: {truncated}:")
        assert "invalid JSON" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--k", "0"],
            ["search", "--sigmoid-a", "0"],
            ["search", "--sigmoid-b", "nan"],
            ["fit-thresholds", "--sigmoid-a", "0"],
            ["fit-thresholds", "--min-support", "5", "--sigmoid-a", "inf"],
            ["fit-thresholds", "--min-support", "-3"],
            ["build-index", "--dim", "4"],
            ["gen-data", "--seed", "-1"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_out_of_range_flag(self, workdir, tmp_path, capsys, argv):
        data = workdir / "data"
        inputs = {
            "search": search_inputs(workdir),
            "fit-thresholds": ["--log", str(data / "engagement.jsonl")],
            "build-index": ["--corpus", str(data / "corpus.jsonl")],
            "gen-data": [],
        }[argv[0]]
        code, _, err = run(capsys, *argv, *inputs, "--out", str(tmp_path / "out"))
        assert code == 1
        assert err.startswith("error: ")
