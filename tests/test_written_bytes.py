"""The bytes each CLI step writes, key order included, pinned by sha256.

Other tests compare records or sort-keyed JSON, so only these pins catch a
change in written key order, separators or number formatting. The chain is
the README's at 240 docs and 30 queries, with a label file holding one label
with a timestamp and one without, plus the default trigger rules as
save_rules writes them.
"""

import hashlib

import pytest

from ebrguard.cli import main
from ebrguard.integrity import IntegrityLabel, LabelReason, LabelStore, Severity, save_labels
from ebrguard.triggers import DEFAULT_RULES, save_rules

# Recorded from the hand-written per-class writers that came before
# Record.to_dict, so they pin the bytes these files have always had, with
# three exceptions. embeddings.tsv (save_embeddings) and rules.jsonl
# (Record.to_dict) were first pinned later, from the bytes they were then
# written with. labels.jsonl was re-pinned when a label with no timestamp
# stopped being written with "ts": null, like every other optional field
# that is None.
WRITTEN_SHA256 = {
    "data/corpus.jsonl": "7d2ccb0e9d7a2272ee16b7ce1525066509d98c2d0dd3b0ff55ec6d8a7b1f20b1",
    "data/queries.jsonl": "22a9cb28a782bc16b842611159fd19ab991ad3a0610107ce42781d213d73d2d0",
    "data/judgments.jsonl": "96a86777b944a0b15072d7b701ab71963959feff9790b0060ad8a1388bb5fc58",
    "data/engagement.jsonl": "f20e96a35ff5745d637a0f87c5f2f124230b8455b6164df083825550d743e2ac",
    "index/embeddings.tsv": "3bb4da6d6c839c188e70d1821a4cc7516c19e8f91cc49d7a39a25b28ee084c6f",
    "rules.jsonl": "a61f7bdb8151bbc92201805ccf507cd6b2efb51d9c52dfaa445cfd366fc7776b",
    "model.json": "a3ec604201ba319c1261be22475f4d239ac5643ee4f755c244a715472cec8be5",
    "labels.jsonl": "1e4dbc8f47ca09da723df81f5a54e0d1b24eb3e82e48fe631acc14185badd5bb",
    "results_control.jsonl": "8e0b1f88b89d8d830c6c8e1dab21d7ebfb1dc7bf7bb6e713d034619ece9d4aaf",
    "results_test.jsonl": "742a7d4f448fd8ef3e28e32e8e0ffb0de10eb05a43d242b4ad2ecd760f5cb93f",
    "report_control.json": "d494e1c06ffc3e885140b68fb81543a7c3cdc0596e8846293f940508d64e122e",
    "report_test.json": "00181a9ae6a136b6a6ea64643fa81e38a616c09f72b3fd1eb6e5e695f458ab6f",
    "delta.json": "0d9c6a35658ed6f7a786ee0cf64001c4762c8112a3c2b28dd416e6caecd47bc3",
}


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """The directory one run of the chain wrote its files to."""
    root = tmp_path_factory.mktemp("written")
    data = root / "data"

    def cli(*argv):
        assert main([str(a) for a in argv]) == 0

    cli("gen-data", "--seed", 7, "--n-docs", 240, "--n-queries", 30, "--out", data)
    cli("build-index", "--corpus", data / "corpus.jsonl", "--out", root / "index")
    save_rules(DEFAULT_RULES, root / "rules.jsonl")
    sigmoid = ["--sigmoid-a", 6, "--sigmoid-b", -3]
    cli(
        "fit-thresholds", "--log", data / "engagement.jsonl", "--min-support", 5,
        *sigmoid, "--out", root / "model.json",
    )
    labels = root / "labels.jsonl"
    save_labels(
        LabelStore([IntegrityLabel("d00086", Severity.DEMOTABLE, LabelReason.UNTRUSTWORTHY)]),
        labels,
    )
    cli(
        "label", "--labels", labels, "--doc-id", "d00070", "--severity", "Removable",
        "--reason", "Misinformation", "--ts", "2026-01-01T00:00:00+00:00",
    )
    search = [
        "--queries", data / "queries.jsonl", "--corpus", data / "corpus.jsonl",
        "--embeddings", root / "index" / "embeddings.tsv", "--labels", labels, *sigmoid,
    ]
    cli("search", *search, "--out", root / "results_control.jsonl")
    cli("search", *search, "--model", root / "model.json", "--out", root / "results_test.jsonl")
    for run in ("control", "test"):
        cli(
            "evaluate", "--results", root / f"results_{run}.jsonl",
            "--judgments", data / "judgments.jsonl", "--out", root / f"report_{run}.json",
        )
    cli("compare", root / "report_control.json", root / "report_test.json",
        "--out", root / "delta.json")
    return root


@pytest.mark.parametrize("name", list(WRITTEN_SHA256))
def test_written_bytes(written, name):
    digest = hashlib.sha256((written / name).read_bytes()).hexdigest()
    assert digest == WRITTEN_SHA256[name]


def test_a_label_with_no_timestamp_is_written_without_ts(written):
    first = (written / "labels.jsonl").read_bytes().splitlines(keepends=True)[0]
    assert first == b'{"doc_id": "d00086", "severity": "Demotable", "reason": "Untrustworthy"}\n'
