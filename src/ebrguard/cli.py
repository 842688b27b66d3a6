"""Batch command-line entry point tying the modules into reproducible workflows.

Every subcommand is deterministic given its inputs and flags; all randomness
funnels through the single seed. Exit codes: 0 success, 1 validation error,
2 I/O error. Errors are printed to stderr with the offending file and line
when known.
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

from . import evaluation, synth
from .corpus import (
    load_corpus,
    load_engagement_log,
    load_judgments,
    load_queries,
    reject_repeats,
    save_corpus,
    save_engagement_log,
    save_judgments,
    save_queries,
)
from .embedder import DEFAULT_DIM, embed_corpus, load_embeddings, save_embeddings
from .errors import GuardrailError, InvalidParameter, MalformedRecord
from .integrity import (
    IntegrityLabel,
    LabelReason,
    LabelStore,
    Severity,
    apply_index_removal,
    load_labels,
)
from .jsonl import append_jsonl, read_jsonl, write_json, write_jsonl
from .pipeline import RetrievalConfig, ResultPage, SigmoidParams, retrieve, sigmoid_transform
from .text_retrieval import build_text_index
from .thresholds import (
    DEFAULT_MIN_SUPPORT,
    DEFAULT_P,
    fit,
    load_model,
    save_model,
    segment_targets,
)
from .triggers import DEFAULT_RULES, load_rules
from .vector_index import build_index


def _add_sigmoid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sigmoid-a", type=float, default=1.0, help="sigmoid linear scale (default 1.0)")
    p.add_argument("--sigmoid-b", type=float, default=0.0, help="sigmoid linear offset (default 0.0)")


def _cmd_gen_data(args: argparse.Namespace) -> int:
    spec = synth.SyntheticSpec(
        seed=args.seed, n_docs=args.n_docs, n_queries=args.n_queries
    )
    data = synth.generate_synthetic(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_corpus(data.corpus, out / "corpus.jsonl")
    save_queries(data.queries, out / "queries.jsonl")
    save_judgments(data.judgments, out / "judgments.jsonl")
    save_engagement_log(data.engagement_log, out / "engagement.jsonl")
    print(
        f"wrote {len(data.corpus)} docs, {len(data.queries)} queries, "
        f"{len(data.judgments)} judgments, {len(data.engagement_log)} log records to {out}"
    )
    return 0


def _cmd_build_index(args: argparse.Namespace) -> int:
    docs = load_corpus(args.corpus)
    embeddings = embed_corpus(docs, d=args.dim)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_embeddings(embeddings, out / "embeddings.tsv")
    print(f"indexed {len(docs)} docs (dim {args.dim}) into {out}")
    return 0


def _cmd_fit_thresholds(args: argparse.Namespace) -> int:
    if not 0.0 < args.p <= 1.0:
        raise InvalidParameter(f"p must be in (0, 1], got {args.p}")
    params = SigmoidParams(a=args.sigmoid_a, b=args.sigmoid_b)
    log = load_engagement_log(args.log)
    targets = segment_targets(
        log,
        args.p,
        min_support=args.min_support,
        transform=partial(sigmoid_transform, params=params),
    )
    model = fit(targets, p=args.p)
    save_model(model, args.out)
    rep = model.fit_report
    print(
        f"fit {rep.n_segments} segments: mse={rep.mse:.3e}, "
        f"max_residual={rep.max_residual:.3e} -> {args.out}"
    )
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    config = RetrievalConfig(
        k=args.k, sigmoid=SigmoidParams(a=args.sigmoid_a, b=args.sigmoid_b)
    )
    docs = load_corpus(args.corpus)
    queries = load_queries(args.queries)
    embeddings = load_embeddings(args.embeddings)
    corpus_ids = {d.doc_id for d in docs}
    unknown = next((d for d in embeddings if d not in corpus_ids), None)
    if unknown is not None:
        raise MalformedRecord(
            args.embeddings, None, f"doc_id {unknown!r} is not in corpus {args.corpus}"
        )
    index = build_index(docs, embeddings)
    store = load_labels(args.labels) if args.labels else LabelStore()
    index, removed = apply_index_removal(index, store)
    rules = load_rules(args.rules) if args.rules else DEFAULT_RULES
    model = load_model(args.model) if args.model else None
    text_index = build_text_index(docs)
    write_jsonl(
        args.out,
        (
            retrieve(query, index, text_index, model, rules, store, config).to_dict()
            for query in queries
        ),
    )
    print(
        f"searched {len(queries)} queries (k={args.k}, {removed} docs removed "
        f"for integrity) -> {args.out}"
    )
    return 0


def _cmd_label(args: argparse.Namespace) -> int:
    ts = args.ts or datetime.now(timezone.utc).isoformat(timespec="seconds")
    lab = IntegrityLabel(
        doc_id=args.doc_id,
        severity=Severity(args.severity),
        reason=LabelReason(args.reason),
        ts=ts,
    )
    append_jsonl(args.labels, lab.to_dict())
    print(f"labeled {args.doc_id} {lab.severity.value}/{lab.reason.value} -> {args.labels}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    pages = read_jsonl(args.results, ResultPage.from_dict)
    reject_repeats(args.results, (p.query_id for p in pages), "query_id")
    judgments = load_judgments(args.judgments)
    sessions = evaluation.sessions_from_result_pages(pages, judgments)
    report = evaluation.evaluate_run(sessions)
    evaluation.save_report(report, args.out)
    print(evaluation.render_report(report))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    control = evaluation.load_report(args.control)
    test = evaluation.load_report(args.test)
    delta = evaluation.compare_runs(control, test)
    if args.out:
        write_json(args.out, delta.to_dict())
    print(evaluation.render_delta_table([(args.label, delta)]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ebrguard",
        description="Guardrails for embedding-based retrieval: generate data, "
        "fit discard thresholds, search with trigger and integrity controls, "
        "and evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a seeded synthetic corpus, queries, judgments, and log")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--n-docs", type=int, default=1000)
    p.add_argument("--n-queries", type=int, default=100)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("build-index", help="embed a corpus and persist the index files")
    p.add_argument("--corpus", required=True)
    p.add_argument("--dim", type=int, default=DEFAULT_DIM)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_build_index)

    p = sub.add_parser("fit-thresholds", help="fit per-segment discard thresholds from an engagement log")
    p.add_argument("--log", required=True)
    p.add_argument("--p", type=float, default=DEFAULT_P, help="retained fraction of engaged results (default 0.9)")
    p.add_argument("--min-support", type=int, default=DEFAULT_MIN_SUPPORT)
    _add_sigmoid_flags(p)
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=_cmd_fit_thresholds)

    p = sub.add_parser("search", help="run queries through the guarded retrieval pipeline")
    p.add_argument("--queries", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--embeddings", required=True, help="embeddings.tsv written by build-index")
    p.add_argument("--model", help="threshold model JSON; omit to retrieve without discarding")
    p.add_argument("--rules", help="trigger rules JSONL; omit for the default rule set")
    p.add_argument("--labels", help="integrity labels JSONL; omit for no labels")
    p.add_argument("--k", type=int, default=10)
    _add_sigmoid_flags(p)
    p.add_argument("--out", required=True, help="result pages JSONL path")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("label", help="append an integrity label")
    p.add_argument("--labels", required=True, help="labels JSONL path to append to")
    p.add_argument("--doc-id", required=True)
    p.add_argument("--severity", required=True, choices=[s.value for s in Severity])
    p.add_argument("--reason", required=True, choices=[r.value for r in LabelReason])
    p.add_argument("--ts", help="timestamp to record; defaults to now (pass one for reproducible files)")
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("evaluate", help="score result pages against judgments")
    p.add_argument("--results", required=True)
    p.add_argument("--judgments", required=True)
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("compare", help="delta table between two evaluation reports")
    p.add_argument("control", help="control report JSON")
    p.add_argument("test", help="test report JSON")
    p.add_argument("--label", default="test vs control")
    p.add_argument("--out", help="optional delta JSON path")
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GuardrailError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
