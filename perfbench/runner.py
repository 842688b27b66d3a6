"""Runs one workload, untraced or traced, and collects its metrics.

The load is closed-loop: one calling thread sends the next request only
after the previous page has returned.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import shutil
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

import ebrguard.cli as cli
from ebrguard.corpus import (
    load_judgments,
    save_corpus,
    save_engagement_log,
    save_judgments,
    save_queries,
)
from ebrguard.embedder import embed_corpus, save_embeddings
from ebrguard.evaluation import evaluate_run, load_report, sessions_from_result_pages
from ebrguard.integrity import apply_index_removal, labels_from_judgments, save_labels
from ebrguard.pipeline import ResultPage, retrieve
from ebrguard.synth import generate_synthetic
from ebrguard.text_retrieval import tokenize

from gate import check_stream
from replay import program_topk, replay_label, replay_page
from spans import Tracer, self_times
from stats import canonical, digest_lines, median, peak_rss_mb, percentile
from workloads import (
    LABEL,
    P,
    QUERY,
    SIGMOID,
    WORKLOADS,
    BatchFiles,
    N_DOCS,
    N_QUERIES,
    Prepared,
    Workload,
    files_digest,
    fit_model,
    inputs_digest,
    prepare_from_files,
    prepare_library,
    synthetic_spec,
    timed,
)

SETUP_REPS = 3
# Set-ups before each CLI chain: gen-data takes under a second, so its
# median needs more samples than the library set-up's.
BATCH_SETUPS_PER_CHAIN = 3

# End-to-end metrics printed on the result line of every untraced run.
# The reference machine's speed swings by itself between a fast and a slow
# mode (about 1.5x apart), in spells from seconds to longer than a run, and
# drifts over minutes. Over four sets of ten 35 s runs per workload, p50
# landed in one mode or the other and spread up to 0.33, qps (the mean)
# followed the share of slow time and spread up to 0.30, and p99 reached
# 0.65 when the host was busiest. p95 sits in the slow mode's bulk in
# nearly every run but below the busy host's spikes, and spread 0.05-0.21,
# so it is the gated timing; the others are reported beside it.
END_TO_END = {
    "setup_s": "s",
    "query_p95_ms": "ms",
    "ndcg_at_1": "ratio",
    "ndcg_at_5": "ratio",
    "peak_rss_mb": "MB",
}

# Per-layer metrics printed on the result line of every traced run; a layer
# a workload does not exercise reads 0.
PER_LAYER = {
    "synth.generate_s": "s",
    "corpus.load_s": "s",
    "embedder.corpus_s": "s",
    "embedder.save_s": "s",
    "embedder.load_s": "s",
    "embedder.query_calls": "count",
    "embedder.query_busy_ms": "ms",
    "vector_index.build_s": "s",
    "vector_index.source_types_busy_ms": "ms",
    "vector_index.topk_calls": "count",
    "vector_index.topk_busy_ms": "ms",
    "vector_index.topk_p50_us": "us",
    "vector_index.rows_scanned_per_result": "ratio",
    "vector_index.remove_calls": "count",
    "vector_index.remove_busy_ms": "ms",
    "vector_index.rows_copied_per_removed": "ratio",
    "triggers.evaluate_calls": "count",
    "triggers.busy_ms": "ms",
    "triggers.ebr_off_ratio": "ratio",
    "thresholds.fit_s": "s",
    "thresholds.predict_calls": "count",
    "thresholds.predict_busy_ms": "ms",
    "pipeline.calibrate_busy_ms": "ms",
    "pipeline.discard_busy_ms": "ms",
    "pipeline.discard_ratio": "ratio",
    "pipeline.merge_busy_ms": "ms",
    "text_retrieval.build_s": "s",
    "text_retrieval.search_calls": "count",
    "text_retrieval.search_busy_ms": "ms",
    "text_retrieval.scored_per_result": "ratio",
    "integrity.demote_busy_ms": "ms",
    "integrity.demoted_rows": "count",
    "integrity.removed_at_serve": "count",
    "integrity.label_writes": "count",
    "integrity.apply_removal_busy_ms": "ms",
    "evaluation.busy_ms": "ms",
    "cli.build_index_s": "s",
    "cli.fit_thresholds_s": "s",
    "cli.search_s": "s",
    "cli.evaluate_s": "s",
    "trace.coverage_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

CLI_STEPS = ("build_index", "fit_thresholds", "search", "evaluate")


@dataclass
class Result:
    """Metrics of one run: name -> (value, unit, sample count)."""

    metrics: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    record: dict = field(default_factory=dict)  # provenance, digests, extras

    def put(self, name: str, value: float, unit: str, n: int = 1) -> None:
        self.metrics[name] = (float(value), unit, n)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


def _repeat_setup(fn, reps: int) -> list[float]:
    """Run set-up reps times; return every wall time."""
    times = []
    for _ in range(reps):
        gc.collect()
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return times


def _pages_digest(pages) -> str:
    return digest_lines(canonical(p.to_dict()) if p is not None else "null" for p in pages)


def _ndcg(res: Result, pages, judgments) -> None:
    report = evaluate_run(sessions_from_result_pages([p for p in pages if p], judgments))
    res.put("ndcg_at_1", report.ndcg_at[1], "ratio", report.n_sessions)
    res.put("ndcg_at_5", report.ndcg_at[5], "ratio", report.n_sessions)
    res.record["nonrec_at_10"] = report.nonrec_rate


def _apply_gate(res: Result, prep: Prepared, pages, topk_logs=None):
    gate = check_stream(prep, pages, topk_logs)
    for position, problems in sorted(gate.failures.items()):
        res.fail(f"query #{position}: {'; '.join(problems)}")
    return gate


def _latency_metrics(res: Result, q_ns: list[int], label_ns: list[int], wall_s: float) -> None:
    ms = [x / 1e6 for x in q_ns]
    res.record["query_ms"] = [round(x, 4) for x in ms]
    res.put("query_p50_ms", percentile(ms, 50), "ms", len(ms))
    res.put("query_p95_ms", percentile(ms, 95), "ms", len(ms))
    res.put("query_p99_ms", percentile(ms, 99), "ms", len(ms))
    res.put("qps", len(ms) / wall_s, "1/s", len(ms))
    if label_ns:
        lab = [x / 1e6 for x in label_ns]
        res.put("label_apply_p50_ms", percentile(lab, 50), "ms", len(lab))
        res.put("label_apply_p95_ms", percentile(lab, 95), "ms", len(lab))


# -- library workloads: serve, fallback, churn ---------------------------------


def _apply(st, kind, item):
    """One event through the program: a request, or a label write."""
    if kind == QUERY:
        return retrieve(item, st.index, st.text_index, st.model, st.rules, st.store, st.config)
    st.store.add(item)
    st.index, _ = apply_index_removal(st.index, st.store)
    return None


class _Stream:
    """The event stream, served in timed windows that resume where the last
    one stopped.

    The first pass's pages are kept; later passes start from a fresh state
    (the reset is not timed) and must serve the same pages again.
    """

    def __init__(self, res: Result, prep: Prepared) -> None:
        self.res, self.prep = res, prep
        self.state = prep.fresh_state()
        self.first: list[ResultPage | None] = []
        self.q_ns: list[int] = []
        self.label_ns: list[int] = []
        self.wall_ns = 0
        self.passes = 0
        self.next_event = 0
        self._position = 0

    def serve(self, seconds: float, finish_first_pass: bool = False) -> None:
        """Serve events for `seconds` of wall time, and past that until the
        first pass is complete if finish_first_pass."""
        events, res = self.prep.events, self.res
        deadline = self.wall_ns + seconds * 1e9
        gc.collect()
        start = perf_counter_ns()
        while True:
            kind, item = events[self.next_event]
            t0 = perf_counter_ns()
            try:
                page = _apply(self.state, kind, item)
                raised = None
            except Exception as exc:  # a failed request counts and the loop goes on
                page, raised = None, exc
            t1 = perf_counter_ns()
            if kind == QUERY:
                self.q_ns.append(t1 - t0)
                if self.passes == 0:
                    self.first.append(page)
                elif raised is None and page != self.first[self._position]:
                    res.fail(f"pass {self.passes + 1}: page for {item.query_id} differs from pass 1")
                self._position += 1
            else:
                self.label_ns.append(t1 - t0)
            if raised is not None and (kind == LABEL or self.passes > 0):
                res.fail(f"{kind} raised {raised!r}")
            res.attempted += 1
            self.next_event += 1
            if self.next_event == len(events):
                self.passes += 1
                self.next_event = self._position = 0
                self.wall_ns += t1 - start
                if self.wall_ns >= deadline:
                    return
                self.state = self.prep.fresh_state()
                start = perf_counter_ns()
            elif self.wall_ns + t1 - start >= deadline and (self.passes or not finish_first_pass):
                self.wall_ns += t1 - start
                return


def run_library(w: Workload, seed: int, seconds: float) -> Result:
    """Set-up SETUP_REPS times, each followed by an equal share of the timed
    phase. Spreading the timed windows across the run averages over more of
    the machine's speed swings than one block would; every window serves
    the first set-up's state."""
    res = Result()
    setup_times: list[float] = []
    stream = None
    for rep in range(SETUP_REPS):
        gc.collect()
        t0 = perf_counter()
        prep = prepare_library(w, seed)
        setup_times.append(perf_counter() - t0)
        if stream is None:
            stream = _Stream(res, prep)
        del prep
        stream.serve(seconds / SETUP_REPS, finish_first_pass=rep == SETUP_REPS - 1)
    # Read before the gate and digests, so that only set-up and serving count.
    res.put("peak_rss_mb", peak_rss_mb(), "MB")
    prep, pages = stream.prep, stream.first
    res.put("setup_s", median(setup_times), "s", len(setup_times))
    _latency_metrics(res, stream.q_ns, stream.label_ns, stream.wall_ns / 1e9)
    res.record["passes"] = stream.passes + stream.next_event / len(prep.events)
    if stream.label_ns:
        res.record["label_write_share_of_timed_phase"] = sum(stream.label_ns) / stream.wall_ns
    _apply_gate(res, prep, pages)
    _ndcg(res, pages, prep.judgments)
    res.record["inputs_digest"] = inputs_digest(prep)
    res.record["pages_digest"] = _pages_digest(pages)
    res.record["setup_times_s"] = setup_times
    return res


def _one_pass(prep: Prepared):
    """One untraced pass; returns (pages, wall seconds)."""
    st = prep.fresh_state()
    pages = []
    gc.collect()
    t0 = perf_counter()
    for kind, item in prep.events:
        page = _apply(st, kind, item)
        if kind == QUERY:
            pages.append(page)
    return pages, perf_counter() - t0


def _traced_pass(prep: Prepared, tr: Tracer):
    """One pass through replay_page/replay_label; returns pages, top-k calls
    per query, and wall seconds."""
    st = prep.fresh_state()
    pages, topk_logs = [], []
    gc.collect()
    t0 = perf_counter()
    for kind, item in prep.events:
        if kind == QUERY:
            log: list = []
            pages.append(replay_page(item, st, program_topk, tr, log))
            topk_logs.append(log)
        else:
            replay_label(item, st, tr)
    return pages, topk_logs, perf_counter() - t0


def _text_scored(prep: Prepared) -> int:
    """Docs search_text scores over all queries: those sharing a token."""
    postings, lengths = prep.base.text_index.postings, prep.base.text_index.doc_lengths
    total = 0
    for q in prep.queries():
        docs = {d for t in set(tokenize(q.text)) for d in postings.get(t, ())}
        total += sum(1 for d in docs if lengths[d] > 0)
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_metrics(res: Result, prep: Prepared, tr: Tracer, gate, layer_s, untraced_s, traced_s):
    selfs = self_times(tr.spans)
    busy: dict[str, int] = defaultdict(int)
    durations: dict[str, list[int]] = defaultdict(list)
    for span, own in zip(tr.spans, selfs):
        busy[span.name] += own
        durations[span.name].append(span.end_ns - span.start_ns)
    calls = {name: len(d) for name, d in durations.items()}
    c = tr.counts
    n_queries = calls.get("pipeline.retrieve", 0)
    retrieve_ns = sum(durations["pipeline.retrieve"])

    def ms(name):
        return busy.get(name, 0) / 1e6

    values = {name: 0.0 for name in PER_LAYER}
    values.update(layer_s)
    topk_us = [d / 1e3 for d in durations.get("vector_index.topk", ())]
    values.update({
        "embedder.query_calls": calls.get("embedder.embed_text", 0),
        "embedder.query_busy_ms": ms("embedder.embed_text"),
        "vector_index.source_types_busy_ms": ms("vector_index.source_types"),
        "vector_index.topk_calls": len(topk_us),
        "vector_index.topk_busy_ms": ms("vector_index.topk"),
        "vector_index.topk_p50_us": statistics.median(topk_us) if topk_us else 0.0,
        "vector_index.rows_scanned_per_result": _ratio(gate.rows_scanned, c["vector_index.results"]),
        "vector_index.remove_calls": c["vector_index.remove_calls"],
        "vector_index.remove_busy_ms": ms("vector_index.remove"),
        "vector_index.rows_copied_per_removed": _ratio(c["vector_index.rows_copied"], c["vector_index.removed"]),
        "triggers.evaluate_calls": calls.get("triggers.evaluate", 0),
        "triggers.busy_ms": ms("triggers.evaluate"),
        "triggers.ebr_off_ratio": _ratio(c["triggers.ebr_off_queries"], n_queries),
        "thresholds.predict_calls": calls.get("thresholds.predict", 0),
        "thresholds.predict_busy_ms": ms("thresholds.predict"),
        "pipeline.calibrate_busy_ms": ms("pipeline.calibrate"),
        "pipeline.discard_busy_ms": ms("pipeline.discard"),
        "pipeline.discard_ratio": _ratio(c["pipeline.discarded"], c["pipeline.fetched"]),
        "pipeline.merge_busy_ms": ms("pipeline.merge"),
        "text_retrieval.search_calls": calls.get("text_retrieval.search", 0),
        "text_retrieval.search_busy_ms": ms("text_retrieval.search"),
        "text_retrieval.scored_per_result": _ratio(_text_scored(prep), c["text_retrieval.results"]),
        "integrity.demote_busy_ms": ms("integrity.demote"),
        "integrity.demoted_rows": c["integrity.demoted_rows"],
        "integrity.removed_at_serve": c["integrity.removed_at_serve"],
        "integrity.label_writes": calls.get("integrity.label_write", 0),
        "integrity.apply_removal_busy_ms": ms("integrity.apply_removal"),
        "trace.coverage_ratio": _ratio(retrieve_ns - busy["pipeline.retrieve"], retrieve_ns),
        "trace.overhead_ratio": traced_s / untraced_s - 1.0,
    })
    for name, unit in PER_LAYER.items():
        res.put(name, values[name], unit)
    # Self time per layer as a share of the root operation it ran under.
    root_of: list[int] = []
    for i, span in enumerate(tr.spans):
        root_of.append(i if span.parent < 0 else root_of[span.parent])
    root_total: dict[str, int] = defaultdict(int)
    share: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, (span, own) in enumerate(zip(tr.spans, selfs)):
        root = tr.spans[root_of[i]]
        share[root.name][span.name] += own
        if root_of[i] == i:
            root_total[span.name] += span.end_ns - span.start_ns
    res.record["self_time_share"] = {
        root: {name: v / root_total[root] for name, v in sorted(layers.items())}
        for root, layers in share.items()
    }
    res.record["label_write_share_of_traced_pass"] = root_total["integrity.label_write"] / 1e9 / traced_s


def _trace_passes(res: Result, prep: Prepared, layer_s: dict, expected_pages=None):
    """Untraced pass, then traced pass; both must serve the same pages."""
    pages, untraced_s = _one_pass(prep)
    tr = Tracer()
    traced_pages, topk_logs, traced_s = _traced_pass(prep, tr)
    res.attempted += 2 * len(prep.events)
    for position, (a, b) in enumerate(zip(pages, traced_pages)):
        if a != b:
            res.fail(f"replayed page #{position} differs from retrieve's page")
    if expected_pages is not None and expected_pages != pages:
        res.fail("retrieve's pages differ from the CLI's search output")
    gate = _apply_gate(res, prep, pages, topk_logs)
    t0 = perf_counter()
    evaluate_run(sessions_from_result_pages(pages, prep.judgments))
    layer_s["evaluation.busy_ms"] = (perf_counter() - t0) * 1e3
    _layer_metrics(res, prep, tr, gate, layer_s, untraced_s, traced_s)
    res.record["pages_digest"] = _pages_digest(pages)
    return tr


def trace_library(w: Workload, seed: int) -> tuple[Result, Tracer]:
    res = Result()
    prep = prepare_library(w, seed)
    tr = _trace_passes(res, prep, dict(prep.layer_s))
    res.record["inputs_digest"] = inputs_digest(prep)
    return res, tr


# -- batch workload: the CLI chain ---------------------------------------------


class CliFailure(RuntimeError):
    pass


def _cli(argv: list[str]) -> None:
    """ebrguard.cli.main in this process, with its console output captured."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    if code != 0:
        raise CliFailure(f"ebrguard {argv[0]} exited {code}: {err.getvalue().strip()}")


def _gen_data(files: BatchFiles, seed: int) -> None:
    _cli(["gen-data", "--seed", str(seed), "--n-docs", str(N_DOCS),
          "--n-queries", str(N_QUERIES), "--out", str(files.data_dir)])
    save_labels(labels_from_judgments(load_judgments(files.judgments)), files.labels)


def _chain_argv(files: BatchFiles) -> dict[str, list[str]]:
    sigmoid = ["--sigmoid-a", repr(SIGMOID.a), "--sigmoid-b", repr(SIGMOID.b)]
    return {
        "build_index": ["build-index", "--corpus", str(files.corpus), "--out", str(files.index_dir)],
        "fit_thresholds": ["fit-thresholds", "--log", str(files.log), "--p", repr(P),
                           *sigmoid, "--out", str(files.model)],
        "search": ["search", "--queries", str(files.queries), "--corpus", str(files.corpus),
                   "--embeddings", str(files.embeddings), "--model", str(files.model),
                   "--labels", str(files.labels), "--k", "10", *sigmoid,
                   "--out", str(files.results)],
        "evaluate": ["evaluate", "--results", str(files.results), "--judgments",
                     str(files.judgments), "--out", str(files.report)],
    }


def _run_chain(res: Result, files: BatchFiles, step_s: dict[str, float]) -> bool:
    """The four CLI steps in order; stops at the first that fails."""
    for step, argv in _chain_argv(files).items():
        res.attempted += 1
        t0 = perf_counter()
        try:
            _cli(argv)
        except CliFailure as exc:
            res.fail(str(exc))
            return False
        finally:
            step_s[step] = step_s.get(step, 0.0) + perf_counter() - t0
    return True


def _read_pages(path: Path) -> list[ResultPage]:
    with path.open(encoding="utf-8") as fh:
        return [ResultPage.from_dict(json.loads(line)) for line in fh if line.strip()]


@contextlib.contextmanager
def _scratch_dir(root: Path):
    """A fresh directory under the checkout, deleted afterwards."""
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    try:
        yield root
    finally:
        shutil.rmtree(root, ignore_errors=True)


@contextlib.contextmanager
def _timing_retrieve(latencies: list[int]):
    """Time each `retrieve` call the CLI's search makes."""
    inner = cli.retrieve

    def timed_retrieve(*args, **kwargs):
        t0 = perf_counter_ns()
        try:
            return inner(*args, **kwargs)
        finally:
            latencies.append(perf_counter_ns() - t0)

    cli.retrieve = timed_retrieve
    try:
        yield
    finally:
        cli.retrieve = inner


def run_batch(seed: int, seconds: float, work: Path) -> Result:
    """Chains until `seconds` of chain time have passed; each chain starts
    from BATCH_SETUPS_PER_CHAIN fresh set-ups, the last of which it uses."""
    res = Result()
    with _scratch_dir(work):
        files = BatchFiles(work / "chain")

        def setup():
            shutil.rmtree(files.root, ignore_errors=True)
            _gen_data(files, seed)

        setup_times: list[float] = []
        latencies: list[int] = []
        chain_s: list[float] = []
        step_s: dict[str, float] = {}
        first_pages = None
        while not chain_s or sum(chain_s) < seconds:
            setup_times += _repeat_setup(setup, BATCH_SETUPS_PER_CHAIN)
            gc.collect()
            t0 = perf_counter()
            with _timing_retrieve(latencies):
                ok = _run_chain(res, files, step_s)
            chain_s.append(perf_counter() - t0)
            if not ok:
                break
            pages = _read_pages(files.results)
            if first_pages is None:
                first_pages = pages
            elif pages != first_pages:
                res.fail(f"chain {len(chain_s)}: search output differs from chain 1")
        res.put("peak_rss_mb", peak_rss_mb(), "MB")
        res.put("setup_s", median(setup_times), "s", len(setup_times))
        res.put("batch_wall_s", median(chain_s), "s", len(chain_s))
        res.record["cli_step_s"] = {k: v / len(chain_s) for k, v in step_s.items()}
        if first_pages is None:
            return res
        _latency_metrics(res, latencies, [], sum(chain_s))
        prep = prepare_from_files(files, {})
        res.attempted += len(first_pages)
        if len(first_pages) != len(prep.events):
            res.fail(f"search wrote {len(first_pages)} pages for {len(prep.events)} queries")
        else:
            _apply_gate(res, prep, first_pages)
        report = load_report(files.report)
        res.put("ndcg_at_1", report.ndcg_at[1], "ratio", report.n_sessions)
        res.put("ndcg_at_5", report.ndcg_at[5], "ratio", report.n_sessions)
        res.record["nonrec_at_10"] = report.nonrec_rate
        res.record["inputs_digest"] = files_digest(files.inputs())
        res.record["pages_digest"] = _pages_digest(first_pages)
        res.record["setup_times_s"] = setup_times
    return res


def trace_batch(seed: int, work: Path) -> tuple[Result, Tracer | None]:
    res = Result()
    layer_s: dict[str, float] = {}
    with _scratch_dir(work):
        files = BatchFiles(work / "chain")
        data = timed(layer_s, "synth.generate_s", generate_synthetic,
                     synthetic_spec(WORKLOADS["batch-10k"], seed))
        files.data_dir.mkdir(parents=True)
        save_corpus(data.corpus, files.corpus)
        save_queries(data.queries, files.queries)
        save_judgments(data.judgments, files.judgments)
        save_engagement_log(data.engagement_log, files.log)
        save_labels(labels_from_judgments(data.judgments), files.labels)
        del data
        step_s: dict[str, float] = {}
        if not _run_chain(res, files, step_s):
            return res, None
        for step in CLI_STEPS:
            layer_s[f"cli.{step}_s"] = step_s[step]
        prep = prepare_from_files(files, layer_s)
        embeddings = timed(layer_s, "embedder.corpus_s", embed_corpus, prep.corpus)
        timed(layer_s, "embedder.save_s", save_embeddings, embeddings, work / "embeddings.tsv")
        del embeddings
        timed(layer_s, "thresholds.fit_s", fit_model, prep.engagement_log)
        tr = _trace_passes(res, prep, layer_s, expected_pages=_read_pages(files.results))
        res.record["inputs_digest"] = files_digest(files.inputs())
    return res, tr

