"""ebrguard benchmark entry point.

    python3 perfbench/run.py --workload serve-10k --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. Prints a report, then as its last
line one JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics with --trace 0, the per-layer metrics of the traced
pass with --trace 1. `--workload all` runs every workload in its own
process. Exits 1 when a correctness check fails, 2 on a usage or set-up
error.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("serve-10k", "fallback-10k", "churn-10k", "batch-10k")
OUT_DIR = ROOT / ".perfbench_out"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="timed phase length")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _print_report(name: str, args, res) -> None:
    print(f"workload {name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for metric, (value, unit, n) in res.metrics.items():
        print(f"  {metric:<40} {value:>14.6f} {unit:<6} n={n}")
    rate = res.failed / res.attempted if res.attempted else 1.0
    print(f"  {'error_rate':<40} {rate:>14.6f} ratio  n={res.attempted}")
    for problem in res.problems:
        print(f"  FAIL {problem}", file=sys.stderr)
    for key in ("inputs_digest", "pages_digest"):
        if key in res.record:
            print(f"  {key} {res.record[key]}")


def _run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import runner
    from stats import provenance
    from workloads import WORKLOADS, spec_dict

    w = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    if args.trace:
        if w.cli:
            res, tr = runner.trace_batch(args.seed, work)
        else:
            res, tr = runner.trace_library(w, args.seed)
        wanted = runner.PER_LAYER
    else:
        if w.cli:
            res = runner.run_batch(args.seed, args.seconds, work)
        else:
            res = runner.run_library(w, args.seed, args.seconds)
        tr = None
        wanted = runner.END_TO_END
    missing = [m for m in wanted if m not in res.metrics]
    if missing and res.failed == 0:
        res.fail(f"metrics not measured: {missing}")
    res.record.update(spec=spec_dict(w, args.seed), provenance=provenance())

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    full = {"metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in res.metrics.items()},
            "attempted": res.attempted, "failed": res.failed, "problems": res.problems, **res.record}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(full, indent=2) + "\n", encoding="utf-8")
    if tr is not None:
        tr.write_jsonl(OUT_DIR / f"{stem}-spans.jsonl")

    _print_report(w.name, args, res)
    print(f"  provenance {json.dumps(res.record['provenance'])}")
    print(f"  full record {OUT_DIR / (stem + '.json')}")
    correct = res.failed == 0 and not missing
    line = {
        "correct": correct,
        "attempted": max(res.attempted, 1),
        "failed": res.failed,
        "metrics": {m: {"value": res.metrics[m][0], "unit": u} for m, u in wanted.items() if m in res.metrics},
    }
    print(json.dumps(line))
    return 0 if correct else 1


def _run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    ok = all(r is not None and r["correct"] for r in results.values())
    print(json.dumps({"correct": ok, "workloads": results}))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "ebrguard" / "__init__.py").is_file():
        print(f"error: no ebrguard sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
