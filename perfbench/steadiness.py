"""Steadiness check: untraced runs over several seeds, per-metric spread.

    python3 perfbench/steadiness.py --seeds 1 2 3 4 5 6 7 8 9 10 \
        [--workloads serve-10k ...] [--compare .perfbench_out/steadiness-A.json]

For each workload and end-to-end metric it prints the median, the quartile
spread (Q3 - Q1) / median from `statistics.quantiles(values, n=4)`, and the
metric's bound from BENCHMARK.json. A spread is steady when it is below a
third of the bound (setup_s is exempt). With --compare, it also checks that
no median is worse than the earlier set's median by more than the bound.
Exits 1 if a run fails or a check does not hold.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
    result = json.loads(line) if line.startswith("{") else {}
    result["exit"] = proc.returncode
    result["wall_s"] = time.monotonic() - t0
    return result


def _worse(metric: dict, old: float, new: float) -> float:
    """Relative change in the bad direction."""
    return (new - old) / old if metric["better"] == "lower" else (old - new) / old


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--compare", type=Path, help="an earlier steadiness JSON to compare medians with")
    args = p.parse_args(argv)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    earlier = json.loads(args.compare.read_text(encoding="utf-8")) if args.compare else None

    ok = True
    summary: dict = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            r = _run(workload, seed, bench["run_seconds"])
            runs.append(r)
            status = "ok" if r["exit"] == 0 and r.get("correct") else "FAILED"
            print(f"{workload} seed {seed}: {status} in {r['wall_s']:.1f} s", flush=True)
            ok &= status == "ok"
        good = [r for r in runs if r["exit"] == 0 and r.get("correct")]
        summary[workload] = {"runs": runs, "metrics": {}}
        if len(good) < 2:
            continue
        for name, metric in metrics.items():
            values = [r["metrics"][name]["value"] for r in good]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            steady = name == "setup_s" or spread < metric["bound"] / 3
            line = (f"  {name:<14} median {med:>12.5f}  spread {spread:7.4f}  "
                    f"bound {metric['bound']:.2f}  {'steady' if steady else 'NOT STEADY'}")
            entry = {"values": values, "median": med, "spread": spread, "steady": steady}
            if earlier and workload in earlier and name in earlier[workload]["metrics"]:
                drift = _worse(metric, earlier[workload]["metrics"][name]["median"], med)
                entry["drift"] = drift
                within = drift <= metric["bound"]
                line += f"  drift {drift:+.4f} {'ok' if within else 'WORSE THAN BOUND'}"
                ok &= within
            ok &= steady
            summary[workload]["metrics"][name] = entry
            print(line, flush=True)
    out = ROOT / ".perfbench_out" / f"steadiness-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
