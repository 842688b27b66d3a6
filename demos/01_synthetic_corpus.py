"""Generate a synthetic search corpus with planted failure categories.

The generator is seeded and fully deterministic: the same spec always
produces byte-identical files. Every query gets relevant documents at
grades 3/2/1/1 plus grade-0 failures drawn from the paper's fixed failure
mix, and an engagement log whose per-segment score distributions genuinely
differ.
"""

from collections import Counter, defaultdict

import numpy as np

from ebrguard import SyntheticSpec, generate_synthetic
from ebrguard.synth import DEFAULT_FAILURE_MIX

spec = SyntheticSpec(seed=7, n_docs=1000, n_queries=100)
corpus, queries, judgments, log = generate_synthetic(spec)

print(f"{len(corpus)} docs, {len(queries)} queries, "
      f"{len(judgments)} judgments, {len(log)} log records\n")

# The failure mix among grade-0 judgments lands within one count of the
# mix's fractions, thanks to largest-remainder allocation.
failures = Counter(j.failure_category for j in judgments if j.grade == 0)
total = sum(failures.values())
print(f"{'failure category':<20}{'count':>7}{'share':>9}{'target':>9}")
for category, fraction in DEFAULT_FAILURE_MIX.items():
    n = failures[category]
    print(f"{category.value:<20}{n:>7}{n / total:>8.1%}{fraction:>8.0%}")

# Engagement scores: engaged impressions dominate non-engaged ones inside
# every segment, and the segment centers are spread apart. This is the
# premise for customizing discard thresholds per segment.
print(f"\n{'segment':<34}{'engaged mean':>13}{'junk mean':>11}")
by_segment = defaultdict(lambda: {"e": [], "n": []})
for rec in log:
    by_segment[rec.segment]["e" if rec.engaged else "n"].append(rec.raw_score)
for seg, scores in sorted(by_segment.items(), key=lambda kv: kv[0].sort_key()):
    name = f"{seg.user_country}/{seg.language}/{seg.query_intent.value}/{seg.doc_source_type.value}"
    print(f"{name:<34}{np.mean(scores['e']):>13.3f}{np.mean(scores['n']):>11.3f}")

sample = queries[0]
print(f"\nsample query {sample.query_id}: {sample.text!r} "
      f"({sample.country}/{sample.language}, {sample.intent.value})")
for j in judgments:
    if j.query_id == sample.query_id:
        doc = next(d for d in corpus if d.doc_id == j.doc_id)
        tag = j.failure_category.value if j.failure_category else "-"
        print(f"  grade {j.grade}  {doc.title!r:<42} {tag}")
