"""Sigmoid score calibration and per-segment discard thresholds.

Raw cosine scores from different segments are not comparable: a 0.55 can be
a confident match in one country and noise in another. The fix is a
two-step: calibrate scores through a logistic transform, then learn one
discard threshold per (user country, language, intent, source type) segment
from engagement logs, generalizing to unseen segments with a linear model.
"""

from functools import partial

from ebrguard import (
    Intent,
    SegmentKey,
    SigmoidParams,
    SourceType,
    SyntheticSpec,
    fit,
    generate_synthetic,
    predict_threshold,
    segment_targets,
    sigmoid_transform,
)

# -- calibration -------------------------------------------------------------
params = SigmoidParams(a=6.0, b=-3.0)  # pairs with the synthetic score scale
print("calibration g(s) = 1 / (1 + exp(-(a*s + b))):")
for s in (0.0, 0.3, 0.5, 0.7, 0.9):
    print(f"  raw {s:.1f} -> {sigmoid_transform(s, params):.4f}")
print("order never changes (a > 0), but scores now live in (0, 1)\n")

# -- the percentile rule, on a worked example --------------------------------
# Ten engaged scores between 0.2 and 1.0. Keeping the top 30% means the
# threshold is the 3rd-largest score: exactly 0.7.
from ebrguard import EngagementRecord

segment = SegmentKey("US", "en", Intent.PERSON_NAME, SourceType.UN)
scores = [0.2, 0.3, 0.35, 0.4, 0.5, 0.6, 0.65, 0.7, 0.85, 1.0]
log = [
    EngagementRecord(f"q{i}", f"d{i}", s, True, segment)
    for i, s in enumerate(scores)
]
y30 = segment_targets(log, p=0.30, min_support=10)[segment]
print(f"engaged scores {scores}")
print(f"retain top 30% -> threshold {y30}\n")

# -- fitting a model over many segments --------------------------------------
data = generate_synthetic(SyntheticSpec(seed=7, n_docs=1000, n_queries=100))
transform = partial(sigmoid_transform, params=params)
targets = segment_targets(data.engagement_log, p=0.9, transform=transform)
model = fit(targets, p=0.9)
report = model.fit_report

print(f"fit {report.n_segments} segment targets "
      f"(mse {report.mse:.2e}, max residual {report.max_residual:.2e})")
print(f"{'segment':<34}{'target':>8}{'predicted':>11}")
for seg in sorted(targets, key=SegmentKey.sort_key):
    name = f"{seg.user_country}/{seg.language}/{seg.query_intent.value}/{seg.doc_source_type.value}"
    print(f"{name:<34}{targets[seg]:>8.3f}{predict_threshold(model, seg):>11.3f}")

unseen = SegmentKey("CA", "en", Intent.GROUP_TOPIC, SourceType.UN)
print(f"\nunseen segment CA/en/GroupTopic/UN -> "
      f"{predict_threshold(model, unseen):.3f} (unseen values contribute 0)")
