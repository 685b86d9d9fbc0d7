"""Planning how aggressive load shedding can be (the paper's motivation).

The introduction of the paper: "The formulas resulting from such an
analysis could be used to determine how aggressive the load shedding can
be without a significant loss in the accuracy."  This example does exactly
that end to end:

1. profile a representative window of the stream (its frequency vector),
2. ask the planner for the smallest keep-probability meeting an accuracy
   target (exact Props 13-14 variance + CLT bound),
3. deploy a shedding sketcher at the planned rate and verify the target
   holds on fresh data.

Run:  python examples/shedding_planner.py
"""

import numpy as np

from repro import (
    AdaptiveSheddingSketcher,
    FagmsSketch,
    plan_shedding_rate,
    predict_relative_error,
    zipf_relation,
)

SEED = 31
BUCKETS = 4_096
TARGET_ERROR = 0.05  # ±5% at 95% confidence


def main() -> None:
    # Step 1: profile window (historical data with the production profile).
    profile = zipf_relation(300_000, 30_000, skew=1.0, seed=SEED)
    workload = profile.frequency_vector()
    print(f"profiled window: {len(profile):,} tuples, "
          f"{workload.support_size:,} distinct values")

    # Step 2: plan.
    print(f"\npredicted F2 error without shedding: "
          f"{predict_relative_error(workload, 1.0, BUCKETS):.2%}")
    plan = plan_shedding_rate(workload, TARGET_ERROR, BUCKETS, confidence=0.95)
    print(f"target ±{TARGET_ERROR:.0%} @ 95%  ->  keep p = "
          f"{plan.keep_probability:.4f}  "
          f"(shed {1 - plan.keep_probability:.1%} of the stream, "
          f"{plan.speedup:.0f}x fewer sketch updates)")
    print(f"predicted error at planned rate: {plan.predicted_error:.2%}")

    # Step 3: deploy on fresh traffic with the same profile and verify.
    print("\nvalidation on fresh streams:")
    violations = 0
    runs = 20
    for run in range(runs):
        fresh = zipf_relation(300_000, 30_000, skew=1.0, seed=1_000 + run)
        truth = fresh.self_join_size()
        sketcher = AdaptiveSheddingSketcher(
            FagmsSketch(BUCKETS, seed=2_000 + run),
            p=plan.keep_probability,
            seed=3_000 + run,
        )
        for chunk in fresh.chunks(65_536):
            sketcher.process(chunk)
        error = abs(sketcher.self_join_size() - truth) / truth
        flag = "OK " if error <= TARGET_ERROR else "MISS"
        violations += error > TARGET_ERROR
        if run < 5 or error > TARGET_ERROR:
            print(f"  run {run:>2}: error {error:.2%}  {flag}")
    print(f"\n{runs - violations}/{runs} runs within target "
          f"(95% confidence predicts ~{int(0.95 * runs)})")


if __name__ == "__main__":
    main()
