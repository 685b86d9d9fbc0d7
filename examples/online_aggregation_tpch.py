"""Online aggregation over TPC-H (Section VI-C's application).

Scenario: a data-warehouse engine scans ``lineitem`` and ``orders`` in
random order and wants join-size and frequency-moment statistics *while*
the scan runs — e.g. to size hash tables or pick a join strategy early.
Sketching the scanned prefix costs one counter update per tuple; the WOR
corrections turn the sketch into an unbiased full-relation estimate at any
point of the scan.

The demo prints the progressive estimates with confidence intervals; the
paper's observation to look for: the estimates are stable from roughly the
10% mark onward.  The intervals are the paper's analysis-mode ones: the
exact combined variance (Props 10/12 and 16, which need the true frequency
vectors) with the CLT bound, evaluated at each snapshot's WOR prefix.

Run:  python examples/online_aggregation_tpch.py
"""

from repro import generate_tpch, join_interval, self_join_interval
from repro.engine import OnlineStatisticsEngine, run_lockstep_scan

SEED = 42
CHECKPOINTS = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0)


def main() -> None:
    tables = generate_tpch(scale_factor=0.02, seed=SEED)  # ~30k orders
    print(f"TPC-H dbgen-lite: {tables.n_orders:,} orders, "
          f"{tables.n_lineitems:,} lineitems\n")
    lineitem_fv = tables.lineitem.frequency_vector()

    # --- F2 of lineitem.l_orderkey (Fig 8's statistic) ------------------
    truth_f2 = tables.exact_lineitem_f2()
    engine = OnlineStatisticsEngine(buckets=4_096, seed=SEED + 1)
    scan = run_lockstep_scan(
        engine, {"lineitem": tables.lineitem}, checkpoints=CHECKPOINTS
    )
    print(f"F2(l_orderkey), true value {truth_f2:,}")
    print(f"{'scanned':>8}  {'estimate':>12}  {'95% CI half-width':>18}  {'rel.err':>8}")
    for fraction, snapshot in zip(CHECKPOINTS, scan):
        estimate = snapshot.self_join_size("lineitem")
        interval = self_join_interval(
            estimate,
            lineitem_fv,
            snapshot.relation("lineitem").info(),
            snapshot.averaged_estimators,
        )
        error = abs(estimate - truth_f2) / truth_f2
        print(f"{fraction:>8.0%}  {estimate:>12,.0f}  "
              f"{interval.half_width:>18,.0f}  {error:>8.2%}")

    # --- |lineitem ⋈ orders| (Fig 7's statistic) -------------------------
    truth_join = tables.exact_join_size()
    engine = OnlineStatisticsEngine(buckets=4_096, seed=SEED + 2)
    scan = run_lockstep_scan(
        engine,
        {"lineitem": tables.lineitem, "orders": tables.orders},
        checkpoints=CHECKPOINTS,
    )
    print(f"\n|lineitem ⋈ orders|, true value {truth_join:,}")
    print(f"{'scanned':>8}  {'estimate':>12}  {'95% CI half-width':>18}  {'rel.err':>8}")
    for fraction, snapshot in zip(CHECKPOINTS, scan):
        estimate = snapshot.join_size("lineitem", "orders")
        interval = join_interval(
            estimate,
            lineitem_fv,
            tables.orders.frequency_vector(),
            snapshot.relation("lineitem").info(),
            snapshot.relation("orders").info(),
            snapshot.averaged_estimators,
        )
        error = abs(estimate - truth_join) / truth_join
        print(f"{fraction:>8.0%}  {estimate:>12,.0f}  "
              f"{interval.half_width:>18,.0f}  {error:>8.2%}")


if __name__ == "__main__":
    main()
