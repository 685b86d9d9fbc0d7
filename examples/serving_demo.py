"""Serving sketch estimates while the scan is still running.

Two TPC-H-flavoured streams (``lineitem`` and ``orders``) ingest on
background threads while an HTTP query service answers point-frequency,
self-join, and set-expression queries from atomically rotated snapshots —
every answer carrying a variance-derived confidence interval and the
snapshot generation it was computed from.  A per-tenant admission
controller sheds an over-quota tenant with a ``Retry-After`` hint while
a well-behaved tenant keeps getting answers.

This is the paper's online-aggregation story (estimates of provable
quality at any point of the scan) lifted into a multi-tenant service:
ingestion never blocks on queries, queries never see a torn update.

Ingestion runs as dataplane pipelines — a paced
:class:`~repro.dataplane.IterableSource` feeding a
:class:`~repro.dataplane.RegistrySink` over a bounded queue, with a
final snapshot rotation on flush — on executor threads whose results the
demo takes, so a failing source or chunk raises here instead of dying
silently on a background thread.

Run:  python examples/serving_demo.py
"""

import json
import time
import urllib.error
import urllib.request
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np

from repro.dataplane import IterableSource, Pipeline, RegistrySink
from repro.serving import (
    AdmissionController,
    RotationPolicy,
    SketchRegistry,
    TenantPolicy,
    serve_in_thread,
)

SEED = 42
LINEITEM_TUPLES = 120_000
ORDERS_TUPLES = 30_000
ORDER_KEYS = 6_000
CHUNKS = 60


def ask(url: str, tenant: str) -> dict:
    request = urllib.request.Request(url, headers={"X-Tenant": tenant})
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


def show(label: str, answer: dict) -> None:
    interval = answer["interval"]
    meta = next(iter(answer["streams"].values()))
    print(f"  {label:<22} {answer['estimate']:>14,.0f}   "
          f"95% CI [{interval['low']:>13,.0f}, {interval['high']:>13,.0f}]   "
          f"gen {meta['generation']:>3}  scanned {meta['fraction']:.0%}")


def main() -> None:
    rng = np.random.default_rng(SEED)
    lineitem = rng.zipf(1.2, size=LINEITEM_TUPLES) % ORDER_KEYS
    orders = rng.permutation(ORDER_KEYS).repeat(ORDERS_TUPLES // ORDER_KEYS)

    registry = SketchRegistry(
        buckets=4_096,
        rows=5,
        seed=SEED,
        policy=RotationPolicy(every_chunks=1),
    )
    registry.register_stream("lineitem", LINEITEM_TUPLES)
    registry.register_stream("orders", ORDERS_TUPLES)

    admission = AdmissionController(
        {
            "analyst": TenantPolicy(qps=200.0, burst=50.0),
            "scraper": TenantPolicy(qps=1.0, burst=2.0),
        }
    )

    def paced(chunks):
        for chunk in chunks:
            time.sleep(0.005)  # slow the scan so mid-flight queries land
            yield chunk

    def ingest_pipeline(pool, name, chunks) -> Future:
        pipeline = Pipeline(
            IterableSource(paced(chunks)),
            sinks=[RegistrySink(registry, name)],
            queue_depth=4,
        )
        return pool.submit(pipeline.run)

    with (
        serve_in_thread(registry, admission=admission) as handle,
        ThreadPoolExecutor(2, thread_name_prefix="ingest") as pool,
    ):
        print(f"query service on {handle.url}, scanning "
              f"{LINEITEM_TUPLES:,} lineitem + {ORDERS_TUPLES:,} orders tuples")
        scans = [
            ingest_pipeline(pool, "lineitem", np.array_split(lineitem, CHUNKS)),
            ingest_pipeline(pool, "orders", np.array_split(orders, CHUNKS)),
        ]

        print("\nestimates while the scan is in flight:")
        for _ in range(3):
            time.sleep(0.08)
            answer = ask(
                f"{handle.url}/v1/query/self_join?stream=lineitem", "analyst"
            )
            show("self-join(lineitem)", answer)

        for scan in scans:
            scan.result()  # re-raises a failed ingest
        print("\nestimates at the end of the scan:")
        show(
            "self-join(lineitem)",
            ask(f"{handle.url}/v1/query/self_join?stream=lineitem", "analyst"),
        )
        show(
            "point freq(key=17)",
            ask(
                f"{handle.url}/v1/query/point?stream=lineitem&key=17",
                "analyst",
            ),
        )
        body = json.dumps(
            {"op": "union", "streams": ["lineitem", "orders"]}
        ).encode()
        request = urllib.request.Request(
            f"{handle.url}/v1/query/expression",
            data=body,
            headers={"X-Tenant": "analyst", "Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            union = json.loads(response.read())
        print(f"  union F2(lineitem ⊎ orders) = {union['estimate']:,.0f}   "
              f"95% CI half-width {(union['interval']['high'] - union['interval']['low']) / 2:,.0f}")

        print("\ntenant quotas (scraper is limited to 1 qps, burst 2):")
        served = shed = 0
        retry_after = 0.0
        for _ in range(6):
            try:
                ask(f"{handle.url}/v1/query/self_join?stream=orders", "scraper")
                served += 1
            except urllib.error.HTTPError as error:
                if error.code != 429:
                    raise
                shed += 1
                retry_after = float(error.headers["Retry-After"])
        print(f"  scraper: {served} served, {shed} shed with 429 "
              f"(Retry-After {retry_after:.2f}s)")
        answer = ask(f"{handle.url}/v1/query/self_join?stream=orders", "analyst")
        print(f"  analyst: still served (gen "
              f"{answer['streams']['orders']['generation']})")


if __name__ == "__main__":
    main()
