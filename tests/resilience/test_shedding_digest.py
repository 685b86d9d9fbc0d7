"""Shedding answers pinned bit for bit.

Every estimate and interval end of the shedding sketcher, and the
self-join estimate of a sharded shedding scan, is rendered with
``float.hex`` and compared with the value recorded before the rate
ledger moved into :class:`~repro.core.load_shedding.LoadShedder`.  The
rates 0.35, 0.7 and 0.3 are not powers of two, so summing the per-segment
correction in any other order changes a bit.  Do not update the
constants to make the test pass — fix the estimator.
"""

from __future__ import annotations

import pytest

from repro.kernels import use_backend
from repro.parallel import run_sharded_sketch
from repro.resilience.adaptive import AdaptiveSheddingSketcher
from repro.sketches import FagmsSketch
from repro.streams import zipf_relation

#: label -> float.hex of the recorded value.
EXPECTED = {
    "fixed chebyshev high": "0x1.c5f76eb18f728p+24",
    "fixed chebyshev low": "0x1.aa39229ce11afp+23",
    "fixed clt high": "0x1.825158a192a61p+24",
    "fixed clt low": "0x1.18c2a75e6d59fp+24",
    "fixed join_size": "0x1.346a000000000p+19",
    "fixed self_join_size": "0x1.4d8a000000000p+24",
    "retuned chebyshev high": "0x1.c002891836574p+24",
    "retuned chebyshev low": "0x1.c19399137e6c1p+23",
    "retuned clt high": "0x1.81505465ad43ep+24",
    "retuned clt low": "0x1.1f7c013c48496p+24",
    "retuned join_size": "0x1.6494124924924p+19",
    "retuned self_join_size": "0x1.50662ad0fac6ap+24",
    "sharded p=0.25 self_join_size": "0x1.5768a00000000p+24",
    "sharded p=0.3 self_join_size": "0x1.61a2a471c71c1p+24",
}

CHUNK = 1_000
#: Keep-rates in force over equal parts of the stream, per case.
SCHEDULES = {"fixed": (0.25,), "retuned": (1.0, 0.35, 0.7)}
METHODS = ("chebyshev", "clt")


def _stream(seed: int):
    return zipf_relation(30_000, 2_000, 1.0, seed=seed).keys


def _shed(sketch, keys, rates, seed: int) -> AdaptiveSheddingSketcher:
    sketcher = AdaptiveSheddingSketcher(sketch, rates[0], seed=seed)
    chunks = [keys[i : i + CHUNK] for i in range(0, keys.size, CHUNK)]
    part = len(chunks) // len(rates)
    for index, chunk in enumerate(chunks):
        if index and index % part == 0:
            sketcher.set_rate(rates[index // part])
        sketcher.process(chunk)
    return sketcher


def _sketcher_values(case: str) -> dict:
    rates = SCHEDULES[case]
    template = FagmsSketch(512, 3, seed=41)
    left = _shed(template, _stream(42), rates, seed=43)
    right = _shed(template.copy_empty(), _stream(44), rates, seed=45)
    values = {
        f"{case} self_join_size": left.self_join_size(),
        f"{case} join_size": left.join_size(right),
    }
    for method in METHODS:
        interval = left.self_join_interval(0.95, method=method)
        values[f"{case} {method} low"] = interval.low
        values[f"{case} {method} high"] = interval.high
    return values


def _sharded_value(p: float) -> float:
    result = run_sharded_sketch(
        _stream(46),
        FagmsSketch(512, 3, seed=47),
        shards=3,
        p=p,
        seed=48,
        pool=None,
        chunk_size=CHUNK,
    )
    return result.self_join_size()


def _values() -> dict:
    values = {}
    for case in SCHEDULES:
        values.update(_sketcher_values(case))
    for p in (0.25, 0.3):
        values[f"sharded p={p} self_join_size"] = _sharded_value(p)
    return values


@pytest.fixture(scope="module")
def values() -> dict:
    # Weighted float updates round in the order a backend adds them; the
    # values were recorded on the numpy backend.
    with use_backend("numpy"):
        return _values()


@pytest.mark.parametrize("label", sorted(EXPECTED))
def test_shedding_answer_is_pinned(values, label):
    assert float(values[label]).hex() == EXPECTED[label]


def test_every_answer_is_pinned(values):
    assert sorted(values) == sorted(EXPECTED)
