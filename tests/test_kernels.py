"""Equivalence and seam tests for :mod:`repro.kernels`.

The kernel layer's contract is *bit-identity*: whatever backend is
active, the same seeds and the same stream must produce exactly the same
counters as the pre-kernel per-row path (``evaluate_row`` loops plus
``np.add.at``), which the ``"reference"`` backend preserves verbatim.
Everything here asserts with ``np.array_equal`` — not ``allclose`` —
except the one case where exactness is genuinely not promised
(the fused bincount path under arbitrary non-integer float weights,
where only the summation order differs).
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hashing.families import BucketHashFamily, PolynomialHashFamily
from repro.hashing.signs import EH3SignFamily, FourWiseSignFamily
from repro.kernels import (
    BACKEND_ENV_VAR,
    available_backends,
    backend_name,
    get_backend,
    native_available,
    set_backend,
    use_backend,
)
from repro.kernels import backend as backend_module
from repro.sketches.agms import AgmsSketch
from repro.sketches.countmin import CountMinSketch
from repro.sketches.fagms import FagmsSketch

FAST_BACKENDS = ["numpy"] + (["native"] if native_available() else [])
ALL_BACKENDS = ["reference"] + FAST_BACKENDS


@pytest.fixture(autouse=True)
def _restore_backend():
    """Every test leaves the active backend as it found it."""
    previous = backend_name()
    yield
    set_backend(previous)


def _keys(n, seed=0, hi=2**31 - 2):
    return np.random.default_rng(seed).integers(0, hi, size=n, dtype=np.int64)


# ----------------------------------------------------------------------
# Hashing: evaluate_all vs evaluate_row, per backend
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", ALL_BACKENDS)
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 8])
def test_polynomial_evaluate_all_matches_rows(backend, k):
    family = PolynomialHashFamily(k, rows=4, seed=123)
    keys = _keys(257, seed=k)
    with use_backend(backend):
        batched = family.evaluate_all(keys)
    stacked = np.stack([family.evaluate_row(r, keys) for r in range(4)])
    assert batched.dtype == np.uint64
    assert np.array_equal(batched, stacked)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
@pytest.mark.parametrize("buckets", [1, 2, 1024, 1021, 65536, 99991])
def test_bucket_evaluate_all_matches_rows(backend, buckets):
    family = BucketHashFamily(buckets, rows=3, seed=7)
    keys = _keys(301, seed=buckets)
    with use_backend(backend):
        batched = family.evaluate_all(keys)
    stacked = np.stack([family.evaluate_row(r, keys) for r in range(3)])
    assert batched.dtype == np.int64
    assert np.array_equal(batched, stacked)
    assert int(batched.min()) >= 0 and int(batched.max()) < buckets


@pytest.mark.parametrize("backend", ALL_BACKENDS)
@pytest.mark.parametrize("family_cls", [FourWiseSignFamily, EH3SignFamily])
def test_sign_evaluate_all_matches_rows(backend, family_cls):
    family = family_cls(rows=5, seed=42)
    keys = _keys(199, seed=3)
    with use_backend(backend):
        batched = family.evaluate_all(keys)
    stacked = np.stack([family.evaluate_row(r, keys) for r in range(5)])
    assert batched.dtype == np.int8
    assert np.array_equal(batched, stacked)
    assert set(np.unique(batched)) <= {-1, 1}


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_hashing_handles_empty_keys(backend):
    empty = np.empty(0, dtype=np.int64)
    with use_backend(backend):
        assert PolynomialHashFamily(4, 2, seed=1).evaluate_all(empty).shape == (2, 0)
        assert BucketHashFamily(64, 2, seed=1).evaluate_all(empty).shape == (2, 0)
        assert FourWiseSignFamily(2, seed=1).evaluate_all(empty).shape == (2, 0)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_hashing_extreme_keys(backend):
    """Boundary keys (0 and p−2) reduce identically on every backend."""
    family = PolynomialHashFamily(4, rows=2, seed=5)
    keys = np.array([0, 1, 2**31 - 2, 2**30, 12345], dtype=np.int64)
    with use_backend(backend):
        batched = family.evaluate_all(keys)
    stacked = np.stack([family.evaluate_row(r, keys) for r in range(2)])
    assert np.array_equal(batched, stacked)


# ----------------------------------------------------------------------
# Sketch counters: fast backends vs the reference backend
# ----------------------------------------------------------------------


def _fill(sketch_factory, weighted, chunks=3, n=2000, seed=17):
    """Build one sketch per backend from an identical stream; return states."""
    states = {}
    for name in ALL_BACKENDS:
        with use_backend(name):
            sketch = sketch_factory()
            rng = np.random.default_rng(seed)
            for _ in range(chunks):
                keys = rng.integers(0, 2**31 - 2, size=n, dtype=np.int64)
                if weighted:
                    # Integer-valued float weights: partial-sum reassociation
                    # is exact, so equality must be bit-for-bit.
                    weights = rng.integers(-3, 8, size=n).astype(np.float64)
                else:
                    weights = None
                sketch.update(keys, weights)
            states[name] = sketch._state().copy()
    return states


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("sign_family", ["fourwise", "eh3"])
@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("buckets", [1024, 1021])
def test_fagms_counters_bit_identical(weighted, sign_family, rows, buckets):
    states = _fill(
        lambda: FagmsSketch(buckets, rows, seed=7, sign_family=sign_family),
        weighted,
    )
    for name in FAST_BACKENDS:
        assert np.array_equal(states[name], states["reference"]), name


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_countmin_counters_bit_identical(weighted):
    states = _fill(lambda: CountMinSketch(512, rows=4, seed=11), weighted)
    for name in FAST_BACKENDS:
        assert np.array_equal(states[name], states["reference"]), name


@pytest.mark.parametrize("sign_family", ["fourwise", "eh3"])
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_agms_counters_bit_identical(sign_family, weighted):
    states = _fill(
        lambda: AgmsSketch(16, seed=13, sign_family=sign_family), weighted
    )
    for name in FAST_BACKENDS:
        assert np.array_equal(states[name], states["reference"]), name


def test_arbitrary_float_weights_close():
    """Non-integer weights: bincount reassociates partial sums, so the
    numpy backend promises only closeness; the native backend accumulates
    element by element in stream order and stays bit-identical."""
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 2**31 - 2, size=4096, dtype=np.int64)
    weights = rng.normal(size=4096)
    states = {}
    for name in ALL_BACKENDS:
        with use_backend(name):
            sketch = FagmsSketch(256, 3, seed=7)
            sketch.update(keys, weights)
            states[name] = sketch._state().copy()
    np.testing.assert_allclose(states["numpy"], states["reference"], rtol=1e-12)
    if "native" in states:
        assert np.array_equal(states["native"], states["reference"])


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_empty_batch_is_a_noop(backend):
    with use_backend(backend):
        for sketch in (
            FagmsSketch(64, 2, seed=1),
            CountMinSketch(64, 2, seed=1),
            AgmsSketch(4, seed=1),
        ):
            before = sketch._state().copy()
            sketch.update(np.empty(0, dtype=np.int64))
            assert np.array_equal(sketch._state(), before)


def test_estimates_match_across_backends():
    """Query paths (gather/median, point estimate) agree bit-for-bit."""
    keys = _keys(5000, seed=21, hi=1000)
    queries = np.arange(50, dtype=np.int64)
    freq, point = {}, {}
    for name in ALL_BACKENDS:
        with use_backend(name):
            f = FagmsSketch(256, 5, seed=2)
            f.update(keys)
            freq[name] = f.estimate_frequencies(queries)
            c = CountMinSketch(256, 4, seed=2)
            c.update(keys)
            point[name] = [c.point_estimate(int(q)) for q in queries]
    for name in FAST_BACKENDS:
        assert np.array_equal(freq[name], freq["reference"])
        assert point[name] == point["reference"]


# ----------------------------------------------------------------------
# Legacy pin: an inline reimplementation of the pre-kernel update path,
# independent of the kernels package entirely.
# ----------------------------------------------------------------------


def _legacy_fagms_update(sketch, keys, weights=None):
    """The pre-kernel F-AGMS update: per-row evaluate_row + np.add.at."""
    keys = np.asarray(keys)
    deltas = None if weights is None else np.asarray(weights, dtype=np.float64)
    for row in range(sketch.rows):
        buckets = sketch._bucket_hash.evaluate_row(row, keys)
        signs = sketch._signs.evaluate_row(row, keys).astype(np.float64)
        np.add.at(
            sketch._counters[row],
            buckets,
            signs if deltas is None else signs * deltas,
        )


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_fagms_matches_inline_legacy_reimplementation(backend):
    keys = _keys(3000, seed=8)
    weights = np.random.default_rng(8).integers(1, 5, size=3000).astype(np.float64)
    with use_backend(backend):
        kernel_sketch = FagmsSketch(512, 3, seed=7)
        kernel_sketch.update(keys)
        kernel_sketch.update(keys, weights)
    legacy_sketch = FagmsSketch(512, 3, seed=7)
    _legacy_fagms_update(legacy_sketch, keys)
    _legacy_fagms_update(legacy_sketch, keys, weights)
    assert np.array_equal(kernel_sketch._counters, legacy_sketch._counters)


# ----------------------------------------------------------------------
# The dispatch seam
# ----------------------------------------------------------------------


def test_available_backends_lists_all():
    names = available_backends()
    assert "numpy" in names and "reference" in names and "native" in names


def test_unknown_backend_raises():
    with pytest.raises(ConfigurationError, match="unknown kernel backend"):
        set_backend("no-such-backend")


def test_use_backend_restores_previous():
    set_backend("numpy")
    with use_backend("reference") as backend:
        assert backend.name == "reference"
        assert backend_name() == "reference"
    assert backend_name() == "numpy"


def test_use_backend_restores_after_exception():
    set_backend("numpy")
    with pytest.raises(RuntimeError):
        with use_backend("reference"):
            raise RuntimeError("boom")
    assert backend_name() == "numpy"


def test_env_var_selects_backend(monkeypatch):
    monkeypatch.setattr(backend_module, "_active", None)
    monkeypatch.setenv(BACKEND_ENV_VAR, "reference")
    assert get_backend().name == "reference"


def test_env_var_defaults_to_numpy(monkeypatch):
    monkeypatch.setattr(backend_module, "_active", None)
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    assert get_backend().name == "numpy"


def test_native_activation_reports_build_failure(monkeypatch):
    """When the build failed, activating the native backend explains why."""
    from repro.kernels import native as native_module

    monkeypatch.setattr(native_module, "_lib", None)
    monkeypatch.setattr(native_module, "_build_error", "cc: not found")
    with pytest.raises(ConfigurationError, match="native kernel backend unavailable"):
        native_module._library()
    assert native_module.native_available() is False
    assert native_module.native_build_error() == "cc: not found"


def _native_available_in_fresh_process(tmp_path, **env_extra):
    """Run ``native_available()`` in a new interpreter building under *tmp_path*."""
    env = dict(os.environ, TMPDIR=str(tmp_path), **env_extra)
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [
            sys.executable,
            "-c",
            "from repro.kernels import native_available; print(native_available())",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_native_build_leaves_no_temp_directory(tmp_path):
    """A fresh process that builds the native library cleans up after it."""
    process = _native_available_in_fresh_process(tmp_path)
    assert process.returncode == 0, process.stderr
    # Built or not (no compiler), nothing of the build may stay behind.
    assert process.stdout.strip() in ("True", "False")
    assert not list(tmp_path.glob("repro-kernels-*"))


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler (cc)")
def test_native_build_falls_back_to_the_portable_compile(tmp_path):
    """A compiler that rejects ``-march=native`` gets the portable compile."""
    log = tmp_path / "cc.log"
    wrapper = tmp_path / "cc-no-march"
    wrapper.write_text(
        "#!/bin/sh\n"
        f'echo "$*" >> "{log}"\n'
        'case " $* " in *" -march=native "*) exit 1 ;; esac\n'
        'exec cc "$@"\n'
    )
    wrapper.chmod(0o755)
    process = _native_available_in_fresh_process(tmp_path, CC=str(wrapper))
    assert process.returncode == 0, process.stderr
    assert process.stdout.strip() == "True"
    attempts = log.read_text().splitlines()
    assert len(attempts) == 2
    assert "-march=native" in attempts[0].split()
    assert "-march=native" not in attempts[1].split()
    assert not list(tmp_path.glob("repro-kernels-*"))


# ----------------------------------------------------------------------
# Backend primitives directly (scatter/gather/sign reductions)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", FAST_BACKENDS)
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_scatter_add_matches_reference(backend, weighted):
    rng = np.random.default_rng(31)
    rows, buckets, n = 3, 37, 500
    indices = rng.integers(0, buckets, size=(rows, n), dtype=np.int64)
    weights = rng.integers(-2, 9, size=n).astype(np.float64) if weighted else None
    expected = np.zeros((rows, buckets))
    get_backend()  # ensure resolution before direct registry access
    with use_backend("reference"):
        get_backend().scatter_add(expected, indices, weights)
    actual = np.zeros((rows, buckets))
    with use_backend(backend):
        get_backend().scatter_add(actual, indices, weights)
    assert np.array_equal(actual, expected)


@pytest.mark.parametrize("backend", FAST_BACKENDS)
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_signed_scatter_add_matches_reference(backend, weighted):
    rng = np.random.default_rng(32)
    rows, buckets, n = 2, 53, 700
    indices = rng.integers(0, buckets, size=(rows, n), dtype=np.int64)
    signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(rows, n))
    weights = rng.integers(1, 6, size=n).astype(np.float64) if weighted else None
    expected = np.zeros((rows, buckets))
    with use_backend("reference"):
        get_backend().signed_scatter_add(expected, indices, signs, weights)
    actual = np.zeros((rows, buckets))
    with use_backend(backend):
        get_backend().signed_scatter_add(actual, indices, signs, weights)
    assert np.array_equal(actual, expected)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_gather_and_sign_reductions(backend):
    rng = np.random.default_rng(33)
    counters = rng.normal(size=(4, 29))
    indices = rng.integers(0, 29, size=(4, 100), dtype=np.int64)
    signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(4, 100))
    weights = rng.normal(size=100)
    with use_backend(backend):
        backend_obj = get_backend()
        gathered = backend_obj.gather(counters, indices)
        assert gathered.shape == (4, 100)
        expected = np.stack([counters[r, indices[r]] for r in range(4)])
        assert np.array_equal(gathered, expected)
        assert np.array_equal(
            backend_obj.sign_sum(signs), signs.sum(axis=1, dtype=np.float64)
        )
        out = np.empty(4)
        result = backend_obj.sign_dot(signs, weights, out=out)
        assert result is out
        np.testing.assert_allclose(out, signs.astype(np.float64) @ weights)
