"""repro — Sketching Sampled Data Streams (Rusu & Dobra, ICDE 2009).

A complete reproduction of the paper's system: AGMS / F-AGMS sketches,
the three sampling schemes (Bernoulli, with replacement, without
replacement), the combined *sketch-over-samples* estimators with their
exact variance theory, and the three applications (load shedding, i.i.d.
streams, online aggregation).

Quick start::

    from repro import (
        FagmsSketch, BernoulliSampler, zipf_relation,
        sketch_over_sample, estimate_self_join_size,
    )

    relation = zipf_relation(100_000, 10_000, skew=1.0, seed=7)
    sketch = FagmsSketch(buckets=2_000, seed=42)
    info = sketch_over_sample(relation, BernoulliSampler(0.1), sketch, seed=3)
    estimate = estimate_self_join_size(sketch, info)
    print(estimate.value, "vs true", relation.self_join_size())

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.frequency` / :mod:`repro.streams` — data substrate
* :mod:`repro.hashing` / :mod:`repro.sketches` — sketch substrate
* :mod:`repro.sampling` — sampling substrate + moment machinery
* :mod:`repro.variance` — exact estimator expectation/variance theory
* :mod:`repro.core` — the paper's combined estimators and applications
* :mod:`repro.engine` — online aggregation
* :mod:`repro.resilience` — fault-tolerant streaming runtime
* :mod:`repro.parallel` — sharded multiprocess sketching engine
* :mod:`repro.observability` — metrics, tracing, profiling, exporters
* :mod:`repro.experiments` — harness regenerating Figs 1–8
"""

from .core import (
    GenerativeModelEstimator,
    JoinEstimate,
    LoadShedder,
    SelfJoinEstimate,
    SheddingPlan,
    estimate_join_size,
    estimate_self_join_size,
    join_interval,
    plan_shedding_rate,
    predict_relative_error,
    sample_join_size,
    sample_self_join_size,
    self_join_interval,
    sketch_over_sample,
)
from .errors import (
    BadRecordError,
    CheckpointError,
    ConfigurationError,
    DomainError,
    EstimationError,
    IncompatibleSketchError,
    InsufficientDataError,
    MergeError,
    ReproError,
    RetryExhaustedError,
    SerializationError,
    StreamIntegrityError,
)
from .observability import NULL_OBSERVER, Observer
from .parallel import (
    ShardedScanResult,
    WorkerPool,
    merge_tree,
    parallel_update,
    run_sharded_sketch,
)
from .resilience import (
    AdaptiveSheddingSketcher,
    ChaosInjector,
    CheckpointManager,
    ChunkEnvelope,
    InputHardener,
    LoadGovernor,
    SimulatedCrash,
    StreamRuntime,
)
from .frequency import FrequencyVector
from .sampling import (
    BernoulliSampler,
    ReservoirSampler,
    SampleInfo,
    Sampler,
    SamplingCoefficients,
    WithReplacementSampler,
    WithoutReplacementSampler,
)
from .sketches import (
    AgmsSketch,
    CountMinSketch,
    FagmsSketch,
    Sketch,
    join_size,
    load_sketch,
    save_sketch,
    self_join_size,
)
from .streams import (
    Relation,
    TpchTables,
    ZipfDistribution,
    generate_tpch,
    uniform_relation,
    zipf_frequency_vector,
    zipf_relation,
)
from .variance import (
    ConfidenceInterval,
    VarianceDecomposition,
    chebyshev_interval,
    clt_interval,
    decompose_combined_variance,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "ConfigurationError",
    "DomainError",
    "EstimationError",
    "InsufficientDataError",
    "IncompatibleSketchError",
    "MergeError",
    "SerializationError",
    "CheckpointError",
    "StreamIntegrityError",
    "BadRecordError",
    "RetryExhaustedError",
    # data substrate
    "FrequencyVector",
    "Relation",
    "ZipfDistribution",
    "zipf_relation",
    "zipf_frequency_vector",
    "uniform_relation",
    "TpchTables",
    "generate_tpch",
    # sketches
    "Sketch",
    "AgmsSketch",
    "FagmsSketch",
    "CountMinSketch",
    "join_size",
    "self_join_size",
    # sampling
    "Sampler",
    "SampleInfo",
    "SamplingCoefficients",
    "BernoulliSampler",
    "WithReplacementSampler",
    "WithoutReplacementSampler",
    "ReservoirSampler",
    # core estimators & applications
    "sketch_over_sample",
    "estimate_join_size",
    "estimate_self_join_size",
    "JoinEstimate",
    "SelfJoinEstimate",
    "join_interval",
    "self_join_interval",
    "LoadShedder",
    "GenerativeModelEstimator",
    "SheddingPlan",
    "plan_shedding_rate",
    "predict_relative_error",
    "sample_join_size",
    "sample_self_join_size",
    "save_sketch",
    "load_sketch",
    # resilience
    "AdaptiveSheddingSketcher",
    "LoadGovernor",
    "InputHardener",
    "CheckpointManager",
    "ChunkEnvelope",
    "StreamRuntime",
    "ChaosInjector",
    "SimulatedCrash",
    # observability
    "Observer",
    "NULL_OBSERVER",
    # parallel
    "WorkerPool",
    "ShardedScanResult",
    "run_sharded_sketch",
    "parallel_update",
    "merge_tree",
    # variance / bounds
    "ConfidenceInterval",
    "chebyshev_interval",
    "clt_interval",
    "VarianceDecomposition",
    "decompose_combined_variance",
]
