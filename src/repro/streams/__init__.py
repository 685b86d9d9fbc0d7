"""Data-stream substrate: relations, synthetic generators, TPC-H dbgen-lite.

The paper's experiments (Section VII) run over two kinds of data:

* synthetic single-attribute streams drawn from Zipfian distributions with
  skew ``z ∈ [0, 5]`` over a domain of 10⁶ values (10⁷–10⁸ tuples), and
* the TPC-H scale-1 dataset (relations ``lineitem`` and ``orders`` joined on
  the order key).

This subpackage provides both: :mod:`~repro.streams.synthetic` generates
Zipf/uniform relations at any scale, and :mod:`~repro.streams.tpch` is a
self-contained ``dbgen``-lite that reproduces the structural properties of
the TPC-H join columns (see DESIGN.md §3 for the substitution rationale).
:class:`~repro.streams.base.Relation` is the in-memory representation shared
by samplers, sketches, and the online-aggregation engine.
"""

from .arrival import (
    ServiceModel,
    SimulationResult,
    poisson_arrivals,
    simulate_backlog,
    sustainable_rate,
)
from .base import Relation, iter_chunks
from .io import (
    read_stream,
    stream_domain_size,
    stream_length,
    stream_to_relation,
    write_stream,
)
from .synthetic import (
    ZipfDistribution,
    make_join_pair,
    uniform_relation,
    zipf_frequency_vector,
    zipf_relation,
)
from .tpch import TpchTables, generate_tpch

__all__ = [
    "Relation",
    "iter_chunks",
    "ZipfDistribution",
    "zipf_relation",
    "zipf_frequency_vector",
    "uniform_relation",
    "make_join_pair",
    "TpchTables",
    "generate_tpch",
    "write_stream",
    "read_stream",
    "stream_length",
    "stream_domain_size",
    "stream_to_relation",
    "poisson_arrivals",
    "ServiceModel",
    "SimulationResult",
    "simulate_backlog",
    "sustainable_rate",
]
