"""The repo-specific invariant rules.

Importing this package registers every rule with
:data:`repro.analysis.registry.RULE_REGISTRY`.
"""

from __future__ import annotations

from .api_consistency import ApiConsistencyRule
from .async_blocking import AsyncBlockingRule
from .backoff_discipline import BackoffDisciplineRule
from .checkpoint_schema import CheckpointSchemaRule
from .determinism import DeterminismRule
from .dtype_safety import DtypeSafetyRule
from .estimator_contract import EstimatorContractRule
from .float_equality import FloatEqualityRule
from .ingest_discipline import IngestDisciplineRule
from .kernel_seam import KernelSeamRule
from .naming import MetricNameRule

__all__ = [
    "ApiConsistencyRule",
    "AsyncBlockingRule",
    "BackoffDisciplineRule",
    "CheckpointSchemaRule",
    "DeterminismRule",
    "DtypeSafetyRule",
    "EstimatorContractRule",
    "FloatEqualityRule",
    "IngestDisciplineRule",
    "KernelSeamRule",
    "MetricNameRule",
]
