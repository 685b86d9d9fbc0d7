"""REP001 — randomness must flow through :mod:`repro.rng`.

The paper's Monte-Carlo validation (variance checks against the closed
forms of Props 9–16) is only reproducible when every random draw descends
from one seed threaded through ``repro.rng.as_generator``/``spawn``.  A
module that calls ``np.random.default_rng()`` (or the legacy global numpy
RNG, or the stdlib :mod:`random` module) creates an unauditable entropy
source and silently breaks trial-for-trial reproducibility.

The rule also bans *ambient entropy* — ``os.getpid``, ``os.urandom``,
``time.time``, ``uuid.uuid4``, the :mod:`secrets` module — being mixed
into seeds.  The classic multiprocessing bug is seeding each worker from
its pid or the wall clock, which makes every run unrepeatable; worker
RNGs must instead descend from ``SeedSequence.spawn`` substreams handed
out by the coordinator (see :mod:`repro.parallel.worker`).  Monotonic
*timers* (``time.perf_counter``/``time.monotonic``) stay legal — they
measure cost, they never feed seeds.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..registry import FileContext, Finding, Rule, register_rule
from .common import qualified_name

__all__ = ["DeterminismRule"]

#: numpy.random entry points that mint or reseed generators ad hoc.
_BANNED_NUMPY = {
    "numpy.random.default_rng",
    "numpy.random.seed",
    "numpy.random.RandomState",
    "numpy.random.Generator",
    "numpy.random.PCG64",
    "numpy.random.Philox",
    "numpy.random.MT19937",
    "numpy.random.set_state",
    "numpy.random.get_state",
}

#: Legacy numpy global-state draw functions (``np.random.normal`` etc.).
_LEGACY_DRAWS = {
    "random",
    "rand",
    "randn",
    "randint",
    "random_sample",
    "choice",
    "shuffle",
    "permutation",
    "uniform",
    "normal",
    "standard_normal",
    "binomial",
    "poisson",
    "exponential",
    "zipf",
    "bytes",
}

#: Ambient entropy sources that must never feed seeds or shard identity.
#: ``time.perf_counter``/``time.monotonic`` are deliberately absent —
#: timing costs is fine, seeding from the clock is not.
_ENTROPY_SOURCES = {
    "os.getpid",
    "os.urandom",
    "time.time",
    "time.time_ns",
    "uuid.uuid1",
    "uuid.uuid4",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.randbits",
    "secrets.randbelow",
}


@register_rule
class DeterminismRule(Rule):
    """Ban ad-hoc RNG construction outside :mod:`repro.rng`."""

    code = "REP001"
    name = "determinism"
    description = (
        "numpy/stdlib RNGs must not be constructed or reseeded directly; "
        "thread seeds through repro.rng.as_generator/spawn instead"
    )
    default_include = ("src",)
    default_exclude = ("src/repro/rng.py",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        # Only *calls* are flagged: referencing ``np.random.Generator`` in a
        # type annotation (or isinstance check) is legitimate; constructing
        # or reseeding one is not.
        imports = ctx.imports
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = qualified_name(node.func, imports)
            if name is None:
                continue
            if name in _BANNED_NUMPY:
                short = name.rsplit(".", 1)[-1]
                yield self.finding(
                    ctx,
                    node,
                    f"direct use of numpy.random.{short}; normalize seeds "
                    "via repro.rng.as_generator (or spawn) so the draw is "
                    "auditable and reproducible",
                )
            elif (
                name.startswith("numpy.random.")
                and name.rsplit(".", 1)[-1] in _LEGACY_DRAWS
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"legacy global-state draw {name}(); draw from a "
                    "Generator obtained through repro.rng instead",
                )
            elif name in _ENTROPY_SOURCES:
                yield self.finding(
                    ctx,
                    node,
                    f"ambient entropy source {name}(); worker/shard RNGs "
                    "must descend from coordinator-spawned SeedSequence "
                    "substreams (repro.rng.spawn), never from pids, clocks, "
                    "or OS randomness",
                )
            elif name.startswith("random."):
                yield self.finding(
                    ctx,
                    node,
                    f"stdlib {name}() bypasses the repro.rng seeding "
                    "discipline; use a numpy Generator from "
                    "repro.rng.as_generator",
                )
