"""repro.chaos: deterministic cross-layer fault injection.

The chaos plane breaks several layers of the pipeline at once: a
:class:`~repro.chaos.plan.FaultPlan` declares what breaks where and
when; the layer injectors execute it against the *real* components;
and :class:`~repro.chaos.runner.ChaosRun` caches one scenario's
campaign and its per-layer fault ledger.  What graceful degradation
*means* is stated by the zoo's ``contract`` oracles, which run in the
testkit matrix (:func:`repro.testkit.run_matrix`) beside the
differential and metamorphic oracles.

Importing this package also loads the scenario zoo
(:mod:`repro.chaos.zoo`), which registers its scenarios, perturbations,
and contract oracles as a side effect — see the import at the bottom
of this module.
"""

from repro.chaos.injectors import (
    BreakerTransition,
    DeliveryChaosResult,
    IngestChaosResult,
    ManifestChaosResult,
    PoisonEvent,
    TelemetryInjection,
    inject_ingest_pressure,
    inject_telemetry,
    run_delivery_chaos,
    run_ingest_chaos,
    run_manifest_chaos,
)
from repro.chaos.plan import (
    LAYER_KINDS,
    PLAN_VERSION,
    RECOVERABLE_KINDS,
    FaultKind,
    FaultPlan,
    FaultSpec,
    Layer,
    Window,
)
from repro.chaos.runner import ChaosRun

__all__ = [
    "LAYER_KINDS",
    "PLAN_VERSION",
    "RECOVERABLE_KINDS",
    "BreakerTransition",
    "ChaosRun",
    "DeliveryChaosResult",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "IngestChaosResult",
    "Layer",
    "ManifestChaosResult",
    "PoisonEvent",
    "TelemetryInjection",
    "Window",
    "inject_ingest_pressure",
    "inject_telemetry",
    "run_delivery_chaos",
    "run_ingest_chaos",
    "run_manifest_chaos",
]

# Load the scenario zoo last.  It needs repro.chaos.plan and a fully
# initialized repro.testkit, which the runner import above has already
# pulled in (and which loads the zoo itself when imported first).
from repro.chaos import zoo as _zoo  # noqa: E402,F401
