"""The FaultPlan DSL: declarative, versioned cross-layer fault plans.

A management plane degrades along four independent axes — the telemetry
transport loses and mangles events, CDNs go dark regionally, manifest
payloads arrive truncated, and the ingest tier takes quarantine storms.
A :class:`FaultPlan` declares a campaign over those axes as a list of
:class:`FaultSpec` entries (fault kind x layer x window x intensity),
serialized to versioned JSON so a chaos run is a reviewable artifact
rather than an ad-hoc script.

Windows are fractions of *injected time*: each layer interprets
``[start, end)`` against its own timeline (event index for telemetry
and ingest, call index for delivery, document index for manifests), so
one plan composes across layers without unit fights.  Every random
draw descends from ``plan.seed`` plus the spec's position, which makes
two runs of the same plan byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.errors import ChaosError

#: Schema version of the FaultPlan JSON payload; bump on change.
PLAN_VERSION = 1


class Layer(str, Enum):
    """Pipeline layer a fault is injected into."""

    TELEMETRY = "telemetry"  # event streams entering sessionization
    DELIVERY = "delivery"  # per-CDN fetch paths (broker + failover)
    MANIFEST = "manifest"  # manifest payloads entering detect/parse
    INGEST = "ingest"  # pressure on the ingestion pipeline itself


class FaultKind(str, Enum):
    """What the injector does inside its window."""

    # -- telemetry transport ------------------------------------------
    DROP = "drop"  # events silently lost
    DUPLICATE = "duplicate"  # events delivered twice
    REORDER = "reorder"  # any event delayed by 1-3 places
    NEGATIVE_TIMING = "negative-timing"  # a heartbeat timing made < 0
    INTERLEAVE = "interleave"  # an event re-addressed to another session
    REORDER_START = "reorder-start"  # SessionStart delayed past beats
    # -- CDN delivery --------------------------------------------------
    OUTAGE = "outage"  # target CDN fails every fetch
    LATENCY = "latency"  # target CDN throughput degrades
    # -- manifest fetch (and telemetry: a required field blanked) -------
    TRUNCATE = "truncate"  # payload cut off mid-document
    MALFORM = "malform"  # payload characters mangled
    # -- ingest tier ---------------------------------------------------
    QUARANTINE_STORM = "quarantine-storm"  # burst of poisoned events
    ORPHAN_FLOOD = "orphan-flood"  # dead-letter/reorder-buffer pressure


#: Which kinds are legal at which layer.
LAYER_KINDS: Mapping[Layer, FrozenSet[FaultKind]] = {
    Layer.TELEMETRY: frozenset(
        {
            FaultKind.DROP,
            FaultKind.DUPLICATE,
            FaultKind.REORDER,
            FaultKind.TRUNCATE,
            FaultKind.NEGATIVE_TIMING,
            FaultKind.INTERLEAVE,
            FaultKind.REORDER_START,
        }
    ),
    Layer.DELIVERY: frozenset({FaultKind.OUTAGE, FaultKind.LATENCY}),
    Layer.MANIFEST: frozenset({FaultKind.TRUNCATE, FaultKind.MALFORM}),
    Layer.INGEST: frozenset(
        {FaultKind.QUARANTINE_STORM, FaultKind.ORPHAN_FLOOD}
    ),
}

#: Faults the pipeline is contractually able to absorb with ZERO output
#: delta: duplicates dedup away (seq numbers, repeated starts/ends),
#: delayed starts replay from the reorder buffer in arrival order, and
#: delivery degradation fails over without touching the dataset.  The
#: chaos-recovery differential oracle is built on this projection.
RECOVERABLE_KINDS: FrozenSet[FaultKind] = frozenset(
    {
        FaultKind.DUPLICATE,
        FaultKind.REORDER_START,
        FaultKind.OUTAGE,
        FaultKind.LATENCY,
    }
)

#: The per-event telemetry kinds, in the order :meth:`FaultPlan.uniform`
#: applies them.
PER_EVENT_KINDS: Tuple[FaultKind, ...] = (
    FaultKind.DROP,
    FaultKind.DUPLICATE,
    FaultKind.REORDER,
    FaultKind.TRUNCATE,
    FaultKind.NEGATIVE_TIMING,
    FaultKind.INTERLEAVE,
)


@dataclass(frozen=True)
class Window:
    """A half-open ``[start, end)`` slice of injected time, as fractions."""

    start: float = 0.0
    end: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.start < self.end <= 1.0:
            raise ChaosError(
                f"window must satisfy 0 <= start < end <= 1, got "
                f"[{self.start}, {self.end})"
            )

    def indices(self, n: int) -> Tuple[int, int]:
        """The ``[i0, i1)`` index range this window covers in a
        timeline of ``n`` ticks (i1 > i0 whenever n > 0)."""
        if n <= 0:
            return (0, 0)
        i0 = min(int(math.floor(self.start * n)), n - 1)
        i1 = max(int(math.ceil(self.end * n)), i0 + 1)
        return (i0, min(i1, n))

    def contains_tick(self, index: int, n: int) -> bool:
        i0, i1 = self.indices(n)
        return i0 <= index < i1


@dataclass(frozen=True)
class FaultSpec:
    """One fault campaign entry: kind x layer x window x intensity.

    ``intensity`` is the per-tick probability inside the window (and
    also the severity fraction of a manifest :attr:`FaultKind.TRUNCATE`
    or a :attr:`FaultKind.LATENCY`).  ``target`` names the victim where
    the layer needs one (the CDN for delivery faults); other layers
    leave it ``None``.
    """

    kind: FaultKind
    layer: Layer
    window: Window = field(default_factory=Window)
    intensity: float = 0.5
    target: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in LAYER_KINDS[self.layer]:
            legal = ", ".join(sorted(k.value for k in LAYER_KINDS[self.layer]))
            raise ChaosError(
                f"fault kind {self.kind.value!r} is not injectable at the "
                f"{self.layer.value} layer (legal: {legal})"
            )
        if not 0.0 < self.intensity <= 1.0:
            raise ChaosError(
                f"intensity must be in (0, 1], got {self.intensity}"
            )
        if self.layer is Layer.DELIVERY and not self.target:
            raise ChaosError(
                f"delivery fault {self.kind.value!r} needs a target CDN"
            )

    @property
    def recoverable(self) -> bool:
        return self.kind in RECOVERABLE_KINDS

    def to_payload(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "kind": self.kind.value,
            "layer": self.layer.value,
            "window": [self.window.start, self.window.end],
            "intensity": self.intensity,
        }
        if self.target is not None:
            payload["target"] = self.target
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "FaultSpec":
        try:
            kind = FaultKind(str(payload["kind"]))
            layer = Layer(str(payload["layer"]))
            intensity = float(payload.get("intensity", 0.5))  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ChaosError(f"malformed fault spec payload: {exc}") from exc
        window = payload.get("window", [0.0, 1.0])
        try:
            start, end = (float(bound) for bound in window)  # type: ignore[union-attr]
        except (TypeError, ValueError, OverflowError):
            raise ChaosError(
                f"fault spec window must be two numbers, got {window!r}"
            ) from None
        target = payload.get("target")
        return cls(
            kind=kind,
            layer=layer,
            window=Window(start, end),
            intensity=intensity,
            target=str(target) if target is not None else None,
        )


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded campaign of cross-layer faults."""

    name: str
    seed: int
    specs: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        if (
            not isinstance(self.name, str)
            or not self.name
            or any(c.isspace() for c in self.name)
        ):
            raise ChaosError(
                f"plan name must be a non-empty string without spaces, "
                f"got {self.name!r}"
            )
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ChaosError(f"plan seed must be an integer, got {self.seed!r}")

    @classmethod
    def uniform(cls, rate: float, seed: int) -> "FaultPlan":
        """One whole-stream telemetry spec per per-event kind, each at
        ``rate / 6``.  Rate 0 gives no specs; outside [0, 1] raises."""
        if not 0.0 <= rate <= 1.0:
            raise ChaosError(f"fault rate must be in [0, 1], got {rate}")
        share = rate / len(PER_EVENT_KINDS)
        specs = tuple(
            FaultSpec(kind, Layer.TELEMETRY, intensity=share)
            for kind in PER_EVENT_KINDS
            if share > 0.0
        )
        return cls(name="uniform", seed=seed, specs=specs)

    # -- queries --------------------------------------------------------

    def specs_for(self, layer: Layer) -> Tuple[FaultSpec, ...]:
        return tuple(s for s in self.specs if s.layer is layer)

    def layers(self) -> List[Layer]:
        return sorted({s.layer for s in self.specs}, key=lambda l: l.value)

    def targets(self, layer: Layer) -> List[str]:
        return sorted(
            {s.target for s in self.specs_for(layer) if s.target is not None}
        )

    def spec_seed(self, spec: FaultSpec) -> int:
        """A per-spec RNG seed, stable under plan re-serialization."""
        try:
            index = self.specs.index(spec)
        except ValueError:
            raise ChaosError("spec does not belong to this plan") from None
        return self.seed * 1_000_003 + index

    # -- projections ----------------------------------------------------

    def recoverable(self) -> "FaultPlan":
        """The plan restricted to faults the stack absorbs losslessly."""
        return replace(
            self,
            name=f"{self.name}-recoverable",
            specs=tuple(s for s in self.specs if s.recoverable),
        )

    def only(self, layer: Layer) -> "FaultPlan":
        return replace(
            self,
            name=f"{self.name}-{layer.value}",
            specs=self.specs_for(layer),
        )

    def baseline(self) -> "FaultPlan":
        """The fault-free twin: same name/seed, zero specs."""
        return replace(self, name=f"{self.name}-baseline", specs=())

    # -- serialization --------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        return {
            "version": PLAN_VERSION,
            "name": self.name,
            "seed": self.seed,
            "specs": [spec.to_payload() for spec in self.specs],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_payload(), indent=indent, sort_keys=True)

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "FaultPlan":
        version = payload.get("version")
        if version != PLAN_VERSION:
            raise ChaosError(
                f"unsupported fault-plan version {version!r} "
                f"(expected {PLAN_VERSION})"
            )
        try:
            name, seed = payload["name"], payload["seed"]
        except KeyError as exc:
            raise ChaosError(f"malformed fault plan payload: {exc}") from exc
        raw_specs = payload.get("specs", [])
        if not isinstance(raw_specs, (list, tuple)):
            raise ChaosError("plan specs must be a list")
        specs = tuple(FaultSpec.from_payload(s) for s in raw_specs)
        return cls(name=name, seed=seed, specs=specs)  # type: ignore[arg-type]

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        # ValueError also covers an integer past the interpreter's digit
        # limit; RecursionError, nesting past the decoder's depth.
        except (ValueError, RecursionError) as exc:
            raise ChaosError(f"fault plan is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ChaosError("fault plan JSON must be an object")
        return cls.from_payload(payload)
