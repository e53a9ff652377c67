"""Scenario spec DSL, the run artifact and the named scenario library.

A :class:`ScenarioSpec` declares one end-to-end exercise of the
pipeline: the synthesis knobs (seed, schedule thinning, population
size), an optional fault-injected ingest stage, the figure set to
regenerate, the alternate seed the differential oracles need, and an
optional cross-layer fault campaign; the parallel build runs
:data:`PARALLEL_JOBS` workers.  Everything an oracle might compare is
derived *lazily* from the spec through :class:`ScenarioRun` and
cached, so a matrix of oracles over one scenario pays for each
expensive build (serial, parallel, alternate-seed) and each stage of
its fault campaign exactly once.

Four scenarios ship by default:

``tiny``
    The smallest legal ecosystem — fastest full-chain smoke.
``paper-shaped``
    The tier-1 fixture shape (seed 2018, 6 snapshots, 110 publishers):
    what the golden figure rows are captured from.
``fault-heavy``
    A small build whose event replay runs through
    :func:`~repro.chaos.injectors.inject_telemetry` at a high corruption
    rate, exercising the quarantine/repair policies.
``syndication-heavy``
    A mid-size build with an enlarged §6 QoE study, weighting the
    syndication analyses (Figs 14-18, X2/X3).
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import figures, obs
from repro.chaos.injectors import (
    DeliveryChaosResult,
    IngestChaosResult,
    ManifestChaosResult,
    TelemetryInjection,
    inject_telemetry,
    run_delivery_chaos,
    run_ingest_chaos,
    run_manifest_chaos,
)
from repro.chaos.plan import FaultPlan, Layer
from repro.entities.cdn import CDN, CdnAssignment
from repro.errors import ChaosError, TestkitError
from repro.synthesis.calibration import EcosystemConfig
from repro.synthesis.generator import EcosystemGenerator, EcosystemResult
from repro.telemetry.dataset import Dataset, encode_lines
from repro.telemetry.ingest import (
    ErrorPolicy,
    IngestPipeline,
    IngestReport,
    events_from_records,
    replayable,
)
from repro.telemetry.records import ViewRecord
from repro.testkit.reference import RowDataset

Rows = List[Dict[str, object]]

#: Per-layer ``injected``/``absorbed``/``leaked`` counts of one campaign.
Ledger = Dict[str, Dict[str, int]]

#: Workers of a scenario's parallel build, which the serial-vs-parallel
#: oracle holds to the serial one.
PARALLEL_JOBS = 2

#: Clean records replayed through the telemetry/ingest chaos stages.
REPLAY_LIMIT = 160

#: CDN names the delivery timeline falls back to when the plan's
#: targets leave fewer than two healthy CDNs to absorb an outage.
_FALLBACK_CDNS = ("A", "B", "C", "D", "E")


@dataclass(frozen=True)
class IngestSpec:
    """The optional fault-injected ingest stage of a scenario.

    ``sessions`` view records are replayed as raw event streams,
    :meth:`~repro.chaos.plan.FaultPlan.uniform` corrupts them at
    ``fault_rate`` under ``fault_seed``, and the stream is ingested
    under both lenient policies so the run artifact carries a
    quarantine and a repair report to compare.
    """

    sessions: int = 200
    fault_rate: float = 0.2
    fault_seed: int = 7

    def __post_init__(self) -> None:
        if self.sessions < 1:
            raise TestkitError("ingest sessions must be >= 1")
        # The plan constructor is the one check of the rate.
        FaultPlan.uniform(self.fault_rate, self.fault_seed)


@dataclass(frozen=True)
class ScenarioSpec:
    """One named, fully deterministic end-to-end scenario."""

    name: str
    description: str
    seed: int
    alt_seed: int
    snapshot_limit: int
    n_publishers: int
    qoe_sessions: int = 160
    ingest: Optional[IngestSpec] = None
    #: Figure ids to regenerate; empty means every registered figure.
    figure_ids: Tuple[str, ...] = ()
    #: Optional fault plan driving the scenario's contract oracles;
    #: ``None`` means the scenario declares no fault campaign.
    chaos_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if not self.name or any(c.isspace() for c in self.name):
            raise TestkitError("scenario name must be non-empty, no spaces")
        if self.alt_seed == self.seed:
            raise TestkitError(
                "alt_seed must differ from seed (it drives the "
                "seed-sensitivity oracle)"
            )
        unknown = set(self.figure_ids) - set(figures.figure_ids())
        if unknown:
            raise TestkitError(
                f"scenario names unknown figures: {sorted(unknown)}"
            )
        if self.chaos_plan is not None and not isinstance(
            self.chaos_plan, FaultPlan
        ):
            raise TestkitError(
                "chaos_plan must be a repro.chaos.plan.FaultPlan, "
                f"got {type(self.chaos_plan).__name__}"
            )

    def config(self, seed: Optional[int] = None) -> EcosystemConfig:
        """The generator config for this scenario (or a reseeded one)."""
        return EcosystemConfig(
            seed=self.seed if seed is None else seed,
            snapshot_limit=self.snapshot_limit,
            n_publishers=self.n_publishers,
            qoe_sessions=self.qoe_sessions,
        )

    def figures(self) -> Tuple[str, ...]:
        """The figure ids this scenario regenerates."""
        return self.figure_ids or tuple(figures.figure_ids())

    def require_plan(self) -> FaultPlan:
        """The declared chaos plan, or a :class:`ChaosError` naming the
        scenario when it declares none."""
        if self.chaos_plan is None:
            raise ChaosError(f"scenario {self.name!r} declares no chaos plan")
        return self.chaos_plan


@dataclass
class TelemetryOutcome:
    """Fault ledger of the telemetry layer for one run.

    ``leaked`` counts *silent corruption*: output records that changed
    relative to the fault-free replay in excess of the sessions the
    injector touched.  Every changed record must trace to a touched
    session, so any excess means an untouched session was altered.
    """

    injected: int
    absorbed: int
    leaked: int


@dataclass
class RecoveryOutcome:
    """The chaos-with-recovery vs fault-free comparison inputs."""

    injection: TelemetryInjection
    clean_records: Tuple[ViewRecord, ...]
    recovered_records: Tuple[ViewRecord, ...]
    quarantined: int

    @property
    def identical(self) -> bool:
        return list(self.recovered_records) == list(self.clean_records)


#: The result of one layer's campaign stage.
Stage = Union[
    TelemetryOutcome, DeliveryChaosResult, ManifestChaosResult,
    IngestChaosResult,
]


class ScenarioRun:
    """The run artifact: every derived view of one scenario, cached.

    All builds and campaign stages are pure functions of the spec, so
    lazy construction cannot leak order dependence between oracles —
    any access order yields the same artifacts.  The campaign stages
    (:attr:`telemetry`, :attr:`delivery`, :attr:`manifest`,
    :attr:`ingest`, :attr:`recovery` and the :attr:`ledger` over them)
    run the spec's chaos plan, so every contract oracle and the
    chaos-recovery oracle share one campaign per scenario; each raises
    the :class:`ChaosError` of :meth:`ScenarioSpec.require_plan` when
    the spec declares no plan.
    """

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec
        self._results: Dict[str, EcosystemResult] = {}
        self._figure_rows: Dict[Tuple[str, str], Rows] = {}
        self._bytes: Dict[str, bytes] = {}

    # -- builds ----------------------------------------------------------

    @property
    def result(self) -> EcosystemResult:
        """The canonical serial build."""
        return self._build("base")

    def _build(self, which: str) -> EcosystemResult:
        cached = self._results.get(which)
        if cached is not None:
            return cached
        spec = self.spec
        with obs.span(
            "testkit.build", scenario=spec.name, variant=which
        ):
            if which == "base":
                built = EcosystemGenerator(spec.config()).generate()
            elif which == "parallel":
                built = EcosystemGenerator(spec.config()).generate(
                    jobs=PARALLEL_JOBS
                )
            elif which == "alt-seed":
                built = EcosystemGenerator(
                    spec.config(seed=spec.alt_seed)
                ).generate()
            else:
                dataset = self._dataset(which)
                built = dataclasses.replace(self.result, dataset=dataset)
        self._results[which] = built
        return built

    def _dataset(self, which: str) -> Dataset:
        """The dataset of a variant that only swaps the base build's:
        ``row`` is the base records on the row-at-a-time reference, and
        ``clean``/``recovered`` the two ingests of :attr:`recovery`."""
        if which == "row":
            return RowDataset(self.result.dataset.records)
        if which == "clean":
            return Dataset(self.recovery.clean_records)
        if which == "recovered":
            return Dataset(self.recovery.recovered_records)
        raise TestkitError(f"unknown build variant {which!r}")

    def row_result(self) -> EcosystemResult:
        """The base build with its dataset on the row-at-a-time
        reference (:class:`~repro.testkit.reference.RowDataset`)."""
        return self._build("row")

    # -- figure rows -----------------------------------------------------

    def figure_rows(self, figure_id: str, variant: str = "base") -> Rows:
        """Rows of one figure against one build variant, cached."""
        key = (variant, figure_id)
        cached = self._figure_rows.get(key)
        if cached is None:
            cached = figures.run_figure(figure_id, self._build(variant))
            self._figure_rows[key] = cached
        return cached

    # -- serialized dataset ----------------------------------------------

    def dataset_bytes(self, variant: str = "base") -> bytes:
        """The exact uncompressed JSONL payload :meth:`Dataset.save`
        writes for this variant's dataset."""
        cached = self._bytes.get(variant)
        if cached is None:
            cached = encode_lines(self._build(variant).dataset.records)
            self._bytes[variant] = cached
        return cached

    # -- event replay ----------------------------------------------------

    @cached_property
    def clean_records(self) -> Tuple[ViewRecord, ...]:
        """Records replayable as clean event streams (the
        :func:`~repro.telemetry.ingest.replayable` cut the ingest CLI
        applies)."""
        return tuple(filter(replayable, self.result.dataset.records))

    def corrupted_events(self) -> TelemetryInjection:
        """The ingest stage's corrupted stream with its fault audit."""
        spec = self.spec.ingest
        if spec is None:
            raise TestkitError(
                f"scenario {self.spec.name!r} has no ingest stage"
            )
        records = self.clean_records[:spec.sessions]
        events = list(events_from_records(records))
        plan = FaultPlan.uniform(spec.fault_rate, spec.fault_seed)
        return inject_telemetry(events, plan)

    # -- fault campaign --------------------------------------------------

    @cached_property
    def events(self) -> List[object]:
        """The clean replayed event stream every injector starts from."""
        records = self.clean_records[:REPLAY_LIMIT]
        if not records:
            raise ChaosError(
                f"scenario {self.spec.name!r} produced no replayable "
                "records"
            )
        return list(events_from_records(records))

    @cached_property
    def clean_ingest(self) -> IngestReport:
        """The fault-free quarantine-policy ingest of :attr:`events`."""
        return IngestPipeline(ErrorPolicy.QUARANTINE).run(list(self.events))

    def _replay(
        self, plan: FaultPlan
    ) -> Tuple[TelemetryInjection, IngestReport]:
        """:attr:`events` under ``plan``'s telemetry faults, and their
        quarantine-policy ingest."""
        injection = inject_telemetry(self.events, plan)
        faulted = IngestPipeline(ErrorPolicy.QUARANTINE).run(
            injection.events
        )
        return injection, faulted

    @cached_property
    def telemetry(self) -> TelemetryOutcome:
        """Inject the plan's telemetry faults; account for every one."""
        injection, faulted = self._replay(self.spec.require_plan())
        changed = _multiset_delta(self.clean_ingest.records, faulted.records)
        leaked = max(0, changed - len(injection.corrupted_sessions))
        outcome = TelemetryOutcome(
            injected=injection.total_injected,
            absorbed=injection.total_injected - leaked,
            leaked=leaked,
        )
        _observe(Layer.TELEMETRY, outcome)
        return outcome

    @cached_property
    def delivery(self) -> DeliveryChaosResult:
        """Run the plan's CDN faults through the resilient fetcher."""
        plan = self.spec.require_plan()
        result = run_delivery_chaos(plan, _delivery_assignments(plan))
        _observe(Layer.DELIVERY, result)
        for latency in result.recovery_latency.values():
            obs.histogram("chaos.breaker_recovery").observe(latency)
        return result

    @cached_property
    def manifest(self) -> ManifestChaosResult:
        """Sweep corrupted manifests through the real parsers."""
        result = run_manifest_chaos(self.spec.require_plan())
        _observe(Layer.MANIFEST, result)
        return result

    @cached_property
    def ingest(self) -> IngestChaosResult:
        """Pressure the ingest pipeline per the plan."""
        result = run_ingest_chaos(self.events, self.spec.require_plan())
        _observe(Layer.INGEST, result)
        return result

    @cached_property
    def recovery(self) -> RecoveryOutcome:
        """Ingest under the plan's *recoverable* faults only.

        The resulting records must equal the fault-free replay exactly —
        the invariant behind the chaos-recovery differential oracle.
        """
        plan = self.spec.require_plan().recoverable()
        injection, faulted = self._replay(plan)
        return RecoveryOutcome(
            injection=injection,
            clean_records=tuple(self.clean_ingest.records),
            recovered_records=tuple(faulted.records),
            quarantined=faulted.quarantined,
        )

    @cached_property
    def ledger(self) -> Ledger:
        """Per-layer injected/absorbed/leaked, for the oracle report.

        Only the stages of layers the plan targets run (each layer's
        stage is the attribute named after it); an all-quiet plan
        yields an empty ledger rather than burning time exercising
        layers with nothing to inject.
        """
        return {
            layer.value: _counts(getattr(self, layer.value))
            for layer in self.spec.require_plan().layers()
        }


def _delivery_assignments(plan: FaultPlan) -> Tuple[CdnAssignment, ...]:
    """CDN assignments for the delivery timeline: every plan target
    plus enough healthy fallbacks that failover has somewhere to go.
    """
    targets = plan.targets(Layer.DELIVERY)
    names = list(targets)
    for fallback in _FALLBACK_CDNS:
        if len(names) >= len(targets) + 2:
            break
        if fallback not in names:
            names.append(fallback)
    return tuple(CdnAssignment(cdn=CDN(name)) for name in names)


def _counts(stage: Stage) -> Dict[str, int]:
    """A stage's injected/absorbed/leaked; a faulted manifest that
    still parses counts as absorbed."""
    absorbed = stage.absorbed
    if isinstance(stage, ManifestChaosResult):
        absorbed += stage.survived
    return {
        "injected": stage.injected,
        "absorbed": absorbed,
        "leaked": stage.leaked,
    }


def _observe(layer: Layer, stage: Stage) -> None:
    """Add a stage's counts to ``chaos.faults``."""
    for disposition, count in _counts(stage).items():
        if count:
            obs.counter(
                "chaos.faults", layer=layer.value, disposition=disposition
            ).inc(count)


def _multiset_delta(left: Sequence[object], right: Sequence[object]) -> int:
    """Records present in one list but not the other (multiset max-side)."""
    left_counts, right_counts = Counter(left), Counter(right)
    only_left = sum((left_counts - right_counts).values())
    only_right = sum((right_counts - left_counts).values())
    return max(only_left, only_right)


# ---------------------------------------------------------------------------
# Scenario registry
# ---------------------------------------------------------------------------

_SCENARIOS: Dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec) -> ScenarioSpec:
    """Add a scenario to the library (rejects duplicate names)."""
    if spec.name in _SCENARIOS:
        raise TestkitError(f"duplicate scenario name {spec.name!r}")
    _SCENARIOS[spec.name] = spec
    return spec


def scenario_names() -> List[str]:
    return sorted(_SCENARIOS)


def get_scenario(name: str) -> ScenarioSpec:
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise TestkitError(
            f"unknown scenario {name!r}; known: {', '.join(scenario_names())}"
        ) from None


def chaos_scenarios() -> List[ScenarioSpec]:
    """Every registered scenario that declares a chaos plan."""
    specs = [get_scenario(name) for name in scenario_names()]
    return [spec for spec in specs if spec.chaos_plan is not None]


def run_scenario(spec: ScenarioSpec) -> ScenarioRun:
    """Materialize the run artifact (builds happen lazily on access)."""
    return ScenarioRun(spec)


register_scenario(
    ScenarioSpec(
        name="tiny",
        description="smallest legal ecosystem; fastest full-chain smoke",
        seed=1018,
        alt_seed=1019,
        snapshot_limit=2,
        n_publishers=20,
        qoe_sessions=12,
    )
)

register_scenario(
    ScenarioSpec(
        name="paper-shaped",
        description=(
            "the tier-1 fixture shape: seed 2018, 6 snapshots, "
            "110 publishers (the golden-row build)"
        ),
        seed=2018,
        alt_seed=2019,
        snapshot_limit=6,
        n_publishers=110,
    )
)

register_scenario(
    ScenarioSpec(
        name="fault-heavy",
        description=(
            "small build replayed through the fault injector at 30% "
            "corruption; quarantine/repair policies under stress"
        ),
        seed=1404,
        alt_seed=1405,
        snapshot_limit=2,
        n_publishers=24,
        qoe_sessions=12,
        ingest=IngestSpec(sessions=240, fault_rate=0.3, fault_seed=11),
    )
)

register_scenario(
    ScenarioSpec(
        name="syndication-heavy",
        description=(
            "mid-size build with an enlarged §6 QoE study, weighting "
            "the syndication analyses"
        ),
        seed=606,
        alt_seed=607,
        snapshot_limit=3,
        n_publishers=40,
        qoe_sessions=240,
    )
)
