"""Scenario spec DSL and the named scenario library.

A :class:`ScenarioSpec` declares one end-to-end exercise of the
pipeline: the synthesis knobs (seed, schedule thinning, population
size), an optional fault-injected ingest stage, the figure set to
regenerate, and the alternate seed the differential oracles need; the
parallel build runs :data:`PARALLEL_JOBS` workers.  Everything an
oracle might compare is derived *lazily* from the spec through
:class:`ScenarioRun` and cached, so a matrix of oracles over one
scenario pays for each expensive build (serial, parallel,
alternate-seed) exactly once.

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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro import figures, obs
from repro.chaos.injectors import TelemetryInjection, inject_telemetry
from repro.chaos.plan import FaultPlan
from repro.errors import ChaosError, TestkitError
from repro.synthesis.calibration import EcosystemConfig
from repro.synthesis.generator import EcosystemGenerator, EcosystemResult
from repro.telemetry.dataset import encode_lines
from repro.telemetry.ingest import events_from_records
from repro.telemetry.records import ViewRecord
from repro.testkit.reference import RowDataset

if TYPE_CHECKING:
    from repro.chaos.runner import ChaosRun

Rows = List[Dict[str, object]]

#: Workers of a scenario's parallel build, which the serial-vs-parallel
#: oracle holds to the serial one.
PARALLEL_JOBS = 2


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
    #: Optional name of a registered perturbation; when set, the run
    #: offers a "perturbed" build variant for metamorphic contracts.
    perturb: Optional[str] = None

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


class ScenarioRun:
    """The run artifact: every derived view of one scenario, cached.

    All builds are pure functions of the spec, so lazy construction
    cannot leak order dependence between oracles — any access order
    yields the same artifacts.
    """

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec
        self._results: Dict[str, EcosystemResult] = {}
        self._figure_rows: Dict[Tuple[str, str], Rows] = {}
        self._bytes: Dict[str, bytes] = {}
        self._clean_records: Optional[Tuple[ViewRecord, ...]] = None
        self._chaos: Optional["ChaosRun"] = None

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
            elif which == "row":
                built = dataclasses.replace(
                    self.result,
                    dataset=RowDataset(self.result.dataset.records),
                )
            elif which == "perturbed":
                if spec.perturb is None:
                    raise TestkitError(
                        f"scenario {spec.name!r} declares no perturbation"
                    )
                built = get_perturbation(spec.perturb)(self.result)
            else:
                raise TestkitError(f"unknown build variant {which!r}")
        self._results[which] = built
        return built

    def row_result(self) -> EcosystemResult:
        """The base build with its dataset on the row-at-a-time
        reference (:class:`~repro.testkit.reference.RowDataset`)."""
        return self._build("row")

    def perturbed_result(self) -> EcosystemResult:
        """The base build transformed by the spec's perturbation."""
        return self._build("perturbed")

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

    def clean_records(self, limit: Optional[int] = None) -> Tuple[ViewRecord, ...]:
        """Records replayable as clean event streams (positive playback,
        sub-total rebuffering — the same cut the ingest CLI applies)."""
        if self._clean_records is None:
            self._clean_records = tuple(
                r
                for r in self.result.dataset.records
                if r.view_duration_hours > 0 and r.rebuffer_ratio < 1.0
            )
        if limit is None:
            return self._clean_records
        return self._clean_records[:limit]

    def chaos(self) -> "ChaosRun":
        """The spec's fault campaign over this run, built once.

        Every contract oracle and the chaos-recovery oracle share it,
        so a zoo scenario is synthesized once per matrix.
        """
        if self._chaos is None:
            # Lazy import: repro.chaos.runner imports this module.
            from repro.chaos.runner import ChaosRun

            self._chaos = ChaosRun(self)
        return self._chaos

    def corrupted_events(self) -> TelemetryInjection:
        """The ingest stage's corrupted stream with its fault audit."""
        spec = self.spec.ingest
        if spec is None:
            raise TestkitError(
                f"scenario {self.spec.name!r} has no ingest stage"
            )
        records = self.clean_records(spec.sessions)
        events = list(events_from_records(records))
        plan = FaultPlan.uniform(spec.fault_rate, spec.fault_seed)
        return inject_telemetry(events, plan)


# ---------------------------------------------------------------------------
# Perturbation registry
# ---------------------------------------------------------------------------

#: A perturbation is a pure dataset-level transformation of one built
#: ecosystem — the metamorphic half of a chaos scenario (flash crowd,
#: protocol migration wave, ...).  It must be deterministic: the
#: "perturbed" build variant is cached and compared against "base".
Perturbation = Callable[[EcosystemResult], EcosystemResult]

_PERTURBATIONS: Dict[str, Perturbation] = {}


def register_perturbation(name: str, fn: Perturbation) -> Perturbation:
    """Add a named perturbation (rejects duplicate names)."""
    if not name or any(c.isspace() for c in name):
        raise TestkitError("perturbation name must be non-empty, no spaces")
    if name in _PERTURBATIONS:
        raise TestkitError(f"duplicate perturbation name {name!r}")
    _PERTURBATIONS[name] = fn
    return fn


def get_perturbation(name: str) -> Perturbation:
    try:
        return _PERTURBATIONS[name]
    except KeyError:
        raise TestkitError(
            f"unknown perturbation {name!r}; known: "
            f"{', '.join(sorted(_PERTURBATIONS))}"
        ) from None


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
