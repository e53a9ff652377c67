"""Matrix runner and the machine-readable oracle report.

:func:`run_matrix` executes every applicable oracle against every
requested scenario and folds the outcomes, plus the fault ledger of
each scenario that ran a contract, into an :class:`OracleReport`, the
artifact ``repro testkit run --json`` emits and CI archives.  The
payload is deterministic (sorted keys, no timestamps) so two runs of
the same tree diff clean.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro import obs
from repro.core.report import format_table
from repro.errors import TestkitError
from repro.parallel import parallel_map, parse_jobs
from repro.testkit.oracles import (
    FAIL,
    PASS,
    SKIP,
    Oracle,
    OracleOutcome,
    get_oracle,
    oracle_names,
    run_oracle,
)
from repro.testkit.scenario import (
    Ledger,
    ScenarioSpec,
    get_scenario,
    run_scenario,
    scenario_names,
)

T = TypeVar("T")

#: Schema version of the JSON payload; bump on incompatible change.
#: Version 2 added the ``chaos`` map of plans and fault ledgers.
REPORT_VERSION = 2


@dataclass(frozen=True)
class OracleReport:
    """All outcomes of one scenario x oracle matrix run.

    ``chaos`` maps each plan-bearing scenario that ran a contract to
    its ``plan`` payload and per-layer fault ``ledger``.
    """

    outcomes: tuple  # Tuple[OracleOutcome, ...]
    chaos: Dict[str, Dict[str, object]] = field(default_factory=dict)

    @property
    def passed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == PASS)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == FAIL)

    @property
    def skipped(self) -> int:
        return sum(1 for o in self.outcomes if o.status == SKIP)

    @property
    def checks(self) -> int:
        return sum(o.checks for o in self.outcomes)

    @property
    def ok(self) -> bool:
        """True when nothing failed and something actually passed."""
        return self.failed == 0 and self.passed > 0

    def failures(self) -> List[OracleOutcome]:
        return [o for o in self.outcomes if o.status == FAIL]

    def to_payload(self) -> Dict[str, object]:
        """The JSON-ready report body (deterministic ordering)."""
        return {
            "version": REPORT_VERSION,
            "scenarios": sorted({o.scenario for o in self.outcomes}),
            "oracles": sorted({o.oracle for o in self.outcomes}),
            "outcomes": [
                {
                    "scenario": o.scenario,
                    "oracle": o.oracle,
                    "kind": o.kind,
                    "status": o.status,
                    "checks": o.checks,
                    "detail": o.detail,
                }
                for o in sorted(
                    self.outcomes, key=lambda o: (o.scenario, o.oracle)
                )
            ],
            "summary": {
                "pass": self.passed,
                "fail": self.failed,
                "skip": self.skipped,
                "checks": self.checks,
                "ok": self.ok,
            },
            "chaos": self.chaos,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_payload(), indent=indent, sort_keys=True)

    def format_text(self) -> str:
        """An aligned text table plus a one-line verdict."""
        rows = [
            {
                "scenario": o.scenario,
                "oracle": o.oracle,
                "kind": o.kind,
                "status": o.status.upper(),
                "checks": o.checks,
            }
            for o in sorted(
                self.outcomes, key=lambda o: (o.scenario, o.oracle)
            )
        ]
        lines = [format_table(rows)]
        for failure in self.failures():
            lines.append(
                f"FAIL {failure.scenario}/{failure.oracle}: "
                f"{failure.detail}"
            )
        verdict = "OK" if self.ok else "FAILED"
        lines.append(
            f"{verdict}: {self.passed} passed, {self.failed} failed, "
            f"{self.skipped} skipped ({self.checks} checks)"
        )
        return "\n".join(lines)


def _resolve(
    items: Optional[Sequence[object]],
    names: Callable[[], List[str]],
    lookup: Callable[[str], T],
) -> List[T]:
    """``None`` means every registered name; a string is looked up."""
    if items is None:
        items = names()
    return [lookup(item) if isinstance(item, str) else item for item in items]


def _scenario_row(
    row: Tuple[ScenarioSpec, Tuple[Oracle, ...]],
) -> Tuple[List[OracleOutcome], Optional[Ledger]]:
    """Worker entry point: one scenario's oracle row plus its ledger.

    The scenario is built once and shared by every cell of the row.
    The ledger comes from the same cached campaign the contracts
    inspected, and is ``None`` when the row ran no contract.
    """
    spec, targets = row
    run = run_scenario(spec)
    ledger = None
    with obs.span("testkit.scenario", scenario=spec.name):
        outcomes = [run_oracle(target, run) for target in targets]
        if any(target.kind == "contract" for target in targets):
            ledger = run.ledger
    return outcomes, ledger


def run_matrix(
    scenarios: Optional[Sequence[object]] = None,
    oracles: Optional[Sequence[object]] = None,
    jobs: int = 1,
) -> OracleReport:
    """Run ``scenarios x oracles`` (defaults: everything registered).

    Items may be names or already-constructed specs/oracles.  Only the
    cells an oracle applies to are built (:meth:`Oracle.applies_to`);
    a matrix with no such cell is a :class:`TestkitError` naming the
    scenarios.  Each scenario's expensive builds are shared across its
    oracles through the cached
    :class:`~repro.testkit.scenario.ScenarioRun`.

    Scenario rows are the units of :func:`~repro.parallel.parallel_map`
    at every ``jobs`` value; at ``jobs > 1`` each row runs whole on one
    worker, and rows come back in order, so the JSON report is
    byte-identical to the serial one and merged obs counters match the
    serial totals.
    """
    specs = _resolve(scenarios, scenario_names, get_scenario)
    targets = _resolve(oracles, oracle_names, get_oracle)
    jobs = parse_jobs(jobs)
    rows = []
    for spec in specs:
        row = tuple(target for target in targets if target.applies_to(spec))
        if row:
            rows.append((spec, row))
    if not rows:
        names = ", ".join(repr(spec.name) for spec in specs) or "(none)"
        raise TestkitError(f"no oracle applies to scenario(s) {names}")
    obs.gauge("testkit.scenarios").set(len(rows))
    results = parallel_map(
        _scenario_row, rows, jobs=jobs, label="testkit.matrix"
    )
    chaos = {
        spec.name: {"plan": spec.chaos_plan.to_payload(), "ledger": ledger}
        for (spec, _), (_, ledger) in zip(rows, results)
        if ledger is not None
    }
    return OracleReport(
        outcomes=tuple(o for outcomes, _ in results for o in outcomes),
        chaos=chaos,
    )
