"""The oracle framework: registry, check helper, outcomes.

An **oracle** is a named predicate over a :class:`ScenarioRun` that
either passes, fails with the first violated elementary assertion, or
declares itself inapplicable (e.g. the fault-ingest oracle on a
scenario without an ingest stage).  Oracles come in three kinds:

* ``differential`` — run the same scenario along two independent code
  paths and assert equivalence;
* ``metamorphic`` — transform the scenario's input and assert the
  known relation between the two outputs;
* ``contract`` — assert what graceful degradation means under the
  scenario's fault plan, through the cached
  :meth:`~repro.testkit.scenario.ScenarioRun.chaos` campaign.  A
  contract gets a cell only on scenarios that declare a ``chaos_plan``
  and fall in its scope (``"*"`` is every such scenario).

Implementations never use bare ``assert`` (the matrix must also run
under ``python -O`` and outside pytest): they call the :class:`Check`
helper, which counts elementary assertions and raises
:class:`~repro.errors.OracleFailure` carrying an actionable message at
the first violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.errors import OracleFailure, ReproError, TestkitError
from repro.testkit.scenario import ScenarioRun, ScenarioSpec

#: Outcome status values (stable wire strings for the JSON report).
PASS = "pass"
FAIL = "fail"
SKIP = "skip"

#: Oracle kinds (stable wire strings for the JSON report).
KINDS = ("differential", "metamorphic", "contract")


class Skip(TestkitError):
    """Raised by an oracle that does not apply to this scenario."""


@dataclass(frozen=True)
class OracleOutcome:
    """One (oracle, scenario) cell of the matrix."""

    oracle: str
    kind: str
    scenario: str
    status: str  # pass | fail | skip
    checks: int
    detail: str

    @property
    def passed(self) -> bool:
        """Skips count as passed: the relation holds vacuously."""
        return self.status != FAIL


class Check:
    """Counts elementary assertions; raises on the first violation.

    All comparison helpers funnel through :meth:`that`, so
    ``outcome.checks`` is an honest measure of how much the oracle
    actually verified — a passing oracle with zero checks is itself a
    bug (the runner flags it).
    """

    def __init__(self) -> None:
        self.count = 0

    def that(self, condition: bool, detail: str) -> None:
        self.count += 1
        if not condition:
            raise OracleFailure(detail)

    def equal(self, actual: object, expected: object, what: str) -> None:
        self.that(
            actual == expected, f"{what}: {actual!r} != {expected!r}"
        )

    def close(
        self,
        actual: float,
        expected: float,
        what: str,
        rel: float = 1e-9,
        abs_tol: float = 1e-12,
    ) -> None:
        actual_f, expected_f = float(actual), float(expected)
        if math.isnan(actual_f) or math.isnan(expected_f):
            self.that(
                math.isnan(actual_f) and math.isnan(expected_f),
                f"{what}: {actual_f} != {expected_f} (NaN mismatch)",
            )
            return
        self.that(
            math.isclose(
                actual_f, expected_f, rel_tol=rel, abs_tol=abs_tol
            ),
            f"{what}: {actual_f} != {expected_f} (rel {rel})",
        )

    def rows_equal(
        self,
        actual: Sequence[Mapping[str, object]],
        expected: Sequence[Mapping[str, object]],
        what: str,
        rel: Optional[float] = None,
    ) -> None:
        """Row-list equivalence.

        ``rel=None`` demands exact equality (the byte-identical
        contracts); a float compares float cells with that relative
        tolerance (summation order may differ between paths).
        """
        self.that(
            len(actual) == len(expected),
            f"{what}: {len(actual)} rows != {len(expected)} rows",
        )
        for index, (row_a, row_b) in enumerate(zip(actual, expected)):
            self.that(
                set(row_a) == set(row_b),
                f"{what} row {index}: columns {sorted(map(str, row_a))} "
                f"!= {sorted(map(str, row_b))}",
            )
            for column in row_a:
                value_a, value_b = row_a[column], row_b[column]
                is_float = isinstance(value_a, float) or isinstance(
                    value_b, float
                )
                if is_float:
                    # rel=None still routes floats through close() so
                    # NaN cells compare equal to NaN (rel 0 == exact).
                    self.close(
                        value_a,
                        value_b,
                        f"{what} row {index} col {column}",
                        rel=rel if rel is not None else 0.0,
                        abs_tol=0.0 if rel is None else 1e-12,
                    )
                else:
                    self.equal(
                        value_a,
                        value_b,
                        f"{what} row {index} col {column}",
                    )

    def dicts_close(
        self,
        actual: Mapping[object, float],
        expected: Mapping[object, float],
        what: str,
        rel: float = 1e-9,
    ) -> None:
        self.that(
            set(actual) == set(expected),
            f"{what}: key sets differ "
            f"(only-left={sorted(map(str, set(actual) - set(expected)))}, "
            f"only-right={sorted(map(str, set(expected) - set(actual)))})",
        )
        for key in actual:
            self.close(actual[key], expected[key], f"{what}[{key}]", rel=rel)


#: An oracle body: performs checks through ``check``; returns a short
#: human summary of what was compared (shown in the report detail).
OracleFn = Callable[[ScenarioRun, Check], str]


@dataclass(frozen=True)
class Oracle:
    """A registered oracle: identity, kind, scope, and body."""

    name: str
    kind: str
    description: str
    fn: OracleFn
    #: Scenario names this oracle runs on; ``"*"`` means every one.
    scenarios: Tuple[str, ...] = ("*",)

    def applies_to(self, spec: ScenarioSpec) -> bool:
        """Whether the matrix builds a (spec, oracle) cell at all.

        A contract also needs a fault plan to degrade under;
        differential and metamorphic oracles that do not apply raise
        :class:`Skip` from their body instead, so their cells stay.
        """
        if self.kind == "contract" and spec.chaos_plan is None:
            return False
        return "*" in self.scenarios or spec.name in self.scenarios


_ORACLES: Dict[str, Oracle] = {}


def oracle(
    kind: str,
    name: str,
    description: str,
    scenarios: Tuple[str, ...] = ("*",),
) -> Callable[[OracleFn], OracleFn]:
    """Register an oracle body under a kind, name and scenario scope."""
    if kind not in KINDS:
        raise TestkitError(f"unknown oracle kind {kind!r}")
    if not scenarios:
        raise TestkitError(f"oracle {name!r} must scope to some scenario")

    def decorator(fn: OracleFn) -> OracleFn:
        if name in _ORACLES:
            raise TestkitError(f"duplicate oracle name {name!r}")
        _ORACLES[name] = Oracle(
            name=name,
            kind=kind,
            description=description,
            fn=fn,
            scenarios=tuple(scenarios),
        )
        return fn

    return decorator


def oracle_names() -> List[str]:
    return sorted(_ORACLES)


def oracles_by_kind(kind: str) -> List[Oracle]:
    return [o for name, o in sorted(_ORACLES.items()) if o.kind == kind]


def get_oracle(name: str) -> Oracle:
    try:
        return _ORACLES[name]
    except KeyError:
        raise TestkitError(
            f"unknown oracle {name!r}; known: {', '.join(oracle_names())}"
        ) from None


def run_oracle(target: Oracle, run: ScenarioRun) -> OracleOutcome:
    """Execute one oracle against one scenario run.

    :class:`~repro.errors.OracleFailure` and unexpected library errors
    (:class:`~repro.errors.ReproError`) become failing outcomes with
    the message as detail; programming errors propagate so a broken
    oracle fails loudly instead of reading as a pipeline regression.
    """
    check = Check()
    scenario = run.spec.name
    with obs.span("testkit.oracle", oracle=target.name, scenario=scenario):
        try:
            summary = target.fn(run, check)
            status, detail = PASS, summary
            if check.count == 0:
                status = FAIL
                detail = (
                    f"oracle {target.name} made no checks — a vacuous "
                    "pass is a harness bug"
                )
        except Skip as skip:
            status, detail = SKIP, str(skip)
        except OracleFailure as failure:
            status, detail = FAIL, str(failure)
        except ReproError as error:
            status, detail = (
                FAIL,
                f"unexpected {type(error).__name__}: {error}",
            )
    obs.counter(
        "testkit.oracles", kind=target.kind, status=status
    ).inc()
    obs.counter("testkit.checks").inc(check.count)
    return OracleOutcome(
        oracle=target.name,
        kind=target.kind,
        scenario=scenario,
        status=status,
        checks=check.count,
        detail=detail,
    )
