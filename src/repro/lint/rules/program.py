"""RPL101-RPL104 in the registry, beside the per-file rules, so config
and reports treat every code alike.  Their passes live in
:mod:`repro.analysis.analyses`."""

from __future__ import annotations

from repro.lint.registry import BaseRule, rule


@rule
class UnseededOrigin(BaseRule):
    code = "RPL101"
    description = "unseeded RNG origin (whole-program provenance)"
    whole_program = True


@rule
class SharedStream(BaseRule):
    code = "RPL102"
    description = "RNG stream shared across a parallel fan-out boundary"
    whole_program = True


@rule
class ClockTaint(BaseRule):
    code = "RPL103"
    description = (
        "wall-clock value flows into figure/report output "
        "(interprocedural clock taint; subsumes RPL002 across calls)"
    )
    exempt = ("*/obs/clock.py",)  # the one sanctioned wall-clock reader
    whole_program = True


@rule
class ImpureWorker(BaseRule):
    code = "RPL104"
    description = (
        "impure function or shared-mutable capture submitted to a "
        "process pool (static race-to-nondeterminism)"
    )
    whole_program = True
