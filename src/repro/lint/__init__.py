"""replint: repo-specific static analysis for reproduction invariants.

The test suite can verify values; it cannot verify *habits*.  Three
habits keep this reproduction honest — every figure derives from an
explicit seed, quantities never silently change units, and failures
surface through the :mod:`repro.errors` taxonomy rather than vanishing
into broad handlers.  ``replint`` walks the AST of every source file
and enforces those habits at commit time with eight per-file rules:

========  ==========================================================
RPL001    unseeded randomness in synthesis/fault/playback paths
RPL002    wall-clock reads (``time.time``/``datetime.now``) in
          analysis code
RPL003    bare/broad exception handlers that do not re-raise
RPL004    ``==``/``!=`` against float literals in ``stats/``
RPL005    arithmetic mixing identifiers with conflicting unit
          suffixes (``_ms`` vs ``_s``, ``_kbps`` vs ``_bps``, ...)
RPL006    iterating a ``set`` into ordered output in figure code
RPL007    clock read or ``print()`` bypassing :mod:`repro.obs` in
          instrumented modules
RPL008    bare ``print()`` anywhere in shipped library code
========  ==========================================================

This package is also the shared core of ``repro check``: the one
reader and parser, the registry of every code (the whole-program
RPL1xx rules of :mod:`repro.analysis` register here too), the config,
the finishing step, the baseline, the result type and the report.

Public API::

    from repro.lint.config import LintConfig
    from repro.lint.engine import run_lint

    result = run_lint(["src"], config=LintConfig.load("."))
    for finding in result.findings:
        print(finding.format())

Configuration lives in ``pyproject.toml`` under ``[tool.replint]``;
pre-existing findings can be frozen into a baseline file so CI fails
only on *new* violations (``repro check --baseline`` writes it).
"""

# Importing the rule pack registers every rule with the registry.
from repro.lint import rules as _rules  # noqa: F401  (import for side effect)
