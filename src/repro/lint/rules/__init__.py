"""The replint rule pack.

Importing this package registers every rule with the registry.  One
module per invariant family:

- :mod:`determinism` — RPL001 unseeded randomness, RPL002 wall-clock
- :mod:`handlers` — RPL003 broad exception handlers
- :mod:`numerics` — RPL004 float-literal equality
- :mod:`unit_suffixes` — RPL005 conflicting unit suffixes
- :mod:`ordering` — RPL006 set-iteration order dependence
- :mod:`obs_hygiene` — RPL007 obs-layer bypass in instrumented modules
- :mod:`prints` — RPL008 bare ``print()`` in shipped library code
- :mod:`program` — RPL101-RPL104, the whole-program rules, whose
  passes live in :mod:`repro.analysis.analyses`
"""

from __future__ import annotations

from repro.lint.rules import (  # noqa: F401  (imports register the rules)
    determinism,
    handlers,
    numerics,
    obs_hygiene,
    ordering,
    prints,
    program,
    unit_suffixes,
)
