"""``repro.testkit`` — deterministic scenario harness with oracles.

The reproduction has four fast-moving layers (synthesis, ingest, the
columnar dataset, the analyses/figures) whose agreement used to be
checked only piecewise.  This package checks the *whole chain* at once:

* a **scenario** (:mod:`repro.testkit.scenario`) is a declarative spec
  that composes seeded synthesis -> optional fault-injected ingest ->
  :class:`~repro.telemetry.dataset.Dataset` -> every registered figure
  into one reproducible run artifact
  (:class:`~repro.testkit.scenario.ScenarioRun`);
* **differential oracles** (:mod:`repro.testkit.differential`) execute
  a scenario along independent code paths — row vs columnar dispatch,
  serial vs parallel synthesis, strict vs repair ingest on clean
  input, save/load and manifest round-trips — and assert equivalence;
* **metamorphic oracles** (:mod:`repro.testkit.metamorphic`) assert
  relations that must hold between a run and a transformed run:
  record-permutation invariance, publisher-subset monotonicity,
  view-hour scale invariance, and seed sensitivity;
* the **scenario zoo** (:mod:`repro.testkit.zoo`) registers five
  scenarios that declare a cross-layer fault plan
  (:mod:`repro.chaos`), and **contract oracles** that assert what
  graceful degradation means on them, reading the fault campaign's
  stages and ledger from the same run artifact;
* the **report** layer (:mod:`repro.testkit.report`) runs the full
  scenario x oracle matrix, wires counts into :mod:`repro.obs`, and
  renders a machine-readable JSON report (``repro testkit run --json``).

Every later scaling PR runs this matrix: if a refactor changes any
pipeline stage's observable behaviour, some oracle names the exact
inequality.
"""

# Importing the oracle packs and the zoo registers them with the
# registries.
from repro.testkit import differential as _differential  # noqa: F401
from repro.testkit import metamorphic as _metamorphic  # noqa: F401
from repro.testkit import zoo as _zoo  # noqa: F401
