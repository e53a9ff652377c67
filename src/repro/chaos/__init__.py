"""repro.chaos: deterministic cross-layer fault injection.

The chaos plane breaks several layers of the pipeline at once: a
:class:`~repro.chaos.plan.FaultPlan` declares what breaks where and
when; the layer injectors execute it against the *real* components;
and :class:`~repro.chaos.runner.ChaosRun` caches one scenario's
campaign and its per-layer fault ledger.  What graceful degradation
*means* is stated by the zoo's ``contract`` oracles, which run in the
testkit matrix (:func:`repro.testkit.report.run_matrix`) beside the
differential and metamorphic oracles.

The scenario zoo (:mod:`repro.chaos.zoo`) registers its scenarios,
perturbations and contract oracles when :mod:`repro.testkit` loads it,
which happens before any registry is read.  Importing the plan or the
injectors loads no part of the testkit.
"""
