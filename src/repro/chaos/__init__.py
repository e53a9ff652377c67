"""repro.chaos: deterministic cross-layer fault injection.

The chaos plane is a fault library of two modules: a
:class:`~repro.chaos.plan.FaultPlan` declares what breaks where and
when, and the layer injectors (:mod:`repro.chaos.injectors`) execute
it against the *real* components, each reporting an injected /
absorbed / leaked ledger.  The package imports nothing from the
testkit, which runs a scenario's plan as stages of its run artifact
(``ScenarioRun``) and states what graceful degradation *means* in the
contract oracles of its scenario zoo.
"""
