"""The RPL1xx passes: :mod:`rng` (RPL101, RPL102), :mod:`clock` (RPL103)
and :mod:`purity` (RPL104).  Each has ``run(project, graph, effects)``,
returning raw findings; their codes are registered in
:mod:`repro.lint.rules.program`."""
