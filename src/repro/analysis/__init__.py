"""repgraph: the whole-program half of ``repro check``.

Where the per-file rules of :mod:`repro.lint` check one AST at a time,
this package checks the *cross-module* invariants that gate
parallelizing the pipeline: it indexes every checked source once,
builds a project-wide symbol table and call graph, runs effect/taint
fixpoints over it, and reports the RPL1xx family through the per-file
rules' reader, registry, config, pragmas, baseline and report:

=========  =======================================================
RPL101     unseeded RNG origin (whole-program provenance)
RPL102     RNG stream shared across a parallel fan-out boundary
RPL103     wall-clock value reaches figure/report output
           (interprocedural clock taint)
RPL104     impure worker / mutated capture crosses a pool boundary
=========  =======================================================

Public API::

    from repro.analysis.engine import run_check

    result = run_check(["src"])   # both families, one parse
    print(result.ok, result.stats["call_edges"])

``repro check`` exposes the same run on the CLI with ``--format
json|text``, ``--baseline``, ``--graph-out`` and exit code 1 on any
non-baselined error; :func:`~repro.analysis.engine.run_analysis` runs
the RPL1xx family alone.
"""
