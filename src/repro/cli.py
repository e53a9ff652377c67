"""Command-line interface.

::

    repro generate --out dataset.jsonl.gz [--seed N] [--snapshots K]
    repro figure F2a [--dataset dataset.jsonl.gz] [--seed N]
    repro figures                # list ids
    repro summary [--seed N]     # §4.4 roll-up
    repro ingest --policy quarantine --fault-rate 0.2   # robustness demo
    repro metrics                # instrument taxonomy + snapshot
    repro check [paths...]       # static checker: RPL00x + RPL1xx rules

Figures that need generator ground truth (catalogue sizes, the case
study) regenerate the ecosystem from the seed; pure-dataset figures can
run against a saved dataset file.

Every subcommand accepts ``--trace`` (print the span tree of the run)
and ``--metrics-out PATH`` (write the metrics snapshot as JSON); either
flag switches the :mod:`repro.obs` layer on for the process.

Each handler imports the layers it runs, so ``repro check`` loads
neither numpy nor the generator.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, List, Optional

from repro import obs
from repro.core.report import format_table
from repro.errors import CalibrationError, DatasetError, ParallelError
from repro.obs.export import write_snapshot
from repro.obs.tracing import render_tree
from repro.synthesis.calibration import EcosystemConfig
from repro.telemetry.ingest import ErrorPolicy, events_from_records

if TYPE_CHECKING:
    from repro.synthesis.generator import EcosystemResult


def _jobs_flag(value: str) -> int:
    """``--jobs`` argparse type: the shared validator, CLI-shaped.

    :func:`repro.parallel.parse_jobs` is the one typed gate for worker
    counts; argparse only renders :class:`argparse.ArgumentTypeError`
    messages nicely, so the :class:`~repro.errors.ParallelError` is
    re-raised in that shape (same message, exit code 2).  It imports
    numpy, so it loads only when a ``--jobs`` value is parsed.
    """
    from repro.parallel import parse_jobs

    try:
        return parse_jobs(value)
    except ParallelError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _add_jobs_arg(
    parser: argparse.ArgumentParser,
    default: Optional[int] = 1,
    help_text: str = "worker processes (default: serial)",
) -> None:
    """The one ``--jobs`` flag every parallel subcommand shares."""
    parser.add_argument(
        "--jobs",
        type=_jobs_flag,
        default=default,
        metavar="N",
        help=help_text,
    )


def _obs_parent() -> argparse.ArgumentParser:
    """Shared observability flags, attached to every subcommand."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("observability")
    group.add_argument(
        "--trace",
        action="store_true",
        help="record spans and print the span tree after the command",
    )
    group.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the metrics snapshot (and spans, with --trace) as JSON",
    )
    group.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured JSON log events to stderr",
    )
    return parent


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Understanding Video Management Planes' "
            "(IMC 2018)"
        ),
    )
    obs_parent = _obs_parent()
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser(
        "generate",
        help="generate a synthetic dataset and save it",
        parents=[obs_parent],
    )
    generate.add_argument("--out", required=True, help="output .jsonl[.gz]")
    _add_generator_args(generate)

    fig = sub.add_parser(
        "figure", help="regenerate one figure/table", parents=[obs_parent]
    )
    fig.add_argument("figure_id", help="e.g. F2a, F13, T1 (see `figures`)")
    _add_generator_args(fig)

    figs = sub.add_parser(
        "figures",
        help="list known figure ids, or run the whole suite (--run)",
        parents=[obs_parent],
    )
    figs.add_argument(
        "--run",
        action="store_true",
        help="regenerate every figure and print its table",
    )
    _add_generator_args(figs, jobs_default=None)

    summary = sub.add_parser(
        "summary", help="print the §4.4 roll-up", parents=[obs_parent]
    )
    _add_generator_args(summary)

    experiments = sub.add_parser(
        "experiments",
        help="paper-vs-measured verification report",
        parents=[obs_parent],
    )
    _add_generator_args(experiments)

    metrics = sub.add_parser(
        "metrics",
        help="dump the obs instrument taxonomy and current snapshot",
        parents=[obs_parent],
    )
    metrics.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        dest="output_format",
        help="taxonomy output format (default: text)",
    )

    ingest = sub.add_parser(
        "ingest",
        help="fault-injected event ingestion demo (robustness path)",
        parents=[obs_parent],
    )
    _add_generator_args(ingest)
    ingest.add_argument(
        "--policy",
        choices=[policy.value for policy in ErrorPolicy],
        default=ErrorPolicy.QUARANTINE.value,
        help="error policy for bad events (default: quarantine)",
    )
    ingest.add_argument(
        "--fault-rate",
        type=float,
        default=0.2,
        help="fraction of events corrupted, split evenly over six fault "
        "kinds (default: 0.2)",
    )
    ingest.add_argument(
        "--sessions",
        type=int,
        default=200,
        help="number of view sessions to replay as events (default: 200)",
    )
    ingest.add_argument(
        "--fault-seed",
        type=int,
        default=7,
        help="seed for the fault plan's RNGs (default: 7)",
    )
    # The demo only needs a couple of snapshots' worth of sessions.
    ingest.set_defaults(snapshots=2)

    testkit = sub.add_parser(
        "testkit",
        help=(
            "scenario harness: differential, metamorphic and contract "
            "oracle matrix"
        ),
        parents=[obs_parent],
    )
    testkit.add_argument(
        "action",
        choices=["run", "list"],
        help="run the oracle matrix, or list scenarios and oracles",
    )
    testkit.add_argument(
        "--scenario",
        action="append",
        dest="scenarios",
        metavar="NAME",
        help="scenario to run (repeatable; default: all registered)",
    )
    testkit.add_argument(
        "--oracle",
        action="append",
        dest="oracle_names",
        metavar="NAME",
        help="oracle to run (repeatable; default: all registered)",
    )
    testkit.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the machine-readable oracle report on stdout",
    )
    testkit.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="also write the JSON oracle report to PATH",
    )
    _add_jobs_arg(
        testkit,
        help_text="worker processes for the oracle matrix "
        "(default: serial)",
    )

    check = sub.add_parser(
        "check",
        help="per-file (RPL00x) and whole-program (RPL1xx) rules, one parse",
        parents=[obs_parent],
    )
    check.add_argument(
        "paths",
        nargs="*",
        help="files or directories (default: [tool.replint] paths)",
    )
    check.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        dest="output_format",
        help="finding output format (default: text)",
    )
    check.add_argument(
        "--baseline",
        action="store_true",
        help="snapshot current findings into the baseline file, exit 0",
    )
    check.add_argument(
        "--no-baseline",
        action="store_true",
        help="report every finding, ignoring the baseline file",
    )
    check.add_argument(
        "--root",
        default=".",
        help="project root containing pyproject.toml (default: cwd)",
    )
    check.add_argument(
        "--graph-out",
        default=None,
        metavar="PATH",
        help="also write the resolved call graph as JSON to PATH",
    )
    check.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="also write the report (in the chosen format) to PATH",
    )

    return parser


def _add_generator_args(
    parser: argparse.ArgumentParser, jobs_default: Optional[int] = 1
) -> None:
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument(
        "--snapshots",
        type=int,
        default=0,
        help="0 = full 59-snapshot schedule; >=2 thins it for speed",
    )
    parser.add_argument(
        "--publishers", type=int, default=110, help="population size"
    )
    _add_jobs_arg(
        parser,
        default=jobs_default,
        help_text="worker processes for the pipeline (default: serial)",
    )


def _generate(args: argparse.Namespace) -> EcosystemResult:
    from repro.synthesis.generator import EcosystemGenerator

    return EcosystemGenerator(args.config).generate(jobs=args.jobs)


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    trace = getattr(args, "trace", False)
    metrics_out = getattr(args, "metrics_out", None)
    log_json = getattr(args, "log_json", False)
    obs_on = bool(
        trace or metrics_out or log_json or args.command == "metrics"
    )
    if obs_on:
        obs.configure(
            enabled=True,
            seed=getattr(args, "seed", None),
            log_stream=sys.stderr if log_json else None,
        )
    try:
        code = _dispatch(args)
        # A reader that closed stdout early raises here, not at exit.
        sys.stdout.flush()
    except BrokenPipeError:
        # `repro figures | head -2`: stop quietly.  Point stdout at
        # devnull so the interpreter's exit flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    finally:
        if obs_on:
            spans = obs.tracer().finished
            if trace and spans:
                print(render_tree(spans), file=sys.stderr)
            if metrics_out:
                write_snapshot(
                    metrics_out,
                    obs.metrics(),
                    spans=spans if trace else (),
                    meta={
                        "command": args.command,
                        "seed": getattr(args, "seed", None),
                    },
                )
                print(f"wrote metrics snapshot to {metrics_out}",
                      file=sys.stderr)
    return code


def _dispatch(args: argparse.Namespace) -> int:
    # A --jobs value implies --run: listing ids needs no build.
    if args.command == "figures" and not args.run and args.jobs is None:
        from repro import figures

        for figure_id in figures.figure_ids():
            print(f"{figure_id:6s} {figures.describe(figure_id)}")
        return 0

    if hasattr(args, "seed"):  # every subcommand that builds the ecosystem
        try:
            args.config = EcosystemConfig(
                seed=args.seed,
                snapshot_limit=args.snapshots,
                n_publishers=args.publishers,
            )
        except CalibrationError as error:
            print(f"{args.command}: {error}", file=sys.stderr)
            return 2

    if args.command == "figures":
        from repro import figures

        suite = figures.run_suite(
            args.config, jobs=args.jobs if args.jobs is not None else 1
        )
        for figure_id, rows in suite.items():
            print(f"== {figure_id}: {figures.describe(figure_id)} ==")
            print(format_table(rows))
        return 0

    if args.command == "generate":
        result = _generate(args)
        result.dataset.save(args.out)
        print(
            f"wrote {len(result.dataset)} records "
            f"({len(result.dataset.snapshots())} snapshots, "
            f"{len(result.dataset.publishers())} publishers) to {args.out}"
        )
        return 0

    if args.command == "figure":
        from repro import figures

        result = _generate(args)
        rows = figures.run_figure(args.figure_id, result)
        print(f"== {args.figure_id}: {figures.describe(args.figure_id)} ==")
        print(format_table(rows))
        return 0

    if args.command == "summary":
        from repro import figures

        result = _generate(args)
        rows = figures.run_figure("S44", result)
        print(format_table(rows))
        return 0

    if args.command == "experiments":
        from repro.experiments import build_report, fraction_within_band

        result = _generate(args)
        comparisons = build_report(result)
        print(format_table([c.row() for c in comparisons]))
        within = fraction_within_band(comparisons)
        print(
            f"\n{within:.0%} of {len(comparisons)} comparisons inside "
            "their acceptance band"
        )
        return 0 if within > 0.8 else 1

    if args.command == "ingest":
        return _ingest(args)

    if args.command == "metrics":
        return _metrics(args)

    if args.command == "testkit":
        return _testkit(args)

    if args.command == "check":
        return _check(args)

    raise AssertionError(f"unhandled command {args.command!r}")


def _testkit(args: argparse.Namespace) -> int:
    """Run (or list) the scenario x oracle matrix; exit 1 on failure,
    2 on misconfiguration."""
    from pathlib import Path

    from repro.errors import ChaosError, TestkitError
    from repro.testkit.oracles import get_oracle, oracle_names
    from repro.testkit.report import run_matrix
    from repro.testkit.scenario import get_scenario, scenario_names

    if args.action == "list":
        scenario_rows = [
            {
                "scenario": name,
                "description": get_scenario(name).description,
            }
            for name in scenario_names()
        ]
        oracle_rows = [
            {
                "oracle": name,
                "kind": get_oracle(name).kind,
                "description": get_oracle(name).description,
            }
            for name in oracle_names()
        ]
        print(format_table(scenario_rows))
        print()
        print(format_table(oracle_rows))
        return 0
    try:
        report = run_matrix(
            scenarios=args.scenarios, oracles=args.oracle_names, jobs=args.jobs
        )
    except (ChaosError, TestkitError) as error:
        print(f"testkit: {error}", file=sys.stderr)
        return 2
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n", encoding="utf-8")
        print(f"wrote oracle report to {args.out}", file=sys.stderr)
    print(report.to_json() if args.as_json else report.format_text())
    return 0 if report.ok else 1


def _metrics(args: argparse.Namespace) -> int:
    """Dump the instrument taxonomy plus the live registry snapshot."""
    import json

    from repro.obs.instruments import CATALOG

    snapshot = obs.metrics().snapshot()
    if args.output_format == "json":
        payload = {
            "catalog": [
                {
                    "name": spec.name,
                    "kind": spec.kind,
                    "description": spec.description,
                    "labels": list(spec.labels),
                }
                for spec in CATALOG
            ],
            "snapshot": snapshot,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    rows = [
        {
            "instrument": spec.name,
            "kind": spec.kind,
            "labels": ",".join(spec.labels) or "-",
            "description": spec.description,
        }
        for spec in CATALOG
    ]
    print(format_table(rows))
    populated = sum(len(section) for section in snapshot.values())
    print(f"\n{len(rows)} instruments in catalog; "
          f"{populated} series populated this process")
    return 0


def _check(args: argparse.Namespace) -> int:
    """Run the static checker; see repro.lint and repro.analysis for
    the rule codes."""
    import os
    from pathlib import Path

    from repro.analysis.engine import run_check
    from repro.lint.baseline import write_baseline
    from repro.lint.config import LintConfig
    from repro.lint.registry import LintRuleError
    from repro.lint.report import format_json, format_text, graph_json

    try:
        config = LintConfig.load(args.root)
        result = run_check(
            args.paths or None,
            config=config,
            use_baseline=not args.no_baseline,
        )
        if args.baseline:
            baseline_path = os.path.join(args.root, config.baseline_path)
            count = write_baseline(
                baseline_path, result.findings + result.baselined
            )
            print(f"wrote {count} suppression(s) to {baseline_path}")
            return 0
    except LintRuleError as exc:
        print(f"check: {exc}", file=sys.stderr)
        return 2
    report = (
        format_json(result)
        if args.output_format == "json"
        else format_text(result)
    )
    if args.out:
        Path(args.out).write_text(report + "\n", encoding="utf-8")
        print(f"wrote check report to {args.out}", file=sys.stderr)
    if args.graph_out:
        Path(args.graph_out).write_text(
            graph_json(result) + "\n", encoding="utf-8"
        )
        print(f"wrote call graph to {args.graph_out}", file=sys.stderr)
    print(report)
    return result.exit_code


def _ingest(args: argparse.Namespace) -> int:
    """Replay generated views as raw events through the robust path."""
    if args.sessions < 1:
        print("ingest: --sessions must be >= 1", file=sys.stderr)
        return 2
    from repro.chaos.injectors import inject_telemetry
    from repro.chaos.plan import FaultPlan
    from repro.errors import ChaosError
    from repro.telemetry.backend import TelemetryBackend

    try:
        plan = FaultPlan.uniform(args.fault_rate, args.fault_seed)
    except ChaosError as exc:
        print(f"ingest: {exc}", file=sys.stderr)
        return 2
    result = _generate(args)
    records = [
        r
        for r in result.dataset.records
        if r.view_duration_hours > 0 and r.rebuffer_ratio < 1.0
    ][: args.sessions]
    events = list(events_from_records(records))
    injection = inject_telemetry(events, plan)
    backend = TelemetryBackend()
    # When observability is on, the pipeline counts into the global
    # registry so a --metrics-out snapshot and the printed report are
    # literally the same instruments.
    metrics = obs.metrics() if obs.enabled() else None
    try:
        report = backend.ingest_events(
            injection.events, policy=args.policy, metrics=metrics
        )
    except DatasetError as exc:
        print(f"strict ingestion aborted: {exc}", file=sys.stderr)
        return 1
    print(
        f"replayed {len(records)} sessions as {len(events)} events; "
        f"fault rate {args.fault_rate:.0%} corrupted "
        f"{len(injection.corrupted_sessions)} sessions "
        f"({len(injection.log)} faults applied)"
    )
    print(report.summary())
    if report.dead_letters:
        rows = [
            {"reason": reason, "events": count}
            for reason, count in sorted(report.reason_counts().items())
        ]
        print(format_table(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
