"""RPL001/RPL002: every figure must be replayable from a seed.

The paper's 27-month Conviva dataset is replaced by seeded synthesis,
so bit-for-bit reproducibility *is* the dataset.  Two things break it:
randomness that does not flow from an explicit seed, and wall-clock
reads that leak the run time into analysis output.
"""

from __future__ import annotations

import ast

from repro.lint.registry import BaseRule, rule
from repro.lint.rules.common import call_has_arguments, dotted_name, name_tail

# Module-level stdlib random functions share one hidden global RNG.
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)

# Legacy numpy global-state API (np.random.<fn> without a Generator).
_NP_GLOBAL_FNS = frozenset(
    {
        "beta",
        "binomial",
        "choice",
        "exponential",
        "gamma",
        "lognormal",
        "normal",
        "permutation",
        "poisson",
        "rand",
        "randint",
        "randn",
        "random",
        "random_sample",
        "seed",
        "shuffle",
        "uniform",
        "zipf",
    }
)

# Constructors that must receive an explicit seed argument.
_SEED_REQUIRED = frozenset(
    {
        "random.Random",
        "np.random.default_rng",
        "numpy.random.default_rng",
        "np.random.PCG64",
        "numpy.random.PCG64",
        "np.random.MT19937",
        "numpy.random.MT19937",
        "np.random.RandomState",
        "numpy.random.RandomState",
    }
)


@rule
class UnseededRandomness(BaseRule):
    """RPL001: randomness in generation paths must be explicitly seeded.

    Applies to the synthesis pipeline, fault injection, and playback
    simulation — the three places where hidden RNG state would corrupt
    a figure silently.  Both failure shapes are flagged: constructing
    an RNG without a seed argument, and calling module-level
    ``random.*`` / legacy ``np.random.*`` functions that draw from
    interpreter-global state no seed parameter can reach.
    """

    code = "RPL001"
    description = "unseeded or global-state randomness in a seeded path"
    scope = (
        "*/synthesis/*",
        "*/chaos/injectors.py",
        "*/playback/*",
    )

    def visit_Call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        if dotted is None:
            return
        if dotted in _SEED_REQUIRED:
            if not call_has_arguments(node):
                self.report(
                    node,
                    f"{dotted}() constructed without an explicit seed; "
                    "thread a seed from the public API",
                )
            return
        parts = dotted.split(".")
        if len(parts) == 2 and parts[0] == "random":
            if parts[1] in _GLOBAL_RANDOM_FNS:
                self.report(
                    node,
                    f"module-level random.{parts[1]}() draws from the "
                    "hidden global RNG; use a seeded random.Random "
                    "instance threaded through the call chain",
                )
            return
        if len(parts) == 3 and parts[0] in ("np", "numpy") and parts[1] == "random":
            if parts[2] in _NP_GLOBAL_FNS:
                self.report(
                    node,
                    f"legacy {parts[0]}.random.{parts[2]}() uses numpy's "
                    "global state; draw from a seeded "
                    "np.random.Generator instead",
                )


@rule
class WallClockInAnalysis(BaseRule):
    """RPL002: analysis code must not read the wall clock.

    ``time.time()`` / ``datetime.now()`` make output depend on *when*
    the code ran.  CLI entry points, benchmarks, and examples are
    exempt — timestamping a report or timing a run is their job.
    ``time.monotonic``/``perf_counter`` stay legal everywhere: they
    measure intervals and never appear in figure values, and the
    resilience primitives inject them as overridable clocks.
    """

    code = "RPL002"
    description = "wall-clock read in an analysis path"
    exempt = (
        "*/cli.py",
        "benchmarks/*",
        "*/benchmarks/*",
        "examples/*",
        "*/examples/*",
    )

    _TIME_CALLS = frozenset({"time.time", "time.time_ns"})
    _DATETIME_TAILS = frozenset(
        {
            ("datetime", "now"),
            ("datetime", "utcnow"),
            ("date", "today"),
        }
    )

    def visit_Call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        if dotted is None:
            return
        if dotted in self._TIME_CALLS:
            self.report(
                node,
                f"{dotted}() reads the wall clock; inject a clock "
                "callable (the resilience primitives show the pattern) "
                "or derive times from snapshot dates",
            )
            return
        if name_tail(dotted) in self._DATETIME_TAILS:
            self.report(
                node,
                f"{dotted}() captures the run's wall-clock date; "
                "analysis output must derive only from the dataset "
                "and seed",
            )
