"""Metamorphic oracles: known relations between transformed runs.

No ground truth exists for a synthetic ecosystem's statistics, but
*relations* between runs are known a priori (Chen et al.'s metamorphic
testing, applied to the measurement pipeline):

* shuffling record order changes nothing (analyses are set-valued);
* removing publishers can only shrink per-value publisher counts;
* scaling every view duration by one constant leaves every *share*
  untouched;
* changing the seed must change the data — an oracle suite that cannot
  tell two seeds apart would also wave through a frozen pipeline.
"""

from __future__ import annotations

import dataclasses
import random

from repro.core import prevalence as prevalence_mod
from repro.core import summary as summary_mod
from repro.core.dimensions import CDN_COLUMN, PLATFORM_COLUMN, PROTOCOL_COLUMN
from repro.telemetry.dataset import Dataset
from repro.testkit.oracles import Check, oracle
from repro.testkit.scenario import ScenarioRun

#: Tolerance for float drift from reordered summation.
_PERMUTATION_REL = 1e-6

#: Publishers removed by the subset-monotonicity oracle.
_SUBSET_DROP = 3

#: Uniform view-duration multiplier for the scale-invariance oracle.
_SCALE_FACTOR = 3.0

#: Figures probed for seed sensitivity, in preference order.
_SENSITIVE_FIGURES = ("F2a", "S44", "F11b", "F3a", "F6a")

#: The three §4 dimensions' columns, by name.
_DIMENSIONS = (
    ("cdn", CDN_COLUMN),
    ("platform", PLATFORM_COLUMN),
    ("protocol", PROTOCOL_COLUMN),
)


@oracle(
    "metamorphic",
    "permutation-invariance",
    "record order never changes an analysis",
)
def permutation_invariance(run: ScenarioRun, check: Check) -> str:
    """Analyses are functions of the record *set*, not the stream."""
    base = run.result
    shuffled = list(base.dataset.records)
    random.Random(run.spec.seed ^ 0x5EED).shuffle(shuffled)
    check.that(
        len(shuffled) > 1, "scenario too small to permute meaningfully"
    )
    permuted = dataclasses.replace(base, dataset=Dataset(shuffled))
    check.equal(
        permuted.dataset.snapshots(),
        base.dataset.snapshots(),
        "snapshot list under permutation",
    )
    check.close(
        permuted.dataset.total_view_hours(),
        base.dataset.total_view_hours(),
        "total view-hours under permutation",
        rel=_PERMUTATION_REL,
    )
    from repro import figures as figures_mod

    for figure_id in run.spec.figures():
        check.rows_equal(
            figures_mod.run_figure(figure_id, permuted),
            run.figure_rows(figure_id),
            f"figure {figure_id} under permutation",
            rel=_PERMUTATION_REL,
        )
    return (
        f"{len(run.spec.figures())} figures invariant under a seeded "
        f"shuffle of {len(shuffled)} records"
    )


@oracle(
    "metamorphic",
    "subset-monotonicity",
    "removing publishers can only shrink prevalence counts",
)
def subset_monotonicity(run: ScenarioRun, check: Check) -> str:
    """Per-value publisher counts are monotone under publisher removal."""
    latest = run.result.dataset.latest()
    dropped = latest.top_publishers(_SUBSET_DROP)
    check.that(
        len(dropped) == _SUBSET_DROP,
        f"scenario has fewer than {_SUBSET_DROP} publishers",
    )
    subset = latest.exclude_publishers(dropped)
    check.equal(
        subset.publishers(),
        latest.publishers() - set(dropped),
        "publisher set after exclusion",
    )
    compared = 0
    for name, column in _DIMENSIONS:
        full = latest.publishers_per_value(column)
        sub = subset.publishers_per_value(column)
        check.that(
            set(sub) <= set(full),
            f"{name}: exclusion invented new values "
            f"{sorted(map(str, set(sub) - set(full)))}",
        )
        for value, count in sorted(sub.items(), key=lambda kv: str(kv[0])):
            check.that(
                count <= full[value],
                f"{name}[{value}]: count rose from {full[value]} to "
                f"{count} after removing publishers",
            )
            check.that(
                count >= full[value] - _SUBSET_DROP,
                f"{name}[{value}]: count fell by more than the "
                f"{_SUBSET_DROP} removed publishers "
                f"({full[value]} -> {count})",
            )
            compared += 1
    return (
        f"{compared} (dimension, value) counts monotone after removing "
        f"the top {_SUBSET_DROP} publishers"
    )


@oracle(
    "metamorphic",
    "scale-invariance",
    "uniformly scaling view durations leaves every share unchanged",
)
def scale_invariance(run: ScenarioRun, check: Check) -> str:
    """Shares are ratios: a global x3 on durations must cancel out."""
    base = run.result.dataset
    scaled = Dataset(
        dataclasses.replace(
            record,
            view_duration_hours=record.view_duration_hours * _SCALE_FACTOR,
        )
        for record in base.records
    )
    check.close(
        scaled.total_view_hours(),
        base.total_view_hours() * _SCALE_FACTOR,
        "scaled total view-hours",
        rel=1e-9,
    )
    for name, column in _DIMENSIONS:
        series_base = prevalence_mod.view_hour_share_series(base, column)
        series_scaled = prevalence_mod.view_hour_share_series(scaled, column)
        check.equal(
            sorted(series_scaled),
            sorted(series_base),
            f"{name} share-series snapshots",
        )
        for snapshot in series_base:
            check.dicts_close(
                series_scaled[snapshot],
                series_base[snapshot],
                f"{name} shares at {snapshot}",
                rel=1e-9,
            )
    check.close(
        summary_mod.top_cdn_concentration(scaled.latest()),
        summary_mod.top_cdn_concentration(base.latest()),
        "top-5 CDN concentration",
        rel=1e-9,
    )
    rtmp_base = summary_mod.rtmp_share(base)
    rtmp_scaled = summary_mod.rtmp_share(scaled)
    for which in ("first", "latest"):
        check.close(
            rtmp_scaled[which],
            rtmp_base[which],
            f"RTMP share ({which} snapshot)",
            rel=1e-9,
        )
    return (
        f"3 dimensions' share series + CDN concentration + RTMP share "
        f"invariant under a uniform x{_SCALE_FACTOR:g} duration scale"
    )


@oracle(
    "metamorphic",
    "seed-sensitivity",
    "a different seed must produce different data and figures",
)
def seed_sensitivity(run: ScenarioRun, check: Check) -> str:
    """The negative control: identical output across seeds would mean
    the seed (i.e. the synthesis) is not actually flowing anywhere."""
    check.that(
        run.dataset_bytes("alt-seed") != run.dataset_bytes("base"),
        f"seeds {run.spec.seed} and {run.spec.alt_seed} serialized to "
        "identical datasets",
    )
    probed = [
        figure_id
        for figure_id in _SENSITIVE_FIGURES
        if figure_id in run.spec.figures()
    ]
    check.that(
        len(probed) > 0,
        "scenario regenerates none of the seed-sensitive figures "
        f"{_SENSITIVE_FIGURES}",
    )
    changed = [
        figure_id
        for figure_id in probed
        if run.figure_rows(figure_id, "alt-seed")
        != run.figure_rows(figure_id)
    ]
    check.that(
        len(changed) > 0,
        f"none of {probed} changed between seeds {run.spec.seed} and "
        f"{run.spec.alt_seed}",
    )
    return (
        f"datasets differ and {len(changed)}/{len(probed)} probed "
        f"figures changed between seeds {run.spec.seed} and "
        f"{run.spec.alt_seed}"
    )
