"""The snapshot record sampler: its draw sequence, pinned.

A synthesized dataset is a function of the order in which the sampler
consumes its generator (DESIGN.md §16), so the record loop is pinned:

* a cross-version golden (``tests/golden/synthesis_seed2018_7919.json``)
  of record counts, a sha256 over every record's discrete fields and the
  float fields of sampled records, at seeds 2018 and 7919 in the
  ``longitudinal`` benchmark shape and at 110 publishers;
* Hypothesis checks of each replacement draw against the numpy call it
  stands for, and of the whole sampler against the per-record reference
  loop in :mod:`repro.testkit.reference`, generator state included;
* the types and module state a build leaves behind.

Regenerate the golden (a deliberate re-baseline of the draw sequence)
with ``PYTHONPATH=src python -m tests.test_synthesis_sampler``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from bisect import bisect_right
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import spawn_streams
from repro.synthesis.calibration import EcosystemConfig
from repro.synthesis.generator import (
    EcosystemGenerator,
    _build_plan,
    _snapshot_t,
)
from repro.synthesis.sessions import choice_cdf, sample_without_replacement
from repro.telemetry.dataset import Dataset
from repro.telemetry.records import ViewRecord
from repro.testkit.reference import ScalarSessionSampler

GOLDEN_PATH = Path(__file__).parent / "golden" / "synthesis_seed2018_7919.json"

GOLDEN_SEEDS = (2018, 7919)

#: Build shapes in the golden: the ``longitudinal`` benchmark round and
#: the paper's 110-publisher population at two snapshots.
GOLDEN_SHAPES: Dict[str, Dict[str, object]] = {
    "longitudinal": {
        "n_publishers": 30,
        "snapshot_limit": 3,
        "include_case_study": False,
    },
    "p110-s2": {"n_publishers": 110, "snapshot_limit": 2},
}

#: Measures whose bits come from ``np.exp`` or from the libm ``log``
#: inside ``ndtri`` and may differ in the last place across platforms;
#: compared at ``rel=1e-12``.
FLOAT_FIELDS = (
    "view_duration_hours",
    "avg_bitrate_kbps",
    "rebuffer_ratio",
    "weight",
)

#: Records per case whose float fields are stored.
FLOAT_SAMPLES = 50


def _golden_records(seed: int, shape: str) -> List[ViewRecord]:
    config = EcosystemConfig(seed=seed, **GOLDEN_SHAPES[shape])
    return EcosystemGenerator(config).generate().dataset.records


def _discrete_digest(records: Sequence[ViewRecord]) -> str:
    """sha256 over every field but the float measures and the ladder."""
    digest = hashlib.sha256()
    for record in records:
        data = record.to_json_dict()
        for name in FLOAT_FIELDS + ("bitrate_ladder_kbps",):
            del data[name]
        digest.update(json.dumps(data, sort_keys=True).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def _sample_indices(n: int) -> List[int]:
    step = max(n // FLOAT_SAMPLES, 1)
    return list(range(0, n, step))[:FLOAT_SAMPLES]


def _summary(records: Sequence[ViewRecord]) -> Dict[str, object]:
    return {
        "records": len(records),
        "discrete_sha256": _discrete_digest(records),
        "floats": {
            str(i): [getattr(records[i], f) for f in FLOAT_FIELDS]
            + list(records[i].bitrate_ladder_kbps)
            for i in _sample_indices(len(records))
        },
    }


def _case_name(seed: int, shape: str) -> str:
    return f"seed{seed}-{shape}"


def write_golden(path: Path = GOLDEN_PATH) -> None:
    cases = {
        _case_name(seed, shape): _summary(_golden_records(seed, shape))
        for seed in GOLDEN_SEEDS
        for shape in GOLDEN_SHAPES
    }
    path.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


class TestGoldenDrawSequence:
    @pytest.mark.parametrize("shape", sorted(GOLDEN_SHAPES))
    @pytest.mark.parametrize("seed", GOLDEN_SEEDS)
    def test_records_match_golden(self, golden, seed, shape):
        expected = golden[_case_name(seed, shape)]
        records = _golden_records(seed, shape)
        assert len(records) == expected["records"]
        assert _discrete_digest(records) == expected["discrete_sha256"]
        for index, values in expected["floats"].items():
            record = records[int(index)]
            actual = [getattr(record, f) for f in FLOAT_FIELDS] + list(
                record.bitrate_ladder_kbps
            )
            assert actual == pytest.approx(values, rel=1e-12), index


@pytest.fixture(scope="module")
def longitudinal_records():
    return _golden_records(2018, "longitudinal")


class TestRecordTypes:
    def test_string_fields_are_plain_str(self, longitudinal_records):
        for record in longitudinal_records:
            for item in dataclasses.fields(record):
                value = getattr(record, item.name)
                values = value if item.name == "cdn_names" else (value,)
                for v in values:
                    if isinstance(v, str):
                        assert type(v) is str, (item.name, type(v))

    def test_repr_survives_save_and_load(self, longitudinal_records, tmp_path):
        path = tmp_path / "records.jsonl"
        Dataset(longitudinal_records).save(path)
        loaded = Dataset.load(path, limit=None).records
        assert [repr(r) for r in loaded] == [
            repr(r) for r in longitudinal_records
        ]


def _synthesis_module_state() -> Dict[str, int]:
    """Sizes of the mutable containers bound in ``repro.synthesis``."""
    return {
        f"{name}.{attr}": len(value)
        for name, module in sorted(sys.modules.items())
        if name.startswith("repro.synthesis") and module is not None
        for attr, value in vars(module).items()
        if isinstance(value, (dict, list, set))
    }


def _small_config(seed: int) -> EcosystemConfig:
    return EcosystemConfig(
        seed=seed, n_publishers=20, snapshot_limit=2, include_case_study=False
    )


class TestBuildState:
    def test_repeated_builds_leave_no_module_state(self):
        EcosystemGenerator(_small_config(11)).generate()
        before = _synthesis_module_state()
        for seed in (12, 13, 14):
            EcosystemGenerator(_small_config(seed)).generate()
        assert _synthesis_module_state() == before

    def test_rng_is_required(self):
        plan = _build_plan(_small_config(11))
        with pytest.raises(TypeError):
            plan.sampler.snapshot_records(plan.snapshots[0], 0.0)
        with pytest.raises(TypeError):
            plan.sampler.case_study_records(plan.snapshots[-1], 10)

    def test_snapshot_is_independent_of_call_history(self):
        plan = _build_plan(_small_config(11))
        streams = spawn_streams(11, len(plan.snapshots) + 1)

        def snapshot(index):
            return plan.sampler.snapshot_records(
                plan.snapshots[index],
                _snapshot_t(index, len(plan.snapshots)),
                rng=np.random.default_rng(streams[index]),
            )

        first = snapshot(0)
        snapshot(1)
        assert snapshot(0) == first


def _twin_generators(seed: int, burn: int):
    """Two generators in one state, a spare 32-bit half cached or not."""
    pair = (np.random.default_rng(seed), np.random.default_rng(seed))
    for rng in pair:
        for _ in range(burn):
            rng.integers(3)
    return pair


def _assert_vector_draw(seed, burn, vector, scalars):
    """``vector(rng)`` equals the ``scalars`` calls made in turn on a
    twin generator: values, and generator state afterwards."""
    vector_rng, scalar_rng = _twin_generators(seed, burn)
    drawn = vector(vector_rng).tolist()
    assert drawn == [call(scalar_rng) for call in scalars]
    assert vector_rng.bit_generator.state == scalar_rng.bit_generator.state


_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
_SIZES = st.integers(min_value=0, max_value=80)


@pytest.mark.perf
class TestDrawEquivalences:
    """Each replacement call against the numpy call it stands for.

    The vector draws run with and without a spare 32-bit half cached
    in the generator (``burn`` 1 and 0), since the bounded-integer
    draws consume 32-bit halves.
    """

    @pytest.mark.parametrize("burn", [0, 1])
    @settings(max_examples=60, deadline=None)
    @given(seed=_SEEDS, n=_SIZES)
    def test_random_vector_is_scalar_doubles(self, burn, seed, n):
        _assert_vector_draw(
            seed,
            burn,
            lambda rng: rng.random(n),
            [lambda rng: rng.random()] * n,
        )

    @pytest.mark.parametrize("burn", [0, 1])
    @settings(max_examples=60, deadline=None)
    @given(seed=_SEEDS, n=_SIZES)
    def test_standard_normal_vector_is_scalar_normals(self, burn, seed, n):
        _assert_vector_draw(
            seed,
            burn,
            lambda rng: rng.standard_normal(n),
            [lambda rng: rng.standard_normal()] * n,
        )

    @pytest.mark.parametrize("burn", [0, 1])
    @settings(max_examples=60, deadline=None)
    @given(seed=_SEEDS, n=_SIZES)
    def test_beta_vector_is_scalar_betas(self, burn, seed, n):
        _assert_vector_draw(
            seed,
            burn,
            lambda rng: rng.beta(1.2, 60.0, size=n),
            [lambda rng: rng.beta(1.2, 60.0)] * n,
        )

    @pytest.mark.parametrize("burn", [0, 1])
    @settings(max_examples=60, deadline=None)
    @given(seed=_SEEDS, n=_SIZES, k=st.integers(min_value=1, max_value=40))
    def test_integers_vector_is_scalar_integers(self, burn, seed, n, k):
        _assert_vector_draw(
            seed,
            burn,
            lambda rng: rng.integers(k, size=n),
            [lambda rng: rng.integers(k)] * n,
        )

    @pytest.mark.parametrize("burn", [0, 1])
    @settings(max_examples=60, deadline=None)
    @given(
        seed=_SEEDS,
        highs=st.lists(
            st.integers(min_value=1, max_value=40), min_size=1, max_size=60
        ),
    )
    def test_integers_over_highs_is_scalar_integers(self, burn, seed, highs):
        _assert_vector_draw(
            seed,
            burn,
            lambda rng: rng.integers(highs),
            [lambda rng, high=high: rng.integers(high) for high in highs],
        )

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=-30.0, max_value=30.0), max_size=70
        )
    )
    def test_exp_over_an_array_is_exp_per_element(self, values):
        assert np.exp(np.array(values, dtype=float)).tolist() == [
            float(np.exp(v)) for v in values
        ]

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        burn=st.integers(min_value=0, max_value=1),
        p=st.lists(
            st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=8
        ),
    )
    def test_choice_with_p_is_a_cdf_bisect(self, seed, burn, p):
        weights = np.array(p)
        probs = weights / weights.sum()
        numpy_rng, bisect_rng = _twin_generators(seed, burn)
        cdf = choice_cdf(probs)
        for _ in range(20):
            assert int(numpy_rng.choice(len(p), p=probs)) == bisect_right(
                cdf, bisect_rng.random()
            )
        assert numpy_rng.bit_generator.state == bisect_rng.bit_generator.state

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        burn=st.integers(min_value=0, max_value=1),
        n=st.integers(min_value=1, max_value=60),
        data=st.data(),
    )
    def test_choice_without_replacement_is_floyd(self, seed, burn, n, data):
        k = data.draw(st.integers(min_value=1, max_value=n))
        numpy_rng, floyd_rng = _twin_generators(seed, burn)
        for _ in range(5):
            assert numpy_rng.choice(
                n, size=k, replace=False
            ).tolist() == sample_without_replacement(floyd_rng, n, k)
        assert numpy_rng.bit_generator.state == floyd_rng.bit_generator.state

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        burn=st.integers(min_value=0, max_value=1),
    )
    def test_permutation_is_a_list_shuffle(self, seed, burn):
        numpy_rng, list_rng = _twin_generators(seed, burn)
        for _ in range(5):
            pool = list(range(8))
            list_rng.shuffle(pool)
            assert numpy_rng.permutation(8).tolist() == pool
        assert numpy_rng.bit_generator.state == list_rng.bit_generator.state


@pytest.mark.perf
class TestReferenceDifferential:
    """The sampler against the per-record loop, over drawn builds."""

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_publishers=st.integers(min_value=20, max_value=40),
        snapshot_limit=st.integers(min_value=2, max_value=3),
        records_scale=st.floats(min_value=0.05, max_value=4.0),
        include_case_study=st.booleans(),
    )
    def test_records_and_generator_state_match(
        self, seed, n_publishers, snapshot_limit, records_scale,
        include_case_study,
    ):
        config = EcosystemConfig(
            seed=seed,
            n_publishers=n_publishers,
            snapshot_limit=snapshot_limit,
            records_scale=records_scale,
            include_case_study=include_case_study,
        )
        plan = _build_plan(config)
        reference = ScalarSessionSampler(plan.sampler)
        streams = spawn_streams(seed, len(plan.snapshots) + 1)
        records: List[ViewRecord] = []
        for index, snapshot in enumerate(plan.snapshots):
            t = _snapshot_t(index, len(plan.snapshots))
            fast_rng = np.random.default_rng(streams[index])
            scalar_rng = np.random.default_rng(streams[index])
            fast = plan.sampler.snapshot_records(
                snapshot, t, scale=records_scale, rng=fast_rng
            )
            scalar = reference.snapshot_records(
                snapshot, t, scale=records_scale, rng=scalar_rng
            )
            built = fast.records()
            assert built == scalar
            assert (
                fast_rng.bit_generator.state == scalar_rng.bit_generator.state
            )
            records.extend(built)
        # Every branch of the record loop ran.
        assert any(r.is_syndicated for r in records)
        assert any(len(r.cdn_names) > 1 for r in records)
        assert any(r.user_agent is not None for r in records)
        assert any(r.sdk_version is not None for r in records)


if __name__ == "__main__":
    write_golden()
