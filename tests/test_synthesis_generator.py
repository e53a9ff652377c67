"""The top-level generator (repro.synthesis.generator)."""

import pytest

from repro.errors import CalibrationError
from repro.synthesis.calibration import EcosystemConfig
from repro.synthesis.generator import (
    EcosystemGenerator,
    generate_default_dataset,
)


class TestGeneration:
    def test_dataset_shape(self, eco):
        assert len(eco.dataset.snapshots()) == 6
        assert len(eco.publishers) == 110
        assert len(eco.dataset.publishers()) == 110

    def test_first_and_last_snapshots_kept(self, eco):
        dates = eco.dataset.snapshots()
        schedule = eco.schedule.dates()
        assert dates[0] == schedule[0]
        assert dates[-1] == schedule[-1]

    def test_dash_drivers_are_among_largest(self, eco):
        ranked = sorted(
            eco.publishers, key=lambda p: p.daily_view_hours, reverse=True
        )
        top = {p.publisher_id for p in ranked[:4]}
        assert eco.dash_driver_ids == top

    def test_top3_subset_of_drivers(self, eco):
        assert eco.top3_ids <= eco.dash_driver_ids

    def test_case_study_present(self, eco):
        assert eco.case_study is not None
        assert len(eco.case_study.labels) == 11

    def test_catalogue_sizes_cover_population(self, eco):
        assert set(eco.catalogue_sizes) == {
            p.publisher_id for p in eco.publishers
        }

    def test_publisher_lookup(self, eco):
        publisher = eco.publisher(eco.case_study.owner_id)
        assert publisher.publisher_id == eco.case_study.owner_id
        with pytest.raises(KeyError):
            eco.publisher("ghost")

    def test_publisher_miss_names_the_id_and_leaves_index_intact(self, eco):
        # Regression: a dict-index miss must surface the requested id
        # (not a bare KeyError from the internal dict) and must not
        # poison subsequent hits on the cached index.
        with pytest.raises(KeyError, match="unknown publisher 'pub_404'"):
            eco.publisher("pub_404")
        survivor = eco.publishers[0].publisher_id
        assert eco.publisher(survivor).publisher_id == survivor
        with pytest.raises(KeyError, match="''"):
            eco.publisher("")

    def test_every_listed_publisher_resolves(self, eco):
        for expected in eco.publishers:
            assert eco.publisher(expected.publisher_id) is expected

    def test_total_view_hours_order_of_magnitude(self, eco):
        # §3: ~0.06B daily view-hours aggregate; the synthetic
        # population should land within the same order of magnitude.
        daily = eco.dataset.latest().total_view_hours() / 2.0
        assert 1e7 < daily < 1e9


class TestDeterminism:
    def test_same_seed_same_dataset(self):
        a = generate_default_dataset(seed=99, snapshot_limit=3)
        b = generate_default_dataset(seed=99, snapshot_limit=3)
        assert len(a.dataset) == len(b.dataset)
        assert a.dataset.records[:50] == b.dataset.records[:50]
        assert a.dataset.records[-1] == b.dataset.records[-1]

    def test_different_seed_differs(self):
        a = generate_default_dataset(seed=1, snapshot_limit=3)
        b = generate_default_dataset(seed=2, snapshot_limit=3)
        assert a.dataset.records[:100] != b.dataset.records[:100]


class TestConfig:
    def test_case_study_optional(self):
        config = EcosystemConfig(
            seed=5, snapshot_limit=2, include_case_study=False
        )
        result = EcosystemGenerator(config).generate()
        assert result.case_study is None

    def test_records_scale(self):
        small = EcosystemGenerator(
            EcosystemConfig(
                seed=5, snapshot_limit=2, records_scale=0.5,
                include_case_study=False,
            )
        ).generate()
        big = EcosystemGenerator(
            EcosystemConfig(
                seed=5, snapshot_limit=2, records_scale=1.0,
                include_case_study=False,
            )
        ).generate()
        assert (
            small.dataset.total_view_hours()
            < big.dataset.total_view_hours()
        )

    def test_snapshot_limit_validation(self):
        with pytest.raises(CalibrationError):
            EcosystemGenerator(
                EcosystemConfig(seed=1, snapshot_limit=1)
            ).generate()
        with pytest.raises(CalibrationError):
            EcosystemConfig(seed=1, snapshot_limit=-1)

    def test_population_minimum(self):
        with pytest.raises(CalibrationError):
            EcosystemConfig(n_publishers=5)

    def test_qoe_sessions_minimum(self):
        with pytest.raises(CalibrationError):
            EcosystemConfig(qoe_sessions=1)


class TestDashDriverCounterfactual:
    """§4.1's causal claim: large publishers drive the DASH surge."""

    def test_without_drivers_dash_stays_marginal(self):
        from repro.constants import Protocol
        from repro.core.dimensions import HTTP_PROTOCOL_COLUMN
        from repro.core.prevalence import (
            first_last,
            view_hour_share_series,
        )

        config = EcosystemConfig(
            seed=2018,
            snapshot_limit=5,
            dash_driver_count=0,
            include_case_study=False,
        )
        counterfactual = EcosystemGenerator(config).generate()
        series = view_hour_share_series(
            counterfactual.dataset, HTTP_PROTOCOL_COLUMN
        )
        _, dash_end = first_last(series, Protocol.DASH)
        # Without the drivers, DASH view-hours never surge (the factual
        # world ends near 40%).
        assert dash_end < 12.0
        assert counterfactual.dash_driver_ids == frozenset()

    def test_negative_driver_count_rejected(self):
        from repro.errors import CalibrationError

        with pytest.raises(CalibrationError):
            EcosystemConfig(dash_driver_count=-1)
