"""Cross-cutting property-based tests (hypothesis).

Module-level invariants live next to their modules; this file holds the
properties that span layers: energy conservation through the device,
Equation-2 metric axioms on random descriptor sets, submodularity of
weighted sums, and policy-pipeline coupling.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.policies import LinearPolicy, eac_policy, eau_policy, edr_policy
from repro.core.ssmm import SubmodularSelector, partition_components
from repro.energy import Battery, EnergyMeter, WorkCost
from repro.features.base import FeatureSet
from repro.features.similarity import jaccard_similarity
from repro.imaging.bitmap import compressed_dimensions
from repro.imaging.resolution import size_factor as resolution_size_factor
from repro.sim.device import Smartphone


def _feature_set(seed: int, n: int, image_id: str = "x") -> FeatureSet:
    rng = np.random.default_rng(seed)
    return FeatureSet(
        kind="orb",
        descriptors=rng.integers(0, 256, (n, 32)).astype(np.uint8),
        xs=rng.uniform(0, 100, n),
        ys=rng.uniform(0, 100, n),
        pixels_processed=int(rng.integers(0, 10**6)),
        image_id=image_id,
    )


class TestSimilarityMetricAxioms:
    @given(st.integers(0, 10**6), st.integers(0, 20), st.integers(0, 20))
    @settings(max_examples=30)
    def test_bounded(self, seed, n_a, n_b):
        a = _feature_set(seed, n_a)
        b = _feature_set(seed + 1, n_b)
        assert 0.0 <= jaccard_similarity(a, b) <= 1.0

    @given(st.integers(0, 10**6), st.integers(0, 20), st.integers(0, 20))
    @settings(max_examples=30)
    def test_symmetric(self, seed, n_a, n_b):
        a = _feature_set(seed, n_a)
        b = _feature_set(seed + 1, n_b)
        assert jaccard_similarity(a, b) == pytest.approx(jaccard_similarity(b, a))

    @given(st.integers(0, 10**6), st.integers(1, 20))
    @settings(max_examples=30)
    def test_identity(self, seed, n):
        a = _feature_set(seed, n)
        assert jaccard_similarity(a, a) == pytest.approx(1.0)


class TestEnergyConservation:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=500.0),
                st.sampled_from(["a", "b", "c"]),
            ),
            max_size=25,
        )
    )
    @settings(max_examples=40)
    def test_meter_equals_battery_drain(self, operations):
        device = Smartphone()
        device.battery = Battery(capacity_joules=1000.0)
        for joules, category in operations:
            device.spend(WorkCost(seconds=1.0, joules=joules), category)
        drained = 1000.0 - device.battery.remaining_joules
        assert device.meter.total_joules == pytest.approx(drained)

    @given(st.lists(st.floats(min_value=0.0, max_value=400.0), max_size=20))
    @settings(max_examples=40)
    def test_snapshot_diff_partitions_total(self, drains):
        meter = EnergyMeter()
        half = len(drains) // 2
        for joules in drains[:half]:
            meter.record("first", joules)
        snapshot = meter.snapshot()
        for joules in drains[half:]:
            meter.record("second", joules)
        delta = sum(meter.since(snapshot).values())
        assert delta == pytest.approx(sum(drains[half:]))


class TestPolicyGeometry:
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=50)
    def test_policies_lipschitz(self, a, b):
        """Linear policies never jump: |Δvalue| <= |slope| * |ΔEbat|."""
        for policy, slope in (
            (eac_policy(), 0.4),
            (edr_policy(), 0.006),
            (eau_policy(), 0.8),
        ):
            assert abs(policy(a) - policy(b)) <= slope * abs(a - b) + 1e-12

    @given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(0.0, 1.0))
    @settings(max_examples=50)
    def test_fixed_policy_ignores_ebat(self, value, _unused, ebat):
        policy = LinearPolicy.fixed(value)
        assert policy(ebat) == value


class TestSubmodularityOfWeightedSums:
    @given(
        st.integers(0, 10**6),
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.0, max_value=5.0),
    )
    @settings(max_examples=30)
    def test_weighted_sum_stays_submodular(self, seed, w_cov, w_div):
        """Section III-B2: a non-negative weighted sum of submodular
        functions is submodular — checked on random weight matrices."""
        rng = np.random.default_rng(seed)
        n = 6
        raw = rng.uniform(0, 1, (n, n))
        weights = (raw + raw.T) / 2
        np.fill_diagonal(weights, 1.0)
        labels = partition_components(weights, 0.5)
        selector = SubmodularSelector(coverage_weight=w_cov, diversity_weight=w_div)

        small = [0]
        big = [0, 1, 2, 3]
        v = 5
        gain_small = selector.objective(weights, labels, small + [v]) - (
            selector.objective(weights, labels, small)
        )
        gain_big = selector.objective(weights, labels, big + [v]) - (
            selector.objective(weights, labels, big)
        )
        assert gain_small >= gain_big - 1e-9


class TestGeometrySemantics:
    @given(
        st.integers(8, 2000),
        st.integers(8, 2000),
        st.floats(min_value=0.0, max_value=0.95),
        st.floats(min_value=0.0, max_value=0.95),
    )
    @settings(max_examples=50)
    def test_compression_composes_monotonically(self, h, w, p1, p2):
        """Compressing harder never yields a larger bitmap."""
        low, high = sorted((p1, p2))
        h_low, w_low = compressed_dimensions(h, w, low)
        h_high, w_high = compressed_dimensions(h, w, high)
        assert h_high <= h_low
        assert w_high <= w_low

    @given(st.floats(min_value=0.0, max_value=0.95))
    @settings(max_examples=50)
    def test_resolution_size_factor_dominated_by_pixel_fraction(self, proportion):
        """The file never shrinks faster than its pixel count."""
        pixel_fraction = (1.0 - proportion) ** 2
        assert resolution_size_factor(proportion) >= pixel_fraction - 1e-12
