"""View extraction: scan strings, canonicalization, alphabets, and the
confusion observation model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapmerge import fixtures, sim
from mapmerge import views as views_module
from mapmerge.grid import Pose, default_bearings, raycast
from mapmerge.views import (ExtractionParams, RangeScan, ViewAlphabet,
                            alphabet_build, canonicalize, extract_scan_string,
                            learn_observation_model, observation_likelihood,
                            view_of, OTHER)

MAX_RANGE = 8.0
PARAMS = ExtractionParams()


def corridor_scan(half_width: float = 1.5, max_range: float = MAX_RANGE,
                  scale: float = 1.0) -> RangeScan:
    """Analytic noiseless scan taken mid-corridor facing the open far end:
    walls left and right, free space ahead."""
    angles = default_bearings(181, math.pi)
    ranges = np.empty_like(angles)
    for k, a in enumerate(angles):
        sin_a = math.sin(a)
        if abs(sin_a) > 1e-9:
            r = half_width / abs(sin_a)
        else:
            r = max_range
        ranges[k] = min(r * scale, max_range)
    return RangeScan(angles, ranges, max_range)


class TestRangeScan:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            RangeScan(np.array([0.0, 0.1]), np.array([1.0]), 8.0)

    def test_rejects_decreasing_angles(self):
        with pytest.raises(ValueError):
            RangeScan(np.array([0.1, 0.0]), np.array([1.0, 1.0]), 8.0)

    def test_rejects_out_of_range_readings(self):
        with pytest.raises(ValueError):
            RangeScan(np.array([0.0, 0.1]), np.array([1.0, 9.0]), 8.0)

    def test_mirrored_flips_beams(self):
        s = corridor_scan()
        m = s.mirrored()
        np.testing.assert_allclose(m.ranges, s.ranges[::-1])
        np.testing.assert_allclose(m.angles, -s.angles[::-1])

    def test_writable_input_is_copied_and_locked(self):
        angles = np.array([0.0, 0.1, 0.2])
        ranges = np.array([1.0, 2.0, 3.0])
        scan = RangeScan(angles, ranges, 8.0)
        ranges[0] = 5.0
        assert scan.ranges[0] == 1.0
        for arr in (scan.angles, scan.ranges):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.5

    def test_read_only_input_is_shared(self):
        angles = np.array([0.0, 0.1, 0.2])
        angles.flags.writeable = False
        scan = RangeScan(angles, [1.0, 2.0, 3.0], 8.0)
        assert scan.angles is angles

    def test_loaded_scans_share_one_bearing_array(self):
        cfg = sim.WorldConfig(seed=1)
        traj = sim.generate_trajectory(fixtures.corridor(), Pose(2.0, 2.5, 0.0),
                                       "waypoints", 2.0, cfg, waypoints=[(8.0, 2.5)])
        loaded, _ = sim.load_trajectory(sim.dump_trajectory(traj, cfg))
        assert len({id(r.scan.angles) for r in loaded.records}) == 1


@st.composite
def _scans_and_params(draw):
    n = draw(st.integers(3, 60))
    ranges = draw(st.lists(st.one_of(st.floats(0.3, MAX_RANGE), st.just(MAX_RANGE)),
                           min_size=n, max_size=n))
    params = draw(st.lists(st.builds(
        ExtractionParams,
        gap_threshold=st.sampled_from((0.3, 1.0)),
        max_range_margin=st.sampled_from((0.2, 0.5)),
        corner_angle_threshold=st.sampled_from((0.3, 0.6)),
        line_fit_tolerance=st.sampled_from((0.05, 0.1)),
        min_group_beams=st.integers(1, 5)), min_size=1, max_size=6))
    return default_bearings(n, math.pi), np.array(ranges), params


@settings(max_examples=150, deadline=None)
@given(_scans_and_params())
def test_memoised_strings_equal_fresh_extraction(case):
    # repeated and interleaved params: every answer is the one a fresh
    # extraction gives for that params, never another params' entry
    angles, ranges, params = case
    scan = RangeScan(angles, ranges, MAX_RANGE)
    for p in params + params[::-1]:
        fresh = views_module._extract(RangeScan(angles, ranges, MAX_RANGE), p)
        assert extract_scan_string(scan, p) == fresh
    assert set(scan._strings) == set(params)


def test_memo_left_out_of_repr():
    a, b = corridor_scan(), corridor_scan()
    extract_scan_string(a, PARAMS)
    assert a._strings and not b._strings
    assert repr(a) == repr(b)


class TestCanonicalize:
    def test_palindrome_fixed_point(self):
        assert canonicalize("wgw") == "wgw"

    def test_picks_lexicographic_minimum(self):
        assert canonicalize("wmwgw") == "wgwmw"

    def test_idempotent(self):
        for s in ("wmwgw", "wgw", "cmw", "m"):
            assert canonicalize(canonicalize(s)) == canonicalize(s)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            canonicalize("")


class TestExtraction:
    def test_corridor_reads_wmw(self):
        assert extract_scan_string(corridor_scan(), PARAMS) == "wmw"

    def test_corridor_with_left_opening_reads_wmwgw(self):
        grid = fixtures.corridor_with_left_opening()
        scan = raycast(grid, Pose(3.0, 5.0, 0.0), default_bearings(), MAX_RANGE)
        s = extract_scan_string(scan, PARAMS)
        assert canonicalize(s) == canonicalize("wmwgw") == "wgwmw"

    def test_all_max_range_reads_m(self):
        angles = default_bearings(45, math.pi)
        scan = RangeScan(angles, np.full(45, MAX_RANGE), MAX_RANGE)
        assert extract_scan_string(scan, PARAMS) == "m"

    def test_rejects_tiny_scan(self):
        with pytest.raises(ValueError):
            extract_scan_string(RangeScan(np.array([0.0, 0.1]),
                                          np.array([1.0, 1.0]), 8.0), PARAMS)

    def test_deterministic(self):
        scan = corridor_scan()
        assert (extract_scan_string(scan, PARAMS)
                == extract_scan_string(scan, PARAMS))

    def test_scale_robust_corridor(self):
        base = extract_scan_string(corridor_scan(), PARAMS)
        for scale in (0.7, 0.85, 1.0, 1.15, 1.3):
            assert extract_scan_string(corridor_scan(scale=scale), PARAMS) == base


@settings(max_examples=250, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_mirror_symmetry_random_scans(seed):
    """A scan and its left/right mirror canonicalize to the same string."""
    r = np.random.default_rng(seed)
    n = int(r.integers(30, 181))
    angles = np.sort(r.uniform(-math.pi / 2, math.pi / 2, size=n))
    angles += np.arange(n) * 1e-9  # break exact ties, keep strictly increasing
    # piecewise-smooth ranges with occasional jumps and no-return stretches
    ranges = np.clip(np.cumsum(r.normal(0.0, 0.15, size=n)) + r.uniform(1.0, 6.0),
                     0.05, MAX_RANGE)
    for _ in range(int(r.integers(0, 4))):
        a = int(r.integers(0, n))
        b = min(n, a + int(r.integers(1, 25)))
        if r.random() < 0.5:
            ranges[a:b] = MAX_RANGE
        else:
            ranges[a:b] = np.clip(ranges[a:b] + r.uniform(-3, 3), 0.05, MAX_RANGE)
    scan = RangeScan(angles, ranges, MAX_RANGE)
    s = extract_scan_string(scan, PARAMS)
    s_m = extract_scan_string(scan.mirrored(), PARAMS)
    assert canonicalize(s) == canonicalize(s_m)
    assert s_m == s[::-1]


class TestAlphabet:
    def test_frequency_ranking(self):
        strings = ["wmw"] * 10 + ["wgw"] * 5
        alphabet = alphabet_build(strings, max_views=10)
        assert alphabet.entries == ("wmw", "wgw", OTHER)
        assert alphabet.nu == 3

    def test_cap_keeps_other(self):
        alphabet = alphabet_build(["wmw"], max_views=2)
        assert alphabet.entries == ("wmw", OTHER)
        assert alphabet.nu == 2

    def test_rejects_empty_corpus(self):
        with pytest.raises(ValueError):
            alphabet_build([], max_views=4)

    def test_other_always_last(self):
        alphabet = alphabet_build(["a", "b", "c"], max_views=3)
        assert alphabet.entries[-1] == OTHER
        assert alphabet.other_id == alphabet.nu - 1

    def test_view_of_known_and_fallback(self):
        alphabet = alphabet_build(["wmw"] * 3 + ["wgw"], max_views=10)
        assert view_of(alphabet, "wmw") == 0
        assert view_of(alphabet, "cgc") == alphabet.other_id

    def test_view_of_reversal_invariant(self):
        alphabet = alphabet_build(["wgwmw", "wmw"], max_views=10)
        assert view_of(alphabet, "wmwgw") == view_of(alphabet, "wgwmw")

    def test_entries_unique_after_canonicalization(self):
        alphabet = alphabet_build(["wmwgw", "wgwmw", "wmw"], max_views=10)
        assert len(set(alphabet.entries)) == len(alphabet.entries)
        assert "wmwgw" not in alphabet.entries  # folded into its canonical twin

    def test_content_hash_tracks_entries(self):
        a = alphabet_build(["wmw"], max_views=4)
        b = alphabet_build(["wgw"], max_views=4)
        assert a.content_hash() != b.content_hash()
        assert a.content_hash() == alphabet_build(["wmw"], max_views=4).content_hash()

    def test_rejects_missing_catch_all(self):
        with pytest.raises(ValueError):
            ViewAlphabet(("wmw", "wgw"))


class TestObservationModel:
    def test_columns_are_distributions(self):
        r = np.random.default_rng(0)
        labeled = [[(int(r.integers(3)), int(r.integers(3))) for _ in range(50)]
                   for _ in range(3)]
        model = learn_observation_model(labeled, nu=3)
        np.testing.assert_allclose(model.sum(axis=0), 1.0, atol=1e-9)
        assert np.all(model > 0)

    def test_identity_limit_for_clean_labels(self):
        labeled = [[(v, v) for v in range(3) for _ in range(40)]]
        tight = learn_observation_model(labeled, nu=3, prior_weight=1e-8)
        np.testing.assert_allclose(tight, np.eye(3), atol=1e-6)
        loose = learn_observation_model(labeled, nu=3, prior_weight=0.5)
        assert np.all(np.diag(loose) > 0.9)
        assert np.all(loose > 0)

    def test_single_environment_counts(self):
        # counts column 0 = (3, 1) with prior column (1, 1): (4/6, 2/6)
        labeled = [[(0, 0), (0, 0), (0, 0), (0, 1)]]
        model = learn_observation_model(labeled, nu=2, prior_weight=1.0)
        assert model[0, 0] == pytest.approx(4.0 / 6.0)
        assert model[1, 0] == pytest.approx(2.0 / 6.0)

    def test_unseen_view_falls_back_to_prior(self):
        labeled = [[(0, 0)] * 10]  # view 1 never appears as a true label
        model = learn_observation_model(labeled, nu=2, prior_weight=1.0)
        np.testing.assert_allclose(model[:, 1], [0.5, 0.5])

    def test_floor_bounds_entries(self):
        labeled = [[(v, v) for v in range(4) for _ in range(100)]]
        model = learn_observation_model(labeled, nu=4, prior_weight=1e-6,
                                        floor=0.01)
        assert np.all(model >= 0.01 / 4 - 1e-12)
        np.testing.assert_allclose(model.sum(axis=0), 1.0, atol=1e-9)

    def test_rejects_empty_environment(self):
        with pytest.raises(ValueError):
            learn_observation_model([[(0, 0)], []], nu=2)

    def test_observation_likelihood_lookup(self):
        model = np.array([[0.9, 0.2], [0.1, 0.8]])
        assert observation_likelihood(model, 1, 0) == pytest.approx(0.1)
        with pytest.raises(IndexError):
            observation_likelihood(model, 2, 0)
        for v in range(2):
            total = sum(observation_likelihood(model, z, v) for z in range(2))
            assert total == pytest.approx(1.0)
