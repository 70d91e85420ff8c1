import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from safeland.selector import (FeasibilityResult,
                               distance_sq_to, inscribed_distance_sq,
                               inscribed_radius, select)

import oracles


def random_blob(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """Thresholded smoothed noise: irregular connected-ish blobs."""
    field = rng.random((h, w))
    for _ in range(2):
        field = (field + np.roll(field, 1, 0) + np.roll(field, -1, 0)
                 + np.roll(field, 1, 1) + np.roll(field, -1, 1)) / 5.0
    return field > np.quantile(field, 0.6)


class TestDistanceTransform:
    def test_single_pixel_mask(self):
        mask = np.zeros((1, 1), dtype=bool)
        mask[0, 0] = True
        feas, center = inscribed_radius(mask, 0.1, rho_min=0.55)
        assert feas.rho == pytest.approx(0.1, abs=1e-12)
        assert center == (0, 0)

    def test_square_inside_background(self):
        mask = np.zeros((9, 9), dtype=bool)
        mask[2:7, 2:7] = True
        d2 = inscribed_distance_sq(mask)
        assert d2.max() == 9          # 3 px to the nearest background
        feas, center = inscribed_radius(mask, 0.1, rho_min=0.55)
        assert feas.rho == pytest.approx(0.3, abs=1e-12)
        assert center == (4, 4)

    def test_mask_touching_border_is_one_pixel_from_background(self):
        mask = np.ones((5, 5), dtype=bool)
        d2 = inscribed_distance_sq(mask)
        assert d2[0, 0] == 1
        assert d2[2, 2] == 9

    def test_empty_mask_infeasible(self):
        feas, center = inscribed_radius(np.zeros((4, 4), dtype=bool), 0.1, 0.55)
        assert feas.rho == 0.0 and not feas.feasible and center is None

    def test_matches_brute_force_on_random_blobs(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            h = int(rng.integers(4, 65))
            w = int(rng.integers(4, 65))
            mask = random_blob(rng, h, w)
            mine = inscribed_distance_sq(mask)
            ref = np.where(mask, oracles.brute_force_distance_sq(~mask, True), 0)
            assert np.array_equal(mine, ref)

    def test_distance_to_targets_without_padding(self):
        targets = np.zeros((7, 9), dtype=bool)
        targets[3, 4] = True
        d2 = distance_sq_to(targets)
        assert d2[3, 4] == 0
        assert d2[0, 0] == 9 + 16
        ref = oracles.brute_force_distance_sq(targets)
        assert np.array_equal(d2, ref)

    def test_no_target_raises(self):
        with pytest.raises(ValueError):
            distance_sq_to(np.zeros((4, 6), dtype=bool))

    def test_argmax_tie_breaks_to_lowest_row_then_column(self):
        mask = np.zeros((3, 7), dtype=bool)
        mask[1, 1] = True
        mask[1, 5] = True          # two isolated pixels, both distance 1
        _, center = inscribed_radius(mask, 1.0, 0.5)
        assert center == (1, 1)

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(bool, hnp.array_shapes(min_dims=2, max_dims=2,
                                             min_side=1, max_side=24), fill=st.nothing()))
    def test_property_equals_brute_force(self, mask):
        mine = inscribed_distance_sq(mask)
        ref = np.where(mask, oracles.brute_force_distance_sq(~mask, True), 0)
        assert np.array_equal(mine, ref)

    @settings(max_examples=80, deadline=None)
    @given(blob=hnp.arrays(bool, hnp.array_shapes(min_dims=2, max_dims=2,
                                                  min_side=1, max_side=12),
                           fill=st.nothing()),
           pad=st.tuples(*[st.integers(0, 10)] * 4))
    def test_property_radius_on_bounding_box_equals_whole_frame(self, blob, pad):
        # the mask sits anywhere in a larger frame, touching its border or not
        top, bottom, left, right = pad
        mask = np.pad(blob, ((top, bottom), (left, right)))
        feas, center = inscribed_radius(mask, 0.1, 0.55)
        if not mask.any():
            assert center is None and feas.rho == 0.0
            return
        whole = inscribed_distance_sq(mask)
        assert np.array_equal(whole, np.where(
            mask, oracles.brute_force_distance_sq(~mask, True), 0))
        v, u = np.unravel_index(int(np.argmax(whole)), whole.shape)
        assert center == (int(u), int(v))
        assert feas.rho == float(np.sqrt(float(whole[v, u])) * 0.1)

    def test_superset_mask_never_decreases_radius(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            mask = random_blob(rng, 32, 32)
            feas_a, _ = inscribed_radius(mask, 0.1, 0.55)
            grown = mask | (rng.random(mask.shape) < 0.1)
            feas_b, _ = inscribed_radius(grown, 0.1, 0.55)
            assert feas_b.rho >= feas_a.rho - 1e-12


class _Track:
    def __init__(self, id, belief):
        self.id = id
        self.belief = belief


def brute_select(tracks, feasibility, tau):
    feas = [t for t in tracks if feasibility[t.id].feasible]
    if not feas:
        return None
    best = sorted(feas, key=lambda t: (-t.belief, -feasibility[t.id].rho, t.id))[0]
    return best.id if best.belief >= tau else None


class TestSelect:
    def test_single_feasible_track_commits(self):
        tracks = [_Track(0, 0.9)]
        feas = {0: FeasibilityResult(rho=1.0, feasible=True)}
        best = select(tracks, feas, tau=0.75)
        assert best is tracks[0]
        assert best.belief == 0.9

    def test_hard_constraint_dominates_higher_belief(self):
        tracks = [_Track(0, 0.99), _Track(1, 0.80)]
        feas = {0: FeasibilityResult(rho=0.3, feasible=False),
                1: FeasibilityResult(rho=0.8, feasible=True)}
        assert select(tracks, feas, tau=0.75).id == 1

    def test_below_threshold_returns_none(self):
        tracks = [_Track(0, 0.6), _Track(1, 0.7)]
        feas = {0: FeasibilityResult(1.0, True), 1: FeasibilityResult(1.0, True)}
        assert select(tracks, feas, tau=0.75) is None

    def test_no_feasible_track_returns_none(self):
        tracks = [_Track(0, 0.99)]
        feas = {0: FeasibilityResult(0.1, False)}
        assert select(tracks, feas, tau=0.75) is None

    def test_tie_break_larger_radius_then_lower_id(self):
        tracks = [_Track(0, 0.9), _Track(1, 0.9), _Track(2, 0.9)]
        feas = {0: FeasibilityResult(0.7, True),
                1: FeasibilityResult(0.9, True),
                2: FeasibilityResult(0.9, True)}
        assert select(tracks, feas, tau=0.75).id == 1

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(1, 8))
            tracks = [_Track(i, float(rng.uniform(0.01, 0.99))) for i in range(n)]
            feas = {i: FeasibilityResult(rho=float(rng.uniform(0.0, 1.2)),
                                         feasible=bool(rng.random() < 0.6))
                    for i in range(n)}
            best = select(tracks, feas, tau=0.75)
            expected = brute_select(tracks, feas, 0.75)
            assert (best.id if best else None) == expected

    def test_argmax_invariant_to_common_positive_scaling(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            beliefs = rng.uniform(0.2, 0.99, n)
            feas = {i: FeasibilityResult(rho=float(rng.uniform(0.6, 1.2)),
                                         feasible=True) for i in range(n)}
            scale = float(rng.uniform(0.1, 1.0 / beliefs.max()))
            a = select([_Track(i, float(b)) for i, b in enumerate(beliefs)],
                       feas, tau=0.0 + 1e-9)
            b = select([_Track(i, float(x * scale)) for i, x in enumerate(beliefs)],
                       feas, tau=0.0 + 1e-9)
            assert a.id == b.id

    def test_committed_track_always_satisfies_radius_floor(self):
        rng = np.random.default_rng(31)
        rho_min = 0.55
        for _ in range(200):
            n = int(rng.integers(1, 9))
            tracks = [_Track(i, float(rng.uniform(0.0, 1.0))) for i in range(n)]
            feas = {}
            for i in range(n):
                rho = float(rng.uniform(0.0, 1.5))
                feas[i] = FeasibilityResult(rho=rho, feasible=rho >= rho_min)
            best = select(tracks, feas, tau=0.5)
            if best is not None:
                assert feas[best.id].rho >= rho_min
