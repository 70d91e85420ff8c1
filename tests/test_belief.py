import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safeland.belief import (_IOU_MIN, _TRACK_GRACE, RegionTrack, _iou_matrix, associate,
                             cue_likelihood, likelihoods, predict, step, update)
from safeland.params import Params
from safeland.perception import CueVector, RegionMask

import oracles
from conftest import region_box


def cues_for_l(l_f=1.0, l_s=1.0, l_o=1.0, m=None):
    """Cue vector whose per-cue likelihoods equal the requested values."""
    m = m or Params()
    return CueVector(flatness=-math.log(l_f),   # the flatness scale is 1.0
                     slope=-m.sigma_s * math.log(l_s),
                     obstacle=-m.sigma_o * math.log(l_o))


class TestLikelihoods:
    def test_perfect_cues_give_unit_safe_likelihood(self):
        assert likelihoods(CueVector(0.0, 0.0, 0.0), Params())[0] == 1.0

    def test_single_weighted_factor(self):
        m = Params()
        cues = cues_for_l(l_f=0.5, m=m)
        assert likelihoods(cues, m)[0] == pytest.approx(0.5 ** 0.4, abs=1e-12)

    def test_zero_weights_give_unit_likelihoods(self):
        m = Params(w_f=0.0, w_s=0.0, w_o=0.0)
        cues = CueVector(flatness=3.0, slope=1.0, obstacle=0.9)
        assert likelihoods(cues, m) == (1.0, 1.0)

    def test_perfect_cues_floor_the_unsafe_likelihood(self):
        assert likelihoods(CueVector(0.0, 0.0, 0.0), Params())[1] == 0.05

    def test_partial_complement_still_floored_by_zero_factors(self):
        # one informative factor, two zero factors: the product floors
        m = Params()
        cues = cues_for_l(l_f=0.5, m=m)
        assert likelihoods(cues, m)[1] == 0.05

    def test_symmetry_point_at_half(self):
        m = Params()
        cues = cues_for_l(0.5, 0.5, 0.5, m=m)
        l1, l0 = likelihoods(cues, m)
        assert l1 == pytest.approx(0.5, abs=1e-12)
        assert l0 == pytest.approx(0.5, abs=1e-12)

    def test_outputs_always_within_floor_and_one(self):
        m = Params()
        rng = np.random.default_rng(0)
        for _ in range(200):
            cues = CueVector(flatness=float(rng.uniform(0, 10)),
                             slope=float(rng.uniform(0, math.pi / 2)),
                             obstacle=float(rng.uniform(0, 1)))
            for val in likelihoods(cues, m):
                assert m.eps_l <= val <= 1.0

    def test_cue_mappings_monotone_non_increasing_with_unit_start(self):
        m = Params()
        for sigma in (1.0, m.sigma_s, m.sigma_o):
            assert cue_likelihood(0.0, sigma, m.eps_l) == 1.0
            xs = np.linspace(0.0, 5.0, 50)
            vals = [cue_likelihood(float(x), sigma, m.eps_l) for x in xs]
            assert all(a >= b for a, b in zip(vals, vals[1:]))
            assert min(vals) >= m.eps_l


class TestRecursion:
    def test_predict_fixed_point_at_half(self):
        for alpha in (0.6, 0.8, 0.95):
            assert predict(0.5, alpha) == pytest.approx(0.5, abs=1e-15)

    def test_predict_limit_values(self):
        assert predict(1.0, 0.95) == pytest.approx(0.95, abs=1e-15)
        assert predict(0.8, 0.95) == pytest.approx(0.77, abs=1e-15)

    def test_predict_contracts_toward_half_with_known_factor(self):
        alpha = 0.95
        for b in (0.1, 0.3, 0.6, 0.99):
            lhs = abs(predict(b, alpha) - 0.5)
            assert lhs == pytest.approx((2 * alpha - 1) * abs(b - 0.5), abs=1e-12)

    def test_update_identity_when_likelihoods_equal(self):
        for b in (0.2, 0.5, 0.9):
            assert update(b, 0.3, 0.3) == pytest.approx(b, abs=1e-15)

    def test_update_examples(self):
        assert update(0.5, 0.9, 0.1) == pytest.approx(0.9, abs=1e-12)
        assert update(0.65, 0.8, 0.4) == pytest.approx(1.3 / 1.65, abs=1e-12)

    def test_update_monotone_in_likelihood_ratio(self):
        b_bar = 0.4
        ratios = np.linspace(0.1, 10.0, 25)
        vals = [update(b_bar, r * 0.05, 0.05) for r in ratios]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.05, 1.0), st.floats(0.05, 1.0)),
                    min_size=1, max_size=150),
           st.floats(0.51, 0.99))
    def test_belief_stays_strictly_inside_unit_interval(self, pairs, alpha):
        b = 0.5
        for l1, l0 in pairs:
            b = update(predict(b, alpha), l1, l0)
            assert 0.0 < b < 1.0

    def test_module_matches_scripted_recursion(self):
        rng = np.random.default_rng(11)
        pairs = [(float(a), float(b)) for a, b in rng.uniform(0.05, 1.0, (300, 2))]
        b = 0.5
        mine = []
        for l1, l0 in pairs:
            b = update(predict(b, 0.95), l1, l0)
            mine.append(b)
        ref = oracles.belief_recursion(0.5, 0.95, pairs)
        assert np.allclose(mine, ref, atol=1e-15)

    def test_spike_and_counter_spike_behavior(self):
        # one strong safe frame then one equally strong unsafe frame; the
        # persistence mix keeps the pair from cancelling exactly, and
        # trailing neutral frames contract the rest away geometrically
        ref = oracles.belief_recursion(0.5, 0.95, [(0.45, 0.05), (0.05, 0.45)])
        assert ref[0] == pytest.approx(0.9, abs=1e-12)
        assert ref[1] == pytest.approx(0.4056603773584906, abs=1e-12)
        b = ref[1]
        for _ in range(20):
            b = update(predict(b, 0.95), 0.3, 0.3)
        assert abs(b - 0.5) < 0.02

    def test_repeated_predict_only_converges_to_half_geometrically(self):
        b = 0.93
        gaps = []
        for _ in range(30):
            b = predict(b, 0.95)
            gaps.append(abs(b - 0.5))
        ratios = [g2 / g1 for g1, g2 in zip(gaps, gaps[1:])]
        assert all(r == pytest.approx(0.9, abs=1e-9) for r in ratios)

    def test_persistence_model_domain(self):
        with pytest.raises(ValueError):
            Params(alpha=0.5)
        with pytest.raises(ValueError):
            Params(alpha=1.0)


def region_with_cells(cells: np.ndarray, camera=None) -> RegionMask:
    pixels = np.ones((4, 4), dtype=bool)
    return RegionMask(**region_box(pixels), ground_footprint=cells,
                      mean_depth=5.0, camera=camera)


def square_cells(x0: float, y0: float, side: float, res: float = 0.1) -> np.ndarray:
    n = int(round(side / res))
    i0, j0 = int(round(x0 / res)), int(round(y0 / res))
    ii, jj = np.meshgrid(np.arange(i0, i0 + n), np.arange(j0, j0 + n),
                         indexing="ij")
    return oracles.footprint_keys(np.stack([ii.ravel(), jj.ravel()], axis=1))


ASSOC = Params(b0=0.5)


class TestAssociation:
    def test_identical_footprints_match_with_unit_iou(self):
        cells = square_cells(0.0, 0.0, 1.0)
        assert oracles.footprint_iou(cells, cells) == 1.0
        track = RegionTrack(id=0, mask=region_with_cells(cells), belief=0.7)
        result = associate([track], [region_with_cells(cells)], ASSOC, next_id=1)
        assert len(result.matches) == 1
        assert result.matches[0][0].id == 0

    def test_disjoint_footprints_do_not_match(self):
        a = square_cells(0.0, 0.0, 1.0)
        b = square_cells(5.0, 5.0, 1.0)
        assert oracles.footprint_iou(a, b) == 0.0
        track = RegionTrack(id=0, mask=region_with_cells(a), belief=0.7)
        result = associate([track], [region_with_cells(b)], ASSOC, next_id=1)
        matched_ids = [t.id for t, _ in result.matches]
        assert 0 not in matched_ids          # old track went unmatched
        assert len(result.tracks) == 2       # survivor + spawned track

    def test_half_overlapping_squares_match_at_third(self):
        a = square_cells(0.0, 0.0, 1.0)
        b = square_cells(0.5, 0.0, 1.0)
        assert oracles.footprint_iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)
        track = RegionTrack(id=0, mask=region_with_cells(a), belief=0.7)
        result = associate([track], [region_with_cells(b)], ASSOC, next_id=1)
        assert [t.id for t, _ in result.matches] == [0]

    @settings(max_examples=200, deadline=None)
    @given(footprints=st.lists(
        st.sets(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), max_size=30),
        max_size=9))
    def test_iou_join_equals_the_pairwise_loop(self, footprints):
        # overlapping, disjoint, empty and negative-coordinate footprints,
        # split into two lists that share some of them
        cells = [oracles.footprint_keys(sorted(f)) for f in footprints]
        a, b = cells[: len(cells) // 2 + 1], cells[len(cells) // 3:]
        loop = np.array([[oracles.footprint_iou(x, y) for y in b]
                         for x in a]).reshape(len(a), len(b))
        join = _iou_matrix(a, b)
        assert join.shape == loop.shape
        assert join.tobytes() == loop.tobytes()

    def test_new_regions_spawn_tracks_at_initial_belief(self):
        cells = square_cells(0.0, 0.0, 1.0)
        result = associate([], [region_with_cells(cells)], ASSOC, next_id=7)
        assert len(result.tracks) == 1
        assert result.tracks[0].id == 7
        assert result.tracks[0].belief == 0.5
        assert result.next_id == 8

    def test_unmatched_track_retires_after_grace(self):
        cells = square_cells(0.0, 0.0, 1.0)
        track = RegionTrack(id=0, mask=region_with_cells(cells), belief=0.8)
        tracks = [track]
        for _ in range(_TRACK_GRACE):
            result = associate(tracks, [], ASSOC, next_id=1)
            tracks = result.tracks
            assert len(tracks) == 1
        result = associate(tracks, [], ASSOC, next_id=1)
        assert result.tracks == []

    # two 13-cell rows overlapping in k cells: IoU k / (26 - k)
    @pytest.mark.parametrize("overlap", [5, 6, 7], ids=["below", "at", "above"])
    def test_match_threshold_is_inclusive(self, overlap):
        a = oracles.footprint_keys([(i, 0) for i in range(13)])
        b = oracles.footprint_keys([(i, 0) for i in range(13 - overlap, 26 - overlap)])
        iou = oracles.footprint_iou(a, b)
        assert iou == overlap / (26 - overlap)
        track = RegionTrack(id=0, mask=region_with_cells(a), belief=0.7)
        result = associate([track], [region_with_cells(b)], ASSOC, next_id=1)
        assert ([t.id for t, _ in result.matches] == [0]) == (iou >= _IOU_MIN)
        assert (overlap >= 6) == (iou >= _IOU_MIN)

    def test_match_resets_the_miss_count(self):
        cells = square_cells(0.0, 0.0, 1.0)
        tracks = [RegionTrack(id=0, mask=region_with_cells(cells), belief=0.8)]
        for regions in ([[]] * _TRACK_GRACE + [[region_with_cells(cells)]]
                        + [[]] * _TRACK_GRACE):
            tracks = associate(tracks, regions, ASSOC, next_id=1).tracks
            assert [t.id for t in tracks] == [0]
        assert associate(tracks, [], ASSOC, next_id=1).tracks == []

    def test_greedy_prefers_highest_iou(self):
        a = square_cells(0.0, 0.0, 1.0)
        shifted_small = square_cells(0.6, 0.0, 1.0)   # IoU ~ 0.25 with a
        near = square_cells(0.1, 0.0, 1.0)            # IoU ~ 0.8 with a
        track = RegionTrack(id=0, mask=region_with_cells(a), belief=0.8)
        result = associate([track], [region_with_cells(shifted_small),
                                     region_with_cells(near)], ASSOC, next_id=1)
        matched_region = next(r for t, r in result.matches if t.id == 0)
        assert np.array_equal(matched_region.ground_footprint, near)


class TestStep:
    def test_first_update_with_perfect_cues(self):
        cells = square_cells(0.0, 0.0, 1.0)
        track = RegionTrack(id=0, mask=region_with_cells(cells), belief=0.5)
        step([track], {0: CueVector(0.0, 0.0, 0.0)}, Params())
        assert track.belief == pytest.approx(0.5 / (0.5 + 0.5 * 0.05), abs=1e-12)

    def test_unmatched_tracks_move_toward_half(self):
        cells = square_cells(0.0, 0.0, 1.0)
        high = RegionTrack(id=0, mask=region_with_cells(cells), belief=0.9)
        low = RegionTrack(id=1, mask=region_with_cells(cells), belief=0.2)
        step([high, low], {}, Params())
        assert 0.5 < high.belief < 0.9
        assert 0.2 < low.belief < 0.5

    def test_constant_ratio_two_crosses_threshold_at_step_two(self):
        b = 0.5
        crossing = None
        for k in range(1, 10):
            b = update(predict(b, 0.95), 0.4, 0.2)
            if crossing is None and b >= 0.75:
                crossing = k
        assert crossing == 2

    def test_history_records_likelihoods_and_belief(self):
        cells = square_cells(0.0, 0.0, 1.0)
        track = RegionTrack(id=0, mask=region_with_cells(cells), belief=0.5)
        step([track], {0: CueVector(0.0, 0.0, 0.0)}, Params())
        assert track.likelihoods == (1.0, 0.05)
        assert track.belief == pytest.approx(0.5 / (0.5 + 0.5 * 0.05), abs=1e-12)
        step([track], {}, Params())
        assert track.likelihoods is None

    def test_recursion_deterministic_for_fixed_inputs(self):
        seq = [(0.8, 0.2), (0.3, 0.6), (0.9, 0.1)]

        def run():
            b = 0.5
            for l1, l0 in seq:
                b = update(predict(b, 0.95), l1, l0)
            return b

        assert run() == run()
