"""Two-hypothesis likelihoods, track association, and the belief recursion.

Each persistent region track carries a probability that its latent
safe-to-land state is true. Per frame the belief is first mixed toward
0.5 by the Markov persistence prior, then updated by the ratio of the
safe/unsafe cue likelihoods. Likelihoods are floored so no track ever
saturates; evidence always stays revisable.

Association runs on ground-projected footprints (greedy best-IoU), so
camera motion does not break track identity. A footprint is its
region's sorted unique ground-cell keys, as ``perception`` forms them;
each becomes a 0/1 membership row over the frame's cells, and one
matrix product of the track rows with the region rows counts every
pair's intersection. Weights, likelihood scales, the floor and the
persistence factor are read from ``Params``; the IoU threshold and the
retirement grace are module constants.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import Params
from .perception import CueVector, RegionMask

_IOU_MIN = 0.3     # ground-footprint IoU required for a match
_TRACK_GRACE = 5   # frames a track survives unmatched


def cue_likelihood(x: float, sigma: float, eps_l: float) -> float:
    """Bounded monotone cue-to-likelihood mapping: 1 at a perfect cue, floored at eps_l."""
    return max(math.exp(-x / sigma), eps_l)


def likelihoods(cues: CueVector, params: Params) -> tuple[float, float]:
    """Safe and unsafe likelihoods (l1, l0), each clamped to [eps_l, 1].

    l1 is the weighted product of the per-cue likelihoods; l0 the same
    product of their complements, so it increases as the cues worsen.
    """
    # the flatness cue is already the plane-fit RMS over sigma_f
    l_f = cue_likelihood(cues.flatness, 1.0, params.eps_l)
    l_s = cue_likelihood(cues.slope, params.sigma_s, params.eps_l)
    l_o = cue_likelihood(cues.obstacle, params.sigma_o, params.eps_l)
    safe = l_f ** params.w_f * l_s ** params.w_s * l_o ** params.w_o
    unsafe = (1.0 - l_f) ** params.w_f * (1.0 - l_s) ** params.w_s * (1.0 - l_o) ** params.w_o
    return min(max(safe, params.eps_l), 1.0), min(max(unsafe, params.eps_l), 1.0)


def predict(b_prev: float, alpha: float) -> float:
    """Markov persistence prior: mixes the belief toward 0.5."""
    return alpha * b_prev + (1.0 - alpha) * (1.0 - b_prev)


def update(b_bar: float, l1: float, l0: float) -> float:
    """Bayes update of the predicted belief with the two-hypothesis likelihoods."""
    num = l1 * b_bar
    return num / (num + l0 * (1.0 - b_bar))


@dataclass
class RegionTrack:
    id: int
    mask: RegionMask
    belief: float
    misses: int = 0
    likelihoods: tuple[float, float] | None = None  # (l1, l0) of the last tick; None if unmatched


def _iou_matrix(footprints_a: list[np.ndarray], footprints_b: list[np.ndarray]) -> np.ndarray:
    """(A, B) IoU of every pair of cell-key footprints, from one membership product.

    Each footprint becomes a 0/1 row over the cells of all the
    footprints; the intersections are the product of the A rows with the
    B rows, each union is the two row sums less the intersection, and the
    IoU is 0.0 where the union is empty. ``tests/oracles.py`` holds the
    pairwise reference, ``footprint_iou``.
    """
    footprints = [*footprints_a, *footprints_b]
    cells, column = np.unique(np.concatenate([np.zeros(0, dtype=np.int64), *footprints]),
                              return_inverse=True)
    member = np.zeros((len(footprints), cells.size))
    member[np.repeat(np.arange(len(footprints)), [len(f) for f in footprints]), column] = 1.0
    rows_a, rows_b = member[:len(footprints_a)], member[len(footprints_a):]
    inter = rows_a @ rows_b.T
    union = rows_a.sum(axis=1)[:, None] + rows_b.sum(axis=1)[None, :] - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0.0)


@dataclass
class AssociationResult:
    tracks: list[RegionTrack]                       # surviving + newly spawned
    matches: list[tuple[RegionTrack, RegionMask]]   # matched pairs this frame
    next_id: int


def associate(tracks: list[RegionTrack], regions: list[RegionMask], params: Params,
              *, next_id: int) -> AssociationResult:
    """Greedy best-IoU matching of current regions onto existing tracks.

    Pairs match at IoU ``_IOU_MIN`` or more. Unmatched regions spawn
    fresh tracks at the initial belief ``params.b0``; tracks unmatched for
    more than ``_TRACK_GRACE`` consecutive frames retire.
    """
    n_t, n_r = len(tracks), len(regions)
    iou = _iou_matrix([track.mask.ground_footprint for track in tracks],
                      [region.ground_footprint for region in regions])

    matches: list[tuple[RegionTrack, RegionMask]] = []
    used_t = np.zeros(n_t, dtype=bool)
    used_r = np.zeros(n_r, dtype=bool)
    while iou.size:
        i, j = np.unravel_index(int(np.argmax(iou)), iou.shape)
        if iou[i, j] < _IOU_MIN:
            break
        iou[i, :] = iou[:, j] = -1.0   # an IoU no pair reaches: neither side matches again
        used_t[i] = used_r[j] = True
        track, region = tracks[i], regions[j]
        track.mask = region
        track.misses = 0
        matches.append((track, region))

    survivors: list[RegionTrack] = []
    for i, track in enumerate(tracks):
        if not used_t[i]:
            track.misses += 1
            if track.misses > _TRACK_GRACE:
                continue
        survivors.append(track)

    for j, region in enumerate(regions):
        if used_r[j]:
            continue
        fresh = RegionTrack(id=next_id, mask=region, belief=params.b0)
        next_id += 1
        survivors.append(fresh)
        matches.append((fresh, region))

    return AssociationResult(tracks=survivors, matches=matches, next_id=next_id)


def step(tracks: list[RegionTrack], matched_cues: dict[int, CueVector],
         params: Params) -> None:
    """One belief tick: predict every track, update the matched ones."""
    for track in tracks:
        b_bar = predict(track.belief, params.alpha)
        cues = matched_cues.get(track.id)
        if cues is None:
            track.belief = b_bar
            track.likelihoods = None
            continue
        track.likelihoods = likelihoods(cues, params)
        track.belief = update(b_bar, *track.likelihoods)
