"""Two-hypothesis likelihoods, track association, and the belief recursion.

Each persistent region track carries a probability that its latent
safe-to-land state is true. Per frame the belief is first mixed toward
0.5 by the Markov persistence prior, then updated by the ratio of the
safe/unsafe cue likelihoods. Likelihoods are floored so no track ever
saturates; evidence always stays revisable.

Association runs on ground-projected footprints (greedy best-IoU), so
camera motion does not break track identity. A footprint is its
region's sorted unique ground-cell keys, as ``perception`` forms them;
the IoU reads only their sizes and intersections. Weights, likelihood
scales, the floor and the persistence factor are read from ``Params``;
the IoU threshold and the retirement grace are module constants.
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


def _cell_keys(footprints: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Every cell key of the footprints, with the index of its footprint."""
    keys = np.concatenate([np.zeros(0, dtype=np.int64), *footprints])
    owner = np.repeat(np.arange(len(footprints)), [len(c) for c in footprints])
    return keys, owner


def _iou_matrix(footprints_a: list[np.ndarray], footprints_b: list[np.ndarray]) -> np.ndarray:
    """(A, B) IoU of every pair of cell-key footprints, from one join.

    The cells of the B footprints are sorted once by key; every cell of
    an A footprint finds the B cells with its key by binary search, and
    the (a, b) pairs so found are counted into the intersections. An
    empty footprint has IoU 0.0 with every other. ``tests/oracles.py``
    holds the pairwise reference, ``footprint_iou``.
    """
    n_a, n_b = len(footprints_a), len(footprints_b)
    keys_a, owner_a = _cell_keys(footprints_a)
    keys_b, owner_b = _cell_keys(footprints_b)
    order = np.argsort(keys_b, kind="stable")
    keys_b, owner_b = keys_b[order], owner_b[order]
    lo = np.searchsorted(keys_b, keys_a, side="left")
    hits = np.searchsorted(keys_b, keys_a, side="right") - lo
    # the i-th hit of cell c of A is B cell lo[c] + i
    starts = np.cumsum(hits) - hits
    at = np.arange(int(hits.sum())) + np.repeat(lo - starts, hits)
    pairs = np.repeat(owner_a, hits) * n_b + owner_b[at]
    inter = np.bincount(pairs, minlength=n_a * n_b).reshape(n_a, n_b)
    size_a = np.bincount(owner_a, minlength=n_a)[:, None]
    size_b = np.bincount(owner_b, minlength=n_b)[None, :]
    union = size_a + size_b - inter
    nonempty = (size_a > 0) & (size_b > 0)
    return np.where(nonempty, inter / np.where(nonempty, union, 1), 0.0)


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
    while n_t and n_r:
        masked = np.where(used_t[:, None] | used_r[None, :], -1.0, iou)
        i, j = np.unravel_index(int(np.argmax(masked)), masked.shape)
        if masked[i, j] < _IOU_MIN:
            break
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
