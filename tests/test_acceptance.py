"""End-to-end acceptance checks for the landing pipeline.

Each test prints one pass line when its criterion holds; a failed assert
is the fail line. Criteria follow the project checklist: recursion
exactness, transient suppression, evidence persistence, distance-
transform exactness, hard-constraint dominance, closed-loop precision,
undersized-region rejection, noisy-scene success, servo algebra, and
byte-level determinism.
"""
import math
import time

import numpy as np
import pytest

from safeland.belief import predict, update
from safeland.cli import main as cli_main
from safeland.params import Params
from safeland.scene import load_scenario
from safeland.selector import (FeasibilityResult, inscribed_distance_sq,
                               select)
from safeland.servo import _E_ALIGN, ibvs_velocity, interaction_matrix
from safeland.simloop import _H_TD, run_episode

import oracles
from conftest import SCENARIO_DIR, output_digest

# SHA-256 of the emitted summary/telemetry/tracks files for cluttered.yaml
# seed 4; any change to the pipeline's arithmetic moves it
CLUTTERED_SEED4_DIGEST = "2d37291984167d13c6e63766893ff30f177f164a6d31badacfc34d8c2d7e9de4"


def _report(name: str) -> None:
    print(f"[acceptance] {name}: PASS")


def test_01_belief_recursion_matches_scripted_reference():
    rng = np.random.default_rng(2024)
    sequences = [rng.uniform(0.05, 1.0, (200, 2)) for _ in range(1000)]
    alpha = 0.95

    start = time.perf_counter()
    module_beliefs = []
    for seq in sequences:
        b = 0.5
        out = []
        for l1, l0 in seq:
            b = update(predict(b, alpha), l1, l0)
            out.append(b)
        module_beliefs.append(out)
    elapsed = time.perf_counter() - start

    for seq, mine in zip(sequences, module_beliefs):
        ref = oracles.belief_recursion(0.5, alpha, [(float(a), float(b))
                                                    for a, b in seq])
        assert max(abs(m - r) for m, r in zip(mine, ref)) <= 1e-12
        assert all(0.0 < b < 1.0 for b in mine)
    assert elapsed < 1.0, f"module recursion took {elapsed:.2f}s"
    _report("01 belief-recursion-oracle (1e-12, <1s)")


def test_02_single_spike_suppressed_within_five_frames():
    # a lone high-evidence frame decays back under the commit threshold
    # within five persistence mixes, wherever it lands in neutral noise
    rng = np.random.default_rng(7)
    alpha, tau = 0.95, 0.75
    for _ in range(100):
        length = 60
        pos = int(rng.integers(5, 46))
        b = 0.5
        trace = []
        for t in range(length):
            b_bar = predict(b, alpha)
            if t == pos:
                b = update(b_bar, 0.45, 0.05)   # likelihood ratio 9
            else:
                neutral = float(rng.uniform(0.05, 1.0))
                b = update(b_bar, neutral, neutral)
            trace.append(b)
        assert all(bt <= tau for bt in trace[:pos])
        assert all(bt <= tau for bt in trace[pos + 5:])
        trailing = length - 1 - pos
        assert abs(trace[-1] - 0.5) <= 0.4 * 0.9 ** trailing + 1e-9
    _report("02 transient-spike-suppression (<=5 frames above tau)")


def test_03_persistence_crossing_steps():
    def crossing(ratio_pair, tau=0.75):
        b = 0.5
        trace = []
        for _ in range(10):
            b = update(predict(b, 0.95), *ratio_pair)
            trace.append(b)
        return next(i + 1 for i, bt in enumerate(trace) if bt >= tau), trace

    step_two, trace2 = crossing((0.4, 0.2))
    assert step_two == 2
    ref2 = oracles.belief_recursion(0.5, 0.95, [(0.4, 0.2)] * 10)
    assert max(abs(a - b) for a, b in zip(trace2, ref2)) <= 1e-12

    step_one, trace9 = crossing((0.45, 0.05))
    assert step_one == 1
    assert trace9[0] == pytest.approx(0.9, abs=1e-12)
    _report("03 evidence-persistence-crossings (step 2 at ratio 2; step 1 at ratio 9)")


def test_04_distance_transform_equals_brute_force():
    rng = np.random.default_rng(99)
    start = time.perf_counter()
    checked = 0
    for i in range(500):
        if i < 5:
            h = w = 64
        else:
            h = int(rng.integers(4, 65))
            w = int(rng.integers(4, 65))
        field = rng.random((h, w))
        mask = field > np.quantile(field, float(rng.uniform(0.3, 0.8)))
        mine = inscribed_distance_sq(mask)
        ref = np.where(mask, oracles.brute_force_distance_sq(~mask, True), 0)
        assert mine.dtype.kind == "i"
        assert np.array_equal(mine, ref)
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 500
    assert elapsed < 5.0, f"distance-transform check took {elapsed:.2f}s"
    _report("04 distance-transform-exactness (500 masks, integer equality, <5s)")


def test_05_hard_constraint_dominates_belief():
    class Track:
        def __init__(self, id, belief):
            self.id = id
            self.belief = belief

    rng = np.random.default_rng(41)
    wins = 0
    for _ in range(200):
        n_extra = int(rng.integers(0, 5))
        tracks = [Track(0, float(rng.uniform(0.95, 0.999))),
                  Track(1, float(rng.uniform(0.75, 0.94)))]
        feas = {0: FeasibilityResult(rho=float(rng.uniform(0.0, 0.54)),
                                     feasible=False),
                1: FeasibilityResult(rho=float(rng.uniform(0.55, 1.5)),
                                     feasible=True)}
        for j in range(n_extra):
            tid = 2 + j
            rho = float(rng.uniform(0.0, 1.5))
            tracks.append(Track(tid, float(rng.uniform(0.0, 0.74))))
            feas[tid] = FeasibilityResult(rho=rho, feasible=rho >= 0.55)
        best = select(tracks, feas, tau=0.75)
        assert best is not None
        assert feas[best.id].feasible
        assert best.id != 0
        wins += 1
    assert wins == 200
    _report("05 hard-constraint-dominance (200/200 feasible commits)")


def test_06_closed_loop_flat_landing():
    params = Params()
    scenario = load_scenario(SCENARIO_DIR / "flat.yaml")
    start = time.perf_counter()
    result = run_episode(scenario, params, seed=0)
    elapsed = time.perf_counter() - start

    assert result.outcome == "landed"
    assert result.touchdown_error is not None and result.touchdown_error < 0.05

    exec_rows = [r for r in result.telemetry if r["phase"] == "exec"]
    for row in exec_rows:
        if row["cmd_vx"] is None:
            continue
        assert math.hypot(row["cmd_vx"], row["cmd_vy"]) <= params.v_xy_max + 1e-9
        assert abs(row["cmd_vz"]) <= params.v_z_max + 1e-9

    errors = [r["e_norm"] for r in exec_rows]
    gate = next(i for i, e in enumerate(errors)
                if e is not None and e < _E_ALIGN)
    lam_dt = params.lam / params.f_s
    contraction = 1.0 - lam_dt * (1.0 - 0.05)
    for k in range(5, gate):
        e_now, e_next = errors[k], errors[k + 1]
        if e_now is None or e_next is None:
            continue
        v = math.hypot(exec_rows[k]["cmd_vx"], exec_rows[k]["cmd_vy"])
        saturated = v >= params.v_xy_max - 1e-9
        bound = e_now * (1.0 + 1e-9) if saturated else e_now * contraction
        assert e_next <= bound + 1e-12, f"error grew at step {k}"
    for k in range(gate, len(errors)):
        if errors[k] is None or exec_rows[k]["depth_z"] is None:
            continue
        if exec_rows[k]["depth_z"] > 4 * _H_TD:
            assert errors[k] <= 2 * _E_ALIGN
    assert elapsed < 10.0, f"closed-loop run took {elapsed:.2f}s"
    _report("06 closed-loop-landing (<0.05 m, bounded commands, error decay, <10s)")


def test_07_undersized_region_never_committed():
    params = Params(f_max=60)
    scenario = load_scenario(SCENARIO_DIR / "undersized.yaml")
    for seed in range(20):
        result = run_episode(scenario, params, seed=seed)
        assert result.outcome == "timeout", f"seed {seed}: {result.outcome}"
        assert result.frames_to_commit is None
        assert result.peak_infeasible_belief > 0.9, \
            f"seed {seed}: belief only {result.peak_infeasible_belief:.3f}"
    _report("07 undersized-region-rejection (20/20 timeout with belief >0.9)")


def test_08_noisy_clutter_lands_on_large_region():
    params = Params()
    scenario = load_scenario(SCENARIO_DIR / "cluttered.yaml")
    big_center = np.array([3.2, 3.5])
    big_radius = 1.45
    small_center = np.array([7.2, 5.3])
    landed_on_big = 0
    small_commits = 0
    for seed in range(20):
        result = run_episode(scenario, params, seed=seed)
        if result.commit_center is not None:
            c = np.asarray(result.commit_center)
            if np.linalg.norm(c - small_center) < 1.0:
                small_commits += 1
            on_big = np.linalg.norm(c - big_center) <= big_radius
        else:
            on_big = False
        if result.outcome == "landed" and on_big:
            landed_on_big += 1
    assert small_commits == 0
    assert landed_on_big >= 18, f"only {landed_on_big}/20 landed on the large region"
    _report(f"08 noisy-clutter-success ({landed_on_big}/20 large, {small_commits}/20 small)")


def test_09_servo_algebra_matches_least_squares_oracle():
    rng = np.random.default_rng(5)
    for _ in range(10_000):
        s = (float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0)))
        z = float(rng.uniform(0.05, 20.0))
        e = rng.uniform(-1.0, 1.0, 2)
        gain = float(rng.uniform(0.1, 2.0))
        l_mat = interaction_matrix(s, z)
        ref_pinv = oracles.pinv_normal_equations(l_mat)
        assert np.abs(np.linalg.pinv(l_mat) - ref_pinv).max() <= 1e-9
        v_mine = ibvs_velocity(s, z, e, gain)
        v_ref = -gain * ref_pinv @ e
        assert np.abs(v_mine - v_ref).max() <= 1e-9
    v = ibvs_velocity((0.0, 0.0), 2.0, (0.1, 0.0), 0.8)
    assert np.abs(v - np.array([0.16, 0.0, 0.0])).max() <= 1e-12
    _report("09 servo-algebra (1e4 states to 1e-9; worked example exact)")


def test_10_identical_config_and_seed_reproduce_bytes(tmp_path):
    args = [str(SCENARIO_DIR / "cluttered.yaml"), "--seeds", "4",
            "--emit", "summary,telemetry"]
    out_a = tmp_path / "run_a"
    out_b = tmp_path / "run_b"
    code_a = cli_main(args + ["--out", str(out_a)])
    code_b = cli_main(args + ["--out", str(out_b)])
    assert code_a == code_b
    names = sorted(p.name for p in out_a.iterdir() if p.is_file())
    assert names == sorted(p.name for p in out_b.iterdir() if p.is_file())
    assert names, "no files emitted"
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    assert output_digest(out_a) == CLUTTERED_SEED4_DIGEST
    _report("10 determinism (byte-identical rerun, pinned digest)")
