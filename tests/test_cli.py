import csv
import hashlib
import re
from dataclasses import fields

import pytest

from safeland import cli
from safeland.cli import (EXIT_CONFIG, EXIT_CRASHED, EXIT_IO, EXIT_OK,
                          EXIT_TIMEOUT, main, parse_overrides, parse_seeds)
from safeland.params import ConfigError, Params, apply_overrides

from conftest import SCENARIO_DIR, output_digest

# SHA-256 of the top-level output files (see output_digest) for fixed runs;
# a refactor that keeps these keeps every emitted byte
UNDERSIZED_F10_SEEDS_0_1_DIGEST = \
    "01efd864827f74f82fe2c1779a0383b02389ba25c3e609e60aec0a2544ace43d"
# flat seed 0 has no feature on its last frame (t=300, 0.052 m), which
# commands the descent under simloop._H_BLIND rather than a hover
FLAT_SEED0_CSV_DIGEST = \
    "52b2017c92b921a368b42d4a3a880c1e65be44835d0b047c473a5da0f84faa4a"
# SHA-256 of maps/*.pgm, concatenated in name order, for seed 0 at f_max=10
MAPS_SEED0_F10 = {
    "flat": (68, "6b573241f735e9e242f6de6d562c2bf6a844a714b78bc16c2b6d229b877c795b"),
    "undersized": (6, "78b0f8ce6d4bb863d10cf3e29e39c94b0ab3b4c15708c1294b72b69619297bf4"),
}


class TestParsing:
    def test_seed_range_inclusive(self):
        assert parse_seeds("0..3") == [0, 1, 2, 3]
        assert parse_seeds("7") == [7]

    def test_bad_seed_range_rejected(self):
        with pytest.raises(ConfigError):
            parse_seeds("5..2")

    @pytest.mark.parametrize("text", ["abc", "1..x", "5..", "-3", "-3..2", "2.5"])
    def test_malformed_or_negative_seeds_rejected(self, text):
        with pytest.raises(ConfigError):
            parse_seeds(text)

    @pytest.mark.parametrize("field", [f.name for f in fields(Params) if f.type == "int"])
    def test_int_field_rejects_fraction(self, field):
        with pytest.raises(ConfigError, match="cannot parse"):
            apply_overrides(Params(), {field: "3.5"})

    @pytest.mark.parametrize("field", [f.name for f in fields(Params) if f.type == "float"])
    def test_float_field_parses_fraction(self, field):
        # parsed as 3.5, then set or refused by the field's domain alone
        try:
            params = apply_overrides(Params(), {field: "3.5"})
        except ConfigError as exc:
            assert "outside domain" in str(exc)
        else:
            assert getattr(params, field) == 3.5

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("field", [f.name for f in fields(Params) if f.type == "float"])
    def test_float_field_rejects_non_finite(self, field, value):
        with pytest.raises(ConfigError, match="outside domain"):
            apply_overrides(Params(), {field: value})

    def test_override_pairs(self):
        assert parse_overrides(["alpha=0.9", "tau=0.8"]) == {
            "alpha": "0.9", "tau": "0.8"}
        with pytest.raises(ConfigError):
            parse_overrides(["alpha0.9"])

    def test_lambda_alias_maps_to_gain(self):
        params = apply_overrides(Params(), {"lambda": "0.5"})
        assert params.lam == 0.5

    def test_out_of_domain_override_names_symbol_and_domain(self):
        with pytest.raises(ConfigError) as err:
            apply_overrides(Params(), {"alpha": "1.2"})
        msg = str(err.value)
        assert "alpha" in msg and "(0.5, 1)" in msg

    # `bogus`, then implementation constants that are not fields
    @pytest.mark.parametrize("name", [
        "bogus", "sigma_f_cue", "obstacle_k", "assoc_res", "n_max", "patch_radius",
        "commit_window_px", "mse_max", "t_v", "h_td", "f_max_exec", "screen_k", "a_min",
        "max_invalid_frac", "iou_min", "track_grace", "n_min", "retemplate_ratio", "e_align"])
    def test_unknown_symbol_rejected(self, name):
        with pytest.raises(ConfigError, match="unknown parameter"):
            apply_overrides(Params(), {name: "1"})

    def test_readme_lists_every_set_symbol(self):
        # the bullet list after "The fields, by that rule:" in the README
        text = (SCENARIO_DIR.parent / "README.md").read_text(encoding="utf-8")
        listed = text.split("The fields, by that rule:\n\n", 1)[1].split("\n\n", 1)[0]
        names = set(re.findall(r"`([a-z_][a-z0-9_]*)`", listed))
        assert names == {f.name for f in fields(Params)} | {"lambda"}


def write_wall_scenario(tmp_path, start="[1.0, 1.0]"):
    """A scene whose scan at 1 m altitude flies into a 2 m box on its first row
    (or starts inside it, from ``start`` [3.0, 1.0])."""
    scenario = tmp_path / "wall.yaml"
    scenario.write_text(
        "name: wall\nterrain: flat\nextent: [6.0, 5.0]\ntexture_seed: 5\n"
        f"altitude: 1.0\nstart: {start}\n"
        "obstacles:\n  - center: [3.0, 1.0]\n    extents: [0.6, 0.6]\n"
        "    height: 2.0\n")
    return scenario


class TestMain:
    def test_invalid_override_exits_with_config_error(self, tmp_path, capsys):
        code = main([str(SCENARIO_DIR / "flat.yaml"), "--set", "alpha=1.2",
                     "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "alpha" in err and "(0.5, 1)" in err

    def test_implementation_constant_is_not_settable(self, tmp_path, capsys):
        code = main([str(SCENARIO_DIR / "flat.yaml"), "--set", "patch_radius=5",
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: unknown parameter 'patch_radius'")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("path", ["nope.yaml", "."], ids=["missing", "directory"])
    def test_missing_scenario_is_io_error(self, tmp_path, capsys, path):
        code = main([str(tmp_path / path), "--out", str(tmp_path / "out")])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("i/o error: scenario:") and "Traceback" not in err

    def test_output_path_that_is_a_file_is_io_error_before_any_episode(
            self, tmp_path, capsys, monkeypatch):
        def no_episode(*args, **kwargs):
            raise AssertionError("an episode ran before the output directory was checked")

        monkeypatch.setattr(cli, "run_episode", no_episode)
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n")
        code = main([str(SCENARIO_DIR / "flat.yaml"), "--out", str(blocker)])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("i/o error:") and "Traceback" not in err

    def test_unwritable_output_file_is_io_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "summary.csv").mkdir(parents=True)   # the CSV cannot be opened for writing
        code = main([str(write_wall_scenario(tmp_path, start="[3.0, 1.0]")),
                     "--out", str(out)])
        assert code == EXIT_IO
        assert capsys.readouterr().err.startswith("i/o error:")

    @pytest.mark.parametrize("seeds", ["abc", "1..x", "-3"])
    def test_bad_seeds_exit_with_config_error_before_any_episode(
            self, tmp_path, capsys, monkeypatch, seeds):
        def no_episode(*args, **kwargs):
            raise AssertionError("an episode ran before the seeds were checked")

        monkeypatch.setattr(cli, "run_episode", no_episode)
        code = main([str(SCENARIO_DIR / "flat.yaml"), "--seeds", seeds,
                     "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    @pytest.mark.parametrize("setting", ["camera_focal: 0.0", "camera_width: 0",
                                         "camera_height: -72"])
    def test_bad_camera_in_scenario_exits_with_config_error(self, tmp_path, capsys,
                                                            setting):
        scenario = tmp_path / "bad_camera.yaml"
        scenario.write_text((SCENARIO_DIR / "flat.yaml").read_text() + setting + "\n")
        code = main([str(scenario), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: scenario:") and "camera" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("scenario, override", [
        ("flat.yaml", ["--set", "f_s=inf"]),
        ("undersized.yaml", ["--set", "v_xy_max=inf", "--set", "f_max=4"]),
    ])
    def test_non_finite_override_exits_with_config_error(self, tmp_path, capsys,
                                                         scenario, override):
        code = main([str(SCENARIO_DIR / scenario), *override,
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    @pytest.mark.parametrize("setting, name", [
        ("ground_resolution: 0.0", "ground_resolution"),
        ("extent: [.inf, 5.0]", "extent"),
        ("camera_focal: .inf", "camera_focal"),
        ("noise: {sigma_range: .inf}", "sigma_range"),
        ("noise: {burst_magnitude: .nan}", "burst_magnitude"),
        ("altitude: .inf", "altitude"),
        ("start: [.inf, 1.0]", "start"),
        ("texture_seed: -1", "texture_seed"),
        ("camera_width: 40.5", "camera_width"),
        ("extent: [9.0]", "extent"),
        ("start: [1.0]", "start"),
        ("flat_patches: [{center: [3.0, 3.0], radius: 1.0, height: .inf}]", "height"),
        ("altitud: 3.0", "altitud"),
        ("rough_scale: -1.0", "rough_scale"),
        ("rough_scale: 1e-3", "rough_scale"),   # YAML reads this as a string
        ("ramp_grade_deg: .nan", "ramp_grade_deg"),
        ("obstacles: [{center: [.inf, 2.0], extents: [0.5, 0.5], height: 1.0}]", "center"),
        ("obstacles: [{center: [2.0, 2.0], extents: [.inf, 0.5], height: 1.0}]", "extents"),
        ("obstacles: [{center: [2.0, 2.0], extents: [0.5, 0.5], height: .inf}]", "height"),
        ("obstacles: [{centre: [2.0, 2.0], extents: [0.5, 0.5], height: 1.0}]", "centre"),
        ("flat_patches: [{center: [3.0, 3.0], radius: .nan}]", "radius"),
        ("flat_patches: [{center: [3.0, 3.0], half_extents: [-1.0, 1.0]}]", "half_extents"),
        ("noise: {sigma_rnage: 0.1}", "sigma_rnage")])
    def test_out_of_domain_scenario_number_exits_with_config_error(
            self, tmp_path, capsys, setting, name):
        scenario = tmp_path / "bad_number.yaml"
        scenario.write_text((SCENARIO_DIR / "flat.yaml").read_text() + setting + "\n")
        code = main([str(scenario), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: scenario:") and name in err
        assert "Traceback" not in err

    def test_unknown_emit_token_rejected(self, tmp_path):
        code = main([str(SCENARIO_DIR / "flat.yaml"), "--emit", "sparkles",
                     "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_fewer_than_one_worker_exits_with_config_error(self, tmp_path, capsys, workers):
        code = main([str(SCENARIO_DIR / "flat.yaml"), "--workers", workers,
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "--workers" in err
        assert not (tmp_path / "out").exists()

    def test_batch_timeout_writes_one_summary_row_per_seed(self, tmp_path):
        code = main([str(SCENARIO_DIR / "undersized.yaml"),
                     "--set", "f_max=12", "--seeds", "0..2",
                     "--emit", "summary,telemetry", "--out", str(tmp_path)])
        assert code == EXIT_TIMEOUT
        with open(tmp_path / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "seed"
        assert len(rows) == 4
        assert {r[1] for r in rows[1:]} == {"timeout"}
        for seed in (0, 1, 2):
            assert (tmp_path / f"telemetry_{seed}.csv").exists()
            assert (tmp_path / f"tracks_{seed}.csv").exists()

    def test_batch_of_crashes_writes_summary_and_exits_crashed(self, tmp_path):
        scenario = write_wall_scenario(tmp_path)
        out = tmp_path / "out"
        code = main([str(scenario), "--seeds", "0..1", "--out", str(out)])
        assert code == EXIT_CRASHED
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["seed"] for r in rows] == ["0", "1"]
        assert {r["outcome"] for r in rows} == {"crashed"}

    def test_flat_scenario_lands_with_exit_zero(self, tmp_path, capsys):
        code = main([str(SCENARIO_DIR / "flat.yaml"), "--emit",
                     "summary,telemetry,maps", "--out", str(tmp_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "outcome=landed" in out
        assert (tmp_path / "summary.csv").exists()
        maps = list((tmp_path / "maps").glob("*.pgm"))
        assert maps, "map emission requested but no PGM written"
        assert output_digest(tmp_path) == FLAT_SEED0_CSV_DIGEST

    @pytest.mark.parametrize("name", sorted(MAPS_SEED0_F10))
    def test_map_rasters_are_pinned(self, tmp_path, name):
        main([str(SCENARIO_DIR / f"{name}.yaml"), "--set", "f_max=10",
              "--emit", "maps", "--out", str(tmp_path)])
        maps = sorted((tmp_path / "maps").glob("*.pgm"), key=lambda p: p.name)
        digest = hashlib.sha256()
        for path in maps:
            digest.update(path.read_bytes())
        assert (len(maps), digest.hexdigest()) == MAPS_SEED0_F10[name]

    def test_rerun_emits_byte_identical_files(self, tmp_path):
        args = [str(SCENARIO_DIR / "undersized.yaml"), "--set", "f_max=10",
                "--seeds", "0..1", "--emit", "summary,telemetry"]
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == EXIT_TIMEOUT
        assert main(args + ["--out", str(out_b)]) == EXIT_TIMEOUT
        files_a = sorted(p.name for p in out_a.iterdir() if p.is_file())
        files_b = sorted(p.name for p in out_b.iterdir() if p.is_file())
        assert files_a == files_b
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        assert output_digest(out_a) == UNDERSIZED_F10_SEEDS_0_1_DIGEST

    def test_workers_do_not_change_results(self, tmp_path):
        base = [str(SCENARIO_DIR / "undersized.yaml"), "--set", "f_max=8",
                "--seeds", "0..3", "--emit", "summary"]
        main(base + ["--out", str(tmp_path / "serial"), "--workers", "1"])
        main(base + ["--out", str(tmp_path / "parallel"), "--workers", "4"])
        a = (tmp_path / "serial" / "summary.csv").read_bytes()
        b = (tmp_path / "parallel" / "summary.csv").read_bytes()
        assert a == b
