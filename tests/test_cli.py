import csv

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
FLAT_SEED0_CSV_DIGEST = \
    "a9c7914acf8ad9e260c329c11ddc7dfcd94634af0307ca6000e977015b27efa5"


class TestParsing:
    def test_seed_range_inclusive(self):
        assert parse_seeds("0..3") == [0, 1, 2, 3]
        assert parse_seeds("7") == [7]

    def test_bad_seed_range_rejected(self):
        with pytest.raises(ConfigError):
            parse_seeds("5..2")

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

    def test_unknown_symbol_rejected(self):
        with pytest.raises(ConfigError):
            apply_overrides(Params(), {"bogus": "1"})


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

    def test_missing_scenario_is_io_error(self, tmp_path, capsys):
        code = main([str(tmp_path / "nope.yaml"), "--out", str(tmp_path)])
        assert code == EXIT_IO

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

    def test_unknown_emit_token_rejected(self, tmp_path):
        code = main([str(SCENARIO_DIR / "flat.yaml"), "--emit", "sparkles",
                     "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

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
