"""End-to-end CLI tests: every subcommand plus exit-code conventions."""

import json
import os
import re
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import chansounder
from chansounder import helper, sounder, tap_approx
from chansounder.cli import EXIT_ERROR, EXIT_OK, EXIT_TOLERANCE, main
from chansounder.config import load as load_config
from chansounder.harness import build_synthetic_tap_file
from chansounder.tap_approx import write_tap_file

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture
def synthetic_cfg(tmp_path):
    cfg = {
        "name": "cli-mini",
        "duration_s": 0.006,
        "seed": 9,
        "synthetic_taps": {
            "delays_us": [0.0, 4.0],
            "losses_db": [3.0, 8.0],
            "pair": [1, 2],
        },
        "taps": {"grid_dt_s": 1e-6, "k": 4, "offset_db": 0.0},
        "sounding": {
            "sample_rate_hz": 1e6,
            "sequence": {"family": "GLFSR", "degree": 8},
            "discard_frames": 1,
        },
        "emulator": {"base_loss_db": 12.0, "noise": True},
    }
    path = tmp_path / "cli.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def mobility_cfg(tmp_path):
    cfg = {
        "name": "cli-mobile",
        "t_total_s": 2.0,
        "duration_s": 0.004,
        "sample_interval_s": 0.5,
        "radio": {"tx_power_dbm": 20.0},
        "nodes": [
            {"id": 1, "kind": "OBU", "antenna_height_m": 1.5,
             "waypoints": [[20, 0], [40, 0]], "speed_mps": 10.0},
            {"id": 2, "kind": "RSU", "antenna_height_m": 4.0, "position": [0, 0]},
        ],
        "sounded_links": [[1, 2]],
        "taps": {"grid_dt_s": 1e-6, "offset_db": 60.0},
        "sounding": {"sample_rate_hz": 1e6,
                     "sequence": {"family": "GLFSR", "degree": 8},
                     "discard_frames": 1},
        "emulator": {"base_loss_db": 57.55, "noise": False},
    }
    path = tmp_path / "mobile.json"
    path.write_text(json.dumps(cfg))
    return path


class TestGenerateSequence:
    @pytest.mark.parametrize(
        "section,expected_len",
        [
            ({"family": "GLFSR", "degree": 8}, 255),
            ({"family": "GOLD", "degree": 5, "shift": 2}, 31),
            ({"family": "GOLAY_A", "length": 64}, 64),
            ({"family": "LS", "order": 4}, 32),
        ],
        ids=["glfsr", "gold", "golay-a", "ls"],
    )
    def test_families(self, tmp_path, section, expected_len):
        config = tmp_path / "code.json"
        config.write_text(json.dumps({"sounding": {"sequence": section}}))
        out = tmp_path / "new" / "out"  # made by the command
        argv = ["generate-sequence", "--config", str(config), "--out-dir", str(out)]
        assert main(argv) == EXIT_OK
        chips = np.loadtxt(out / "sequence.txt")
        assert len(chips) == expected_len
        assert set(np.unique(chips)) <= {-1.0, 1.0}

    @pytest.mark.parametrize("name", ["outandback", "canyon", "synthetic4tap"])
    def test_writes_the_code_the_config_sounds_with(self, tmp_path, name):
        config = CONFIG_DIR / f"{name}.json"
        argv = ["generate-sequence", "--config", str(config), "--out-dir", str(tmp_path)]
        assert main(argv) == EXIT_OK
        chips = np.loadtxt(tmp_path / "sequence.txt", dtype=np.int8)
        cfg = load_config(config)
        assert np.array_equal(chips, cfg.sequence.chips)
        assert np.array_equal(np.repeat(chips, cfg.samples_per_chip), cfg.reference())

    def test_bad_parameters_exit_1(self, tmp_path, capsys):
        config = tmp_path / "code.json"
        config.write_text(json.dumps({"sounding": {"sequence": {"seed": 0}}}))
        out = tmp_path / "out"
        argv = ["generate-sequence", "--config", str(config), "--out-dir", str(out)]
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr().err.startswith(f"error: {config}: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag",
        ["--family", "--degree", "--mask", "--lfsr-seed", "--poly-a", "--poly-b",
         "--shift", "--length", "--order", "--seq-out"],
    )
    def test_a_code_flag_is_a_usage_error(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate-sequence", "--config", "c.json", flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


class TestPipelineCommand:
    def test_pass_exit_zero(self, synthetic_cfg, tmp_path):
        rc = main(
            ["pipeline", "--config", str(synthetic_cfg),
             "--out-dir", str(tmp_path / "out")]
        )
        assert rc == EXIT_OK
        assert (tmp_path / "out" / "taps.csv").exists()
        assert (tmp_path / "out" / "capture_1-2.iq").exists()
        assert (tmp_path / "out" / "validation_1-2.json").exists()

    def test_two_samples_per_chip_pass(self, synthetic_cfg, tmp_path):
        cfg = json.loads(synthetic_cfg.read_text())
        cfg["sounding"]["samples_per_chip"] = 2
        path = tmp_path / "spc2.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(path), "--out-dir", str(out)]) == EXIT_OK
        sounding = json.loads((out / "sounding_1-2.json").read_text())
        assert sounding["frame_duration_s"] == 510 / 1e6  # two samples per chip
        validation = json.loads((out / "validation_1-2.json").read_text())
        assert validation["passed"] and validation["spurious"] == validation["missed"] == 0
        assert validation["rmse_strongest_vs_truth_db"] < 0.1

    def test_a_run_does_not_import_numpy_ma(self, synthetic_cfg, tmp_path):
        # in a fresh process: numpy.ma costs about 10 ms and 1.3 MB to import
        code = (
            "import sys; from chansounder.cli import main; "
            "rc = main(sys.argv[1:]); print(rc, 'numpy.ma' in sys.modules)"
        )
        argv = ["pipeline", "--config", str(synthetic_cfg), "--out-dir", str(tmp_path)]
        src = str(Path(chansounder.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )}
        done = subprocess.run(
            [sys.executable, "-c", code, *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.stdout.splitlines()[-1] == "0 False", done.stderr

    def test_non_finite_value_exits_one_before_any_output(
        self, synthetic_cfg, tmp_path, capsys
    ):
        cfg = json.loads(synthetic_cfg.read_text())
        cfg["emulator"]["base_loss_db"] = float("nan")
        synthetic_cfg.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        rc = main(["pipeline", "--config", str(synthetic_cfg), "--out-dir", str(out)])
        assert rc == EXIT_ERROR
        assert capsys.readouterr().err.startswith(
            f"error: {synthetic_cfg}: 'emulator.base_loss_db' must be finite, not NaN"
        )
        assert not (out / "taps.csv").exists()

    def test_missing_config_exit_one(self, tmp_path):
        rc = main(["pipeline", "--config", str(tmp_path / "nope.json"),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_ERROR

    def test_summary_prints_the_validation_of_each_tap_slot(
        self, synthetic_cfg, tmp_path, capsys
    ):
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(synthetic_cfg),
                     "--out-dir", str(out)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        report = json.loads((out / "validation_1-2.json").read_text())
        number = r"[-+]?(?:\d+\.?\d*|nan)"

        link = re.fullmatch(
            rf"link 1->2: PASS, (\d+) frames, rmse ({number}) dB, "
            rf"loss swing {number} dB, sd {number} dB, spurious (\d+), missed (\d+), "
            rf"mixed (\d+)",
            lines[0],
        )
        assert link is not None, lines[0]
        assert [int(link[1]), int(link[3]), int(link[4]), int(link[5])] == [
            report["n_frames"], report["spurious"], report["missed"], report["mixed_frames"]
        ]
        assert float(link[2]) == pytest.approx(report["rmse_strongest_vs_truth_db"], abs=5e-4)

        rows = [
            [float(x) for x in re.findall(number, line)]
            for line in lines if re.match(r"\s+\d+\s.* us ", line)
        ]
        assert len(rows) == len(report["taps"]) == 2
        for row, tap in zip(rows, report["taps"]):
            assert row[0] == tap["slot"]
            assert row[1:3] == pytest.approx(
                [tap["truth_delay_s"] * 1e6, tap["truth_gain_db"]], abs=5e-3
            )
            assert row[3:] == pytest.approx(
                [tap["gain_error_mean_db"], tap["gain_error_sd_db"],
                 tap["gain_error_max_db"]], abs=5e-5
            )
        delay_max_ns = max(tap["delay_error_max_s"] for tap in report["taps"]) * 1e9
        assert f"  max delay err {delay_max_ns:.1f} ns" in lines
        assert lines[-1].startswith("PASS in ") and lines[-1].endswith(f"; artifacts in {out}")

    def test_summary_of_a_link_without_detections(self, synthetic_cfg, tmp_path, capsys):
        cfg = json.loads(synthetic_cfg.read_text())
        cfg["synthetic_taps"]["losses_db"] = [60.0, 70.0]  # far under the noise
        cfg["emulator"]["dyn_range_db"] = 0.0
        synthetic_cfg.write_text(json.dumps(cfg))
        rc = main(["pipeline", "--config", str(synthetic_cfg),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_TOLERANCE
        assert capsys.readouterr().out.startswith(
            "link 1->2: FAIL, 22 frames, rmse nan dB, loss swing nan dB, sd nan dB, "
            "spurious 0, missed 44, mixed 0\n"
        )


class TestStageCommands:
    def test_build_scenario_then_taps(self, mobility_cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["build-scenario", "--config", str(mobility_cfg),
                     "--out-dir", str(out)]) == EXIT_OK
        assert (out / "paths.jsonl").exists()
        assert main(["approximate-taps", "--config", str(mobility_cfg),
                     "--out-dir", str(out),
                     "--paths-file", str(out / "paths.jsonl")]) == EXIT_OK
        assert (out / "taps.csv").exists()

    def test_a_paths_file_that_does_not_cover_the_scenario_is_named(
        self, mobility_cfg, tmp_path, capsys
    ):
        assert main(["build-scenario", "--config", str(mobility_cfg),
                     "--out-dir", str(tmp_path)]) == EXIT_OK
        # samples 1 and 2 of both pairs; node 1 moves, so (1, 2, 3) is missing
        cut = tmp_path / "cut.jsonl"
        cut.write_text("".join((tmp_path / "paths.jsonl").read_text().splitlines(True)[:4]))
        capsys.readouterr()
        out = tmp_path / "out"
        rc = main(["approximate-taps", "--config", str(mobility_cfg),
                   "--paths-file", str(cut), "--out-dir", str(out)])
        assert rc == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: {cut}: paths records missing sample 3 for pair (1,2)\n"
        )
        assert not (out / "taps.csv").exists()

    def test_emulate_sound_validate_chain(self, synthetic_cfg, tmp_path):
        out = tmp_path / "out"
        rc = main(["pipeline", "--config", str(synthetic_cfg),
                   "--out-dir", str(out)])
        assert rc == EXIT_OK
        # re-emulate, re-sound and re-validate from the written tap file
        stages = tmp_path / "stages"
        assert main(["emulate", "--config", str(synthetic_cfg),
                     "--taps", str(out / "taps.csv"), "--pair", "1,2",
                     "--out-dir", str(stages)]) == EXIT_OK
        assert main(["sound", "--config", str(synthetic_cfg),
                     "--capture", str(stages / "capture_1-2.iq"),
                     "--out-dir", str(stages)]) == EXIT_OK
        rc = main(["validate", "--config", str(synthetic_cfg),
                   "--taps", str(out / "taps.csv"),
                   "--capture", str(stages / "capture_1-2.iq"),
                   "--out-dir", str(stages)])
        assert rc == EXIT_OK
        # the stage chain reproduces the pipeline's outputs byte for byte
        for suffix in ("iq", "iq.json"):
            name = f"capture_1-2.{suffix}"
            assert (stages / name).read_bytes() == (out / name).read_bytes(), name
        for suffix in ("json", "csv"):
            got = (stages / f"sounding_capture_1-2.{suffix}").read_bytes()
            assert got == (out / f"sounding_1-2.{suffix}").read_bytes(), suffix
        payload = json.loads((out / "validation_1-2.json").read_text())
        del payload["rmse_strongest_vs_truth_db"]
        assert (stages / "validation.json").read_text() == json.dumps(payload, indent=2)

    @pytest.mark.parametrize("command", ["emulate", "validate"])
    def test_a_pair_without_records_is_an_error_naming_the_tap_file(
        self, synthetic_cfg, tmp_path, capsys, command
    ):
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(synthetic_cfg),
                     "--out-dir", str(out)]) == EXIT_OK
        taps = out / "taps.csv"
        argv = [command, "--config", str(synthetic_cfg), "--taps", str(taps),
                "--pair", "2,1", "--out-dir", str(tmp_path / command)]
        if command == "validate":
            argv += ["--capture", str(out / "capture_1-2.iq")]
        capsys.readouterr()
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: {taps}: pair (2, 1) not present in tap file\n"
        )
        assert not (tmp_path / command).exists()

    @pytest.mark.parametrize("command", ["emulate", "validate"])
    @pytest.mark.parametrize("value", ["2", "1,2,3", "1,x"])
    def test_a_pair_that_is_not_two_node_ids_is_a_usage_error(self, capsys, command, value):
        argv = [command, "--config", "c.json", "--taps", "t.csv", "--pair", value]
        if command == "validate":
            argv += ["--capture", "c.iq"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert (
            f"argument --pair: expected two node ids 'tx,rx', not {value!r}"
            in capsys.readouterr().err
        )

    @pytest.mark.parametrize("command", ["emulate", "validate"])
    def test_a_pair_may_have_spaces(self, synthetic_cfg, tmp_path, command):
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(synthetic_cfg),
                     "--out-dir", str(out)]) == EXIT_OK
        argv = [command, "--config", str(synthetic_cfg), "--taps", str(out / "taps.csv"),
                "--pair", " 1, 2", "--out-dir", str(tmp_path / command)]
        if command == "validate":
            argv += ["--capture", str(out / "capture_1-2.iq")]
        assert main(argv) == EXIT_OK

    def test_validate_without_pair_on_several_pairs_stops_before_sounding(
        self, synthetic_cfg, tmp_path, monkeypatch, capsys
    ):
        taps = tmp_path / "taps.csv"
        ids = np.zeros(6, dtype=np.int32)
        write_tap_file(
            tap_approx.TapFile(2, 1e-6, 4, 6, 0.0, [((0, 1 + 0j),)], {(1, 2): ids, (2, 1): ids}),
            taps,
        )

        def sound_chunked(*args, **kwargs):
            raise AssertionError("the capture was sounded")

        monkeypatch.setattr(sounder, "sound_chunked", sound_chunked)
        out = tmp_path / "out"
        rc = main(["validate", "--config", str(synthetic_cfg), "--taps", str(taps),
                   "--capture", str(tmp_path / "c.iq"), "--out-dir", str(out)])
        assert rc == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: {taps}: tap file has multiple pairs; specify one with --pair\n"
        )
        assert not out.exists()

    def test_a_key_error_prints_its_message(self, synthetic_cfg, monkeypatch, capsys):
        def read_tap_file(path):
            raise KeyError(f"no tap record in {path}")

        monkeypatch.setattr(tap_approx, "read_tap_file", read_tap_file)
        argv = ["emulate", "--config", str(synthetic_cfg), "--taps", "t.csv",
                "--pair", "1,2"]
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr().err == "error: no tap record in t.csv\n"

    def test_validate_tolerance_failure_exit_two(self, synthetic_cfg, tmp_path):
        out = tmp_path / "out"
        main(["pipeline", "--config", str(synthetic_cfg), "--out-dir", str(out)])
        # claiming the wrong base loss shifts every corrected gain by 3 dB
        rc = main(["validate", "--config", str(synthetic_cfg),
                   "--taps", str(out / "taps.csv"),
                   "--capture", str(out / "capture_1-2.iq"),
                   "--base-loss-db", "15.0",
                   "--out-dir", str(out)])
        assert rc == EXIT_TOLERANCE


class TestValidateReadsConfig:
    """``validate`` judges by the config's ``validation`` section."""

    def _validate(self, cfg_path, tmp_path, validation, *extra):
        cfg = json.loads(cfg_path.read_text())
        cfg["validation"] = validation
        path = tmp_path / "validation.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        if not (out / "capture_1-2.iq").exists():
            assert main(["pipeline", "--config", str(cfg_path),
                         "--out-dir", str(out)]) == EXIT_OK
        rc = main(["validate", "--config", str(path), "--taps", str(out / "taps.csv"),
                   "--capture", str(out / "capture_1-2.iq"), "--out-dir", str(out),
                   *extra])
        return rc, json.loads((out / "validation.json").read_text())

    @pytest.mark.parametrize("strict,expected", [(False, EXIT_OK), (True, EXIT_TOLERANCE)])
    def test_strictness_decides_spurious_detections(self, synthetic_cfg, tmp_path,
                                                    strict, expected):
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(synthetic_cfg),
                     "--out-dir", str(out)]) == EXIT_OK
        # truth without the 4 us tap: its detection in every frame is spurious
        write_tap_file(
            build_synthetic_tap_file([0.0], [3.0], 1e-6, 6, pair=(1, 2)),
            out / "taps.csv",
        )
        rc, report = self._validate(
            synthetic_cfg, tmp_path, {"gain_tol_db": 0.5, "strict": strict}
        )
        assert report["spurious"] > 0 and report["missed"] == 0
        assert rc == expected

    @pytest.mark.parametrize("tol,expected", [(1.0, EXIT_OK), (0.5, EXIT_TOLERANCE)])
    def test_gain_tolerance_comes_from_config(self, synthetic_cfg, tmp_path, tol, expected):
        # claiming 0.8 dB more base loss shifts every corrected gain by 0.8 dB
        rc, report = self._validate(
            synthetic_cfg, tmp_path, {"gain_tol_db": tol, "strict": True},
            "--base-loss-db", "12.8",
        )
        assert report["gain_tol_db"] == tol
        assert rc == expected

    def test_a_tap_file_without_records_is_an_error(self, synthetic_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(synthetic_cfg),
                     "--out-dir", str(out)]) == EXIT_OK
        taps = out / "taps.csv"
        taps.write_text("".join(
            line for line in taps.read_text().splitlines(keepends=True)
            if line.startswith("#")
        ))
        capsys.readouterr()
        rc = main(["validate", "--config", str(synthetic_cfg), "--taps", str(taps),
                   "--capture", str(out / "capture_1-2.iq"), "--out-dir", str(out)])
        assert rc == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: {taps}: no tap records to validate against\n"
        )

    def test_gain_tol_flag_is_gone(self, synthetic_cfg, tmp_path):
        with pytest.raises(SystemExit):
            main(["validate", "--config", str(synthetic_cfg), "--taps", "t.csv",
                  "--capture", "c.iq", "--gain-tol-db", "2"])


class _FailsAfterFirstWrite:
    """A file whose second write raises. numpy's ``tofile`` flushes the
    file before it writes to the descriptor, so a flush counts as a write."""

    def __init__(self, fh):
        self._fh, self.writes = fh, 0

    def _count(self):
        self.writes += 1
        if self.writes > 1:
            raise OSError("injected write failure")

    def write(self, data):
        self._count()
        return self._fh.write(data)

    def flush(self):
        self._count()
        self._fh.flush()

    def __getattr__(self, name):
        return getattr(self._fh, name)


class TestEveryOutput:
    """Every file the commands write appears whole or not at all."""

    def test_a_missing_directory_is_an_error_naming_the_output(self, tmp_path):
        out = tmp_path / "nodir" / "x.txt"
        with pytest.raises(FileNotFoundError) as info:
            with helper.output(out):
                pass
        assert str(info.value) == f"[Errno 2] No such file or directory: '{out}'"
        assert not (tmp_path / "nodir").exists()

    @pytest.fixture
    def fail_output(self, monkeypatch):
        """``fail_output(path)``: the output to ``path`` raises after its
        first write, or as it ends if it made only one. Returns the list
        that the armed file is put in."""
        real = helper.output
        armed = []

        def arm(target):
            @contextmanager
            def output(path, mode="w", **kwargs):
                with real(path, mode, **kwargs) as fh:
                    if Path(path) != target:
                        yield fh
                        return
                    armed.append(_FailsAfterFirstWrite(fh))
                    yield armed[-1]
                    raise OSError("injected write failure")

            monkeypatch.setattr(helper, "output", output)
            return armed

        return arm

    @pytest.mark.parametrize(
        "command, cfg, name",
        [
            ("build-scenario", "mobility_cfg", "paths.jsonl"),
            ("approximate-taps", "mobility_cfg", "taps.csv"),
            ("pipeline", "synthetic_cfg", "capture_1-2.iq"),
            ("pipeline", "synthetic_cfg", "capture_1-2.iq.json"),
            ("pipeline", "synthetic_cfg", "sounding_1-2.json"),
            ("pipeline", "synthetic_cfg", "sounding_1-2.csv"),
            ("pipeline", "synthetic_cfg", "pathloss_series_1-2.csv"),
            ("pipeline", "synthetic_cfg", "validation_1-2.json"),
            ("validate", "synthetic_cfg", "validation.json"),
            ("heatmap", None, "heatmap.csv"),
            ("heatmap", None, "heatmap_stats.json"),
            ("generate-sequence", "synthetic_cfg", "sequence.txt"),
        ],
    )
    def test_a_writer_that_raises_leaves_nothing(
        self, request, tmp_path, capsys, fail_output, command, cfg, name
    ):
        out = tmp_path / "out"
        config = ["--config", str(request.getfixturevalue(cfg))] if cfg else []
        argv = [command, *config, "--out-dir", str(out)]
        if command == "validate":
            inputs = tmp_path / "inputs"
            assert main(["pipeline", *config, "--out-dir", str(inputs)]) == EXIT_OK
            argv += ["--taps", str(inputs / "taps.csv"),
                     "--capture", str(inputs / "capture_1-2.iq")]
        if command == "heatmap":
            argv += ["--nodes", "3", "--window-s", "0.004", "--seed", "1"]
        out.mkdir()
        (out / name).write_text("an old file\n")
        armed = fail_output(out / name)
        capsys.readouterr()
        assert main(argv) == EXIT_ERROR
        assert "injected write failure" in capsys.readouterr().err
        assert [f.writes for f in armed] in ([1], [2])
        assert not (out / name).exists()
        assert list(tmp_path.rglob("*.partial")) == []


class TestHeatmapCommand:
    def test_small_heatmap(self, tmp_path):
        rc = main(["heatmap", "--nodes", "3", "--window-s", "0.004",
                   "--base-loss-db", "57.55", "--base-loss-sd-db", "0",
                   "--out-dir", str(tmp_path / "hm"), "--seed", "1"])
        assert rc == EXIT_OK
        stats = json.loads((tmp_path / "hm" / "heatmap_stats.json").read_text())
        assert stats["mean_db"] == pytest.approx(57.55, abs=0.05)


class TestSharedFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["generate-sequence", "--config", "c.json", "--seed", "1"],
            ["heatmap", "--config", "c.json"],
            ["build-scenario", "--config", "c.json", "--seed", "1"],
            ["approximate-taps", "--config", "c.json", "--seed", "1"],
            ["sound", "--config", "c.json", "--capture", "c.iq", "--seed", "1"],
        ],
    )
    def test_flag_the_command_does_not_read_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
