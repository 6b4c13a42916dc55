"""Scenario config parsing: every config in use parses, and typos fail by name."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

from chansounder import config
from chansounder.cli import EXIT_ERROR, main

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"


def _bench_workloads():
    """``bench/workloads.py``, imported by path; it needs neither numpy nor
    the package."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BUNDLED = sorted(CONFIG_DIR.glob("*.json"))
BENCH = [(w, size) for w in ("outandback", "canyon-taps") for size in ("full", "tiny")]


@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.name)
def test_bundled_configs_parse(path):
    cfg = config.load(path)
    assert cfg.path == path
    assert cfg.sounded_links
    assert (cfg.scenario is None) == (cfg.synthetic_taps is not None)


@pytest.mark.parametrize("workload,size", BENCH)
def test_bench_configs_parse(tmp_path, workload, size):
    spec = _bench_workloads().make_inputs(workload, 1, size, tmp_path)
    cfg = config.load(spec["config"])
    assert cfg.scenario is not None
    assert cfg.sounding.chunk_duration_s == 2.0
    if workload == "canyon-taps":
        pairs = {tuple(p) for p in spec["pairs"]}
        assert set(cfg.sounded_links) == pairs and len(cfg.sounded_links) == len(pairs)
    else:
        assert cfg.sounded_links == ((2, 1), (2, 3))


def test_defaults_come_from_the_key_table(tmp_path):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(
        {"synthetic_taps": {"delays_us": [0.0], "losses_db": [3.0]}}
    ))
    cfg = config.load(path)
    keys = config.KEYS
    assert cfg.sounding.sample_rate_hz == keys["sounding"]["sample_rate_hz"]
    assert cfg.sounding.discard_frames == keys["sounding"]["discard_frames"]
    assert cfg.sounding.chunk_duration_s == keys["sounding"]["chunk_duration_s"]
    assert cfg.samples_per_chip == keys["sounding"]["samples_per_chip"]
    assert cfg.sequence.family == "GLFSR" and cfg.sequence.length == 255
    assert cfg.taps.k == keys["taps"]["k"]
    assert cfg.taps.grid_dt_s == 1.0 / cfg.sounding.sample_rate_hz
    assert cfg.emulator.base_loss_db == keys["emulator"]["base_loss_db"]
    assert cfg.validation.gain_tol_db == keys["validation"]["gain_tol_db"]
    assert cfg.validation.strict is True
    assert cfg.sounded_links == ((1, 2),)
    assert cfg.seed == 0 and cfg.duration_s == 1.0
    assert cfg.scenario is None


@pytest.mark.parametrize(
    "keys,duration_s", [({"duration_s": 0.5, "t_total_s": 4.0}, 0.5),
                        ({"t_total_s": 4.0}, 4.0), ({}, 1.0)],
)
def test_duration_falls_back_to_t_total_then_one_second(tmp_path, keys, duration_s):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(
        {**keys, "synthetic_taps": {"delays_us": [0.0], "losses_db": [3.0]}}
    ))
    assert config.load(path).duration_s == duration_s


def test_node_radio_overrides_the_top_level_radio(tmp_path):
    raw = json.loads((CONFIG_DIR / "outandback.json").read_text())
    raw["radio"]["tx_power_dbm"] = 23.0
    raw["nodes"][1]["radio"] = {"tx_power_dbm": 17.0}
    path = tmp_path / "radio.json"
    path.write_text(json.dumps(raw))
    cfg = config.load(path)
    assert [n.radio.tx_power_dbm for n in cfg.scenario.nodes] == [23.0, 17.0, 23.0]
    assert cfg.scenario.nodes[1].radio.bandwidth_hz == 2e7
    kwargs = cfg.tap_build_kwargs()
    assert kwargs["tx_power_dbm"] == {1: 23.0, 2: 17.0, 3: 23.0}
    assert kwargs["pairs"] == [(2, 1), (2, 3)]
    assert kwargs["k"] == 4 and kwargs["grid_dt_s"] == 1e-7
    assert kwargs["duration_ms"] == 30000
    assert kwargs["prune_floor_dbm"] == pytest.approx(-172.8 + 73.0103, abs=1e-4)


def _misspell(raw: dict, where: str) -> str:
    """Add one misspelled key at ``where``; return its key path."""
    if where == "top":
        raw["sounded_link"] = []
        return "sounded_link"
    if where == "node":
        raw["nodes"][1]["speed_mphh"] = 30
        return "nodes[1].speed_mphh"
    if where == "node radio":
        raw["nodes"][1]["radio"] = {"tx_power_dbmm": 20.0}
        return "nodes[1].radio.tx_power_dbmm"
    if where == "reflector":
        raw["reflectors"][0]["offest"] = 0.0
        return "reflectors[0].offest"
    section = raw
    for name in where.split("."):
        section = section.setdefault(name, {})
    section["kk"] = 4
    return f"{where}.kk"


PLACES = ["top", "taps", "sounding", "sounding.sequence", "emulator", "validation",
          "radio", "reflector", "node", "node radio", "synthetic_taps"]


def _typo_config(tmp_path, where):
    base = "synthetic4tap.json" if where == "synthetic_taps" else "outandback.json"
    raw = json.loads((CONFIG_DIR / base).read_text())
    key_path = _misspell(raw, where)
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(raw))
    return path, key_path


@pytest.mark.parametrize("where", PLACES)
def test_unknown_key_names_file_and_key_path(tmp_path, where):
    path, key_path = _typo_config(tmp_path, where)
    with pytest.raises(ValueError) as err:
        config.load(path)
    message = str(err.value)
    assert message.startswith(str(path))
    assert f"unknown key '{key_path}'" in message


@pytest.mark.parametrize("command", ["build-scenario", "approximate-taps", "pipeline"])
@pytest.mark.parametrize("where", ["taps", "emulator", "node radio"])
def test_cli_rejects_a_typo_before_any_output(tmp_path, capsys, command, where):
    path, key_path = _typo_config(tmp_path, where)
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out-dir", str(out)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: unknown key '{key_path}'")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "edit,match",
    [
        (lambda raw: raw["nodes"][0].pop("id"), r"missing key 'nodes\[0\]\.id'"),
        (lambda raw: raw.pop("sample_interval_s"), "missing key 'sample_interval_s'"),
        (lambda raw: raw.update(taps=4), "'taps' must be a JSON object"),
        (lambda raw: raw["sounding"]["sequence"].update(family="kasami"),
         "unknown sequence family 'KASAMI'"),
        (lambda raw: raw["nodes"][1].update(speed_mph=0), r"nodes\[1\]: zero speed"),
        (lambda raw: raw.update(sounded_links=[[1, 2, 3]]), r"\[tx, rx\] pair"),
        (lambda raw: raw["validation"].update(strict="false"),
         "'validation.strict' must be true or false"),
        (lambda raw: raw["taps"].update(k=4.5), "'taps.k' must be an integer, not 4.5"),
        (lambda raw: raw["taps"].update(k=True), "'taps.k' must be an integer, not true"),
        (lambda raw: raw["taps"].update(k="1"), "'taps.k' must be an integer, not \"1\""),
        (lambda raw: raw["sounding"].update(guard_samples=2.9),
         "'sounding.guard_samples' must be an integer"),
        (lambda raw: raw["emulator"].update(base_loss_db=True),
         "'emulator.base_loss_db' must be a number, not true"),
        (lambda raw: raw["radio"].update(tx_power_dbm="20"),
         "'radio.tx_power_dbm' must be a number"),
        (lambda raw: raw["sounding"]["sequence"].update(family=8),
         "'sounding.sequence.family' must be a string, not 8"),
        (lambda raw: raw["emulator"].update(base_loss_db=float("nan")),
         "'emulator.base_loss_db' must be finite, not NaN"),
        (lambda raw: raw["radio"].update(tx_power_dbm=float("inf")),
         "'radio.tx_power_dbm' must be finite, not Infinity"),
        (lambda raw: raw["nodes"][1].update(radio={"noise_figure_db": float("-inf")}),
         r"'nodes\[1\]\.radio\.noise_figure_db' must be finite, not -Infinity"),
        (lambda raw: raw.update(sample_interval_s=float("nan")),
         "'sample_interval_s' must be finite, not NaN"),
        (lambda raw: raw["nodes"][1]["waypoints"][1].__setitem__(0, float("inf")),
         r"'nodes\[1\]\.waypoints' must be finite, not \[\[10, 0\], \[Infinity, 0\]\]"),
    ],
)
def test_bad_values_name_the_file(tmp_path, edit, match):
    raw = json.loads((CONFIG_DIR / "outandback.json").read_text())
    edit(raw)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match=match) as err:
        config.load(path)
    assert str(err.value).startswith(str(path))


def test_guard_samples_above_two_fails_by_name(tmp_path):
    # detections are strict local maxima, always at least 2 lags apart
    raw = json.loads((CONFIG_DIR / "outandback.json").read_text())
    path = tmp_path / "guard.json"
    raw["sounding"]["guard_samples"] = 2
    path.write_text(json.dumps(raw))
    assert config.load(path).sounding == config.load(CONFIG_DIR / "outandback.json").sounding
    raw["sounding"]["guard_samples"] = 4
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match="'sounding.guard_samples' above 2") as err:
        config.load(path)
    assert str(err.value).startswith(str(path))


@pytest.mark.parametrize(
    "section,key,value,least",
    [("taps", "k", 0, 1), ("sounding", "samples_per_chip", 0, 1),
     ("sounding", "discard_frames", -1, 0), ("sounding", "guard_samples", -3, 0),
     ("", "max_bounces", -1, 0)],
)
def test_out_of_range_value_fails_by_name_before_any_output(
    tmp_path, capsys, section, key, value, least
):
    raw = json.loads((CONFIG_DIR / "outandback.json").read_text())
    path = tmp_path / "bad.json"
    key_path = f"{section}.{key}" if section else key
    (raw[section] if section else raw)[key] = least
    path.write_text(json.dumps(raw))
    config.load(path)  # the least value itself is accepted
    (raw[section] if section else raw)[key] = value
    path.write_text(json.dumps(raw))
    message = f"{path}: '{key_path}' must be >= {least}, not {value}"
    with pytest.raises(ValueError) as err:
        config.load(path)
    assert str(err.value) == message
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(path), "--out-dir", str(out)]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


def test_readme_table_lists_every_key():
    """The README's key table and ``config.KEYS`` name the same keys."""
    readme = (ROOT / "README.md").read_text()
    listed = set(re.findall(r"^\| `([^`]+)` \|", readme, flags=re.MULTILINE))
    want = {f"{section}.{key}" if section else key
            for section, keys in config.KEYS.items() for key in keys}
    assert listed == want
