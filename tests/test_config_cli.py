import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from virodyne.channel import (
    Environment,
    HalfSpaceReflecting,
    SourceSpec,
    concentration_instant,
)
from virodyne.cli import main
from virodyne.config import (
    ScenarioConfig,
    config_hash,
    dump_config,
    load_config,
    loads_config,
)
from virodyne.core import Velocity
from virodyne.errors import ConfigError
from virodyne.localization import SolverConfig

from conftest import READINGS_CSV

REPO_CONFIGS = Path(__file__).resolve().parent.parent / "configs"

MINIMAL = """\
[environment]
diffusivity_m2s = 40.0

[source]
kind = continuous
position_m = 0 0 25
rate_kgs = 1.0

[grid]
x_m = 35
y_m = 0
z_m = 0 50 11
times_s = 30
"""

# Coordinates whose squared distance from a source near the origin
# overflows a float.
FAR = ("1e155", "-1e155", "1e300", "-1e300")


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestConfig:
    def test_minimal_loads_with_defaults(self):
        cfg = loads_config(MINIMAL)
        assert cfg.environment.diffusivity_m2s == 40.0
        assert cfg.environment.wind_mps == (0.0, 0.0, 0.0)
        assert cfg.run.seed == 0
        assert len(cfg.sources) == 1

    def test_unknown_key_names_key_and_line(self):
        bad = MINIMAL.replace("diffusivity_m2s", "diffusivity_cm2s")
        with pytest.raises(ConfigError) as err:
            loads_config(bad)
        assert "diffusivity_cm2s" in str(err.value)
        assert "line 2" in str(err.value)

    def test_removed_simplex_tol_is_unknown(self):
        with pytest.raises(ConfigError) as err:
            loads_config("[environment]\ndiffusivity_m2s = 40\n"
                         "[localize]\nsimplex_tol = 1e-8\n")
        assert "unknown key in [localize]" in str(err.value)
        assert "simplex_tol" in str(err.value)

    def test_removed_symbol_interval_is_unknown(self):
        with pytest.raises(ConfigError) as err:
            loads_config("[detection]\ntaps = 1.0\nsymbol_interval_s = 2.0\n")
        assert "unknown key in [detection]" in str(err.value)
        assert "symbol_interval_s" in str(err.value) and "line 3" in str(err.value)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            loads_config("[atmosphere]\nfoo = 1\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError) as err:
            loads_config("[environment]\nwind_mps = 0 0 0\n")
        assert "diffusivity_m2s" in str(err.value)

    def test_duplicate_key_rejected(self):
        text = "[environment]\ndiffusivity_m2s = 1\ndiffusivity_m2s = 2\n"
        with pytest.raises(ConfigError):
            loads_config(text)

    def test_round_trip_canonicalizes(self):
        cfg = loads_config(MINIMAL)
        dumped = dump_config(cfg)
        again = loads_config(dumped)
        assert dump_config(again) == dumped
        assert config_hash(again) == config_hash(cfg)

    def test_multiple_sources(self):
        text = MINIMAL + "\n[source]\nkind = instant\nposition_m = 1 1 1\nmass_kg = 2\n"
        cfg = loads_config(text)
        assert len(cfg.sources) == 2
        assert cfg.sources[1].kind == "instant"

    def test_bad_vector_arity(self):
        with pytest.raises(ConfigError):
            loads_config("[environment]\ndiffusivity_m2s = 1\nwind_mps = 1 2\n")

    def test_invalid_environment_value_surfaces(self):
        cfg = loads_config(MINIMAL.replace("40.0", "-40.0"))
        with pytest.raises(ConfigError):
            cfg.environment.build()

    @pytest.mark.parametrize("text, message, key, line", [
        ("[environment]\ndiffusivity_m2s = forty\n", "expected a number",
         "diffusivity_m2s", 2),
        ("[run]\nseed = 1.5\n", "expected an integer", "seed", 2),
        ("[detection]\nsigma = 1\ntaps =\n", "expected at least one number", "taps", 3),
        ("[environment]\ndiffusivity_m2s = 1\nboundary = wall\n", "expected one of",
         "boundary", 3),
        ("[localize]\nsearch_box_m = 0 0 0 1 1\n", "expected 6 numbers",
         "search_box_m", 2),
    ], ids=["not_a_number", "not_an_integer", "empty_list", "not_a_choice",
            "search_box_five"])
    def test_bad_value_names_key_and_line(self, text, message, key, line):
        with pytest.raises(ConfigError, match=message) as err:
            loads_config(text)
        assert (err.value.key, err.value.line) == (key, line)

    @pytest.mark.parametrize("raw, box", [
        ("", ()), ("0 0 0 1 2 3", (0.0, 0.0, 0.0, 1.0, 2.0, 3.0))])
    def test_search_box_empty_or_six_numbers(self, raw, box):
        cfg = loads_config(f"[localize]\nsearch_box_m = {raw}\n")
        assert cfg.localize.search_box_m == box

    def test_localize_defaults_are_the_solver_defaults(self):
        section = loads_config("[localize]\n").localize
        assert (section.grid_resolution, section.max_iterations) == (
            SolverConfig().grid_resolution, SolverConfig().max_iterations)

    @pytest.mark.parametrize("z_m, message", [
        ("0 50 10.5", "integer step count >= 2"),
        ("0 50 1", "integer step count >= 2"),
        ("0 50", "one value or 'min max steps'"),
    ], ids=["fractional_count", "count_below_two", "two_values"])
    def test_bad_grid_axis_names_key(self, z_m, message):
        cfg = loads_config(MINIMAL.replace("z_m = 0 50 11", f"z_m = {z_m}"))
        with pytest.raises(ConfigError, match=message) as err:
            cfg.grid.axes()
        assert err.value.key == "z_m"

    @pytest.mark.parametrize("text, message, line", [
        ("[environment]\ndiffusivity_m2s 40\n", "expected 'key = value'", 2),
        ("seed = 1\n[run]\n", "key outside any", 1),
        ("[run]\nseed = 1\n\n[run]\nseed = 2\n", r"duplicate section \[run\]", 4),
    ], ids=["no_equals", "key_before_section", "duplicate_section"])
    def test_bad_line_names_line(self, text, message, line):
        with pytest.raises(ConfigError, match=message) as err:
            loads_config(text)
        assert (err.value.key, err.value.line) == (None, line)

    def test_missing_section_is_named(self):
        cfg = loads_config(MINIMAL)
        with pytest.raises(ConfigError, match=r"needs a \[population\] section"):
            cfg.require("environment", "population")

    def test_shipped_configs_parse(self):
        for name in ("walk_past.cfg", "detect_demo.cfg", "epidemic_demo.cfg"):
            cfg = load_config(str(REPO_CONFIGS / name))
            assert isinstance(cfg, ScenarioConfig)

    # The canonical dump (key order and default text) of each shipped config,
    # pinned through its hash: every artifact embeds this value.
    @pytest.mark.parametrize("name, digest", [
        ("detect_demo.cfg",
         "6536c88cb2260daedc5a810edd329edd630cdf646c3b54d2d8b7fff1f43b7ea0"),
        ("epidemic_demo.cfg",
         "38756bde062168ffbfefda86ae8353a26a787b481859b7c512f39ae2da85691f"),
        ("walk_past.cfg",
         "877693652aa5189075a85d0231caa8417c66cdecebcd747583dfa39bf9082f44"),
    ])
    def test_shipped_config_hash_is_stable(self, name, digest):
        assert config_hash(load_config(str(REPO_CONFIGS / name))) == digest


class TestCli:
    def test_import_leaves_scipy_out(self):
        # The runtime is numpy-only; scipy is a test oracle. Importing
        # scipy.special alone takes about 0.33 s, which every CLI start would pay.
        import virodyne

        env = dict(os.environ, PYTHONPATH=str(Path(virodyne.__file__).parents[1]))
        code = "import sys, virodyne.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        out = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_genetic_layer_import_leaves_channel_out(self):
        # The package root re-exports nothing, so a sequence-only caller
        # does not pay for the physical layer's imports.
        import virodyne

        env = dict(os.environ, PYTHONPATH=str(Path(virodyne.__file__).parents[1]))
        code = "import sys, virodyne.seqstat; print('virodyne.channel' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_detection_import_leaves_scipy_and_channel_out(self):
        # Detection needs neither; the CLI's start-up time is benchmarked.
        import virodyne

        env = dict(os.environ, PYTHONPATH=str(Path(virodyne.__file__).parents[1]))
        code = ("import sys, virodyne.detection; print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy' or m == 'virodyne.channel'))")
        out = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    # Each subcommand and the layers it must leave unloaded: the sequence
    # commands run no physical layer, and each physical command runs no
    # other stage's layers. A layer's import costs 4-13 ms at every start.
    SEQUENCE_ONLY = ("channel", "config", "mobility", "localization", "detection",
                     "epidemic")

    @pytest.mark.parametrize("argv, unloaded", [
        (["entropy", "--fasta", "{fasta}"], SEQUENCE_ONLY),
        (["hotspots", "--fasta", "{fasta}", "--top", "3"], SEQUENCE_ONLY),
        (["direction", "--fasta", "{fasta}", "--position", "2", "--q", "1e-3",
          "--gamma", "0.1", "--mode", "tv"], SEQUENCE_ONLY),
        (["detect", "--config", "{configs}/detect_demo.cfg", "--seed", "1"],
         ("epidemic", "localization", "seqstat", "mutation")),
        (["field", "--config", "{configs}/walk_past.cfg"],
         ("detection", "localization", "seqstat", "mutation")),
        (["epidemic", "--config", "{configs}/epidemic_demo.cfg"],
         ("detection", "localization", "seqstat", "mutation")),
        (["localize", "--config", "{configs}/walk_past.cfg", "--readings", "{readings}"],
         ("detection", "seqstat", "mutation")),
    ], ids=["entropy", "hotspots", "direction", "detect", "field", "epidemic", "localize"])
    def test_subcommand_imports_only_its_layers(self, tmp_path, argv, unloaded):
        import virodyne

        fasta, readings = tmp_path / "aligned.fasta", tmp_path / "readings.csv"
        fasta.write_text(">a\nATGCAAGGT\n>b\nATGCATGGT\n>c\nATGCAAGCT\n>d\nATGCACGGA\n")
        readings.write_text(READINGS_CSV)
        argv = [a.format(fasta=fasta, readings=readings, configs=REPO_CONFIGS)
                for a in argv] + ["--out", str(tmp_path / "out")]
        env = dict(os.environ, PYTHONPATH=str(Path(virodyne.__file__).parents[1]))
        code = ("import sys; from virodyne.cli import main; rc = main(sys.argv[1:]); "
                "print(rc, *sorted(m for m in sys.modules if m.startswith('virodyne.')))")
        out = subprocess.run([sys.executable, "-c", code, *argv], env=env, timeout=120,
                             capture_output=True, text=True, check=True)
        rc, *loaded = out.stdout.splitlines()[-1].split()
        assert rc == "0"
        assert not {f"virodyne.{m}" for m in unloaded} & set(loaded), loaded

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["field", "--bogus"]) == 2

    def test_field_takes_no_seed(self, tmp_path):
        # The field draws no random numbers, so it has no seed to set.
        out = tmp_path / "o.csv"
        assert main(["field", "--config", write(tmp_path, "f.cfg", MINIMAL),
                     "--out", str(out), "--seed", "3"]) == 2
        assert not out.exists()

    def test_symbol_interval_key_is_usage_error(self, tmp_path, capsys):
        cfg = write(tmp_path, "d.cfg", "[detection]\ntaps = 1.0\nsigma = 0.5\n"
                    "symbol_interval_s = 1.0\n")
        rc = main(["detect", "--config", cfg, "--out", str(tmp_path / "r.json")])
        assert rc == 2
        assert "symbol_interval_s" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self):
        assert main(["transmogrify"]) == 2

    def test_missing_config_file_is_usage_error(self, tmp_path, capsys):
        rc = main(["field", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2

    def test_unknown_config_key_exit_2_naming_key(self, tmp_path, capsys):
        cfg = write(tmp_path, "bad.cfg", MINIMAL.replace("kind", "kindd"))
        rc = main(["field", "--config", cfg, "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert "kindd" in capsys.readouterr().err

    def test_invalid_config_value_exit_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "d.cfg",
                    "[detection]\ntaps = 1.0\nsigma = 0.0\n")
        rc = main(["detect", "--config", cfg, "--out", str(tmp_path / "r.json")])
        assert rc == 2
        assert "sigma" in capsys.readouterr().err

    @pytest.mark.parametrize("command, name, edit, extra", [
        ("field", "walk_past.cfg",
         ("diffusivity_m2s = 40.0", "diffusivity_m2s = 40.0\nboundary = duct\n"
          "duct_width_m = 0\nduct_height_m = 60"), []),
        ("field", "walk_past.cfg", ("times_s = 30", "times_s = -5"), []),
        ("field", "walk_past.cfg", None, ["--time", "-3"]),
        ("detect", "detect_demo.cfg", ("sigma = 0.5", "sigma = nan"), []),
        ("detect", "detect_demo.cfg", ("trials = 20000", "trials = 0"), []),
        ("detect", "detect_demo.cfg", ("bits_per_frame = 16", "bits_per_frame = 0"), []),
        # 2^41 ISI windows: refused before the pattern table is allocated.
        ("detect", "detect_demo.cfg", ("taps = 1.0", "taps =" + " 0.5" * 41), []),
        ("epidemic", "epidemic_demo.cfg", ("step_s = 10", "step_s = nan"), []),
    ], ids=["duct_width_zero", "times_s", "time_flag", "sigma_nan", "trials_zero",
            "frame_empty", "taps_over_cap", "step_nan"])
    def test_bad_value_is_usage_error_without_output(self, tmp_path, capsys,
                                                     command, name, edit, extra):
        text = (REPO_CONFIGS / name).read_text()
        if edit is not None:
            assert edit[0] in text
            text = text.replace(*edit)
        out = tmp_path / "out"
        rc = main([command, "--config", write(tmp_path, name, text),
                   "--out", str(out), *extra])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("edit, key", [
        (("n_agents = 10", "n_agents = -4"), "n_agents"),
        (("n_agents = 10", "n_agents = 0"), "n_agents"),
        (("initial_infected = 1", "initial_infected = 50"), "initial_infected"),
        (("initial_infected = 1", "initial_infected = -1"), "initial_infected"),
        (("domain_m = 0 0 0 20 15 3", "domain_m = 0 0 0 0 15 3"), "domain_m"),
        # a 20 x 15 x 3 m room in a 3 x 2.5 m duct: agents would roam outside
        (("diffusivity_m2s = 5.0", "diffusivity_m2s = 5.0\nboundary = duct\n"
          "duct_width_m = 3\nduct_height_m = 2.5"), "domain_m"),
        # [epidemic] keys, rejected by EpidemicConfig under their field names
        (("latency_s = 60", "latency_s = -1"), "latency_s"),
        (("step_s = 10", "step_s = 0"), "step_s"),
        (("horizon_s = 600", "horizon_s = -5"), "horizon_s"),
        (("dose_coefficient = 5e4", "dose_coefficient = -1"), "dose_coefficient"),
    ], ids=["agents_negative", "agents_zero", "infected_above_agents",
            "infected_negative", "domain_flat", "domain_outside_duct",
            "latency_negative", "step_zero",
            "horizon_negative", "dose_negative"])
    def test_population_out_of_range_names_key(self, tmp_path, capsys, edit, key):
        text = (REPO_CONFIGS / "epidemic_demo.cfg").read_text()
        assert edit[0] in text
        out = tmp_path / "series.csv"
        rc = main(["epidemic", "--config", write(tmp_path, "epi.cfg", text.replace(*edit)),
                   "--out", str(out)])
        assert rc == 2
        assert f"key '{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_population_inside_a_duct_runs(self, tmp_path):
        # The same crowd in a box that fills the duct's cross-section.
        text = (REPO_CONFIGS / "epidemic_demo.cfg").read_text().replace(
            "diffusivity_m2s = 5.0", "diffusivity_m2s = 5.0\nboundary = duct\n"
            "duct_width_m = 3\nduct_height_m = 2.5").replace(
            "domain_m = 0 0 0 20 15 3", "domain_m = 0 0 0 20 3 2.5")
        out = tmp_path / "series.csv"
        assert main(["epidemic", "--config", write(tmp_path, "epi.cfg", text),
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) > 10

    @pytest.mark.parametrize("dose", ["5e2", "5e4"])
    def test_epidemic_horizon_off_the_step_grid(self, tmp_path, dose):
        # 605 s in steps of 10: the last step is 5 s and the series ends at
        # the horizon the paths are sampled to.
        text = (REPO_CONFIGS / "epidemic_demo.cfg").read_text()
        text = text.replace("horizon_s = 600", "horizon_s = 605")
        text = text.replace("dose_coefficient = 5e4", f"dose_coefficient = {dose}")
        summary = tmp_path / "sum.json"
        rc = main(["epidemic", "--config", write(tmp_path, "epi.cfg", text),
                   "--out", str(tmp_path / "series.csv"), "--summary", str(summary)])
        assert rc == 0
        assert json.loads(summary.read_text())["times"][-3:] == [590.0, 600.0, 605.0]

    def test_mobility_rejection_names_population_keys(self, tmp_path, capsys):
        text = (REPO_CONFIGS / "epidemic_demo.cfg").read_text()
        edit = ("speed_max_mps = 1.5", "speed_max_mps = 0.2")
        assert edit[0] in text
        out = tmp_path / "series.csv"
        rc = main(["epidemic", "--config", write(tmp_path, "epi.cfg", text.replace(*edit)),
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: need 0 < speed_min <= speed_max < inf "
            "(keys 'speed_min_mps', 'speed_max_mps', 'pause_s')\n")
        assert not out.exists()

    def test_negative_threshold_other_than_midpoint_rejected(self, tmp_path, capsys):
        text = (REPO_CONFIGS / "detect_demo.cfg").read_text()
        with_key = lambda raw: text.replace("mode = threshold",
                                            f"mode = threshold\nthreshold = {raw}")
        with pytest.raises(ConfigError, match="key 'threshold'"):
            loads_config(with_key("-0.3"))
        # -1 is the documented midpoint and dumps as the default does
        assert dump_config(loads_config(with_key("-1"))) == dump_config(loads_config(text))
        out = tmp_path / "r.json"
        rc = main(["detect", "--config", write(tmp_path, "d.cfg", with_key("-0.3")),
                   "--out", str(out)])
        assert rc == 2 and "threshold" in capsys.readouterr().err
        assert not out.exists()

    def test_wall_crossing_bound_is_usage_error(self, tmp_path, capsys):
        # A 1 mm room crossed at 1 m/s for one 600 s epoch: about 10^6 wall
        # crossings in one leg, past the sampler's bound.
        text = (REPO_CONFIGS / "epidemic_demo.cfg").read_text()
        for edit in (("domain_m = 0 0 0 20 15 3", "domain_m = 0 0 0 0.001 0.001 0.001"),
                     ("mobility = waypoint",
                      "mobility = direction\nspeed_mps = 1.0\nepoch_s = 100000")):
            assert edit[0] in text
            text = text.replace(*edit)
        out = tmp_path / "series.csv"
        rc = main(["epidemic", "--config", write(tmp_path, "epi.cfg", text),
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: a 600 s leg at 1 m/s crosses the walls ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_wrapped_wall_hits_bound_is_usage_error(self, tmp_path, capsys):
        # The same 1 mm room with wrapping: each wall hit ends a leg and
        # starts a new heading, about 10^6 legs over 600 s. The path stops at
        # the leg bound.
        text = (REPO_CONFIGS / "epidemic_demo.cfg").read_text()
        for edit in (("domain_m = 0 0 0 20 15 3", "domain_m = 0 0 0 0.001 0.001 0.001"),
                     ("mobility = waypoint", "mobility = direction\nboundary_policy = wrap\n"
                                             "speed_mps = 1.0\nepoch_s = 100000")):
            assert edit[0] in text
            text = text.replace(*edit)
        out = tmp_path / "series.csv"
        began = time.perf_counter()
        rc = main(["epidemic", "--config", write(tmp_path, "epi.cfg", text),
                   "--out", str(out)])
        elapsed = time.perf_counter() - began
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: a path at up to 1 m/s takes more than "
                              "100000 legs by ")
        assert "of 600 s;" in err
        assert not out.exists()
        assert elapsed < 20.0  # the first agent alone took about 28 s unbounded

    def test_waypoint_leg_bound_is_usage_error(self, tmp_path, capsys):
        # A 1e-10 m box with no pause: every waypoint round takes less than
        # the sampler's time resolution, so the clock stays at 0 s. Unbounded,
        # this ran until killed.
        text = (REPO_CONFIGS / "epidemic_demo.cfg").read_text()
        for edit in (("domain_m = 0 0 0 20 15 3", "domain_m = 0 0 0 1e-10 1e-10 1e-10"),
                     ("pause_s = 2.0", "pause_s = 0")):
            assert edit[0] in text
            text = text.replace(*edit)
        out = tmp_path / "series.csv"
        began = time.perf_counter()
        rc = main(["epidemic", "--config", write(tmp_path, "epi.cfg", text),
                   "--out", str(out)])
        elapsed = time.perf_counter() - began
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: a path at up to 1.5 m/s takes more than "
                              "100000 legs by 0 s of 600 s;")
        assert err.rstrip().endswith("(keys 'domain_m', 'speed_min_mps', "
                                     "'speed_max_mps', 'pause_s', 'horizon_s')")
        assert not out.exists()
        assert elapsed < 20.0

    def test_non_finite_numbers_name_key_and_line(self):
        for raw in ("nan", "inf", "-inf", "1e400"):
            with pytest.raises(ConfigError) as err:
                loads_config(MINIMAL.replace("40.0", raw))
            assert "diffusivity_m2s" in str(err.value) and "line 2" in str(err.value)
        with pytest.raises(ConfigError) as err:
            loads_config(MINIMAL.replace("position_m = 0 0 25", "position_m = 0 inf 25"))
        assert "position_m" in str(err.value)

    def test_field_grid_csv(self, tmp_path):
        cfg = write(tmp_path, "f.cfg", MINIMAL)
        out = tmp_path / "grid.csv"
        rc = main(["field", "--config", cfg, "--speed", "2", "--time", "60",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        meta = [l for l in lines if l.startswith("#")]
        assert any("config_sha256" in l for l in meta)
        assert any("version" in l for l in meta)
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == "x,y,z,t,c"
        data = [l.split(",") for l in lines[header_idx + 1:]]
        assert len(data) == 11
        zs = [float(r[2]) for r in data]
        cs = [float(r[4]) for r in data]
        # peak over height at the release height of 25 m
        assert zs[int(np.argmax(cs))] == pytest.approx(25.0)

    def test_field_of_an_instant_source(self, tmp_path):
        # A 2 kg puff released at 5 s over a reflecting ground: every row
        # is concentration_instant's value, 0 before the release.
        text = "\n".join([
            "[environment]", "diffusivity_m2s = 0.5", "wind_mps = 0.2 0 0",
            "boundary = halfspace", "[source]", "kind = instant",
            "position_m = 0 0 1", "mass_kg = 2", "start_s = 5", "[grid]",
            "x_m = 1", "y_m = 0.5", "z_m = 0 2 5", "times_s = 4 10 30", ""])
        out = tmp_path / "puff.csv"
        assert main(["field", "--config", write(tmp_path, "puff.cfg", text),
                     "--out", str(out)]) == 0
        rows = [l.split(",") for l in out.read_text().splitlines()
                if l and not l.startswith("#")][1:]
        assert len(rows) == 15
        env = Environment(diffusivity=0.5, wind=Velocity(0.2, 0.0, 0.0),
                          boundary=HalfSpaceReflecting())
        src = SourceSpec.instant((0.0, 0.0, 1.0), 2.0, start_time=5.0)
        for x, y, z, t, c in rows:
            want = concentration_instant(src, env, (float(x), float(y), float(z)),
                                         float(t))
            assert c == repr(want)
        assert {float(r[4]) > 0 for r in rows} == {True, False}

    def test_field_without_a_source_is_usage_error(self, tmp_path, capsys):
        text = MINIMAL.replace("[source]\nkind = continuous\nposition_m = 0 0 25\n"
                               "rate_kgs = 1.0\n", "")
        assert "[source]" not in text
        out = tmp_path / "o.csv"
        rc = main(["field", "--config", write(tmp_path, "f.cfg", text),
                   "--out", str(out)])
        assert rc == 2
        assert "needs at least one [source]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("speed, rc", [("0.0003", 0), ("0.01", 1)],
                             ids=["stays_inside", "leaves"])
    def test_field_source_crossing_a_duct(self, tmp_path, capsys, speed, rc):
        # From y = 1 m a source at 0.0003 m/s across the 3 m duct is still
        # inside at the 3601 s horizon; at 0.01 m/s it leaves through the
        # wall at 200 s: a domain error, and no CSV.
        text = MINIMAL.replace("diffusivity_m2s = 40.0", "\n".join([
            "diffusivity_m2s = 0.5", "boundary = duct", "duct_width_m = 3",
            "duct_height_m = 2.5"])).replace("position_m = 0 0 25", "\n".join([
                "position_m = 0 1.0 1.2", f"velocity_mps = 0 {speed} 0"])).replace(
            "z_m = 0 50 11\ntimes_s = 30", "z_m = 0.2 2.3 3\ntimes_s = 3600")
        out = tmp_path / "duct.csv"
        assert main(["field", "--config", write(tmp_path, "duct.cfg", text),
                     "--out", str(out)]) == rc
        if rc:
            assert "outside RectangularDuctReflecting" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert len(out.read_text().splitlines()) > 3

    def test_field_byte_identical_across_runs_and_threads(self, tmp_path,
                                                          monkeypatch):
        cfg = write(tmp_path, "f.cfg", MINIMAL)
        outs = []
        for name, threads in (("a.csv", "1"), ("b.csv", "8"), ("c.csv", "1")):
            monkeypatch.setenv("VIRODYNE_THREADS", threads)
            out = tmp_path / name
            assert main(["field", "--config", cfg, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_detect_report(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["detect", "--config", str(REPO_CONFIGS / "detect_demo.cfg"),
                   "--out", str(out), "--seed", "3"])
        assert rc == 0
        doc = json.loads(out.read_text())
        expected = 0.5 * math.erfc(1.0 / (2 * 0.5 * math.sqrt(2)))
        assert doc["method"] == "exact"
        assert doc["ber"] == pytest.approx(expected, rel=1e-12)
        assert doc["ci"][0] <= expected <= doc["ci"][1]
        assert 0.0 <= doc["mi_bits"] <= 1.0
        # The experiment the expected BER describes: 20000 frames of 16 bits.
        assert (doc["trials"], doc["bits_total"]) == (20000, 320000)
        assert doc["meta"]["seed"] == "3"

    def test_detect_report_sequence_ml_is_monte_carlo(self, tmp_path):
        text = (REPO_CONFIGS / "detect_demo.cfg").read_text()
        text = text.replace("mode = threshold", "mode = sequence").replace(
            "trials = 20000", "trials = 200")
        out = tmp_path / "report.json"
        assert main(["detect", "--config", write(tmp_path, "d.cfg", text),
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["method"] == "monte_carlo"
        assert doc["ci"][0] <= doc["ber"] <= doc["ci"][1]
        assert (doc["trials"], doc["bits_total"]) == (200, 3200)

    def test_module_entry_point_runs(self, tmp_path):
        import virodyne

        env = dict(os.environ, PYTHONPATH=str(Path(virodyne.__file__).parents[1]))
        cfg = str(REPO_CONFIGS / "detect_demo.cfg")
        by_module, in_process = tmp_path / "module.json", tmp_path / "main.json"
        subprocess.run([sys.executable, "-m", "virodyne.cli", "detect", "--config",
                        cfg, "--out", str(by_module)], env=env, timeout=120, check=True)
        assert main(["detect", "--config", cfg, "--out", str(in_process)]) == 0
        assert by_module.read_bytes() == in_process.read_bytes()

    def test_epidemic_outputs(self, tmp_path):
        cfg_text = (REPO_CONFIGS / "epidemic_demo.cfg").read_text()
        cfg_text = cfg_text.replace("horizon_s = 600", "horizon_s = 60")
        cfg = write(tmp_path, "epi.cfg", cfg_text)
        out = tmp_path / "series.csv"
        summary = tmp_path / "sum.json"
        rc = main(["epidemic", "--config", cfg, "--out", str(out),
                   "--summary", str(summary), "--seed", "5"])
        assert rc == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "t,agent_id,state,cumulative_dose"
        doc = json.loads(summary.read_text())
        counts = doc["infected_count"]
        assert counts[0] == 1
        assert counts == sorted(counts)

    def test_localize_pipeline(self, tmp_path):
        from virodyne.channel import Environment, SourceSpec, concentration_steady
        env = Environment(diffusivity=40.0)
        src = SourceSpec.continuous(2e-3, position=(4.0, 6.0, 2.0))
        rows = ["x,y,z,t,c,sigma"]
        for sx in (0.0, 10.0):
            for sy in (0.0, 10.0):
                for sz in (0.0, 10.0):
                    c = concentration_steady(src, env, (sx, sy, sz))
                    rows.append(f"{sx},{sy},{sz},0.0,{c!r},1.0")
        readings = write(tmp_path, "readings.csv", "\n".join(rows) + "\n")
        cfg = write(tmp_path, "env.cfg", "[environment]\ndiffusivity_m2s = 40\n")
        out = tmp_path / "estimate.json"
        rc = main(["localize", "--config", cfg, "--readings", readings,
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["position"] == pytest.approx([4.0, 6.0, 2.0], abs=1e-3)
        assert doc["rate"] == pytest.approx(2e-3, rel=1e-3)

    def test_huge_wind_field_is_finite(self, tmp_path):
        # |v| of (1e300, 0, 0) squares past the float range; the plume is
        # carried straight downwind, where the field is the steady
        # rate / (4 pi D d) at d = 1 m.
        cfg = write(tmp_path, "wind.cfg", MINIMAL.replace(
            "diffusivity_m2s = 40.0", "diffusivity_m2s = 0.5\nwind_mps = 1e300 0 0").replace(
            "position_m = 0 0 25", "position_m = 0 0 1").replace(
            "rate_kgs = 1.0", "rate_kgs = 1e-6").replace(
            "x_m = 35", "x_m = 1").replace("z_m = 0 50 11", "z_m = 1").replace(
            "times_s = 30", "times_s = 60"))
        out = tmp_path / "grid.csv"
        assert main(["field", "--config", cfg, "--out", str(out)]) == 0
        row = out.read_text().splitlines()[-1].split(",")
        assert row[:4] == ["1.0", "0.0", "1.0", "60.0"]
        assert float(row[4]) == pytest.approx(1e-6 / (4 * math.pi * 0.5), rel=1e-12)

    @pytest.mark.parametrize("boundary", [
        "", "\nboundary = halfspace",
        "\nboundary = duct\nduct_width_m = 3\nduct_height_m = 2.5",
    ], ids=["free", "halfspace", "duct"])
    @pytest.mark.parametrize("kind, old, new", [
        *((kind, "x_m = 1", f"x_m = {x}") for kind in ("continuous", "instant")
          for x in FAR),
        *((kind, "position_m = 0 1.5 1.2", f"position_m = {x} 1.5 1.2")
          for kind in ("continuous", "instant") for x in FAR),
        ("instant", "diffusivity_m2s = 0.5", "diffusivity_m2s = 5e-324"),
        ("instant", "times_s = 60", "times_s = 5e-324"),
        # The observer 1 m from the source along y or z alone: the other two
        # axis factors, about 1e160 each, overflow together, and the offset
        # axis's factor 0 must still make the field 0.
        *(pytest.param("instant", f"{what}\nx_m = 1\n{line}", f"{tiny}\nx_m = 0\n{moved}",
                       id=f"instant-subnormal-{name}-along-{axis}")
          for name, what, tiny in (("D", "diffusivity_m2s = 0.5", "diffusivity_m2s = 5e-324"),
                                   ("age", "times_s = 60", "times_s = 5e-324"))
          for axis, line, moved in (("y", "y_m = 1.5", "y_m = 2.5"),
                                    ("z", "z_m = 1.2", "z_m = 2.2"))),
    ])
    def test_extreme_still_air_field_is_finite_and_quiet(self, tmp_path, capsys,
                                                         boundary, kind, old, new):
        # Past about 1.3e154 m a squared distance overflows a float, and a
        # subnormal D or age overflows the Gaussian's exponent; each field
        # takes its limit, 0 here, with no warning. old and new hold one or
        # more lines, each replaced by its counterpart.
        text = "\n".join([
            "[environment]", "diffusivity_m2s = 0.5" + boundary, "[source]",
            f"kind = {kind}", "position_m = 0 1.5 1.2",
            "rate_kgs = 1e-6" if kind == "continuous" else "mass_kg = 1e-6",
            "[grid]", "x_m = 1", "y_m = 1.5", "z_m = 1.2", "times_s = 60", ""])
        for line_old, line_new in zip(old.split("\n"), new.split("\n"), strict=True):
            assert line_old + "\n" in text
            text = text.replace(line_old + "\n", line_new + "\n")
        out = tmp_path / "grid.csv"
        cfg = write(tmp_path, "far.cfg", text)
        assert main(["field", "--config", cfg, "--out", str(out)]) == 0
        rows = [r for r in out.read_text().splitlines() if not r.startswith("#")][1:]
        assert rows and all(math.isfinite(float(r.split(",")[4])) for r in rows)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("boundary", [
        "", "\nboundary = halfspace",
        "\nboundary = duct\nduct_width_m = 3\nduct_height_m = 2.5"],
        ids=["free", "halfspace", "duct"])
    @pytest.mark.parametrize("kind, wind, velocity", [
        pytest.param("continuous", None, None, id="continuous"),
        pytest.param("instant", None, None, id="instant"),
        pytest.param("continuous", "1 0 0", None, id="windy"),
        pytest.param("continuous", "0 1 0", None, id="cross-wind"),
        pytest.param("continuous", "1 0 0", "1 0 0", id="windy-moving"),
    ])
    @pytest.mark.parametrize("source, seen", [("-1.7e308", "1.7e308"), ("0", "1e308")],
                             ids=["overflowing", "finite"])
    def test_span_past_the_largest_float_is_zero_and_quiet(self, tmp_path, capsys,
                                                           boundary, kind, wind, velocity,
                                                           source, seen):
        # From a source at x = -1.7e308 to an observer at 1.7e308 the span
        # itself overflows a float; from x = 0 to 1e308 it is finite, but
        # 8 pi D d past it overflows, and the kernel, at most 2 / (8 pi D d),
        # lies under the smallest normal float. The field takes its limit 0
        # with no warning (RuntimeWarnings are errors here). In a duct the
        # continuous field reads that span in the far-row test and in the
        # modes' axial integral. In a 1 m/s wind v . dr - |v| d would read
        # inf - inf, for a source moving with that wind too; across the span
        # v . dr itself would read inf * 0.
        if wind == "0 1 0" and "duct" in boundary:
            pytest.skip("a duct takes wind along its axis only")
        text = "\n".join([
            "[environment]", "diffusivity_m2s = 0.5" + boundary,
            *([f"wind_mps = {wind}"] if wind else []), "[source]",
            f"kind = {kind}", f"position_m = {source} 0 1",
            "rate_kgs = 1e-6" if kind == "continuous" else "mass_kg = 1e-6",
            *([f"velocity_mps = {velocity}"] if velocity else []),
            "[grid]", f"x_m = {seen}", "y_m = 0", "z_m = 1", "times_s = 60", ""])
        out = tmp_path / "grid.csv"
        assert main(["field", "--config", write(tmp_path, "span.cfg", text),
                     "--out", str(out)]) == 0
        rows = [r for r in out.read_text().splitlines() if not r.startswith("#")][1:]
        assert [r.split(",")[4] for r in rows] == ["0.0"]
        assert capsys.readouterr().err == ""

    def test_detect_refuses_a_non_finite_report(self, tmp_path, capsys):
        # A level of 1e308 + 1e308 overflows a float; the taps are refused
        # by name before a NaN can reach the report, and nothing is written.
        text = (REPO_CONFIGS / "detect_demo.cfg").read_text()
        text = text.replace("taps = 1.0", "taps = 1e308 1e308").replace(
            "mode = threshold", "mode = difference")
        out = tmp_path / "report.json"
        rc = main(["detect", "--config", write(tmp_path, "d.cfg", text),
                   "--out", str(out)])
        assert rc == 1
        assert "taps sum past the largest float" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("wind, code", [("0 0 0", 1), ("0.5 0 0", 0)])
    def test_localize_steady_needs_a_steady_state(self, tmp_path, capsys, wind, code):
        # A still-air duct has no steady field; with wind along it one exists.
        rows = ["x,y,z,t,c,sigma"] + [
            f"{x},{y},{z},0.0,{1e-6 * (i + 1)!r},1e-7" for i, (x, y, z) in
            enumerate([(x, y, z) for x in (0, 10) for y in (0.5, 2.5) for z in (0.5, 2.0)])]
        readings = write(tmp_path, "readings.csv", "\n".join(rows) + "\n")
        cfg = write(tmp_path, "env.cfg", "[environment]\ndiffusivity_m2s = 0.5\n"
                    f"wind_mps = {wind}\nboundary = duct\nduct_width_m = 3\n"
                    "duct_height_m = 2.5\nimage_order = 2\n")
        out = tmp_path / "estimate.json"
        assert main(["localize", "--config", cfg, "--readings", readings,
                     "--out", str(out)]) == code
        assert ("steady state" in capsys.readouterr().err) == (code == 1)
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize("kind", ["instant", "continuous"])
    def test_localize_readings_before_emission_exit_1(self, tmp_path, capsys, kind):
        # Read at t = 0 nothing has arrived: no position explains the data.
        rows = ["x,y,z,t,c,sigma", "0,0,0,0,1e-3,1", "10,0,0,0,2e-3,1",
                "0,10,0,0,3e-3,1", "0,0,10,0,4e-3,1"]
        readings = write(tmp_path, "readings.csv", "\n".join(rows) + "\n")
        cfg = write(tmp_path, "env.cfg", "[environment]\ndiffusivity_m2s = 1\n"
                    f"[localize]\nsource_kind = {kind}\n")
        out = tmp_path / "estimate.json"
        assert main(["localize", "--config", cfg, "--readings", readings,
                     "--out", str(out)]) == 1
        assert "forward model is zero" in capsys.readouterr().err
        assert not out.exists()

    def test_localize_flat_objective_exit_1(self, tmp_path, capsys):
        # At D = 1e-5 a release at t = 0 has spread about 0.2 mm by t = 1 ms:
        # the model underflows to 0 at every grid candidate.
        rows = ["x,y,z,t,c,sigma"] + [
            f"{x},{y},{z},1e-3,{i + 1},1" for i, (x, y, z) in
            enumerate([(x, y, z) for x in (0, 10) for y in (0, 10) for z in (0, 10)])]
        readings = write(tmp_path, "readings.csv", "\n".join(rows) + "\n")
        cfg = write(tmp_path, "env.cfg", "[environment]\ndiffusivity_m2s = 1e-5\n"
                    "[localize]\nsource_kind = instant\n")
        out = tmp_path / "estimate.json"
        assert main(["localize", "--config", cfg, "--readings", readings,
                     "--out", str(out)]) == 1
        assert "forward model is zero" in capsys.readouterr().err
        assert not out.exists()

    def test_localize_reports_position_crlb(self, tmp_path):
        rows = ["x,y,z,t,c,sigma"]
        for i, (sx, sy, sz) in enumerate(
                [(x, y, z) for x in (0, 10) for y in (0, 10) for z in (0, 10)]):
            rows.append(f"{sx},{sy},{sz},0.0,{1e-6 * (i + 1)!r},1e-7")
        readings = write(tmp_path, "readings.csv", "\n".join(rows) + "\n")
        cfg = write(tmp_path, "env.cfg", "[environment]\ndiffusivity_m2s = 40\n")
        out = tmp_path / "estimate.json"
        assert main(["localize", "--config", cfg, "--readings", readings,
                     "--out", str(out)]) == 0
        bound = json.loads(out.read_text())["crlb_position_m"]
        assert isinstance(bound, float) and 0.0 < bound < math.inf

    def test_entropy_and_hotspots(self, tmp_path):
        fasta = write(tmp_path, "toy.fasta",
                      ">a\nAAAA\n>b\nACAA\n>c\nAGAA\n>d\nATAA\n")
        out = tmp_path / "profile.csv"
        assert main(["entropy", "--fasta", fasta, "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "position,entropy_bits,n_effective"
        ent = {int(r.split(",")[0]): float(r.split(",")[1]) for r in lines[1:]}
        assert ent[2] == pytest.approx(2.0)
        assert ent[1] == 0.0

        spots = tmp_path / "spots.json"
        assert main(["hotspots", "--fasta", fasta, "--top", "1",
                     "--out", str(spots)]) == 0
        doc = json.loads(spots.read_text())
        assert doc["hotspots"][0]["position"] == 2

    def test_direction_q57(self, tmp_path, capsys):
        rows = []
        for i in range(8):
            codons = ["GCT"] * 60
            codons[56] = "CAA" if i % 2 == 0 else "CAG"
            rows.append(f">s{i}\n{''.join(codons)}")
        fasta = write(tmp_path, "orf.fasta", "\n".join(rows) + "\n")
        out = tmp_path / "dir.json"
        rc = main(["direction", "--fasta", fasta, "--position", "57",
                   "--q", "1e-3", "--gamma", "0.1", "--mode", "tv",
                   "--level", "aa", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["targets"][0]["state"] == "H"
        assert "His" in capsys.readouterr().out

    def test_entropy_strict_length_mismatch_exit_1(self, tmp_path, capsys):
        fasta = write(tmp_path, "bad.fasta", ">a\nACGT\n>b\nACG\n")
        rc = main(["entropy", "--fasta", fasta,
                   "--out", str(tmp_path / "p.csv")])
        assert rc == 1
        assert "b" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["hotspots", "--top", "-1"],
        ["hotspots", "--min-entropy", "nan"],
        ["entropy", "--pseudocount", "-1"],
        ["entropy", "--pseudocount", "nan"],
        ["entropy", "--pseudocount", "inf"],
        ["direction", "--position", "99999", "--q", "1e-3", "--gamma", "0.1"],
        ["direction", "--position", "0", "--q", "1e-3", "--gamma", "0.1"],
        ["direction", "--position", "1", "--q", "1e-3", "--gamma", "0.1",
         "--top", "-1"],
        ["direction", "--position", "1", "--q", "nan", "--gamma", "0.1"],
        ["direction", "--position", "1", "--q", "1e-3", "--gamma", "inf"],
        ["direction", "--position", "1", "--q", "-1", "--gamma", "0.1"],
        ["direction", "--position", "1", "--q", "0.5", "--gamma", "0.6"],
    ], ids=["top", "min_entropy_nan", "pseudocount", "pseudocount_nan",
            "pseudocount_inf", "position_past_end", "position_zero", "direction_top",
            "q_nan", "gamma_inf", "q_negative", "mutation_mass_over_1"])
    def test_out_of_range_argument_is_usage_error(self, tmp_path, capsys, argv):
        fasta = write(tmp_path, "toy.fasta", ">a\nACGTAC\n>b\nACGAAC\n")
        out = tmp_path / "out"
        rc = main([*argv, "--fasta", fasta, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()


# Finite values at the edges of a float: 1e+-300, the largest and the least
# normal floats, subnormals, zero, and an alpha either side of the Poisson
# window cap for a single tap of 1 (about 3.74e9). Most draws are values a
# key accepts; the rest are refused.
_EDGES = [1e300, 1e-300, sys.float_info.max, sys.float_info.min, 1e-310,
          5e-324, 0.0, 1.0, 0.5, 3.7e9, 3.8e9]
_POSITIVE = st.sampled_from(_EDGES) | st.floats(0.0, sys.float_info.max)
_SIGNED = _POSITIVE | st.sampled_from([-x for x in _EDGES]) | st.floats(
    allow_nan=False, allow_infinity=False)
_PROBABILITY = st.sampled_from([0.0, 5e-324, 1e-300, 0.5, 1 - 2**-53, 1.0,
                                -5e-324, 1 + 2**-52]) | st.floats(0.0, 1.0)


@given(noise=st.sampled_from(["gaussian", "poisson"]),
       mode=st.sampled_from(["threshold", "sequence", "difference"]),
       taps=st.lists(_POSITIVE, min_size=1, max_size=3), sigma=_POSITIVE,
       alpha=_POSITIVE, threshold=_POSITIVE | st.just(-1.0),
       threshold_delta=_SIGNED, p1=_PROBABILITY)
@example(noise="poisson", mode="threshold", taps=[1e-300], sigma=1.0,
         alpha=1.6570740548760727e308, threshold=1e300, threshold_delta=0.0,
         p1=1 - 2**-53)  # a Poisson mean of 1.66e8 once read a BER of 1 + 1.6e-7
@settings(max_examples=300, deadline=None)
def test_detect_on_extreme_values_reports_or_refuses(
        noise, mode, taps, sigma, alpha, threshold, threshold_delta, p1):
    # Each run exits 0 with finite JSON, its BER in [0, 1] and inside its
    # ci, or exits 1 or 2 with one line on stderr and no file; never a
    # traceback or a warning.
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "d.cfg", Path(tmp) / "report.json"
        cfg.write_text(
            f"[detection]\ntaps = {' '.join(map(repr, taps))}\nnoise = {noise}\n"
            f"sigma = {sigma!r}\nalpha = {alpha!r}\nmode = {mode}\n"
            f"threshold = {threshold!r}\nthreshold_delta = {threshold_delta!r}\n"
            f"p1 = {p1!r}\nbits_per_frame = 4\ntrials = 8\n")
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            rc = main(["detect", "--config", str(cfg), "--out", str(out)])
        assert [str(w.message) for w in caught] == []
        lines = err.getvalue().splitlines()
        if rc == 0:
            assert lines == []
            report = json.loads(out.read_text(), parse_constant=lambda c: 1 / 0)
            assert report["ci"][0] <= report["ber"] <= report["ci"][1]
            assert 0.0 <= report["ber"] <= 1.0 and math.isfinite(report["mi_bits"])
        else:
            assert rc in (1, 2)
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert not out.exists()


class TestFileIo:
    def test_field_coordinates_render_as_repr(self):
        # One repr per distinct value, placed back by index: the same text
        # as repr of every value, signed zeros included.
        from virodyne.cli import _reprs
        values = np.array([0.1 + 0.2, -0.0, 0.0, 1e-300, 0.3, -0.0, 5.0, 0.1 + 0.2, 2.5e17])
        assert _reprs(values) == [repr(v) for v in values.tolist()]
        column = np.arange(12.0).reshape(4, 3)[:, 1]  # a strided column
        assert _reprs(column) == [repr(v) for v in column.tolist()]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_write_json_refuses_non_finite_before_opening(self, tmp_path, value):
        from virodyne.errors import VirodyneError
        from virodyne.fileio import write_json
        path = tmp_path / "out.json"
        path.write_text("kept\n")
        with pytest.raises(VirodyneError, match="not JSON compliant"):
            write_json(str(path), {"ber": [0.5, value]}, {"tool": "virodyne"})
        assert path.read_text() == "kept\n"

    def test_rewrite_of_a_longer_file_leaves_only_the_new_bytes(self, tmp_path):
        from virodyne.fileio import write_csv, write_json
        csv_path, json_path = tmp_path / "out.csv", tmp_path / "out.json"
        write_csv(str(tmp_path / "fresh.csv"), ["a", "b"], ["1,2"], {"tool": "virodyne"})
        write_json(str(tmp_path / "fresh.json"), {"ber": 0.5}, {"tool": "virodyne"})
        for path in (csv_path, json_path):
            path.write_bytes(b"stale artifact\n" * 1000)
        write_csv(str(csv_path), ["a", "b"], ["1,2"], {"tool": "virodyne"})
        write_json(str(json_path), {"ber": 0.5}, {"tool": "virodyne"})
        assert csv_path.read_bytes() == (tmp_path / "fresh.csv").read_bytes()
        assert csv_path.read_bytes() == b"# tool = virodyne\na,b\n1,2\n"
        assert json_path.read_bytes() == (tmp_path / "fresh.json").read_bytes()

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
    @pytest.mark.parametrize("argv", [
        ["field", "--config", str(REPO_CONFIGS / "walk_past.cfg")],
        ["detect", "--config", str(REPO_CONFIGS / "detect_demo.cfg"), "--seed", "1"],
    ], ids=["field", "detect"])
    def test_out_to_dev_null_runs(self, argv):
        # A character device is written and never cut.
        assert main(argv + ["--out", "/dev/null"]) == 0

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=["022", "077", "002"])
    def test_new_artifact_mode_is_builtin_opens(self, tmp_path, umask):
        from virodyne.fileio import write_json
        old = os.umask(umask)
        try:
            with open(tmp_path / "builtin.json", "w") as fh:
                fh.write("{}\n")
            write_json(str(tmp_path / "new.json"), {})
        finally:
            os.umask(old)
        assert (os.stat(tmp_path / "new.json").st_mode
                == os.stat(tmp_path / "builtin.json").st_mode)

    def test_short_writes_are_continued(self, tmp_path, monkeypatch):
        from virodyne import fileio
        real_write = os.write
        monkeypatch.setattr(fileio.os, "write", lambda fd, data: real_write(fd, data[:5]))
        path = tmp_path / "out.csv"
        path.write_bytes(b"x" * 500)
        fileio.write_csv(str(path), ["a", "b"], ["1.5,2.5", "3.5,4.5"])
        assert path.read_bytes() == b"a,b\n1.5,2.5\n3.5,4.5\n"

    def test_a_write_failing_partway_leaves_no_old_tail(self, tmp_path, monkeypatch):
        # The first write lands 7 bytes, the second fails: the file holds
        # those 7 bytes and none of the old artifact, and the write's own
        # error reaches the caller.
        from virodyne import fileio
        real_write = os.write
        failure = OSError(28, "No space left on device")
        calls = []

        def flaky(fd, data):
            calls.append(len(data))
            if len(calls) > 1:
                raise failure
            return real_write(fd, data[:7])

        path = tmp_path / "out.json"
        path.write_bytes(b"old artifact\n" * 200)
        monkeypatch.setattr(fileio.os, "write", flaky)
        with pytest.raises(OSError) as caught:
            fileio.write_json(str(path), {"ber": 0.25})
        monkeypatch.undo()
        assert caught.value is failure
        assert len(calls) == 2
        assert path.read_bytes() == b'{\n  "be'

    def test_trajectory_csv_non_numeric_names_row(self, tmp_path):
        from virodyne.errors import ConfigError
        from virodyne.localization import read_readings_csv
        p = tmp_path / "r.csv"
        p.write_text("# seed = 0\nx,y,z,t,c,sigma\n0,0,0,1,2,1\n1,abc,0,1,2,1\n")
        with pytest.raises(ConfigError, match="non-numeric value on data row 3"):
            read_readings_csv(str(p))

    def test_readings_csv_header_enforced(self, tmp_path):
        from virodyne.errors import ConfigError
        from virodyne.localization import read_readings_csv
        p = tmp_path / "r.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ConfigError):
            read_readings_csv(str(p))

    def test_impulse_response_from_scenario(self):
        from virodyne.channel import Environment
        from virodyne.detection import impulse_response_from_scenario
        env = Environment(diffusivity=5.0)
        cir = impulse_response_from_scenario(
            env, source_position=(0, 0, 0), receiver_position=(2.0, 0, 0),
            rate_kg_s=1.0, symbol_interval=1.0, n_taps=6)
        assert cir.memory == 6
        assert (cir.taps >= 0).all()
        assert cir.taps.sum() > 0
        # the tail decays once the one-slot puff has washed past
        assert cir.taps[-1] < cir.taps.max()

    @pytest.mark.parametrize("name, source, receiver", [
        ("source", (0.0, -0.1, 1.0), (2.0, 1.0, 1.0)),
        ("receiver", (0.0, 1.0, 1.0), (2.0, 1.0, 2.6))], ids=["source", "receiver"])
    def test_impulse_response_outside_the_duct_is_out_of_domain(self, name, source,
                                                                 receiver):
        from virodyne.channel import Environment, RectangularDuctReflecting
        from virodyne.detection import impulse_response_from_scenario
        from virodyne.errors import OutOfDomain
        env = Environment(diffusivity=0.5, wind=(0.3, 0.0, 0.0),
                          boundary=RectangularDuctReflecting(3.0, 2.5))
        kw = dict(rate_kg_s=1.0, symbol_interval=2.0, n_taps=4)
        with pytest.raises(OutOfDomain, match=f"^{name} point"):
            impulse_response_from_scenario(env, source, receiver, **kw)
        # On the walls is inside.
        cir = impulse_response_from_scenario(env, (0.0, 0.0, 1.0), (2.0, 3.0, 2.5), **kw)
        assert (cir.taps >= 0).all()

    def test_impulse_response_matches_emission_window_quadrature(self):
        # Oracle: the one-slot field by a fine trapezoid of the instant
        # kernel over the emission window, then each slot's mean over the
        # same 9 sample times the builder uses.
        from virodyne.channel import Environment, unit_instant_kernel
        from virodyne.detection import impulse_response_from_scenario
        env = Environment(diffusivity=5.0, wind=(0.5, 0.0, 0.0))
        r0, r = np.zeros(3), np.array([2.0, 0.5, 0.0])
        cir = impulse_response_from_scenario(env, r0, r, rate_kg_s=2.0,
                                             symbol_interval=1.0, n_taps=6)
        s = np.linspace(0.0, 1.0, 40001)
        for l in range(1, 6):
            ts = np.linspace(l, l + 1.0, 9)
            c = [2.0 * np.trapezoid(unit_instant_kernel(env, r0, r, t - s), s) for t in ts]
            assert cir.taps[l] == pytest.approx(np.trapezoid(c, ts), rel=1e-8)
