import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sbcpmu
from sbcpmu.blocks import Phasor, chain_from_json, chain_to_json, paper_profile
from sbcpmu.characterize import SweepRecord, ols_fit, one_counter_estimate
from sbcpmu.cli import _MANIFEST, _SCENARIO, _json_sha256, build_parser, load_scenario_config, main
from sbcpmu.mc import DEFAULT_COVERAGE_FACTOR, McScenario, monte_carlo

SRC = str(Path(sbcpmu.__file__).resolve().parents[1])


# a truncated-normal PLL delay whose support lies 100 std above the mean:
# no float64 normal CDF separates its ends
IMPOSSIBLE_TRUNCATED_NORMAL = {
    "family": "truncated-normal", "min_us": 100, "max_us": 101, "mean_us": 0, "std_us": 1,
}
# an empirical-histogram PLL delay whose bin edges do not increase
UNORDERED_HISTOGRAM = {
    "family": "empirical-histogram",
    "histogram": {"bin_edges_us": [8, 6, 4, 5], "counts": [3, 5, 2]},
}


def write_delay_csv(path, profiles):
    """A ``delay_us,profile`` CSV: ``profiles`` maps each profile name to its delays in µs."""
    with open(path, "w") as fh:
        fh.write("delay_us,profile\n")
        for name, delays in profiles.items():
            np.savetxt(fh, delays, fmt=f"%.5f,{name}")


# the keys ``simulate`` writes to a run's manifest.json, with well-formed values
RUN_MANIFEST = {
    "scenario_hash": "0123456789abcdef", "chain_sha256": "fedcba9876543210",
    "seed": 7, "trials": 3, "compensated": False, "saturated_samples": 0,
    "max_trial_saturated_samples": 0, "max_guard_margin": 0.25,
    "grand_mean_tve": 0.0023333, "max_mean_tve": 0.004, "fe_hz": 8e-4,
    "version": "0.1.0", "scenario": {"chain_profile": "paper"}, "chain_name": "sbc-pmu-paper",
    "coverage_factor": 3.3, "grand_mean_mag_err": 0.0011, "grand_mean_phase_err_rad": 0.0021,
    "window_gap_s": 0.0102, "versions": {"python": "3.11.7", "numpy": "2.4.6"},
}


def write_config(path, **overrides):
    cfg = {
        "chain_profile": "paper",
        "signal": {"amplitude_v": 10.0, "frequency_hz": 50.0},
        "schedule": {"rate_hz": 5000.0, "pps_period_s": 1.0},
        "run": {"trials": 2, "seed": 7, "duration_s": 30.0, "channels": 8},
        "compensation": "off",
        "output_dir": str(path.parent / "run"),
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg


def flat(form, prefix=""):
    """A normalized scenario as {dotted path: value}."""
    paths = {}
    for key, value in form.items():
        if isinstance(value, dict):
            paths.update(flat(value, f"{prefix}{key}."))
        else:
            paths[prefix + key] = value
    return paths


class TestConfig:
    def test_round_trip_idempotent(self, tmp_path):
        p = tmp_path / "cfg.json"
        write_config(p)
        cfg = load_scenario_config(p)
        q = tmp_path / "cfg2.json"
        q.write_text(json.dumps(cfg))
        again = load_scenario_config(q)
        assert again == cfg
        assert _json_sha256(again) == _json_sha256(cfg)

    def test_normalized_form(self, tmp_path):
        # integers where floats belong and absent defaults give the same form
        p = tmp_path / "cfg.json"
        write_config(
            p,
            signal={"amplitude_v": 10, "frequency_hz": 50},
            schedule={"rate_hz": 5000},
            run={"trials": 2, "seed": 7},
            temperature_c=35,
        )
        cfg = load_scenario_config(p)
        assert cfg == {
            "chain_profile": "paper",
            "pll_profile": None,
            "signal": {"amplitude_v": 10.0, "frequency_hz": 50.0},
            "schedule": {"rate_hz": 5000.0, "pps_period_s": 1.0},
            "run": {"trials": 2, "seed": 7, "duration_s": 30.0, "channels": 8},
            "compensation": "off",
            "temperature_c": 35.0,
            "output_dir": str(tmp_path / "run"),
        }
        assert all(isinstance(v, float) for v in cfg["signal"].values())

    def test_missing_field(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"chain_profile": "paper"}))
        from sbcpmu.errors import ConfigError

        with pytest.raises(ConfigError, match="signal"):
            load_scenario_config(p)

    def test_bad_compensation_value(self, tmp_path):
        p = tmp_path / "cfg.json"
        write_config(p, compensation="maybe")
        from sbcpmu.errors import ConfigError

        with pytest.raises(ConfigError, match="compensation"):
            load_scenario_config(p)

    def test_table_is_the_normalized_form(self, tmp_path):
        # a path of the table missing from the form, or a key the table lacks, fails here
        p = tmp_path / "cfg.json"
        write_config(p)
        assert sorted(flat(load_scenario_config(p))) == sorted(_SCENARIO)

    @pytest.mark.parametrize(
        "flag, value, path",
        [
            ("--trials", "3", "run.trials"),
            ("--seed", "11", "run.seed"),
            ("--out", "elsewhere", "output_dir"),
            ("--compensate", "on", "compensation"),
            ("--temperature-c", "35", "temperature_c"),
        ],
    )
    def test_each_flag_replaces_one_row(self, tmp_path, flag, value, path):
        p = tmp_path / "cfg.json"
        write_config(p)
        args = build_parser().parse_args(["simulate", "--config", str(p), flag, value])
        plain, flagged = (flat(load_scenario_config(p, flags)) for flags in (None, vars(args)))
        assert [key for key in _SCENARIO if plain[key] != flagged[key]] == [path]


class TestSimulate:
    def test_run_and_report(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        write_config(p)
        assert main(["simulate", "--config", str(p)]) == 0
        out = tmp_path / "run"
        assert (out / "manifest.json").exists()
        assert main(["report", str(out)]) == 0
        report = capsys.readouterr().out
        assert "FE" in report and "PASS" in report

    def test_deterministic_outputs(self, tmp_path):
        p = tmp_path / "cfg.json"
        write_config(p)
        # the manifest records the output directory, so both runs write to the same one
        out = tmp_path / "run"
        names = ("trials.npy", "summary.csv", "manifest.json")
        runs = []
        for _ in range(2):
            assert main(["simulate", "--config", str(p)]) == 0
            runs.append({name: (out / name).read_bytes() for name in names})
        assert runs[0] == runs[1]
        assert not (out / "trials.csv").exists()
        trials = np.load(out / "trials.npy", allow_pickle=False)
        summary_rows = (out / "summary.csv").read_text().splitlines()[1:]
        assert trials.dtype == np.float64
        assert trials.shape == (2, len(summary_rows))

    def test_report_reproducible(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        write_config(p)
        main(["simulate", "--config", str(p)])
        capsys.readouterr()
        main(["report", str(tmp_path / "run")])
        first = capsys.readouterr().out
        main(["report", str(tmp_path / "run")])
        assert capsys.readouterr().out == first

    def test_failed_rerun_leaves_no_manifest(self, tmp_path, capsys):
        # the rerun writes trials.npy, then fails on summary.csv: report must not show the old run
        p = tmp_path / "cfg.json"
        write_config(p)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(p), "--trials", "8", "--seed", "1"]) == 0
        (out / "summary.csv").unlink()
        (out / "summary.csv").mkdir()
        assert main(["simulate", "--config", str(p), "--trials", "16", "--seed", "2"]) == 4
        assert np.load(out / "trials.npy").shape[0] == 16
        capsys.readouterr()
        assert main(["report", str(out)]) == 2
        assert "missing manifest.json" in capsys.readouterr().err
        assert not (out / "report.txt").exists()

    def test_library_write_run_leaves_no_manifest(self, tmp_path, capsys):
        # the library writes another run's arrays into a CLI run directory:
        # report must not show the old run
        p = tmp_path / "cfg.json"
        write_config(p)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(p), "--trials", "8", "--seed", "1"]) == 0
        assert main(["report", str(out)]) == 0
        scenario = McScenario(paper_profile(), Phasor(10.0, 0.0, 50.0), trials=16, base_seed=2)
        sbcpmu.write_run(monte_carlo(scenario), out)
        assert np.load(out / "trials.npy").shape[0] == 16
        capsys.readouterr()
        assert main(["report", str(out)]) == 2
        assert "missing manifest.json" in capsys.readouterr().err
        assert not (out / "report.txt").exists()

    def test_config_error_exit(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2

    def test_null_pll_profile_keeps_the_chain_delay(self, tmp_path):
        # an absent pll_profile and a null one are the same scenario
        manifests = []
        for name, overrides in (("absent", {}), ("null", {"pll_profile": None})):
            p = tmp_path / f"{name}.json"
            write_config(p, **overrides)
            assert main(["simulate", "--config", str(p)]) == 0
            manifests.append((tmp_path / "run" / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]
        manifest = json.loads(manifests[0])
        assert manifest["scenario"]["pll_profile"] is None
        assert manifest["chain_sha256"] == _json_sha256(chain_to_json(paper_profile()))

    def test_pll_profile_selects_a_bundled_delay(self, tmp_path):
        manifests = {}
        for name in (None, "hdd"):
            p = tmp_path / "cfg.json"
            write_config(p, pll_profile=name, output_dir=str(tmp_path / str(name)))
            assert main(["simulate", "--config", str(p)]) == 0
            manifests[name] = json.loads((tmp_path / str(name) / "manifest.json").read_text())
        paper = paper_profile()
        chain = replace(paper, pll=paper.pll_profiles["hdd"])
        assert manifests["hdd"]["chain_sha256"] == _json_sha256(chain_to_json(chain))
        assert manifests["hdd"]["chain_sha256"] != manifests[None]["chain_sha256"]
        assert manifests["hdd"]["chain_name"] == paper.name
        scenario = McScenario(chain, Phasor(10.0, 0.0, 50.0), trials=2, base_seed=7)
        assert manifests["hdd"]["grand_mean_tve"] == monte_carlo(scenario).grand_mean_tve
        assert manifests["hdd"]["grand_mean_tve"] != manifests[None]["grand_mean_tve"]

    @pytest.mark.parametrize(
        "key_path, value, flags, message",
        [
            ("run.trials", "abc", [], "run.trials: expected an integer >= 1, got 'abc'"),
            ("run.trials", 2.7, [], "run.trials: expected an integer >= 1, got 2.7"),
            ("run.trials", True, [], "run.trials: expected an integer >= 1, got True"),
            ("run.seed", -1, [], "run.seed: expected an integer >= 0, got -1"),
            (
                "run.duration_s", 0.5, [],
                "run.duration_s: expected >= schedule.pps_period_s, got 0.5",
            ),
            (
                "schedule.pps_period_s", 0, [],
                "schedule.pps_period_s: expected a number > 0, got 0",
            ),
            (
                "signal.amplitude_v", math.nan, [],
                "signal.amplitude_v: expected a finite number, got nan",
            ),
            pytest.param(
                "signal.amplitude_v", 10**400, [],
                "signal.amplitude_v: expected a finite number, got 1000",
                id="amplitude-beyond-float",
            ),
            ("compensaton", "on", [], "compensaton: unknown key"),
            ("run.trails", 3, [], "run.trails: unknown key"),
            (None, None, ["--trials", "0"], "run.trials: expected an integer >= 1, got 0"),
            (
                None, None, ["--temperature-c", "nan"],
                "temperature_c: expected a finite number, got nan",
            ),
            (
                None, None, ["--temperature-c", "200"],
                "temperature_c: 200.0 is off timebase.by_temperature_c [0.0, 50.0]",
            ),
            # 100 Hz sampling gives 2 samples per 50 Hz cycle
            ("schedule.rate_hz", 100.0, [], "unresolvable window: 2 samples per cycle"),
            # a 20 ms interval at 5 kHz holds one 50 Hz window and no envelope
            (
                "schedule.pps_period_s", 0.02, [],
                "waveform spans less than one estimation window",
            ),
            pytest.param(
                "pll_profile", 3, [], "pll_profile: expected a string, got a number",
                id="pll-profile-not-a-string",
            ),
            pytest.param(
                "pll_profile", "gpu", [],
                "pll_profile: expected one of the chain's pll.profiles "
                "(idle, cpu, io, hdd, vm), got 'gpu'",
                id="pll-profile-unknown",
            ),
        ],
    )
    def test_bad_scenario_exit(self, tmp_path, capsys, key_path, value, flags, message):
        p = tmp_path / "cfg.json"
        cfg = write_config(p)
        if key_path is not None:
            *parents, key = key_path.split(".")
            obj = cfg
            for parent in parents:
                obj = obj[parent]
            obj[key] = value
            p.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(p), *flags]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--trials", "0"], "run.trials: expected an integer >= 1, got 0"),
            (["--temperature-c", "nan"], "temperature_c: expected a finite number, got nan"),
        ],
    )
    def test_flag_error_names_no_file(self, tmp_path, capsys, flags, message):
        # the value came from the command line, not from the config file
        p = tmp_path / "cfg.json"
        write_config(p)
        assert main(["simulate", "--config", str(p), *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("rate_hz", [1e16, 1e20])
    def test_scenario_too_large_to_allocate_exit(self, tmp_path, capsys, rate_hz):
        # numpy refuses either grid at once on any host: 71 PiB of sample
        # indices at 1e16 Hz, and more samples than an index can count at 1e20 Hz
        p = tmp_path / "cfg.json"
        write_config(p, schedule={"rate_hz": rate_hz})
        assert main(["simulate", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: scenario too large to allocate: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    def test_workspace_refused_in_a_kernel_thread_exit(self, tmp_path, capsys, monkeypatch):
        # a kernel thread allocates its workspace at its first task, so numpy's
        # refusal there reaches cmd_simulate through the task's future
        def refuse(rows, samples):
            raise MemoryError(f"no ({rows}, {samples}) workspace")

        monkeypatch.setattr("sbcpmu.mc._Workspace", refuse)
        p = tmp_path / "cfg.json"
        write_config(p)
        assert main(["simulate", "--config", str(p)]) == 2
        assert capsys.readouterr().err == "error: scenario too large to allocate: no (2, 5000) workspace\n"
        assert not (tmp_path / "run").exists()

    def test_integer_beyond_digit_limit_exit(self, tmp_path, capsys):
        # json.loads raises a plain ValueError past Python's int-string digit limit
        p = tmp_path / "cfg.json"
        cfg = write_config(p)
        cfg["run"]["trials"] = "TRIALS"
        p.write_text(json.dumps(cfg).replace('"TRIALS"', "9" * 5001))
        assert main(["simulate", "--config", str(p)]) == 2
        assert f"error: {p}: " in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_temperature_without_grid_exit(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        profile = tmp_path / "chain.json"
        profile.write_text(json.dumps({"timebase": {"e_r_ppm": {"mean": -16.0, "std": 3.0}}}))
        write_config(p, chain_profile=str(profile), temperature_c=20.0)
        assert main(["simulate", "--config", str(p)]) == 2
        assert "is off timebase.by_temperature_c (empty)" in capsys.readouterr().err

    def test_malformed_chain_profile_exit(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        profile = tmp_path / "chain.json"
        profile.write_text("{bad")
        write_config(p, chain_profile=str(profile))
        assert main(["simulate", "--config", str(p)]) == 2
        assert f"{profile}: line 1:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "profile_json, key_path",
        [
            ({"adc": {"gain_err_ppm": {"std": 1.0}}}, "adc.gain_err_ppm.mean: missing"),
            ([1, 2], "profile: expected an object, got an array"),
            ({"adc": {"bits": 0}}, "adc.bits: expected an integer >= 1 or null, got 0"),
            ({"adc": {"vref_v": -1}}, "adc.vref_v: expected a number > 0, got -1"),
            ({"adc": {"bitz": 12}}, "adc.bitz: unknown key"),
            (
                {"adc": {"gain_err_ppm": {"mean": math.nan}}},
                "adc.gain_err_ppm.mean: expected a finite number, got nan",
            ),
            (
                {"adc": {"bits": 16, "noise_rms_uv": -5.0}},
                "adc.noise_rms_uv: expected a number >= 0, got -5.0",
            ),
            ({"pll": {"delay": {"family": "gauss"}}}, "pll.delay: unknown delay family 'gauss'"),
            (
                {"timebase": {"by_temperature_c": [[10.0, -19.0, 2.0], [0.0, -19.9, 2.0]]}},
                "timebase: temperature grid must be strictly increasing",
            ),
            # keys that profiles saved by earlier versions held, and nothing read
            pytest.param(
                {"pll": {"delay": {"mode_us": 4}}}, "pll.delay.mode_us: unknown key",
                id="legacy-mode-us",
            ),
            (
                {"pll": {"delay": {"family": "empirical-histogram", "histogram": {
                    "bin_edges_us": [4, 5, 6, 8], "counts": [3, -1, 2]}}}},
                "pll.delay.histogram.counts[1]: expected an integer >= 0, got -1",
            ),
            (
                {"pll": {"delay": {"family": "empirical-histogram", "histogram": {
                    "bin_edges_us": [4, 5, 6, 8], "counts": [3, 2.7, 2]}}}},
                "pll.delay.histogram.counts[1]: expected an integer >= 0, got 2.7",
            ),
            ({"adc": {"bits": 2000}}, "adc: adc_bits must be in [1, 53] or None, got 2000"),
            ({"adc": {"bits": 54}}, "adc: adc_bits must be in [1, 53] or None, got 54"),
            pytest.param(
                {"pll": {"delay": IMPOSSIBLE_TRUNCATED_NORMAL}},
                "pll.delay: truncated-normal support [",
                id="truncated-normal-without-mass",
            ),
            pytest.param(
                {"pll": {"delay": UNORDERED_HISTOGRAM}},
                "pll.delay: histogram bin_edges_us must increase strictly, got 8 / 6 / 4 / 5 µs",
                id="unordered-histogram-edges",
            ),
            pytest.param(
                {"pll": {"profiles": {"busy": {
                    "family": "truncated-normal", "mean_us": 5, "std_us": 1,
                    "histogram": {"bin_edges_us": [3, 1], "counts": [5, 6, 7]}}}}},
                "pll.profiles.busy: a truncated-normal delay takes no histogram",
                id="histogram-on-another-family",
            ),
            pytest.param(
                {"timebase": {"estimator_std_ppm": 0.98}},
                "timebase.estimator_std_ppm: unknown key",
                id="legacy-estimator-std",
            ),
            pytest.param(
                {"timebase": {"board_std_ppm": 2.72}}, "timebase.board_std_ppm: unknown key",
                id="legacy-board-std",
            ),
            pytest.param(
                {"pll": {"delay": {"mode_std_us": 0.7}}}, "pll.delay.mode_std_us: unknown key",
                id="legacy-mode-std-us",
            ),
        ],
    )
    def test_wrong_shape_chain_profile_exit(self, tmp_path, capsys, profile_json, key_path):
        p = tmp_path / "cfg.json"
        profile = tmp_path / "chain.json"
        profile.write_text(json.dumps(profile_json))
        write_config(p, chain_profile=str(profile))
        assert main(["simulate", "--config", str(p)]) == 2
        assert f"{profile}: {key_path}" in capsys.readouterr().err

    def test_manifest_hashes_resolved_chain(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        write_config(p)
        assert main(["simulate", "--config", str(p)]) == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        canonical = json.dumps(
            chain_to_json(paper_profile()), sort_keys=True, separators=(",", ":")
        )
        assert manifest["chain_sha256"] == hashlib.sha256(canonical.encode()).hexdigest()
        capsys.readouterr()
        assert main(["report", str(tmp_path / "run")]) == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            f"run: {manifest['scenario_hash'][:12]} "
            f"chain_sha256={manifest['chain_sha256'][:12]}"
        )
        # the same profile name with other contents gives another hash
        profile = tmp_path / "chain.json"
        edited = chain_to_json(paper_profile())
        edited["adc"]["noise_rms_uv"] = 1.0
        profile.write_text(json.dumps(edited))
        write_config(p, chain_profile=str(profile))
        assert main(["simulate", "--config", str(p)]) == 0
        again = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert again["chain_sha256"] != manifest["chain_sha256"]

    def test_report_header_shows_clipping(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        write_config(p, signal={"amplitude_v": 12.0, "frequency_hz": 50.0})
        assert main(["simulate", "--config", str(p)]) == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["saturated_samples"] > 0
        assert 0 < manifest["max_trial_saturated_samples"] <= manifest["saturated_samples"]
        assert 0 < manifest["max_guard_margin"] < 1
        capsys.readouterr()
        assert main(["report", str(tmp_path / "run")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].endswith(f"saturated_samples={manifest['saturated_samples']}")
        assert lines[2] == (
            f"max_guard_margin={manifest['max_guard_margin']} "
            f"max_trial_saturated_samples={manifest['max_trial_saturated_samples']}"
        )
        assert [line.split("  ")[0] for line in lines[4:]] == [
            "TVE grand mean",
            "TVE max of mean trace",
            "FE",
        ]

    def test_guard_violation_exit(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        profile = tmp_path / "chain.json"
        profile.write_text(json.dumps({"timebase": {"e_r_ppm": {"mean": 500.0, "std": 0.0}}}))
        write_config(p, chain_profile=str(profile), schedule={"rate_hz": 5000.0})
        assert main(["simulate", "--config", str(p)]) == 3
        assert "trial" in capsys.readouterr().err

    def test_overrides(self, tmp_path):
        p = tmp_path / "cfg.json"
        write_config(p)
        main(
            [
                "simulate", "--config", str(p), "--trials", "3",
                "--seed", "11", "--out", str(tmp_path / "r3"), "--compensate", "on",
            ]
        )
        manifest = json.loads((tmp_path / "r3" / "manifest.json").read_text())
        assert manifest["trials"] == 3
        assert manifest["seed"] == 11
        assert manifest["compensated"] is True

    def test_manifest_holds_the_table_keys(self, tmp_path):
        p = tmp_path / "cfg.json"
        cfg = write_config(p)
        assert main(["simulate", "--config", str(p), "--seed", "42"]) == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert sorted(manifest) == sorted(_MANIFEST)
        r = monte_carlo(McScenario(paper_profile(), Phasor(10.0, 0.0, 50.0), trials=2, base_seed=42))
        assert manifest["seed"] == 42
        assert manifest["trials"] == 2
        assert manifest["compensated"] is False
        assert manifest["saturated_samples"] == 0
        assert manifest["max_trial_saturated_samples"] == 0
        assert manifest["max_guard_margin"] == r.max_guard_margin
        assert manifest["versions"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
        }

        # every value, each computed apart from cli
        def sha256(obj):
            return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()

        scenario = {**cfg, "pll_profile": None, "temperature_c": None, "run": {**cfg["run"], "seed": 42}}
        assert manifest == {
            "version": sbcpmu.__version__,
            "seed": 42,
            "scenario": scenario,
            "scenario_hash": sha256(scenario),
            "chain_name": paper_profile().name,
            "chain_sha256": sha256(chain_to_json(paper_profile())),
            "compensated": r.compensated,
            "coverage_factor": DEFAULT_COVERAGE_FACTOR,
            "fe_hz": r.fe_hz,
            "grand_mean_tve": r.grand_mean_tve,
            "max_mean_tve": float(r.mean_tve.max()),
            "grand_mean_mag_err": r.grand_mean_mag_err,
            "grand_mean_phase_err_rad": r.grand_mean_phase_err,
            "window_gap_s": r.window_gap_s,
            "trials": r.trials,
            "saturated_samples": r.saturated_samples,
            "max_trial_saturated_samples": r.max_trial_saturated_samples,
            "max_guard_margin": r.max_guard_margin,
            "versions": {"python": platform.python_version(), "numpy": np.__version__},
        }


class TestCharacterize:
    def test_trivial_sweep(self, tmp_path, capsys):
        csv = tmp_path / "s.csv"
        csv.write_text(
            "v_in,v_out,channel,device\n-1,-1,ch0,dev0\n0,0,ch0,dev0\n1,1,ch0,dev0\n"
        )
        out = tmp_path / "frag.json"
        assert main(["characterize", "sweep", "--input", str(csv), "--output", str(out)]) == 0
        frag = json.loads(out.read_text())
        fit = frag["per_channel"]["dev0/ch0"]
        assert fit["gain"] == pytest.approx(1.0)
        assert fit["offset_v"] == pytest.approx(0.0, abs=1e-12)

    def test_counter_mean(self, tmp_path):
        csv = tmp_path / "c.csv"
        rng = np.random.default_rng(0)
        rows = ["count,device,temperature_c"]
        true = 2000 * (1 - 16e-6)
        for _ in range(5000):
            rows.append(f"{int(true + rng.uniform(0, 1))},dev0,")
        csv.write_text("\n".join(rows) + "\n")
        out = tmp_path / "frag.json"
        assert (
            main(
                [
                    "characterize", "counter", "--input", str(csv),
                    "--output", str(out), "--nominal-rate-hz", "50000",
                ]
            )
            == 0
        )
        frag = json.loads(out.read_text())
        assert frag["e_r_ppm_mean"] == pytest.approx(-16.0, abs=25.0)
        assert frag["required_averages"] == 250_000

    def test_delay_profile(self, tmp_path):
        csv = tmp_path / "d.csv"
        rng = np.random.default_rng(1)
        rows = ["delay_us,profile"]
        for d in 4.55 + rng.gamma(3.6, 0.566, 1000):
            rows.append(f"{d},idle")
        csv.write_text("\n".join(rows) + "\n")
        out = tmp_path / "frag.json"
        assert main(["characterize", "delay", "--input", str(csv), "--output", str(out)]) == 0
        frag = json.loads(out.read_text())
        assert frag["profiles"]["idle"]["mean_us"] == pytest.approx(6.59, abs=0.15)
        assert frag["profiles"]["idle"]["n"] == 1000

    def test_delay_with_a_far_outlier(self, tmp_path):
        # one 5e9 us row among 100 delays near 5 us: the mode's histogram has at
        # most one bin a sample, not the 2e10 Freedman-Diaconis would ask for
        csv = tmp_path / "d.csv"
        delays = [f"{5.0 + 0.01 * i}" for i in range(100)] + ["5000000000"]
        csv.write_text("delay_us,profile\n" + "".join(f"{d},idle\n" for d in delays))
        out = tmp_path / "frag.json"
        assert main(["characterize", "delay", "--input", str(csv), "--output", str(out)]) == 0
        stats = json.loads(out.read_text())["profiles"]["idle"]
        assert math.isfinite(stats["mode_us"])
        assert stats["min_us"] <= stats["mode_us"] <= stats["max_us"]

    def test_capture_too_large_to_allocate_exit(self, tmp_path, capsys, monkeypatch):
        # numpy's refusal of an array the capture asks for, such as the text
        # cells widened to one very long label, is a config error naming --input
        def refuse(path):
            raise MemoryError("Unable to allocate 55.9 GiB")

        monkeypatch.setattr("sbcpmu.cli.read_sweep_csv", refuse, raising=False)
        csv = tmp_path / "s.csv"
        csv.write_text("v_in,v_out,channel,device\n0,0,ch0,dev0\n1,1,ch0,dev0\n")
        out = tmp_path / "frag.json"
        assert main(["characterize", "sweep", "--input", str(csv), "--output", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: --input {csv}: too large to allocate: Unable to allocate 55.9 GiB\n"
        )
        assert not out.exists()

    def test_sweep_decomposition(self, tmp_path):
        # 2 devices x 2 channels: the fragment carries the nested decomposition
        rows = {
            ("dev0", "ch0"): ([-1.0, 0.0, 1.0, 2.0], [-0.998, 0.0011, 1.0003, 2.001]),
            ("dev0", "ch1"): ([-1.0, 0.0, 1.0, 2.0], [-1.0012, -0.0004, 0.9991, 1.9987]),
            ("dev1", "ch0"): ([-1.0, 0.0, 1.0, 2.0], [-1.003, 0.0021, 1.0042, 2.0051]),
            ("dev1", "ch1"): ([-1.0, 0.0, 1.0, 2.0], [-0.9969, 0.0017, 0.9988, 2.0031]),
        }
        csv = tmp_path / "s.csv"
        csv.write_text(
            "v_in,v_out,channel,device\n"
            + "".join(
                f"{x},{y},{ch},{dev}\n" for (dev, ch), xy in rows.items() for x, y in zip(*xy)
            )
        )
        profile = tmp_path / "chain.json"
        profile.write_text(json.dumps(chain_to_json(paper_profile())))
        out = tmp_path / "frag.json"
        argv = ["characterize", "sweep", "--input", str(csv), "--output", str(out)]
        assert main(argv + ["--merge-into", str(profile)]) == 0
        frag = json.loads(out.read_text())
        fits = [ols_fit(SweepRecord(*xy)) for xy in rows.values()]
        for key, value, std in (
            ("gain_err_ppm", lambda f: (f.gain - 1.0) * 1e6, lambda f: f.gain_std * 1e6),
            ("offset_uv", lambda f: f.offset * 1e6, lambda f: f.offset_std * 1e6),
        ):
            # rows of devices, columns of channels: equal group sizes, ddof 0
            values = np.array([value(f) for f in fits]).reshape(2, 2)
            stds = np.array([std(f) for f in fits])
            assert frag[key] == {
                "grand_mean": pytest.approx(values.mean(), rel=1e-12),
                "estimator_std": pytest.approx(math.sqrt(np.mean(stds**2)), rel=1e-12),
                "within_std": pytest.approx(math.sqrt(values.var(axis=1).mean()), rel=1e-9),
                "between_std": pytest.approx(math.sqrt(values.mean(axis=1).var()), rel=1e-9),
                "total_std": pytest.approx(math.sqrt(values.var()), rel=1e-9),
                "ordering_ok": True,
            }
        merged = json.loads(profile.read_text())["adc"]
        assert merged["gain_err_ppm"] == {
            "mean": frag["gain_err_ppm"]["grand_mean"],
            "std": frag["gain_err_ppm"]["total_std"],
        }
        assert merged["gain_err_within_device_ppm"] == frag["gain_err_ppm"]["within_std"]

    def test_one_device_sweep_merge_drops_within_device_spread(self, tmp_path):
        # one device's channels are its within-device spread: the merged profile holds no stale
        # split, so the Monte Carlo draws the channel gains from the fitted total
        gains = {"ch0": 0.9990, "ch1": 1.0004, "ch2": 1.0011}
        csv = tmp_path / "s.csv"
        csv.write_text(
            "v_in,v_out,channel,device\n"
            + "".join(f"{x},{g * x},{ch},dev0\n" for ch, g in gains.items() for x in (-1, 0, 1, 2))
        )
        profile = tmp_path / "chain.json"
        profile.write_text(json.dumps(chain_to_json(paper_profile())))
        out = tmp_path / "frag.json"
        argv = ["characterize", "sweep", "--input", str(csv), "--output", str(out)]
        assert main(argv + ["--merge-into", str(profile)]) == 0
        total_std = json.loads(out.read_text())["gain_err_ppm"]["total_std"]
        assert total_std == pytest.approx(1e6 * np.std(list(gains.values()), ddof=1), rel=1e-6)
        merged = chain_from_json(json.loads(profile.read_text()))
        assert merged.adc_gain_within_device_ppm is None
        assert merged.sequence_gain_std_ppm() == total_std

    @pytest.mark.parametrize("devices", [1, 2], ids=["one-channel", "one-channel-devices"])
    def test_sweep_of_one_channel_devices(self, tmp_path, devices):
        # one channel fits no spread, so the merge keeps the base's; devices of one channel
        # each hold no within-device spread, so the merge writes null there, not 0
        csv = tmp_path / "s.csv"
        csv.write_text(
            "v_in,v_out,channel,device\n"
            + "".join(
                f"{x},{(1.0 + 2e-4 * d) * x + 1e-3 * d},ch0,dev{d}\n"
                for d in range(devices) for x in (-1, 0, 1, 2)
            )
        )
        profile = tmp_path / "chain.json"
        profile.write_text(json.dumps(chain_to_json(paper_profile())))
        out = tmp_path / "frag.json"
        argv = ["characterize", "sweep", "--input", str(csv), "--output", str(out)]
        assert main(argv + ["--merge-into", str(profile)]) == 0
        frag = json.loads(out.read_text())
        merged = json.loads(profile.read_text())["adc"]
        assert merged["gain_err_within_device_ppm"] is None
        if devices == 1:
            assert "total_std" not in frag["gain_err_ppm"] and "total_std" not in frag["offset_uv"]
            assert frag["profile"]["adc"] == {
                "gain_err_ppm": {"mean": frag["gain_err_ppm"]["grand_mean"]},
                "gain_err_within_device_ppm": None,
                "offset_uv": {"mean": frag["offset_uv"]["grand_mean"]},
            }
            assert (merged["gain_err_ppm"]["std"], merged["offset_uv"]["std"]) == (134.0, 255.0)
        else:
            assert frag["gain_err_ppm"]["within_std"] == 0.0  # the record keeps the split as fitted
            assert merged["gain_err_ppm"]["std"] == frag["gain_err_ppm"]["total_std"] > 0

    def test_sweep_fragment_does_not_depend_on_blas_threads(self, tmp_path):
        # OpenBLAS splits a dot product of more than 10 000 elements across
        # threads, which changes its rounding; the fit must not use one
        rng = np.random.default_rng(11)
        x = np.linspace(-10.0, 10.0, 12_000)
        y = x * 1.0003 + 2e-3 + rng.normal(0.0, 1e-3, x.size)
        csv = tmp_path / "s.csv"
        csv.write_text(
            "v_in,v_out,channel,device\n"
            + "".join(f"{a!r},{b!r},ch0,dev0\n" for a, b in zip(x.tolist(), y.tolist()))
            + "-1,-1.0002,ch1,dev0\n0,0.0001,ch1,dev0\n1,0.9998,ch1,dev0\n"
        )
        fragments = []
        for threads in ("1", "2"):
            out = tmp_path / f"frag{threads}.json"
            subprocess.run(
                [sys.executable, "-m", "sbcpmu.cli", "characterize", "sweep",
                 "--input", str(csv), "--output", str(out)],
                env={**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": threads},
                check=True, capture_output=True, timeout=120,
            )
            fragments.append(out.read_bytes())
        assert fragments[0] == fragments[1]

    @pytest.mark.parametrize("failing", ["fragment", "profile"])
    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch, capsys, failing):
        # a write cut part-way leaves the fragment or the --merge-into profile as it was
        csv = tmp_path / "s.csv"
        csv.write_text("v_in,v_out,channel,device\n-1,-1,ch0,dev0\n0,0,ch0,dev0\n1,1,ch0,dev0\n")
        out, profile = tmp_path / "frag.json", tmp_path / "chain.json"
        out.write_text("{}\n")
        profile.write_text(json.dumps(chain_to_json(paper_profile())))
        before = {p: p.read_bytes() for p in (csv, out, profile)}
        dump = json.dump

        def dump_part(obj, fh, **kwargs):
            if ("kind" in obj) == (failing == "fragment"):
                fh.write(json.dumps(obj, **kwargs)[:50])
                raise OSError(28, "No space left on device")
            dump(obj, fh, **kwargs)

        monkeypatch.setattr(json, "dump", dump_part)
        argv = ["characterize", "sweep", "--input", str(csv), "--output", str(out)]
        assert main(argv + ["--merge-into", str(profile)]) == 4
        assert "No space left on device" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == sorted(before)
        assert profile.read_bytes() == before[profile]
        if failing == "fragment":
            assert out.read_bytes() == before[out]

    def test_counter_by_temperature(self, tmp_path):
        # 2 temperatures x 2 boards, the hotter one first in the file
        counts = {
            (40.0, "b0"): [2000, 2001, 2001, 2000],
            (40.0, "b1"): [1999, 2000, 2000, 2000],
            (20.0, "b0"): [2001, 2002, 2001, 2001],
            (20.0, "b1"): [2000, 2000, 2001, 2000],
        }
        csv = tmp_path / "c.csv"
        csv.write_text(
            "count,device,temperature_c\n"
            + "".join(f"{c},{dev},{t}\n" for (t, dev), cs in counts.items() for c in cs)
        )
        out = tmp_path / "frag.json"
        assert main(["characterize", "counter", "--input", str(csv), "--output", str(out)]) == 0
        frag = json.loads(out.read_text())
        boards = {}
        for (t, _), cs in counts.items():
            res = one_counter_estimate(cs, 100e6, 1.0 / 50e3)
            boards.setdefault(t, []).append(float((res.r_values.mean() - 1.0) * 1e6))
        assert frag["by_temperature_c"] == [
            {
                "temperature_c": t,
                "e_r_ppm_mean": float(np.mean(boards[t])),
                "e_r_ppm_board_std": float(np.std(boards[t], ddof=1)),
            }
            for t in (20.0, 40.0)
        ]
        # unbiased nested split over the temperatures: within plus between
        means = np.array([boards[20.0], boards[40.0]])
        total = math.sqrt(means.var(axis=1, ddof=1).mean() + means.mean(axis=1).var(ddof=1))
        assert frag["e_r_ppm_total_std"] == pytest.approx(total, rel=1e-12)
        assert total > 0

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--known-base-hz", "0", "expected a number > 0, got 0.0"),
            ("--known-base-hz", "nan", "expected a finite number, got nan"),
            ("--known-base-hz", "-1e8", "expected a number > 0, got -100000000.0"),
            ("--nominal-rate-hz", "0", "expected a number > 0, got 0.0"),
            ("--nominal-rate-hz", "inf", "expected a finite number, got inf"),
        ],
    )
    def test_bad_rate_flag_exit(self, tmp_path, capsys, flag, value, message):
        csv = tmp_path / "c.csv"
        csv.write_text("count,device,temperature_c\n2000,dev0,20\n2001,dev0,20\n")
        out = tmp_path / "frag.json"
        argv = ["characterize", "counter", "--input", str(csv), "--output", str(out)]
        assert main(argv + [f"{flag}={value}"]) == 2
        assert f"error: {flag}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("known_base", ["1e-300", "1"])
    def test_too_coarse_reference_exit(self, tmp_path, capsys, known_base):
        # at most one reference period per nominal period: a 100 % per-measurement error
        csv = tmp_path / "c.csv"
        csv.write_text("count,device,temperature_c\n2000,dev0,20\n2001,dev0,20\n")
        out = tmp_path / "frag.json"
        argv = ["characterize", "counter", "--input", str(csv), "--output", str(out)]
        assert main(argv + ["--known-base-hz", known_base]) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: --known-base-hz and --nominal-rate-hz: known_base * nominal_period must be "
            f"> 1, got {float(known_base) * (1 / 50e3)!r}\n"
        )
        assert not out.exists()

    def test_overflowed_reference_periods_exit(self, tmp_path, capsys):
        # 1e300 / 1e-10 reference periods overflow to inf, which would read as a zero error
        csv = tmp_path / "c.csv"
        csv.write_text("count,device,temperature_c\n2000,dev0,20\n2001,dev0,20\n")
        out = tmp_path / "frag.json"
        argv = ["characterize", "counter", "--input", str(csv), "--output", str(out)]
        assert main(argv + ["--known-base-hz", "1e300", "--nominal-rate-hz", "1e-10"]) == 2
        assert capsys.readouterr().err == (
            "error: --known-base-hz and --nominal-rate-hz: known_base * nominal_period must be "
            "finite, got inf\n"
        )
        assert not out.exists()

    def test_schema_mismatch_exit(self, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        csv.write_text("foo,bar\n1,2\n")
        out = tmp_path / "frag.json"
        assert main(["characterize", "sweep", "--input", str(csv), "--output", str(out)]) == 2
        assert "missing required columns" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, text, message",
        [
            (
                "sweep",
                "v_in,v_out,channel,device\n0,0,ch0,dev0\n1,abc,ch0,dev0\n2,2,ch0,dev0\n",
                "line 3: v_out must be a number, got 'abc'",
            ),
            (
                "sweep",
                "v_in,v_out,channel,device\n0,0,ch0,dev0\n1,1,ch0\n2,2,ch0,dev0\n",
                "line 3: no device column (3 fields)",
            ),
            ("sweep", "v_in,v_out,channel,device\n", "no data rows"),
            (
                "sweep",
                "v_in,v_out,channel,device\n0,0,ch0,dev0\n1,1,ch0,dev0\n",
                "device 'dev0' channel 'ch0': need at least 3 sweep points",
            ),
            (
                "sweep",
                "v_in,v_out,channel,device\n1,0,ch0,dev0\n1,1,ch0,dev0\n1,2,ch0,dev0\n",
                "device 'dev0' channel 'ch0': sweep input is constant; "
                "regressor matrix is rank deficient",
            ),
            (
                "counter",
                "count,device,temperature_c\n2000,dev0,20\n2000,dev0,hot\n",
                "line 3: temperature_c must be a finite number or blank, got 'hot'",
            ),
            ("counter", "count,device,temperature_c\n", "no data rows"),
            (
                "counter",
                "count,device,temperature_c\n2000,dev0,20\n0,dev0,20\n",
                "line 3: count must be a finite number > 0, got 0.0",
            ),
            (
                "counter",
                "count,device\n-3,dev0\n",
                "line 2: count must be a finite number > 0, got -3.0",
            ),
            (
                "delay",
                "count,delay_us,profile\n-659,,idle\n",
                "line 2: count must be a finite number >= 0, got -659.0",
            ),
            (
                "delay",
                "count,delay_us,profile\n659,,idle\n,fast,idle\n",
                "line 3: delay_us must be a number, got 'fast'",
            ),
            (
                "delay",
                "delay_us,profile\n6.5,idle\n7.25,idle\n4.0,cpu\n",
                "profile 'cpu': need at least 2 samples",
            ),
            # after a run of three rows a bad cell names its own line, not its run's
            (
                "sweep",
                "v_in,v_out,channel,device\n0,0,ch0,dev0\n1,1,ch0,dev0\n2,2,ch0,dev0\n0,inf,ch1,dev0\n",
                "line 5: v_out must be a finite number, got inf",
            ),
            (
                "counter",
                "count,device,temperature_c\n2000,B0,20\n2000,B0,20\n2000,B0,20\n2000,B0,abc\n",
                "line 5: temperature_c must be a finite number or blank, got 'abc'",
            ),
            (
                "counter",
                "count,device,temperature_c\n2000,B0,20\n2000,B0,20\n2000,B0,20\n-5,B1,20\n",
                "line 5: count must be a finite number > 0, got -5.0",
            ),
            (
                "delay",
                "delay_us,profile\n6.5,idle\n7.25,idle\n6.75,idle\ninf,cpu\n",
                "line 5: delay_us must be a finite number, got inf",
            ),
            (
                "delay",
                "count,delay_us,profile\n659,,idle\n659,,idle\n659,,idle\n-659,,cpu\n",
                "line 5: count must be a finite number >= 0, got -659.0",
            ),
            (
                "sweep",
                "v_in,v_out,channel,device,v_out\n0,0,ch0,dev0,0\n1,1,ch0,dev0,2\n2,2,ch0,dev0,4\n",
                "column 'v_out' appears more than once in the header",
            ),
        ],
    )
    def test_malformed_csv_exit(self, tmp_path, capsys, kind, text, message):
        csv = tmp_path / "bad.csv"
        csv.write_text(text)
        out = tmp_path / "frag.json"
        assert main(["characterize", kind, "--input", str(csv), "--output", str(out)]) == 2
        assert f"error: {csv}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, text",
        [
            ("sweep", b"v_in,v_out,channel,device\n0,0,ch0,dev0\n1,1,ch0,d\xe4v0\n"),
            ("counter", b"count,device,temperature_c\n2000,dev0,20\n2000,d\xe4v0,20\n"),
            ("delay", b"count,profile\n659,idle\n659,l\xe4st\n"),
            # in a number cell, and in a column no reader uses
            ("sweep", b"v_in,v_out,channel,device\n0,0,ch0,dev0\n1,1\xe4,ch0,dev0\n"),
            ("delay", b"delay_us,profile,note\n6.5,idle,ok\n6.5,idle,n\xe4\n"),
        ],
    )
    def test_not_utf8_csv_exit(self, tmp_path, capsys, kind, text):
        csv = tmp_path / "latin1.csv"
        csv.write_bytes(text)
        out = tmp_path / "frag.json"
        assert main(["characterize", kind, "--input", str(csv), "--output", str(out)]) == 2
        assert f"error: {csv}: line 3: not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["sweep", "counter", "delay"])
    def test_nul_byte_csv_exit(self, tmp_path, capsys, kind):
        # a NUL would end a raw-bytes label early and merge two groups
        header = {"sweep": "v_in,v_out,channel,device", "counter": "count,device", "delay": "count,profile"}
        row = {"sweep": "1,1,ch0,dev", "counter": "2000,dev", "delay": "659,dev"}[kind]
        csv = tmp_path / "nul.csv"
        csv.write_text(f"{header[kind]}\n{row}0\n{row}0\n{row}0\n{row}\x000\n")
        out = tmp_path / "frag.json"
        assert main(["characterize", kind, "--input", str(csv), "--output", str(out)]) == 2
        assert f"error: {csv}: line 5: NUL byte" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, text",
        [
            ("sweep", "v_in,v_out,channel,device\n0,0.1,ch0,dev0\n1,1.1,ch0,dev0\n2,2.2,ch0,dev0\n"),
            ("counter", "temperature_c,device,count\n20,dev0,2000\n20,dev0,1999\n,dev1,2001\n"),
            ("delay", "delay_us,profile\n6.5,idle\n7.25,idle\n4.0,cpu\n4.5,cpu\n"),
        ],
    )
    def test_byte_order_mark_csv(self, tmp_path, kind, text):
        # Excel's "CSV UTF-8" starts the file with a BOM; the first column keeps its name
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        bom.write_text(text, encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        for csv in (plain, bom):
            argv = ["characterize", kind, "--input", str(csv), "--output", str(csv.with_suffix(".json"))]
            assert main(argv) == 0
        assert (tmp_path / "bom.json").read_bytes() == (tmp_path / "plain.json").read_bytes()

    @pytest.mark.parametrize("eol", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_line_ends_give_the_same_fragment(self, tmp_path, eol):
        rows = "".join(f"{v},{1.001 * v + 0.002},ch{v % 2},dev0\n" for v in range(8))
        text = "v_in,v_out,channel,device\n" + rows
        plain, other = tmp_path / "plain.csv", tmp_path / "other.csv"
        plain.write_bytes(text.encode())
        other.write_bytes(text.replace("\n", eol).encode())
        for csv in (plain, other):
            argv = ["characterize", "sweep", "--input", str(csv), "--output", str(csv.with_suffix(".json"))]
            assert main(argv) == 0
        assert (tmp_path / "other.json").read_bytes() == (tmp_path / "plain.json").read_bytes()

    def test_sweep_per_channel_key_clash_exit(self, tmp_path, capsys):
        # device "a/b" channel "c" and device "a" channel "b/c" would both be "a/b/c"
        rows = "".join(f"{v},{v},c,a/b\n{v},{2 * v},b/c,a\n" for v in range(3))
        csv = tmp_path / "sweep.csv"
        csv.write_text("v_in,v_out,channel,device\n" + rows)
        out = tmp_path / "frag.json"
        assert main(["characterize", "sweep", "--input", str(csv), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert (
            f"error: {csv}: device 'a' channel 'b/c' and device 'a/b' channel 'c' "
            "share the per_channel key 'a/b/c'"
        ) in err
        assert not out.exists()

    def test_merge_into_profile(self, tmp_path):
        profile = tmp_path / "chain.json"
        assert main(["profile", "show", "paper"]) == 0
        import sbcpmu.blocks as blocks

        blocks.save_profile(blocks.paper_profile(), profile)
        csv = tmp_path / "s.csv"
        csv.write_text(
            "v_in,v_out,channel,device\n-1,-0.999,ch0,dev0\n0,0.001,ch0,dev0\n1,1.001,ch0,dev0\n"
        )
        out = tmp_path / "frag.json"
        assert (
            main(
                [
                    "characterize", "sweep", "--input", str(csv), "--output", str(out),
                    "--merge-into", str(profile),
                ]
            )
            == 0
        )
        merged = json.loads(profile.read_text())
        assert merged["adc"]["offset_uv"]["mean"] == pytest.approx(1000.0, rel=1e-6)

    def test_merge_delay_profile_with_mode_above_mean(self, tmp_path):
        # two near-normal profiles; the second one's histogram mode lies above its mean
        rng = np.random.default_rng(3)
        csv = tmp_path / "d.csv"
        write_delay_csv(csv, {name: rng.normal(6.0, 0.5, 5000) for name in ("io", "cpu")})
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps(chain_to_json(paper_profile())))
        out = tmp_path / "frag.json"
        args = ["characterize", "delay", "--input", str(csv), "--output", str(out)]
        assert main(args + ["--merge-into", str(profile)]) == 0
        cpu = json.loads(out.read_text())["profiles"]["cpu"]
        assert cpu["mode_us"] > cpu["mean_us"]
        # the fragment records the mode; the profile takes only what the model reads
        merged = json.loads(profile.read_text())["pll"]["profiles"]["cpu"]
        keys = ("min_us", "max_us", "mean_us", "std_us")
        assert merged == pytest.approx({"family": "shifted-gamma", **{k: cpu[k] for k in keys}})

    def test_merge_into_malformed_profile_exit(self, tmp_path, capsys):
        profile = tmp_path / "chain.json"
        profile.write_text("{bad")
        csv = tmp_path / "s.csv"
        csv.write_text("v_in,v_out,channel,device\n-1,-1,ch0,dev0\n0,0,ch0,dev0\n1,1,ch0,dev0\n")
        out = tmp_path / "frag.json"
        args = ["characterize", "sweep", "--input", str(csv), "--output", str(out)]
        assert main(args + ["--merge-into", str(profile)]) == 2
        assert f"{profile}: line 1:" in capsys.readouterr().err
        assert profile.read_text() == "{bad"


class TestReport:
    def test_empty_dir(self, tmp_path):
        assert main(["report", str(tmp_path)]) == 2

    def test_reads_only_the_manifest(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        write_config(p)
        assert main(["simulate", "--config", str(p)]) == 0
        run = tmp_path / "run"
        manifest = json.loads((run / "manifest.json").read_text())
        rows = (run / "summary.csv").read_text().splitlines()[1:]
        worst = max(float(row.split(",")[1]) for row in rows)
        assert manifest["max_mean_tve"] == worst  # bit for bit
        capsys.readouterr()
        assert main(["report", str(run)]) == 0
        with_summary = capsys.readouterr().out
        (run / "summary.csv").unlink()
        assert main(["report", str(run)]) == 0
        assert capsys.readouterr().out == with_summary
        assert f"{worst * 100:.4f} %" in with_summary.splitlines()[-2]

    @pytest.mark.parametrize(
        "manifest, message",
        [
            ([], "manifest: expected an object, got an array"),
            ({}, "scenario_hash: missing"),
            (
                {k: v for k, v in RUN_MANIFEST.items() if k != "max_mean_tve"},
                "max_mean_tve: missing",
            ),
            ({**RUN_MANIFEST, "grand_mean_tve": "abc"}, "grand_mean_tve: expected a number, got a string"),
            ({**RUN_MANIFEST, "grand_mean_tve": None}, "grand_mean_tve: expected a number, got null"),
            ({**RUN_MANIFEST, "grand_mean_tve": math.nan}, "grand_mean_tve: expected a finite number, got nan"),
            ({**RUN_MANIFEST, "scenario_hash": 5}, "scenario_hash: expected a string, got a number"),
            ({**RUN_MANIFEST, "trials": True}, "trials: expected an integer >= 0, got True"),
            ({**RUN_MANIFEST, "compensated": "no"}, "compensated: expected a boolean, got a string"),
        ],
        ids=["array", "empty", "no-max_mean_tve", "text", "null", "nan", "hash", "bool-trials", "text-bool"],
    )
    def test_malformed_manifest_exit(self, tmp_path, capsys, manifest, message):
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        assert main(["report", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path / 'manifest.json'}: {message}\n"
        assert not (tmp_path / "report.txt").exists()

    def test_unparsable_manifest_names_the_file_once(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text("{bad")
        assert main(["report", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: line 1: ")
        assert err.count(str(path)) == 1

    @pytest.mark.parametrize("key", _MANIFEST)
    def test_manifest_lacking_a_key_exit(self, tmp_path, capsys, key):
        manifest = {k: v for k, v in RUN_MANIFEST.items() if k != key}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        assert main(["report", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path / 'manifest.json'}: {key}: missing\n"
        assert not (tmp_path / "report.txt").exists()

    def test_well_formed_manifest(self, tmp_path, capsys):
        (tmp_path / "manifest.json").write_text(json.dumps(RUN_MANIFEST))
        assert main(["report", str(tmp_path)]) == 0
        rows = (tmp_path / "report.txt").read_text().splitlines()
        assert rows[0] == "run: 0123456789ab chain_sha256=fedcba987654"
        assert rows[-3].split() == ["TVE", "grand", "mean", "0.2333", "%", "1", "%", "PASS"]
        assert rows[-2].split()[5:] == ["0.4000", "%", "1", "%", "PASS"]


class TestProfileCmd:
    def test_show_and_merge(self, tmp_path, capsys):
        assert main(["profile", "show", "paper"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["adc"]["gain_err_ppm"]["mean"] == -4459.0
        frag = tmp_path / "frag.json"
        frag.write_text(json.dumps({"adc": {"gain_err_ppm": {"mean": -1000.0}}}))
        base = tmp_path / "base.json"
        base.write_text(json.dumps(shown))
        out = tmp_path / "merged.json"
        assert main(["profile", "merge", str(base), str(frag), "--out", str(out)]) == 0
        merged = json.loads(out.read_text())
        assert merged["adc"]["gain_err_ppm"]["mean"] == -1000.0
        # untouched fields survive the merge
        assert merged["timebase"]["e_r_ppm"]["mean"] == -16.02

    def test_show_not_utf8_profile_exit(self, tmp_path, capsys):
        profile = tmp_path / "latin1.json"
        profile.write_bytes(b'{\n  "name": "pr\xe4zise"\n}\n')
        assert main(["profile", "show", str(profile)]) == 2
        assert f"error: {profile}: line 2: not UTF-8 text" in capsys.readouterr().err

    def test_show_impossible_delay_exit(self, tmp_path, capsys):
        profile = tmp_path / "chain.json"
        profile.write_text(json.dumps({"pll": {"delay": IMPOSSIBLE_TRUNCATED_NORMAL}}))
        assert main(["profile", "show", str(profile)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {profile}: pll.delay: truncated-normal support [100, 101] µs holds no "
            "representable mass of the normal with mean 0 µs and std 1 µs\n"
        )

    def test_show_unordered_histogram_exit(self, tmp_path, capsys):
        profile = tmp_path / "chain.json"
        profile.write_text(json.dumps({"pll": {"delay": UNORDERED_HISTOGRAM}}))
        assert main(["profile", "show", str(profile)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {profile}: pll.delay: histogram bin_edges_us must increase strictly, "
            "got 8 / 6 / 4 / 5 µs\n"
        )

    @pytest.mark.parametrize("key", ["mode_us", "mode_std_us"])
    def test_show_legacy_delay_key(self, tmp_path, capsys, key):
        # a delay fragment records these; a profile saved by an earlier version held them
        stats = {
            "family": "shifted-gamma", "min_us": 3.0, "max_us": 9.0,
            "mean_us": 4.0, "std_us": 0.7, key: 3.9,
        }
        profile = tmp_path / "chain.json"
        profile.write_text(json.dumps({"pll": {"profiles": {"rt": stats}}}))
        assert main(["profile", "show", str(profile)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {profile}: pll.profiles.rt.{key}: unknown key")

    def test_merge_characterize_fragment(self, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(chain_to_json(paper_profile())))
        frag = tmp_path / "frag.json"
        frag.write_text(
            json.dumps({"kind": "counter", "profile": {"timebase": {"e_r_ppm": {"mean": -1.0}}}})
        )
        out = tmp_path / "merged.json"
        assert main(["profile", "merge", str(base), str(frag), "--out", str(out)]) == 0
        merged = json.loads(out.read_text())
        assert merged["timebase"]["e_r_ppm"] == {"mean": -1.0, "std": 3.67}
        assert merged["adc"]["gain_err_ppm"]["mean"] == -4459.0

    @pytest.mark.parametrize("command", ["profile-merge", "characterize-merge-into"])
    def test_merge_delay_fragment(self, tmp_path, command):
        # each fitted profile replaces its entry as a whole, as shifted-gamma; the others survive
        rng = np.random.default_rng(1)
        csv = tmp_path / "d.csv"
        write_delay_csv(
            csv, {"cpu": 3.2 + rng.gamma(3.6, 0.3, 1000), "rt": 2.0 + rng.gamma(3.6, 0.2, 1000)}
        )
        shown = chain_to_json(paper_profile())
        shown["pll"]["profiles"]["cpu"] = {
            "family": "truncated-normal", "min_us": 3.0, "max_us": 9.0, "mean_us": 4.0, "std_us": 0.7,
        }
        base = tmp_path / "base.json"
        base.write_text(json.dumps(shown))
        frag, out = tmp_path / "frag.json", tmp_path / "merged.json"
        characterize = ["characterize", "delay", "--input", str(csv), "--output", str(frag)]
        if command == "profile-merge":
            assert main(characterize) == 0
            assert main(["profile", "merge", str(base), str(frag), "--out", str(out)]) == 0
        else:
            out.write_text(base.read_text())
            assert main(characterize + ["--merge-into", str(out)]) == 0
        fitted = json.loads(frag.read_text())["profiles"]
        merged = json.loads(out.read_text())["pll"]["profiles"]
        keys = ("min_us", "max_us", "mean_us", "std_us")
        for name in ("cpu", "rt"):
            want = {"family": "shifted-gamma", **{k: fitted[name][k] for k in keys}}
            assert merged[name] == pytest.approx(want)
        for name in ("idle", "io", "hdd", "vm"):
            assert merged[name] == pytest.approx(shown["pll"]["profiles"][name])

    def test_merge_counter_fragment_by_temperature(self, tmp_path):
        # 2 temperatures x 2 boards: the fragment sets the overall std and replaces the grid
        csv = tmp_path / "c.csv"
        csv.write_text(
            "count,device,temperature_c\n"
            + "".join(
                f"{c},b{b},{t}\n" for t in (20.0, 40.0) for b in range(2) for c in (2000 + b, 2001, 2001 - b)
            )
        )
        frag, out = tmp_path / "frag.json", tmp_path / "merged.json"
        assert main(["characterize", "counter", "--input", str(csv), "--output", str(frag)]) == 0
        fitted = json.loads(frag.read_text())
        assert main(["profile", "merge", "paper", str(frag), "--out", str(out)]) == 0
        timebase = json.loads(out.read_text())["timebase"]
        assert timebase["e_r_ppm"] == pytest.approx(
            {"mean": fitted["e_r_ppm_mean"], "std": fitted["e_r_ppm_total_std"]}
        )
        rows = [
            [e["temperature_c"], e["e_r_ppm_mean"], e["e_r_ppm_board_std"]]
            for e in fitted["by_temperature_c"]
        ]
        assert [t for t, _, _ in rows] == [20.0, 40.0]
        assert timebase["by_temperature_c"] == [pytest.approx(row) for row in rows]

    @pytest.mark.parametrize("kind", ["sweep", "counter", "delay"])
    def test_merge_paths_agree(self, tmp_path, kind):
        # characterize --merge-into, profile merge of the fragment and profile merge of its
        # profile saved as a partial profile write the same bytes, and drop no fitted value
        csv = tmp_path / f"{kind}.csv"
        if kind == "sweep":  # 2 devices x 2 channels
            csv.write_text(
                "v_in,v_out,channel,device\n"
                + "".join(
                    f"{x},{g * x + 1e-3 * (d + c) + e},c{c},d{d}\n"
                    for d, c, g in ((0, 0, 1.0002), (0, 1, 0.9995), (1, 0, 1.0011), (1, 1, 1.0004))
                    for x, e in zip((-1, 0, 1, 2), (1e-4, -2e-4, 0.0, 1e-4))
                )
            )
        elif kind == "counter":  # 2 temperatures x 2 boards
            csv.write_text(
                "count,device,temperature_c\n"
                + "".join(
                    f"{c},b{b},{t}\n"
                    for t in (20.0, 40.0) for b in range(2) for c in (2000 + b, 2001, 2001 - b)
                )
            )
        else:
            write_delay_csv(csv, {"rt": np.array([4.1, 4.6, 5.2, 4.4]), "io": np.array([6.0, 6.5, 7.3])})
        base, into = tmp_path / "base.json", tmp_path / "into.json"
        base.write_text(json.dumps(chain_to_json(paper_profile())))
        into.write_text(base.read_text())
        frag, partial = tmp_path / "frag.json", tmp_path / "partial.json"
        argv = ["characterize", kind, "--input", str(csv), "--output", str(frag)]
        assert main(argv + ["--merge-into", str(into)]) == 0
        fitted = json.loads(frag.read_text())["profile"]
        partial.write_text(json.dumps(fitted))
        for source in (frag, partial):
            out = tmp_path / f"merged-{source.name}"
            assert main(["profile", "merge", str(base), str(source), "--out", str(out)]) == 0
            assert out.read_bytes() == into.read_bytes(), source.name
        merged = flat(json.loads(into.read_text()))
        for path, value in flat(fitted).items():
            # the profile reader holds delays in seconds, so µs values may move in the last bit
            want = pytest.approx(value, rel=1e-12) if path.startswith("pll.") else value
            assert merged[path] == want, path

    @pytest.mark.parametrize(
        "temperatures", [("25", "25"), (None, None), ("25", "")], ids=["one", "none", "one-and-blank"]
    )
    def test_merge_counter_spread_of_all_boards(self, tmp_path, capsys, temperatures):
        # two boards at about -5 and +5 ppm (2e6 reference periods per nominal period) at
        # fewer than two temperatures: the merge writes the sample std of their means, not
        # the base's 3.67 ppm, and no temperature row of the base survives
        counts = {"b0": [1999990, 1999991, 1999989], "b1": [2000010, 2000009, 2000011]}
        csv = tmp_path / "c.csv"
        if temperatures[0] is None:  # no temperature_c column
            csv.write_text("count,device\n" + "".join(f"{c},{b}\n" for b in counts for c in counts[b]))
        else:
            csv.write_text(
                "count,device,temperature_c\n"
                + "".join(f"{c},{b},{t}\n" for b, t in zip(counts, temperatures) for c in counts[b])
            )
        profile = tmp_path / "chain.json"
        profile.write_text(json.dumps(chain_to_json(paper_profile())))
        frag = tmp_path / "frag.json"
        argv = ["characterize", "counter", "--input", str(csv), "--output", str(frag)]
        assert main(argv + ["--nominal-rate-hz", "50", "--merge-into", str(profile)]) == 0
        fitted = json.loads(frag.read_text())
        means = [(np.mean(cs) / 2e6 - 1.0) * 1e6 for cs in counts.values()]
        assert fitted["e_r_ppm_total_std"] == pytest.approx(np.std(means, ddof=1), rel=1e-9)
        assert fitted["e_r_ppm_total_std"] == pytest.approx(7.07, abs=0.01)
        timebase = json.loads(profile.read_text())["timebase"]
        assert timebase["e_r_ppm"] == {
            "mean": fitted["e_r_ppm_mean"], "std": fitted["e_r_ppm_total_std"],
        }
        # a temperature of one board (b0 at 25 C beside a blank b1) takes the spread of every board
        spread = fitted["e_r_ppm_total_std"]
        rows = [
            [e["temperature_c"], e["e_r_ppm_mean"], e.get("e_r_ppm_board_std", spread)]
            for e in fitted.get("by_temperature_c", [])
        ]
        assert timebase["by_temperature_c"] == rows
        assert len(rows) == (temperatures[0] is not None)
        if not rows:  # a temperature scenario finds no grid rather than the paper's boards
            config = tmp_path / "cfg.json"
            write_config(config, chain_profile=str(profile), temperature_c=20.0)
            assert main(["simulate", "--config", str(config)]) == 2
            assert "is off timebase.by_temperature_c (empty)" in capsys.readouterr().err

    def test_merge_counter_one_board_keeps_base_spread(self, tmp_path):
        # one board fits no spread: the merge keeps the base's e_r std
        csv = tmp_path / "c.csv"
        csv.write_text("count,device\n2000,b0\n2001,b0\n2000,b0\n")
        profile = tmp_path / "chain.json"
        profile.write_text(json.dumps(chain_to_json(paper_profile())))
        frag = tmp_path / "frag.json"
        argv = ["characterize", "counter", "--input", str(csv), "--output", str(frag)]
        assert main(argv + ["--merge-into", str(profile)]) == 0
        fitted = json.loads(frag.read_text())
        assert "e_r_ppm_total_std" not in fitted
        assert fitted["profile"]["timebase"] == {
            "e_r_ppm": {"mean": fitted["e_r_ppm_mean"]}, "by_temperature_c": [],
        }
        timebase = json.loads(profile.read_text())["timebase"]
        assert timebase == {"e_r_ppm": {"mean": fitted["e_r_ppm_mean"], "std": 3.67}, "by_temperature_c": []}

    def test_merge_counter_one_board_temperature_takes_pooled_spread(self, tmp_path):
        # boards at -5 and +5 ppm at 0 C and -5 ppm alone at 25 C: the 25 C row takes the
        # pooled board spread of 0 C, 7.071 ppm, and that board adds no zero within-variance
        # to the total, 7.906 ppm
        ppm = {("0", "b0"): -5, ("0", "b1"): 5, ("25", "b2"): -5}
        csv = tmp_path / "c.csv"
        csv.write_text(
            "count,device,temperature_c\n"
            + "".join(f"{2_000_000 + 2 * e},{b},{t}\n" * 10_000 for (t, b), e in ppm.items())
        )
        profile = tmp_path / "chain.json"
        profile.write_text(json.dumps(chain_to_json(paper_profile())))
        frag = tmp_path / "frag.json"
        argv = ["characterize", "counter", "--input", str(csv), "--output", str(frag)]
        assert main(argv + ["--nominal-rate-hz", "50", "--merge-into", str(profile)]) == 0
        fitted = json.loads(frag.read_text())
        assert [e.get("e_r_ppm_board_std") for e in fitted["by_temperature_c"]] == [
            pytest.approx(math.sqrt(50.0), rel=1e-9), None,
        ]
        timebase = json.loads(profile.read_text())["timebase"]
        assert timebase["by_temperature_c"] == [
            [0.0, pytest.approx(0.0, abs=1e-9), pytest.approx(math.sqrt(50.0), rel=1e-9)],
            [25.0, pytest.approx(-5.0, rel=1e-9), pytest.approx(math.sqrt(50.0), rel=1e-9)],
        ]
        # within 50 ppm^2 from 0 C alone, between 12.5 ppm^2 of the means 0 and -5
        assert fitted["e_r_ppm_total_std"] == pytest.approx(math.sqrt(62.5), rel=1e-9)
        assert timebase["e_r_ppm"]["std"] == fitted["e_r_ppm_total_std"]

    def test_merge_counter_one_board_at_a_temperature(self, tmp_path, capsys):
        # one board fits no spread even at a temperature: no rows, the base's e_r std is
        # kept, and a temperature scenario on the merged profile finds no grid
        csv = tmp_path / "c.csv"
        csv.write_text("count,device,temperature_c\n2000,b0,25\n2001,b0,25\n2000,b0,25\n")
        profile = tmp_path / "chain.json"
        profile.write_text(json.dumps(chain_to_json(paper_profile())))
        frag = tmp_path / "frag.json"
        argv = ["characterize", "counter", "--input", str(csv), "--output", str(frag)]
        assert main(argv + ["--merge-into", str(profile)]) == 0
        fitted = json.loads(frag.read_text())
        assert fitted["by_temperature_c"] == [
            {"temperature_c": 25.0, "e_r_ppm_mean": fitted["e_r_ppm_mean"]}
        ]
        assert fitted["profile"]["timebase"]["by_temperature_c"] == []
        timebase = json.loads(profile.read_text())["timebase"]
        assert timebase == {"e_r_ppm": {"mean": fitted["e_r_ppm_mean"], "std": 3.67}, "by_temperature_c": []}
        config = tmp_path / "cfg.json"
        write_config(config, chain_profile=str(profile))
        capsys.readouterr()
        assert main(["simulate", "--config", str(config), "--temperature-c", "25"]) == 2
        assert "is off timebase.by_temperature_c (empty)" in capsys.readouterr().err

    def test_merge_rejects_unknown_keys(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(chain_to_json(paper_profile())))
        frag = tmp_path / "frag.json"
        frag.write_text(json.dumps({"e_r_ppm_mean": -1.0, "adc": {"bits": 12}}))
        out = tmp_path / "merged.json"
        assert main(["profile", "merge", str(base), str(frag), "--out", str(out)]) == 2
        assert "e_r_ppm_mean" in capsys.readouterr().err
        assert not out.exists()

    def merge(self, tmp_path, fragment):
        frag = tmp_path / "frag.json"
        frag.write_text(fragment if isinstance(fragment, str) else json.dumps(fragment))
        out = tmp_path / "merged.json"
        code = main(["profile", "merge", "paper", str(frag), "--out", str(out)])
        return code, out

    @pytest.mark.parametrize(
        "fragment, path",
        [
            ({"adc": {"bitz": 12}}, "adc.bitz"),
            ({"timebase": {"e_r_ppm": {"mean": -1.0, "sd": 2.0}}}, "timebase.e_r_ppm.sd"),
        ],
    )
    def test_merge_rejects_unknown_nested_key(self, tmp_path, capsys, fragment, path):
        code, out = self.merge(tmp_path, fragment)
        assert code == 2
        assert path in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_key_every_load_path(self, tmp_path, capsys):
        profile = tmp_path / "chain.json"
        shown = chain_to_json(paper_profile())
        shown["adc"]["bitz"] = 12
        profile.write_text(json.dumps(shown))
        frag = tmp_path / "frag.json"
        frag.write_text(json.dumps({"adc": {"noise_rms_uv": 1.0}}))
        csv = tmp_path / "s.csv"
        csv.write_text("v_in,v_out,channel,device\n-1,-1,ch0,dev0\n0,0,ch0,dev0\n1,1,ch0,dev0\n")
        out = tmp_path / "out.json"
        for argv in (
            ["profile", "show", str(profile)],
            ["profile", "merge", str(profile), str(frag), "--out", str(out)],
            [
                "characterize", "sweep", "--input", str(csv), "--output", str(out),
                "--merge-into", str(profile),
            ],
        ):
            capsys.readouterr()
            assert main(argv) == 2, argv
            assert f"{profile}: adc.bitz: unknown key" in capsys.readouterr().err

    def test_merge_accepts_new_pll_profile(self, tmp_path):
        stats = {
            "family": "shifted-gamma", "min_us": 3.0, "max_us": 9.0,
            "mean_us": 4.0, "std_us": 0.7,
        }
        code, out = self.merge(tmp_path, {"pll": {"profiles": {"rt": stats}}})
        assert code == 0
        merged = json.loads(out.read_text())
        assert merged["pll"]["profiles"]["rt"] == pytest.approx(stats)
        assert set(merged["pll"]["profiles"]) >= {"idle", "vm", "rt"}

    def test_merge_accepts_scalar_term(self, tmp_path):
        code, out = self.merge(tmp_path, {"adc": {"gain_err_ppm": 5.0}})
        assert code == 0
        merged = json.loads(out.read_text())
        assert merged["adc"]["gain_err_ppm"] == {"mean": 5.0, "std": 0.0}

    @pytest.mark.parametrize(
        "fragment, message",
        [
            (
                {"kind": "sweep", "profile": {"adc": {"offset_uv": [1.0]}}},
                "adc.offset_uv: expected a number, got an array",
            ),
            (
                {"kind": "delay", "profile": {"pll": {"profiles": [1]}}},
                "pll.profiles: expected an object, got an array",
            ),
            (
                {"kind": "counter", "profile": {"timebase": {"by_temperature_c": [1]}}},
                "timebase.by_temperature_c[0]: expected an array, got a number",
            ),
            ({"kind": "counter", "profile": 5}, "profile: expected an object, got a number"),
        ],
        ids=["sweep", "delay", "counter", "profile"],
    )
    def test_merge_wrong_fragment_type_exit(self, tmp_path, capsys, fragment, message):
        code, out = self.merge(tmp_path, fragment)
        assert code == 2
        assert f"frag.json: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "fragment, message",
        [
            (
                {"kind": "spectrum", "profile": {"spectrum": {"peak_hz": 50.0}}},
                "spectrum: unknown key",
            ),
            (  # a row without its board std
                {"kind": "counter", "profile": {"timebase": {"by_temperature_c": [[25.0, -1.0]]}}},
                "timebase.by_temperature_c[0]: expected [temperature_c, mean_ppm, std_ppm]",
            ),
            (  # written before fragments carried the profile they fit
                {"kind": "counter", "e_r_ppm_mean": -1.0},
                "profile: missing; run characterize again",
            ),
        ],
        ids=["unknown-kind", "lacking-field", "without-profile"],
    )
    def test_merge_unmergeable_fragment_exit(self, tmp_path, capsys, fragment, message):
        code, out = self.merge(tmp_path, fragment)
        assert code == 2
        assert f"frag.json: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_merge_delay_over_histogram_entry_exit(self, tmp_path, capsys):
        # a fitted entry overlays its same-named entry key by key, so a base
        # histogram would be left under a shifted-gamma family: named, not dropped
        base = chain_to_json(paper_profile())
        base["pll"]["profiles"]["rt"] = {
            "family": "empirical-histogram",
            "histogram": {"bin_edges_us": [4, 5, 6], "counts": [3, 5]},
        }
        profile = tmp_path / "base.json"
        profile.write_text(json.dumps(base))
        csv = tmp_path / "d.csv"
        write_delay_csv(csv, {"rt": np.array([4.1, 4.6, 5.2, 4.4])})
        frag = tmp_path / "frag.json"
        argv = ["characterize", "delay", "--input", str(csv), "--output", str(frag)]
        assert main(argv + ["--merge-into", str(profile)]) == 2
        assert f"error: {frag}: pll.profiles.rt: a shifted-gamma delay takes no histogram" in (
            capsys.readouterr().err
        )
        assert json.loads(profile.read_text()) == base

    def test_merge_malformed_fragment_exit(self, tmp_path, capsys):
        code, out = self.merge(tmp_path, "{bad")
        assert code == 2
        assert "frag.json: line 1:" in capsys.readouterr().err
        assert not out.exists()
        code, out = self.merge(tmp_path, [{"adc": {}}])
        assert code == 2
        assert "JSON object" in capsys.readouterr().err


def child(args, env=(), **kwargs) -> subprocess.CompletedProcess:
    """``python ARGS`` on this checkout, with block-buffered stdout as in a shell pipeline.

    ``env`` adds to the environment; PYTHONUNBUFFERED in it unbuffers stdout again.
    """
    base = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run(
        [sys.executable, *map(str, args)], env={**base, "PYTHONPATH": SRC, **dict(env)},
        text=True, timeout=120, **kwargs,
    )


def written_run(tmp_path) -> Path:
    """A run directory holding ``RUN_MANIFEST``, enough for ``report``."""
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "manifest.json").write_text(json.dumps(RUN_MANIFEST))
    return tmp_path / "run"


def cli_process(*argv) -> subprocess.CompletedProcess:
    """``python -m sbcpmu.cli ARGV``, its output captured."""
    return child(["-m", "sbcpmu.cli", *argv], capture_output=True)


class TestProcess:
    """The process entry: ``run()`` ends the process without interpreter teardown."""

    def test_good_simulate_and_report_write_all_of_stdout(self, tmp_path):
        p = tmp_path / "cfg.json"
        write_config(p)
        sim = cli_process("simulate", "--config", p)
        assert (sim.returncode, sim.stderr) == (0, "")
        lines = sim.stdout.splitlines()
        assert lines[0] == f"run written to {tmp_path / 'run'}"
        assert [line.split(":")[0] for line in lines[1:]] == ["grand mean TVE", "FE (expected)"]
        rep = cli_process("report", tmp_path / "run")
        assert (rep.returncode, rep.stderr) == (0, "")
        assert rep.stdout == (tmp_path / "run" / "report.txt").read_text()
        assert rep.stdout.splitlines()[-1].startswith("FE")

    def test_bad_config_exits_2(self, tmp_path):
        p = tmp_path / "cfg.json"
        write_config(p, run={"trials": 0, "seed": 7})
        proc = cli_process("simulate", "--config", p)
        assert proc.returncode == 2
        assert proc.stderr == f"error: {p}: run.trials: expected an integer >= 1, got 0\n"

    def test_guard_violation_exits_3(self, tmp_path):
        p = tmp_path / "cfg.json"
        profile = tmp_path / "chain.json"
        profile.write_text(json.dumps({"timebase": {"e_r_ppm": {"mean": 500.0, "std": 0.0}}}))
        write_config(p, chain_profile=str(profile))
        proc = cli_process("simulate", "--config", p)
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: ") and "trial" in proc.stderr

    def test_unwritable_output_exits_4(self, tmp_path):
        # the run directory would lie below a regular file
        (tmp_path / "file").write_text("")
        p = tmp_path / "cfg.json"
        write_config(p, output_dir=str(tmp_path / "file" / "run"))
        proc = cli_process("simulate", "--config", p)
        assert proc.returncode == 4
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr

    def test_usage_error_exits_2(self):
        proc = cli_process("simulate")
        assert proc.returncode == 2
        assert "the following arguments are required: --config" in proc.stderr

    def test_atexit_callbacks_run(self, tmp_path):
        rundir = written_run(tmp_path)
        code = (
            "import atexit, runpy, sys\n"
            "atexit.register(print, 'atexit callback ran')\n"
            f"sys.argv = ['sbcpmu', 'report', {str(rundir)!r}]\n"
            "runpy.run_module('sbcpmu.cli', run_name='__main__')\n"
        )
        proc = child(["-c", code], capture_output=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("run: 0123456789ab")
        assert proc.stdout.endswith("\natexit callback ran\n")

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_pipe_exits_4_without_traceback(self, tmp_path, unbuffered):
        # buffered, the write fails in run()'s flush; unbuffered, in main()'s print
        rundir = written_run(tmp_path)
        read, write = os.pipe()
        os.close(read)  # the reader has gone before the first write
        try:
            proc = child(
                ["-m", "sbcpmu.cli", "report", rundir],
                env={"PYTHONUNBUFFERED": "1"} if unbuffered else {},
                stdout=write, stderr=subprocess.PIPE,
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (4, "error: [Errno 32] Broken pipe\n")


class TestNoThreadOutlivesMain:
    """``run()`` ends the process with ``os._exit``, which would cut off a live thread."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_simulate(self, tmp_path, monkeypatch, workers):
        monkeypatch.setattr("sbcpmu.mc._workers", lambda blocks: workers)
        p = tmp_path / "cfg.json"
        write_config(p, run={"trials": 40, "seed": 7})  # three blocks of trials
        threads = threading.active_count()
        assert main(["simulate", "--config", str(p)]) == 0
        assert threading.active_count() == threads

    def test_characterize_and_report(self, tmp_path):
        csv = tmp_path / "s.csv"
        csv.write_text("v_in,v_out,channel,device\n-1,-1,ch0,dev0\n0,0,ch0,dev0\n1,1,ch0,dev0\n")
        rundir = written_run(tmp_path)
        threads = threading.active_count()
        argv = ["characterize", "sweep", "--input", str(csv), "--output", str(tmp_path / "f.json")]
        assert main(argv) == 0
        assert threading.active_count() == threads
        assert main(["report", str(rundir)]) == 0
        assert threading.active_count() == threads
