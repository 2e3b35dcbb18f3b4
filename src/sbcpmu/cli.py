"""Batch command-line front door.

Subcommands: ``simulate`` (seeded Monte Carlo run into a run directory),
``characterize`` (sweep/counter/delay CSV ingestion into model fragments),
``report`` (pass/fail summary of a run directory against the steady-state
limits) and ``profile`` (show/merge chain profiles).

Exit codes: 0 success, 2 config error, 3 model-guard violation, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from . import __version__
from .errors import ConfigError, ModelParameterError, ScheduleGuardError, read_json

if TYPE_CHECKING:
    from .blocks import ChainModel

# Names this module calls, by the submodule that defines them.  A command binds
# the names of the submodules it uses into this module when it runs, so each
# process imports only what its command needs (``report`` needs none).  A name
# bound before, such as a wrapper set on this module, is the one that is called.
_LAZY = {
    "blocks": (
        "chain_from_json", "chain_to_json", "load_profile", "paper_profile", "save_profile",
    ),
    "characterize": (
        "GroupedSamples", "delay_statistics", "ols_fit", "one_counter_estimate",
        "read_counter_csv", "read_delay_csv", "read_sweep_csv", "variance_decomposition",
    ),
    "mc": ("McScenario", "monte_carlo", "write_run"),
    "signals": ("Phasor",),
}
_SUBMODULE = {name: module for module, names in _LAZY.items() for name in names}


def _bind(*modules: str) -> None:
    for module in modules:
        loaded = importlib.import_module(f"{__package__}.{module}")
        for name in _LAZY[module]:
            globals().setdefault(name, getattr(loaded, name))


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_SUBMODULE[name])
    return globals()[name]


TVE_LIMIT = 0.01  # steady-state standard limit, fraction
FE_LIMIT_HZ = 5e-3

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GUARD = 3
EXIT_IO = 4


# ---------------------------------------------------------------------------
# Scenario configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioConfig:
    chain_profile: str
    amplitude_v: float
    frequency_hz: float
    rate_hz: float
    pps_period_s: float
    trials: int
    seed: int
    duration_s: float
    channels: int
    compensation: str
    temperature_c: Optional[float]
    output_dir: str

    def to_json(self) -> dict:
        return {
            "chain_profile": self.chain_profile,
            "signal": {"amplitude_v": self.amplitude_v, "frequency_hz": self.frequency_hz},
            "schedule": {"rate_hz": self.rate_hz, "pps_period_s": self.pps_period_s},
            "run": {
                "trials": self.trials,
                "seed": self.seed,
                "duration_s": self.duration_s,
                "channels": self.channels,
            },
            "compensation": self.compensation,
            "temperature_c": self.temperature_c,
            "output_dir": self.output_dir,
        }


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ConfigError(f"config: missing field {where}.{key}" if where else
                          f"config: missing field {key}")
    return obj[key]


def load_scenario_config(path) -> ScenarioConfig:
    try:
        raw = read_json(path)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    signal = _require(raw, "signal", "")
    schedule = _require(raw, "schedule", "")
    run = _require(raw, "run", "")
    cfg = ScenarioConfig(
        chain_profile=str(_require(raw, "chain_profile", "")),
        amplitude_v=float(_require(signal, "amplitude_v", "signal")),
        frequency_hz=float(_require(signal, "frequency_hz", "signal")),
        rate_hz=float(_require(schedule, "rate_hz", "schedule")),
        pps_period_s=float(schedule.get("pps_period_s", 1.0)),
        trials=int(_require(run, "trials", "run")),
        seed=int(_require(run, "seed", "run")),
        duration_s=float(run.get("duration_s", 30.0)),
        channels=int(run.get("channels", 8)),
        compensation=str(raw.get("compensation", "off")),
        temperature_c=(
            float(raw["temperature_c"]) if raw.get("temperature_c") is not None else None
        ),
        output_dir=str(raw.get("output_dir", "run")),
    )
    if cfg.compensation not in ("on", "off"):
        raise ConfigError(f"config: compensation must be 'on' or 'off', got {cfg.compensation!r}")
    if cfg.amplitude_v <= 0 or cfg.frequency_hz <= 0 or cfg.rate_hz <= 0:
        raise ConfigError("config: signal/schedule values must be strictly positive")
    if cfg.trials < 1:
        raise ConfigError("config: run.trials must be >= 1")
    _resolve_profile(cfg.chain_profile)  # existence check up front
    return cfg


def _resolve_profile(name: str) -> ChainModel:
    _bind("blocks")
    if name == "paper":
        return paper_profile()
    path = Path(name)
    if not path.exists():
        raise ConfigError(f"config: chain profile not found: {name}")
    return load_profile(path)


def _json_sha256(obj) -> str:
    """SHA-256 of the canonical (sorted keys, compact) JSON form of ``obj``."""
    import hashlib  # simulate alone hashes

    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def scenario_hash(cfg: ScenarioConfig) -> str:
    return _json_sha256(cfg.to_json())


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    _bind("blocks", "signals", "mc")
    cfg = load_scenario_config(args.config)
    overrides = {}
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["output_dir"] = args.out
    if args.compensate is not None:
        overrides["compensation"] = args.compensate
    if args.temperature_c is not None:
        overrides["temperature_c"] = args.temperature_c
    if overrides:
        from dataclasses import replace

        cfg = replace(cfg, **overrides)

    chain = _resolve_profile(cfg.chain_profile)
    scenario = McScenario(
        chain=chain,
        phasor=Phasor(cfg.amplitude_v, 0.0, cfg.frequency_hz),
        nominal_rate=cfg.rate_hz,
        pps_period=cfg.pps_period_s,
        trials=cfg.trials,
        base_seed=cfg.seed,
        duration=cfg.duration_s,
        channels=cfg.channels,
        compensate=cfg.compensation == "on",
        temperature_c=cfg.temperature_c,
    )
    result = monte_carlo(scenario)
    manifest = {
        "version": __version__,
        "seed": cfg.seed,
        "scenario": cfg.to_json(),
        "scenario_hash": scenario_hash(cfg),
        "chain_name": chain.name,
        # a changed profile under the same name shows as another hash
        "chain_sha256": _json_sha256(chain_to_json(chain)),
    }
    write_run(result, cfg.output_dir, manifest)
    print(f"run written to {cfg.output_dir}")
    print(f"grand mean TVE: {result.grand_mean_tve * 100:.4f} %")
    print(f"FE (expected): {result.fe_hz * 1e6:.1f} uHz")
    return EXIT_OK


# ---------------------------------------------------------------------------
# characterize
# ---------------------------------------------------------------------------


def _characterize_sweep(path) -> dict:
    import numpy as np

    records = read_sweep_csv(path)
    per_channel = {}
    gains_by_device: dict = {}
    offsets_by_device: dict = {}
    gain_stds: dict = {}
    offset_stds: dict = {}
    for (device, channel), record in sorted(records.items()):
        fit = ols_fit(record)
        per_channel[f"{device}/{channel}"] = fit.to_json()
        gains_by_device.setdefault(device, []).append((fit.gain - 1.0) * 1e6)
        offsets_by_device.setdefault(device, []).append(fit.offset * 1e6)
        gain_stds.setdefault(device, []).append(fit.gain_std * 1e6)
        offset_stds.setdefault(device, []).append(fit.offset_std * 1e6)
    out = {"kind": "sweep", "per_channel": per_channel}
    if len(gains_by_device) >= 2:
        gain_dec = variance_decomposition(
            GroupedSamples(gains_by_device, estimator_stds=gain_stds)
        )
        offset_dec = variance_decomposition(
            GroupedSamples(offsets_by_device, estimator_stds=offset_stds)
        )
        out["gain_err_ppm"] = gain_dec.to_json()
        out["offset_uv"] = offset_dec.to_json()
    else:
        gains = np.concatenate([np.asarray(v) for v in gains_by_device.values()])
        offsets = np.concatenate([np.asarray(v) for v in offsets_by_device.values()])
        out["gain_err_ppm"] = {
            "grand_mean": float(gains.mean()),
            "total_std": float(gains.std(ddof=1)) if gains.size > 1 else 0.0,
        }
        out["offset_uv"] = {
            "grand_mean": float(offsets.mean()),
            "total_std": float(offsets.std(ddof=1)) if offsets.size > 1 else 0.0,
        }
    return out


def _characterize_counter(path, known_base: float, nominal_rate: float) -> dict:
    import numpy as np

    nominal_period = 1.0 / nominal_rate
    cell_results = {
        key: one_counter_estimate(counts, known_base, nominal_period)
        for key, counts in read_counter_csv(path).items()
    }
    all_r = np.concatenate([res.r_values for res in cell_results.values()])
    any_result = next(iter(cell_results.values()))
    out = {
        "kind": "counter",
        "e_r_ppm_mean": float((all_r.mean() - 1.0) * 1e6),
        "per_measurement_error_ppm": any_result.per_measurement_error * 1e6,
        "required_averages": any_result.required_averages,
    }
    temps = sorted({t for t, _ in cell_results if t is not None})
    if temps:
        by_temperature = []
        temp_means = {}
        for temp in temps:
            device_means = {
                dev: [float((res.r_values.mean() - 1.0) * 1e6)]
                for (t, dev), res in cell_results.items()
                if t == temp
            }
            entry = {"temperature_c": temp}
            flat = np.concatenate([np.asarray(v) for v in device_means.values()])
            entry["e_r_ppm_mean"] = float(flat.mean())
            if len(device_means) >= 2:
                entry["e_r_ppm_board_std"] = float(
                    np.std([v[0] for v in device_means.values()], ddof=1)
                )
            by_temperature.append(entry)
            temp_means[str(temp)] = [entry["e_r_ppm_mean"]]
        out["by_temperature_c"] = by_temperature
        if len(temp_means) >= 2:
            board_groups = {}
            for (t, dev), res in cell_results.items():
                if t is not None:
                    board_groups.setdefault(str(t), []).append(
                        float((res.r_values.mean() - 1.0) * 1e6)
                    )
            dec = variance_decomposition(GroupedSamples(board_groups), ddof=1)
            out["e_r_ppm_total_std"] = dec.total_std
    return out


def _characterize_delay(path, known_base: float) -> dict:
    by_profile = read_delay_csv(path, known_base=known_base)
    out = {"kind": "delay", "profiles": {}}
    for profile, samples in sorted(by_profile.items()):
        out["profiles"][profile] = delay_statistics(samples).to_json()
    return out


def _apply_fragment(fragment: dict, chain_json: dict) -> None:
    """Write the fitted values of a ``characterize`` fragment into a profile's JSON form."""
    kind = fragment.get("kind")
    if kind == "sweep":
        gain = fragment["gain_err_ppm"]
        offset = fragment["offset_uv"]
        chain_json["adc"]["gain_err_ppm"] = {
            "mean": gain["grand_mean"],
            "std": gain.get("total_std", 0.0),
        }
        if "within_std" in gain:
            chain_json["adc"]["gain_err_within_device_ppm"] = gain["within_std"]
        chain_json["adc"]["offset_uv"] = {
            "mean": offset["grand_mean"],
            "std": offset.get("total_std", 0.0),
        }
    elif kind == "counter":
        tb = chain_json["timebase"]
        tb["e_r_ppm"]["mean"] = fragment["e_r_ppm_mean"]
        if "e_r_ppm_total_std" in fragment:
            tb["e_r_ppm"]["std"] = fragment["e_r_ppm_total_std"]
        if "by_temperature_c" in fragment:
            tb["by_temperature_c"] = [
                [e["temperature_c"], e["e_r_ppm_mean"], e.get("e_r_ppm_board_std", 0.0)]
                for e in fragment["by_temperature_c"]
            ]
    elif kind == "delay":
        profiles = chain_json.setdefault("pll", {}).setdefault("profiles", {})
        for name, stats in fragment["profiles"].items():
            profiles[name] = {
                "family": "shifted-gamma",
                "min_us": stats["min_us"],
                "max_us": stats["max_us"],
                "mean_us": stats["mean_us"],
                "std_us": stats["std_us"],
                "mode_us": stats["mode_us"],
                "mode_std_us": stats["mode_std_us"],
            }
    else:
        raise ConfigError(f"cannot merge fragment of kind {kind!r}")


def _merge_fragment_into_profile(fragment: dict, profile_path) -> None:
    chain_json = chain_to_json(load_profile(profile_path))
    _apply_fragment(fragment, chain_json)
    save_profile(chain_from_json(chain_json), profile_path)


def cmd_characterize(args) -> int:
    _bind("blocks", "characterize")
    if args.kind == "sweep":
        fragment = _characterize_sweep(args.input)
    elif args.kind == "counter":
        fragment = _characterize_counter(args.input, args.known_base_hz, args.nominal_rate_hz)
    else:
        fragment = _characterize_delay(args.input, args.known_base_hz)
    with open(args.output, "w") as fh:
        json.dump(fragment, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if args.merge_into:
        _merge_fragment_into_profile(fragment, args.merge_into)
        print(f"merged {args.kind} fragment into {args.merge_into}")
    print(f"wrote {args.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _fmt_status(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _mean_tve(path) -> list:
    """The ``mean_tve`` column of a ``summary.csv``; a malformed file is a ``ConfigError``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if "mean_tve" not in header:
            raise ConfigError(f"{path}: line 1: no mean_tve column in the header")
        header_line, column = reader.line_num, header.index("mean_tve")
        values = []
        for row in filter(None, reader):  # blank lines are skipped
            if column >= len(row):
                raise ConfigError(
                    f"{path}: line {reader.line_num}: no mean_tve column ({len(row)} fields)"
                )
            try:
                value = float(row[column])
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ConfigError(
                    f"{path}: line {reader.line_num}: mean_tve must be a finite number, "
                    f"got {row[column]!r}"
                )
            values.append(value)
    if not values:
        raise ConfigError(f"{path}: line {header_line}: no data rows after the header")
    return values


def cmd_report(args) -> int:
    rundir = Path(args.rundir)
    manifest_path = rundir / "manifest.json"
    summary_path = rundir / "summary.csv"
    if not manifest_path.exists():
        raise ConfigError(f"{rundir}: missing manifest.json (not a run directory?)")
    if not summary_path.exists():
        raise ConfigError(f"{rundir}: missing summary.csv")
    manifest = read_json(manifest_path)
    mean_tve = _mean_tve(summary_path)
    grand = float(manifest.get("grand_mean_tve", math.fsum(mean_tve) / len(mean_tve)))
    worst = max(mean_tve)
    fe_hz = float(manifest.get("fe_hz", math.nan))

    lines = []
    lines.append(
        f"run: {manifest.get('scenario_hash', '?')[:12]} "
        f"chain_sha256={manifest.get('chain_sha256', '?')[:12]}"
    )
    lines.append(
        f"seed={manifest.get('seed')} trials={manifest.get('trials')} "
        f"compensated={manifest.get('compensated')} "
        f"saturated_samples={manifest.get('saturated_samples')}"
    )
    lines.append(
        f"max_guard_margin={manifest.get('max_guard_margin')} "
        f"max_trial_saturated_samples={manifest.get('max_trial_saturated_samples')}"
    )
    lines.append(f"{'metric':<24}{'value':>14}{'limit':>12}  status")
    rows = [
        ("TVE grand mean", f"{grand * 100:.4f} %", f"{TVE_LIMIT * 100:.0f} %", grand <= TVE_LIMIT),
        ("TVE max of mean trace", f"{worst * 100:.4f} %", f"{TVE_LIMIT * 100:.0f} %", worst <= TVE_LIMIT),
        ("FE", f"{fe_hz * 1e6:.1f} uHz", f"{FE_LIMIT_HZ * 1e3:.0f} mHz", fe_hz <= FE_LIMIT_HZ),
    ]
    for name, value, limit, ok in rows:
        lines.append(f"{name:<24}{value:>14}{limit:>12}  {_fmt_status(ok)}")
    report = "\n".join(lines)
    print(report)
    with open(rundir / "report.txt", "w") as fh:
        fh.write(report + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------


def _deep_merge(dst: dict, src: dict) -> None:
    for key, value in src.items():
        if isinstance(value, dict) and isinstance(dst.get(key), dict):
            _deep_merge(dst[key], value)
        else:
            dst[key] = value


def _dropped_keys(fragment: dict, kept, prefix=""):
    """Dotted paths of the keys in ``fragment`` that ``kept`` does not have."""
    for key, value in fragment.items():
        if not isinstance(kept, dict) or key not in kept:
            yield prefix + key
        elif isinstance(value, dict):
            yield from _dropped_keys(value, kept[key], f"{prefix}{key}.")


def cmd_profile(args) -> int:
    _bind("blocks")
    if args.profile_cmd == "show":
        chain = _resolve_profile(args.path)
        print(json.dumps(chain_to_json(chain), indent=2))
        return EXIT_OK
    # merge: a characterize fragment (it has a "kind") or a partial profile
    base = chain_to_json(_resolve_profile(args.base))
    fragment = read_json(args.fragment)
    if not isinstance(fragment, dict):
        raise ConfigError(f"{args.fragment}: a fragment must be a JSON object")

    if "kind" in fragment:
        try:
            _apply_fragment(fragment, base)
        except KeyError as exc:
            raise ConfigError(f"{args.fragment}: fragment lacks field {exc}") from exc
        chain = chain_from_json(base)
    else:
        _deep_merge(base, fragment)
        chain = chain_from_json(base)
        # a key the profile schema does not read is lost when the chain is
        # rebuilt; reject it rather than drop it
        rebuilt = chain_to_json(chain)
        unknown = list(_dropped_keys(fragment, rebuilt))
        if unknown:
            raise ConfigError(
                f"{args.fragment}: unknown profile keys {unknown}; "
                f"a profile has {sorted(rebuilt)}"
            )
    save_profile(chain, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sbcpmu", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a seeded Monte Carlo scenario")
    sim.add_argument("--config", required=True, help="scenario JSON path")
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--trials", type=int, default=None)
    sim.add_argument("--out", default=None, help="output run directory")
    sim.add_argument("--compensate", choices=("on", "off"), default=None)
    sim.add_argument("--temperature-c", type=float, default=None)
    sim.set_defaults(func=cmd_simulate)

    char = sub.add_parser("characterize", help="ingest characterization CSVs")
    char.add_argument("kind", choices=("sweep", "counter", "delay"))
    char.add_argument("--input", required=True)
    char.add_argument("--output", required=True)
    char.add_argument("--merge-into", default=None, help="chain profile JSON to update")
    char.add_argument("--known-base-hz", type=float, default=100e6)
    char.add_argument("--nominal-rate-hz", type=float, default=50e3)
    char.set_defaults(func=cmd_characterize)

    rep = sub.add_parser("report", help="summarize a run directory against the limits")
    rep.add_argument("rundir")
    rep.set_defaults(func=cmd_report)

    prof = sub.add_parser("profile", help="show or merge chain profiles")
    prof_sub = prof.add_subparsers(dest="profile_cmd", required=True)
    show = prof_sub.add_parser("show")
    show.add_argument("path")
    show.set_defaults(func=cmd_profile)
    merge = prof_sub.add_parser("merge")
    merge.add_argument("base")
    merge.add_argument("fragment")
    merge.add_argument("--out", required=True)
    merge.set_defaults(func=cmd_profile)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ScheduleGuardError, ModelParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
