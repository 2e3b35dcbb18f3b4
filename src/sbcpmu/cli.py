"""Batch command-line front door.

Subcommands: ``simulate`` (seeded Monte Carlo run into a run directory),
``characterize`` (sweep/counter/delay CSV ingestion into model fragments),
``report`` (pass/fail summary of a run directory against the steady-state
limits) and ``profile`` (show/merge chain profiles).

Exit codes: 0 success, 2 config error, 3 model-guard violation, 4 I/O error.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .errors import (
    ConfigError,
    EstimationError,
    ModelParameterError,
    ScheduleGuardError,
    integer,
    number,
    of_type,
    positive,
    read_json,
    reject_unknown_keys,
    section,
    write_json,
)

if TYPE_CHECKING:
    from .blocks import ChainModel

# Names this module calls, by the submodule that defines them.  A command binds
# the names of the submodules it uses into this module when it runs, so each
# process imports only what its command needs (``report`` needs none).  A name
# bound before, such as a wrapper set on this module, is the one that is called.
_LAZY = {
    "blocks": (
        "Phasor", "chain_from_json", "chain_to_json", "load_profile", "paper_profile",
        "save_profile",
    ),
    "characterize": (
        "delay_statistics", "ols_fit", "one_counter_estimate",
        "read_counter_csv", "read_delay_csv", "read_sweep_csv", "variance_decomposition",
    ),
    "mc": ("DEFAULT_COVERAGE_FACTOR", "McScenario", "monte_carlo", "write_run"),
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


def _positive_float(value, path: str) -> float:
    return float(positive(value, path))


def _float_or_null(value, path: str):
    return None if number(value, path, null=True) is None else float(value)


def _on_off(value, path: str) -> str:
    if value not in ("on", "off"):
        raise ConfigError(f"{path}: expected 'on' or 'off', got {value!r}")
    return value


_TEXT, _REQUIRED = partial(of_type, kind=str), object()
# The scenario format: each key's dotted path, with the check that returns its
# normalized value and its default (_REQUIRED: none, the key must be given).
# A ``simulate`` flag's dest is the path whose value it replaces.
_SCENARIO = {
    "chain_profile": (_TEXT, _REQUIRED),
    "signal.amplitude_v": (_positive_float, _REQUIRED),
    "signal.frequency_hz": (_positive_float, _REQUIRED),
    "schedule.rate_hz": (_positive_float, _REQUIRED),
    "schedule.pps_period_s": (_positive_float, 1.0),
    "run.trials": (partial(integer, low=1), _REQUIRED),
    "run.seed": (partial(integer, low=0), _REQUIRED),
    "run.duration_s": (_positive_float, 30.0),
    "run.channels": (partial(integer, low=1), 8),
    "compensation": (_on_off, "off"),
    "temperature_c": (_float_or_null, None),
    "output_dir": (_TEXT, "run"),
}


def scenario_from_json(raw, flags=None, where: str = "") -> dict:
    """The normalized form of a scenario config: every key, defaults filled in, floats as floats.

    ``flags`` maps a dotted path to the value that replaces the config's, or
    to None; the config's value is checked all the same.  A bad value, a
    missing required key or an unknown key is a ``ConfigError`` naming its
    path, prefixed with ``where`` (``"<config file>: "``) unless a flag gave it.
    """
    raw = of_type(raw, f"{where}config", dict)
    form: dict = {}
    for path, (check, default) in _SCENARIO.items():
        parent, _, key = path.rpartition(".")
        given = section(raw, parent, where) if parent else raw
        if default is _REQUIRED and key not in given:
            raise ConfigError(f"{where}{path}: missing")
        value = check(given.get(key, default), where + path)
        if flags and flags.get(path) is not None:
            value = check(flags[path], path)
        (form.setdefault(parent, {}) if parent else form)[key] = value
    duration_s = form["run"]["duration_s"]
    if duration_s < form["schedule"]["pps_period_s"]:
        raise ConfigError(f"{where}run.duration_s: expected >= schedule.pps_period_s, got {duration_s}")
    reject_unknown_keys(raw, form, where)
    return form


def load_scenario_config(path, flags=None) -> dict:
    """``scenario_from_json`` of a config file; an error in a value from the file names the file."""
    try:
        raw = read_json(path)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    return scenario_from_json(raw, flags, f"{path}: ")


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


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    import numpy as np

    _bind("blocks", "mc")
    cfg = load_scenario_config(args.config, vars(args))
    chain = _resolve_profile(cfg["chain_profile"])
    signal, schedule, run = cfg["signal"], cfg["schedule"], cfg["run"]
    scenario = McScenario(
        chain=chain,
        phasor=Phasor(signal["amplitude_v"], 0.0, signal["frequency_hz"]),
        nominal_rate=schedule["rate_hz"],
        pps_period=schedule["pps_period_s"],
        trials=run["trials"],
        base_seed=run["seed"],
        duration=run["duration_s"],
        channels=run["channels"],
        compensate=cfg["compensation"] == "on",
        temperature_c=cfg["temperature_c"],
    )
    try:
        result = monte_carlo(scenario)
    except MemoryError as exc:  # numpy refused an array: the grid or the trial count is too large
        raise ConfigError(f"scenario too large to allocate: {exc}") from exc
    write_run(result, cfg["output_dir"])
    # every key here has its check in _MANIFEST
    write_json(
        {
            "version": __version__,
            "seed": run["seed"],
            "scenario": cfg,
            "scenario_hash": _json_sha256(cfg),
            "chain_name": chain.name,
            # a changed profile under the same name shows as another hash
            "chain_sha256": _json_sha256(chain_to_json(chain)),
            "compensated": result.compensated,
            "coverage_factor": DEFAULT_COVERAGE_FACTOR,
            "fe_hz": result.fe_hz,
            "grand_mean_tve": result.grand_mean_tve,
            "max_mean_tve": float(result.mean_tve.max()),  # report's worst point
            "grand_mean_mag_err": result.grand_mean_mag_err,
            "grand_mean_phase_err_rad": result.grand_mean_phase_err,
            "window_gap_s": result.window_gap_s,
            "trials": result.trials,
            "saturated_samples": result.saturated_samples,
            "max_trial_saturated_samples": result.max_trial_saturated_samples,
            "max_guard_margin": result.max_guard_margin,
            "versions": {"python": sys.version.split()[0], "numpy": np.__version__},
        },
        Path(cfg["output_dir"]) / "manifest.json",
        sort_keys=True,
    )
    print(f"run written to {cfg['output_dir']}")
    print(f"grand mean TVE: {result.grand_mean_tve * 100:.4f} %")
    print(f"FE (expected): {result.fe_hz * 1e6:.1f} uHz")
    return EXIT_OK


# ---------------------------------------------------------------------------
# characterize
# ---------------------------------------------------------------------------


# The fragment format lives in this section alone: the ``_characterize_*``
# builders write it from the result types of ``sbcpmu.characterize``, and
# ``_apply_fragment`` reads back the keys a merge uses.


def _characterize_sweep(path) -> dict:
    import numpy as np

    per_channel = {}
    # per device: gain errors in ppm and offsets in uV, with their OLS stds
    gains: dict = {}
    offsets: dict = {}
    gain_stds: dict = {}
    offset_stds: dict = {}
    owners: dict = {}  # per_channel key -> (device, channel)
    for (device, channel), record in sorted(read_sweep_csv(path).items()):
        key = f"{device}/{channel}"
        if key in owners:  # a "/" inside a label
            raise ConfigError(
                f"{path}: device {owners[key][0]!r} channel {owners[key][1]!r} and device "
                f"{device!r} channel {channel!r} share the per_channel key {key!r}"
            )
        owners[key] = device, channel
        try:
            fit = ols_fit(record)
        except ValueError as exc:  # a constant v_in
            raise ConfigError(f"{path}: device {device!r} channel {channel!r}: {exc}") from exc
        per_channel[key] = {
            "offset_v": fit.offset,
            "gain": fit.gain,
            "offset_std_v": fit.offset_std,
            "gain_std": fit.gain_std,
            "covariance_v2": [list(row) for row in fit.covariance],
            "rss_v2": fit.rss,
            "dof": fit.dof,
        }
        gains.setdefault(device, []).append((fit.gain - 1.0) * 1e6)
        offsets.setdefault(device, []).append(fit.offset * 1e6)
        gain_stds.setdefault(device, []).append(fit.gain_std * 1e6)
        offset_stds.setdefault(device, []).append(fit.offset_std * 1e6)
    out = {"kind": "sweep", "per_channel": per_channel}
    for key, values, stds in (
        ("gain_err_ppm", gains, gain_stds), ("offset_uv", offsets, offset_stds)
    ):
        if len(values) >= 2:
            dec = variance_decomposition(values, stds)
            out[key] = {
                "grand_mean": dec.grand_mean,
                "estimator_std": dec.estimator_std,
                "within_std": dec.within_std,
                "between_std": dec.between_std,
                "total_std": dec.total_std,
                "ordering_ok": dec.ordering_ok,
            }
        else:
            (one,) = map(np.asarray, values.values())
            out[key] = {
                "grand_mean": float(one.mean()),
                "total_std": float(one.std(ddof=1)) if one.size > 1 else 0.0,
            }
    return out


def _characterize_counter(path, known_base: float, nominal_rate: float) -> dict:
    import numpy as np

    captures = read_counter_csv(path)
    try:  # the reader checked the counts, so only the two flags can be at fault
        results = {
            key: one_counter_estimate(counts, known_base, 1.0 / nominal_rate)
            for key, counts in captures.items()
        }
    except ValueError as exc:
        raise ConfigError(f"--known-base-hz and --nominal-rate-hz: {exc}") from exc
    all_r = np.concatenate([res.r_values for res in results.values()])
    first = next(iter(results.values()))
    out = {
        "kind": "counter",
        "e_r_ppm_mean": float((all_r.mean() - 1.0) * 1e6),
        "per_measurement_error_ppm": first.per_measurement_error * 1e6,
        "required_averages": first.required_averages,
    }
    # each board's mean e_r in ppm by temperature, in file order
    boards: dict = {}
    for (temperature, _), res in results.items():
        if temperature is not None:
            boards.setdefault(temperature, []).append(float((res.r_values.mean() - 1.0) * 1e6))
    if boards:
        out["by_temperature_c"] = []
        for temperature in sorted(boards):
            means = boards[temperature]
            entry = {"temperature_c": temperature, "e_r_ppm_mean": float(np.mean(means))}
            if len(means) >= 2:
                entry["e_r_ppm_board_std"] = float(np.std(means, ddof=1))
            out["by_temperature_c"].append(entry)
    if len(boards) >= 2:
        out["e_r_ppm_total_std"] = variance_decomposition(boards, ddof=1).total_std
    return out


def _characterize_delay(path, known_base: float) -> dict:
    profiles = {}
    for profile, samples in sorted(read_delay_csv(path, known_base=known_base).items()):
        try:
            s = delay_statistics(samples)
        except ValueError as exc:  # a profile of one sample
            raise ConfigError(f"{path}: profile {profile!r}: {exc}") from exc
        profiles[profile] = {
            "n": s.n,
            "min_us": s.minimum * 1e6,
            "max_us": s.maximum * 1e6,
            "mean_us": s.mean * 1e6,
            "std_us": s.std * 1e6,
            "mode_us": s.mode * 1e6,
            "mode_std_us": s.mode_std * 1e6,
            "qq_deviation_us": s.qq_deviation * 1e6,
        }
    return {"kind": "delay", "profiles": profiles}


def _apply_fragment(fragment: dict, chain_json: dict) -> None:
    """Write the fitted values of a ``characterize`` fragment into a profile's JSON form.

    An object or array the merge reads that has the wrong JSON type is a
    ``ConfigError`` naming its fragment key; the profile reader checks the numbers.
    """
    kind = fragment.get("kind")
    if kind == "sweep":
        gain = of_type(fragment["gain_err_ppm"], "gain_err_ppm", dict)
        offset = of_type(fragment["offset_uv"], "offset_uv", dict)
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
            rows = of_type(fragment["by_temperature_c"], "by_temperature_c", list)
            entries = (of_type(e, f"by_temperature_c[{i}]", dict) for i, e in enumerate(rows))
            tb["by_temperature_c"] = [
                [e["temperature_c"], e["e_r_ppm_mean"], e.get("e_r_ppm_board_std", 0.0)]
                for e in entries
            ]
    elif kind == "delay":
        profiles = chain_json.setdefault("pll", {}).setdefault("profiles", {})
        for name, stats in of_type(fragment["profiles"], "profiles", dict).items():
            stats = of_type(stats, f"profiles.{name}", dict)
            profiles[name] = {"family": "shifted-gamma"}
            for key in ("min_us", "max_us", "mean_us", "std_us", "mode_us", "mode_std_us"):
                profiles[name][key] = stats[key]
    else:
        raise ConfigError(f"cannot merge fragment of kind {kind!r}")


def _deep_merge(dst: dict, src: dict) -> None:
    for key, value in src.items():
        if isinstance(value, dict) and isinstance(dst.get(key), dict):
            _deep_merge(dst[key], value)
        else:
            dst[key] = value


def _merged(base: dict, fragment, where) -> ChainModel:
    """The chain whose profile form is ``base`` with ``fragment`` merged into it.

    A fragment with a ``kind`` is one ``characterize`` wrote; any other JSON
    object is a partial profile.  A bad fragment is a ``ConfigError`` naming ``where``.
    """
    if not isinstance(fragment, dict):
        raise ConfigError(f"{where}: a fragment must be a JSON object")
    try:
        if "kind" in fragment:
            _apply_fragment(fragment, base)
        else:
            _deep_merge(base, fragment)
        return chain_from_json(base)
    except KeyError as exc:
        raise ConfigError(f"{where}: fragment lacks field {exc}") from exc
    except ConfigError as exc:  # the base loaded, so the fragment is at fault
        raise ConfigError(f"{where}: {exc}") from exc


def cmd_characterize(args) -> int:
    positive(args.known_base_hz, "--known-base-hz")
    positive(args.nominal_rate_hz, "--nominal-rate-hz")
    _bind("blocks", "characterize")
    if args.kind == "sweep":
        fragment = _characterize_sweep(args.input)
    elif args.kind == "counter":
        fragment = _characterize_counter(args.input, args.known_base_hz, args.nominal_rate_hz)
    else:
        fragment = _characterize_delay(args.input, args.known_base_hz)
    write_json(fragment, args.output, sort_keys=True)
    if args.merge_into:
        chain = _merged(chain_to_json(load_profile(args.merge_into)), fragment, args.output)
        save_profile(chain, args.merge_into)
        print(f"merged {args.kind} fragment into {args.merge_into}")
    print(f"wrote {args.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


# The manifest format: every key ``simulate`` writes, with the check its value
# must pass in ``report``; the keys ``report`` prints come first, in print order.
_INT, _OBJECT = partial(integer, low=0), partial(of_type, kind=dict)
_MANIFEST = {
    "scenario_hash": _TEXT, "chain_sha256": _TEXT, "seed": _INT, "trials": _INT,
    "compensated": partial(of_type, kind=bool), "saturated_samples": _INT,
    "max_guard_margin": number, "max_trial_saturated_samples": _INT,
    "grand_mean_tve": number, "max_mean_tve": number, "fe_hz": number,
    "version": _TEXT, "scenario": _OBJECT, "chain_name": _TEXT, "coverage_factor": number,
    "grand_mean_mag_err": number, "grand_mean_phase_err_rad": number, "window_gap_s": number,
    "versions": _OBJECT,
}


def cmd_report(args) -> int:
    rundir = Path(args.rundir)
    path = rundir / "manifest.json"
    if not path.exists():
        raise ConfigError(f"{rundir}: missing manifest.json (not a run directory?)")
    # the manifest alone is read: a key missing or of the wrong JSON type is named
    manifest = of_type(read_json(path), f"{path}: manifest", dict)
    for key, check in _MANIFEST.items():
        if key not in manifest:
            raise ConfigError(f"{path}: {key}: missing")
        check(manifest[key], f"{path}: {key}")
    grand, worst, fe_hz = (manifest[k] for k in ("grand_mean_tve", "max_mean_tve", "fe_hz"))

    lines = [
        f"run: {manifest['scenario_hash'][:12]} chain_sha256={manifest['chain_sha256'][:12]}",
        f"seed={manifest['seed']} trials={manifest['trials']} "
        f"compensated={manifest['compensated']} "
        f"saturated_samples={manifest['saturated_samples']}",
        f"max_guard_margin={manifest['max_guard_margin']} "
        f"max_trial_saturated_samples={manifest['max_trial_saturated_samples']}",
        f"{'metric':<24}{'value':>14}{'limit':>12}  status",
    ]
    for name, value, limit, ok in (
        ("TVE grand mean", f"{grand * 100:.4f} %", f"{TVE_LIMIT * 100:.0f} %", grand <= TVE_LIMIT),
        ("TVE max of mean trace", f"{worst * 100:.4f} %", f"{TVE_LIMIT * 100:.0f} %", worst <= TVE_LIMIT),
        ("FE", f"{fe_hz * 1e6:.1f} uHz", f"{FE_LIMIT_HZ * 1e3:.0f} mHz", fe_hz <= FE_LIMIT_HZ),
    ):
        lines.append(f"{name:<24}{value:>14}{limit:>12}  {'PASS' if ok else 'FAIL'}")
    report = "\n".join(lines)
    print(report)
    with open(rundir / "report.txt", "w") as fh:
        fh.write(report + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------


def cmd_profile(args) -> int:
    _bind("blocks")
    if args.profile_cmd == "show":
        chain = _resolve_profile(args.path)
        print(json.dumps(chain_to_json(chain), indent=2))
        return EXIT_OK
    # merge: a characterize fragment or a partial profile
    base = chain_to_json(_resolve_profile(args.base))
    chain = _merged(base, read_json(args.fragment), args.fragment)
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
    # each dest is the scenario path the flag replaces
    sim.add_argument("--seed", dest="run.seed", type=int)
    sim.add_argument("--trials", dest="run.trials", type=int)
    sim.add_argument("--out", dest="output_dir", help="output run directory")
    sim.add_argument("--compensate", dest="compensation", choices=("on", "off"))
    sim.add_argument("--temperature-c", dest="temperature_c", type=float)
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
    except (ConfigError, EstimationError) as exc:  # an unresolvable window is a bad scenario
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
