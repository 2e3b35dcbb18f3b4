"""Batch command-line front door.

Subcommands: ``simulate`` (seeded Monte Carlo run into a run directory),
``characterize`` (sweep/counter/delay CSV ingestion into model fragments),
``report`` (pass/fail summary of a run directory against the steady-state
limits) and ``profile`` (show/merge chain profiles).

Exit codes: 0 success, 2 config error, 3 model-guard violation, 4 I/O error.
"""

from __future__ import annotations

import argparse
import atexit
import importlib
import json
import os
import sys
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

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


def _bind(*modules: str) -> None:
    """Bind every name in the ``__all__`` of each submodule ``modules`` into this module.

    A command binds the submodules it uses when it runs, so each process
    imports only what its command needs (``report`` needs none).  A name
    bound before, such as a wrapper set on this module, is the one that is called.
    """
    for module in modules:
        loaded = importlib.import_module(f"{__package__}.{module}")
        for name in loaded.__all__:
            globals().setdefault(name, getattr(loaded, name))


def __getattr__(name):
    if not name.startswith("_"):  # a private name or a dunder probe (__wrapped__) imports nothing
        for module in ("blocks", "mc", "characterize"):
            _bind(module)
            if name in globals():
                return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _text_or_null(value, path: str):
    return None if value is None else of_type(value, path, str)


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
    "pll_profile": (_text_or_null, None),
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
    from dataclasses import replace

    _bind("blocks", "mc")
    cfg = load_scenario_config(args.config, vars(args))
    chain = _resolve_profile(cfg["chain_profile"])
    pll_profile = cfg["pll_profile"]
    if pll_profile is not None:
        if pll_profile not in chain.pll_profiles:
            raise ConfigError(
                f"{args.config}: pll_profile: expected one of the chain's pll.profiles "
                f"({', '.join(chain.pll_profiles) or 'none'}), got {pll_profile!r}"
            )
        chain = replace(chain, pll=chain.pll_profiles[pll_profile])
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
    manifest = {key: source(cfg, chain, result) for key, (_, source) in _MANIFEST.items()}
    write_json(manifest, Path(cfg["output_dir"]) / "manifest.json", sort_keys=True)
    print(f"run written to {cfg['output_dir']}")
    print(f"grand mean TVE: {result.grand_mean_tve * 100:.4f} %")
    print(f"FE (expected): {result.fe_hz * 1e6:.1f} uHz")
    return EXIT_OK


# ---------------------------------------------------------------------------
# characterize
# ---------------------------------------------------------------------------


# The fragment format lives in this section alone: the ``_characterize_*``
# builders write it from the result types of ``sbcpmu.characterize``.  Each
# fragment's ``profile`` is the partial chain profile it fits, the one part a
# merge reads; no code reads the other keys back.


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
    adc: dict = {}
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
            out[key] = {"grand_mean": float(one.mean())}
            if one.size > 1:  # one channel fits no spread, so the base's is kept
                out[key]["total_std"] = float(one.std(ddof=1))
        adc[key] = {"mean": out[key]["grand_mean"]}
        if "total_std" in out[key]:
            adc[key]["std"] = out[key]["total_std"]
    # null without a device of two or more channels in the nested split: the Monte
    # Carlo then draws the channel gains from the total, as one device's channels
    # are its within-device spread
    nested = len(gains) >= 2 and max(map(len, gains.values())) >= 2
    adc["gain_err_within_device_ppm"] = out["gain_err_ppm"]["within_std"] if nested else None
    out["profile"] = {"adc": adc}
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
    # each board's mean e_r in ppm, in file order: all of them, and by temperature
    board_means = [float((res.r_values.mean() - 1.0) * 1e6) for res in results.values()]
    boards: dict = {}
    for (temperature, _), mean in zip(results, board_means):
        if temperature is not None:
            boards.setdefault(temperature, []).append(mean)
    e_r = {"mean": out["e_r_ppm_mean"]}
    # the spread of every board; a temperature of one board takes it as its row's
    # std, unless temperatures of two or more boards give a pooled board spread
    pooled = None  # a capture of one board fits no spread
    if len(board_means) >= 2:
        e_r["std"] = out["e_r_ppm_total_std"] = pooled = float(np.std(board_means, ddof=1))
    if len(boards) >= 2:  # the nested split over temperatures replaces it
        dec = variance_decomposition(boards, ddof=1)
        e_r["std"] = out["e_r_ppm_total_std"] = dec.total_std
        if max(map(len, boards.values())) >= 2:
            pooled = dec.within_std
    rows = []  # the profile's [temperature_c, mean, std] rows; none for one board
    if boards:
        out["by_temperature_c"] = []
        for temperature in sorted(boards):
            means = boards[temperature]
            entry = {"temperature_c": temperature, "e_r_ppm_mean": float(np.mean(means))}
            if len(means) >= 2:
                entry["e_r_ppm_board_std"] = float(np.std(means, ddof=1))
            out["by_temperature_c"].append(entry)
            if pooled is not None:
                std = entry.get("e_r_ppm_board_std", pooled)
                rows.append([temperature, entry["e_r_ppm_mean"], std])
    out["profile"] = {"timebase": {"e_r_ppm": e_r, "by_temperature_c": rows}}
    return out


def _characterize_delay(path, known_base: float) -> dict:
    profiles = {}
    fitted = {}  # the profile's pll.profiles entries
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
        fitted[profile] = {"family": "shifted-gamma"}
        for key in ("min_us", "max_us", "mean_us", "std_us"):
            fitted[profile][key] = profiles[profile][key]
    return {"kind": "delay", "profiles": profiles, "profile": {"pll": {"profiles": fitted}}}


def _deep_merge(dst: dict, src: dict) -> None:
    for key, value in src.items():
        if isinstance(value, dict) and isinstance(dst.get(key), dict):
            _deep_merge(dst[key], value)
        else:
            dst[key] = value


def _merged(base: dict, fragment, where) -> ChainModel:
    """The chain whose profile form is ``base`` with ``fragment`` merged into it.

    A fragment with a ``kind`` is one ``characterize`` wrote, and its
    ``profile`` is what is merged; any other JSON object is a partial profile.
    A bad fragment is a ``ConfigError`` naming ``where`` and the profile path.
    """
    if not isinstance(fragment, dict):
        raise ConfigError(f"{where}: a fragment must be a JSON object")
    try:
        if "kind" in fragment:
            if "profile" not in fragment:  # a fragment from before fragments carried their fit
                raise ConfigError("profile: missing; run characterize again to write it")
            fragment = of_type(fragment["profile"], "profile", dict)
        _deep_merge(base, fragment)
        return chain_from_json(base)
    except ConfigError as exc:  # the base loaded, so the fragment is at fault
        raise ConfigError(f"{where}: {exc}") from exc


def cmd_characterize(args) -> int:
    positive(args.known_base_hz, "--known-base-hz")
    positive(args.nominal_rate_hz, "--nominal-rate-hz")
    _bind("blocks", "characterize")
    try:
        if args.kind == "sweep":
            fragment = _characterize_sweep(args.input)
        elif args.kind == "counter":
            fragment = _characterize_counter(args.input, args.known_base_hz, args.nominal_rate_hz)
        else:
            fragment = _characterize_delay(args.input, args.known_base_hz)
    except MemoryError as exc:  # numpy refused an array the capture asks for, e.g. its widest cell
        raise ConfigError(f"--input {args.input}: too large to allocate: {exc}") from exc
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
# must pass in ``report`` and its source, a function of the normalized scenario,
# the chain and the ``McResult``; the keys ``report`` prints come first, in print order.
_INT, _OBJECT = partial(integer, low=0), partial(of_type, kind=dict)
_MANIFEST = {
    "scenario_hash": (_TEXT, lambda cfg, chain, r: _json_sha256(cfg)),
    # a changed profile under the same name shows as another hash
    "chain_sha256": (_TEXT, lambda cfg, chain, r: _json_sha256(chain_to_json(chain))),
    "seed": (_INT, lambda cfg, chain, r: cfg["run"]["seed"]),
    "trials": (_INT, lambda cfg, chain, r: r.trials),
    "compensated": (partial(of_type, kind=bool), lambda cfg, chain, r: r.compensated),
    "saturated_samples": (_INT, lambda cfg, chain, r: r.saturated_samples),
    "max_guard_margin": (number, lambda cfg, chain, r: r.max_guard_margin),
    "max_trial_saturated_samples": (_INT, lambda cfg, chain, r: r.max_trial_saturated_samples),
    "grand_mean_tve": (number, lambda cfg, chain, r: r.grand_mean_tve),
    "max_mean_tve": (number, lambda cfg, chain, r: float(r.mean_tve.max())),  # report's worst point
    "fe_hz": (number, lambda cfg, chain, r: r.fe_hz),
    "version": (_TEXT, lambda cfg, chain, r: __version__),
    "scenario": (_OBJECT, lambda cfg, chain, r: cfg),
    "chain_name": (_TEXT, lambda cfg, chain, r: chain.name),
    "coverage_factor": (number, lambda cfg, chain, r: DEFAULT_COVERAGE_FACTOR),
    "grand_mean_mag_err": (number, lambda cfg, chain, r: r.grand_mean_mag_err),
    "grand_mean_phase_err_rad": (number, lambda cfg, chain, r: r.grand_mean_phase_err),
    "window_gap_s": (number, lambda cfg, chain, r: r.window_gap_s),
    "versions": (_OBJECT, lambda cfg, chain, r: {
        "python": sys.version.split()[0], "numpy": importlib.import_module("numpy").__version__,
    }),
}


def cmd_report(args) -> int:
    rundir = Path(args.rundir)
    path = rundir / "manifest.json"
    if not path.exists():
        raise ConfigError(f"{rundir}: missing manifest.json (not a run directory?)")
    # the manifest alone is read: a key missing or of the wrong JSON type is named
    manifest = of_type(read_json(path), f"{path}: manifest", dict)
    for key, (check, _) in _MANIFEST.items():
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


def run() -> NoReturn:
    """The process entry of ``python -m sbcpmu.cli`` and the ``sbcpmu`` script.

    Ends the process as the interpreter would after ``main()`` returns, less
    its teardown: the ``atexit`` callbacks run and stdout and stderr are
    flushed, but no module is torn down and no garbage is collected (about
    20 ms of a ``simulate`` child, most of it numpy's).  A stdout that cannot
    be flushed, such as a pipe whose reader has gone, is an I/O error.  An
    exception out of ``main()``, argparse's ``SystemExit`` included, ends the
    process as usual.  No thread outlives ``main()``, so none is cut off.
    """
    code = main()
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = code or EXIT_IO
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
