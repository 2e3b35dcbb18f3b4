"""Seeded inputs of the benchmark workloads.

Every input is a pure function of the workload seed and the size, so the
same seed gives byte-identical files.  The characterization CSVs are drawn
from the paper profile's own parameters (ADC gain/offset, per-temperature
time-base deviation, PLL stress-profile delays), so the fragments fitted from
them have a known truth, which the output check compares them with.
Nothing here is timed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# simulate-ref and mc-batch use one of SCENARIO_SEEDS scenario seeds, so that
# expected.json can hold the seed commit's result for each of them.
BASE_SCENARIO_SEED = 12345
SCENARIO_SEEDS = 64

SIZES = {
    "full": {
        "simulate_trials": 240,
        "mc_trials": 960,
        "sweep": (4, 8, 16_000),  # devices, channels per device, points
        "counter": 5_000,  # counts per (temperature, device) cell
        "counter_devices": 4,
        "delay": 20_000,  # samples per stress profile
    },
    "tiny": {
        "simulate_trials": 8,
        "mc_trials": 16,
        "sweep": (2, 2, 200),
        "counter": 200,
        "counter_devices": 2,
        "delay": 500,
    },
}

KNOWN_BASE_HZ = 100e6
NOMINAL_RATE_HZ = 50e3
SWEEP_NOISE_V = 150e-6
SWEEP_SPAN_V = 9.9
# Checks allow this many standard errors between fitted value and truth.
TOLERANCE_SIGMAS = 6.0


def scenario_seed(seed: int) -> int:
    return BASE_SCENARIO_SEED + seed % SCENARIO_SEEDS


def simulate_config(seed: int, size: str) -> dict:
    """The ROADMAP reference scenario: paper profile, 10 V / 50 Hz, 5 kHz."""
    return {
        "chain_profile": "paper",
        "signal": {"amplitude_v": 10.0, "frequency_hz": 50.0},
        "schedule": {"rate_hz": 5000.0, "pps_period_s": 1.0},
        "run": {
            "trials": SIZES[size]["simulate_trials"],
            "seed": scenario_seed(seed),
            "duration_s": 30.0,
            "channels": 8,
        },
        "compensation": "off",
        "output_dir": "run",
    }


def mc_scenario(seed: int, size: str):
    """The mc-batch scenario: compensated, at a fixed temperature, on the paper profile."""
    import sbcpmu  # from the src/ directory the caller put on sys.path

    return sbcpmu.McScenario(
        chain=sbcpmu.paper_profile(),
        phasor=sbcpmu.Phasor(10.0, 0.0, 50.0),
        nominal_rate=5000.0,
        trials=SIZES[size]["mc_trials"],
        compensate=True,
        temperature_c=35.0,
        base_seed=scenario_seed(seed),
    )


def _write_sweep(path: Path, rng, profile: dict, shape) -> dict:
    devices, channels, points = shape
    adc = profile["adc"]
    mean, total_std = adc["gain_err_ppm"]["mean"], adc["gain_err_ppm"]["std"]
    within = adc["gain_err_within_device_ppm"]
    between = math.sqrt(max(total_std**2 - within**2, 0.0))
    v_in = np.linspace(-SWEEP_SPAN_V, SWEEP_SPAN_V, points)
    gains = []
    with open(path, "w") as fh:
        fh.write("v_in,v_out,channel,device\n")
        for d in range(devices):
            device_gain = rng.normal(mean, between)
            for c in range(channels):
                gain_ppm = rng.normal(device_gain, within)
                offset_uv = rng.normal(adc["offset_uv"]["mean"], adc["offset_uv"]["std"])
                v_out = (
                    (1.0 + 1e-6 * gain_ppm) * v_in
                    + 1e-6 * offset_uv
                    + rng.normal(0.0, SWEEP_NOISE_V, points)
                )
                np.savetxt(fh, np.column_stack([v_in, v_out]), fmt=f"%.6f,%.9f,ch{c},D{d}")
                gains.append(gain_ppm)
    # standard error of one channel's OLS gain, then of the mean over channels
    se_ppm = 1e6 * SWEEP_NOISE_V / (v_in.std() * math.sqrt(points)) / math.sqrt(len(gains))
    return {
        "adc_gain_err_ppm": float(np.mean(gains)),
        "adc_gain_err_tol_ppm": TOLERANCE_SIGMAS * se_ppm,
        "rows": devices * channels * points,
    }


def _write_counter(path: Path, rng, profile: dict, per_cell: int, devices: int) -> dict:
    period = 1.0 / NOMINAL_RATE_HZ
    cell_means = []
    with open(path, "w") as fh:
        fh.write("count,device,temperature_c\n")
        for temp, mean_ppm, std_ppm in profile["timebase"]["by_temperature_c"]:
            for d in range(devices):
                e_r_ppm = rng.normal(mean_ppm, std_ppm)
                ticks = period * (1.0 + 1e-6 * e_r_ppm) * KNOWN_BASE_HZ
                # dithered quantization: the expected count is exactly `ticks`
                counts = np.floor(ticks + rng.uniform(0.0, 1.0, per_cell))
                np.savetxt(fh, counts, fmt=f"%d,B{d},{temp:g}")
                cell_means.append(e_r_ppm)
    rows = len(cell_means) * per_cell
    # one count is one reference period; uniform quantization error per count
    se_ppm = 1e6 / (KNOWN_BASE_HZ * period) / math.sqrt(12.0 * rows)
    return {
        "e_r_ppm_mean": float(np.mean(cell_means)),
        "e_r_tol_ppm": TOLERANCE_SIGMAS * se_ppm,
        "rows": rows,
    }


def _write_delay(path: Path, rng, profile: dict, per_profile: int) -> dict:
    means, tols = {}, {}
    with open(path, "w") as fh:
        fh.write("delay_us,profile\n")
        for name, p in sorted(profile["pll"]["profiles"].items()):
            span = p["mean_us"] - p["min_us"]
            shape, scale = (span / p["std_us"]) ** 2, p["std_us"] ** 2 / span
            delays = p["min_us"] + rng.gamma(shape, scale, per_profile)
            np.savetxt(fh, delays, fmt=f"%.5f,{name}")
            means[name] = p["mean_us"]
            tols[name] = TOLERANCE_SIGMAS * p["std_us"] / math.sqrt(per_profile)
    return {"delay_mean_us": means, "delay_tol_us": tols, "rows": len(means) * per_profile}


def write_characterize_inputs(seed: int, size: str, outdir: Path, profile: dict) -> dict:
    """Write sweep.csv, counter.csv, delay.csv and base_profile.json; return the truth."""
    sz = SIZES[size]
    outdir.mkdir(parents=True, exist_ok=True)
    truth = {
        "sweep": _write_sweep(outdir / "sweep.csv", np.random.default_rng([seed, 1]), profile, sz["sweep"]),
        "counter": _write_counter(
            outdir / "counter.csv", np.random.default_rng([seed, 2]), profile,
            sz["counter"], sz["counter_devices"],
        ),
        "delay": _write_delay(outdir / "delay.csv", np.random.default_rng([seed, 3]), profile, sz["delay"]),
    }
    with open(outdir / "base_profile.json", "w") as fh:
        json.dump(profile, fh, indent=2)
    return truth
