"""Write expected.json: the seed commit's Monte Carlo results for every scenario seed.

Usage, from the repository root, on the commit whose results are the reference:

    python3 perfbench/make_expected.py

For each size and each of the inputs.SCENARIO_SEEDS scenario seeds this runs
the simulate-ref scenario (as ``sbcpmu simulate`` builds it) and the mc-batch
scenario through the library and records ``grand_mean_tve``, ``fe_hz`` and the
trial count.  run.py checks every operation against these values.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import sbcpmu  # noqa: E402


def simulate_result(cfg: dict):
    return sbcpmu.monte_carlo(sbcpmu.McScenario(
        chain=sbcpmu.paper_profile(),
        phasor=sbcpmu.Phasor(cfg["signal"]["amplitude_v"], 0.0, cfg["signal"]["frequency_hz"]),
        nominal_rate=cfg["schedule"]["rate_hz"],
        pps_period=cfg["schedule"]["pps_period_s"],
        trials=cfg["run"]["trials"],
        base_seed=cfg["run"]["seed"],
        duration=cfg["run"]["duration_s"],
        channels=cfg["run"]["channels"],
        compensate=cfg["compensation"] == "on",
    ))


def record(result) -> dict:
    return {"grand_mean_tve": result.grand_mean_tve, "fe_hz": result.fe_hz, "trials": result.trials}


def main() -> None:
    table = {}
    for size in inputs.SIZES:
        sim, mc = {}, {}
        for k in range(inputs.SCENARIO_SEEDS):
            cfg = inputs.simulate_config(k, size)
            sim[str(cfg["run"]["seed"])] = record(simulate_result(cfg))
            scenario = inputs.mc_scenario(k, size)
            mc[str(scenario.base_seed)] = record(sbcpmu.monte_carlo(scenario))
        table[size] = {"simulate-ref": sim, "mc-batch": mc}
    with open(HERE / "expected.json", "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
