"""What each entry point imports, checked in fresh interpreters.

A CLI process pays for every module it loads, so ``import sbcpmu`` loads no
numpy, ``report`` loads none at all, loading, saving, showing and merging a
chain profile load no numpy, each subcommand loads only the submodules it
uses, ``statistics`` loads only where a normal quantile is taken, and
``simulate`` loads no ``platform`` beyond numpy's own import of it.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import sbcpmu

SRC = str(Path(sbcpmu.__file__).resolve().parents[1])

# Runs cli.main on argv[1:], then prints the sbcpmu, numpy and statistics modules loaded.
MODULES_AFTER_MAIN = (
    "import json, sys\n"
    "from sbcpmu import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "tops = ('numpy', 'sbcpmu', 'statistics')\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in tops)))\n"
    "sys.exit(code)\n"
)


def run_python(code: str, *args) -> str:
    out = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def modules_after_main(*argv) -> set:
    return set(json.loads(run_python(MODULES_AFTER_MAIN, *argv).splitlines()[-1]))


def write_scenario(tmp_path) -> Path:
    config = tmp_path / "scenario.json"
    config.write_text(
        json.dumps(
            {
                "chain_profile": "paper",
                "signal": {"amplitude_v": 10.0, "frequency_hz": 50.0},
                "schedule": {"rate_hz": 5000.0},
                "run": {"trials": 2, "seed": 7},
                "output_dir": str(tmp_path / "run"),
            }
        )
    )
    return config


# one small input of each characterization kind
CSV_TEXT = {
    "sweep": "v_in,v_out,channel,device\n-1,-1,ch0,dev0\n0,0,ch0,dev0\n1,1,ch0,dev0\n",
    "counter": "count,device,temperature_c\n2000,dev0,20\n2001,dev0,20\n",
    "delay": "delay_us,profile\n6.5,idle\n7.25,idle\n",
}


def test_cli_import_pulls_in_no_scipy():
    # every CLI process pays the import; scipy.stats alone used to cost ~1 s
    code = (
        "import sys, sbcpmu, sbcpmu.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert run_python(code).strip() == "[]"


# Prints the numpy modules loaded so far.
NUMPY_MODULES = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"


def test_package_import_loads_no_numpy():
    assert run_python("import sys, sbcpmu\n" + NUMPY_MODULES).strip() == "[]"


def test_paper_profile_loads_no_numpy():
    # start-up: every command's first step, and perfbench's setup_s
    code = "import sys, sbcpmu\nsbcpmu.paper_profile()\n" + NUMPY_MODULES
    assert run_python(code).strip() == "[]"


def test_paper_profile_loads_no_statistics():
    # statistics imports fractions and decimal: about 0.5 MB of RSS and a few ms of a process
    code = "import sys, sbcpmu\nsbcpmu.paper_profile()\nprint('statistics' in sys.modules)\n"
    assert run_python(code).strip() == "False"


@pytest.mark.parametrize("command", ["profile show", "simulate", "characterize sweep", "characterize counter"])
def test_only_normal_quantiles_load_statistics(tmp_path, command):
    # NormalDist is loaded where a truncated-normal delay is drawn or the delay
    # QQ statistic is taken; the paper profile draws shifted gammas
    if command == "profile show":
        argv = ["profile", "show", "paper"]
    elif command == "simulate":
        argv = ["simulate", "--config", write_scenario(tmp_path)]
    else:
        kind = command.split()[1]
        path = tmp_path / f"{kind}.csv"
        path.write_text(CSV_TEXT[kind])
        argv = ["characterize", kind, "--input", path, "--output", tmp_path / "frag.json"]
    assert "statistics" not in modules_after_main(*argv)


def test_simulate_loads_no_platform(tmp_path):
    # the manifest's Python version is sys.version's first word, as platform.python_version()
    # gives it.  numpy imports platform itself, so the pin is on what simulate loads beyond numpy
    code = (
        "import sys, numpy\n"
        "sys.modules.pop('platform', None)\n"
        "from sbcpmu import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print('platform' in sys.modules)\n"
        "sys.exit(code)\n"
    )
    out = run_python(code, "simulate", "--config", write_scenario(tmp_path))
    assert out.splitlines()[-1] == "False"


def test_phasor_loads_no_numpy():
    # wrap_phase normalizes the phase on construction, on floats
    code = "import sys, sbcpmu\nsbcpmu.Phasor(1.0, 0.0, 50.0)\n" + NUMPY_MODULES
    assert run_python(code).strip() == "[]"


def test_profile_load_and_save_load_no_numpy(tmp_path):
    copy = tmp_path / "chain.json"
    sbcpmu.save_profile(sbcpmu.paper_profile(), copy)
    code = (
        "import sys, sbcpmu\n"
        "sbcpmu.save_profile(sbcpmu.load_profile(sys.argv[1]), sys.argv[1])\n" + NUMPY_MODULES
    )
    assert run_python(code, copy).strip() == "[]"


def test_report_loads_no_numpy(tmp_path):
    from sbcpmu.cli import main

    assert main(["simulate", "--config", str(write_scenario(tmp_path))]) == 0
    loaded = modules_after_main("report", tmp_path / "run")
    assert not any(m.split(".")[0] == "numpy" for m in loaded)
    assert loaded == {"sbcpmu", "sbcpmu.cli", "sbcpmu.errors"}


def test_characterize_loads_no_mc_or_estimate(tmp_path):
    sweep = tmp_path / "sweep.csv"
    sweep.write_text(CSV_TEXT["sweep"])
    loaded = modules_after_main(
        "characterize", "sweep", "--input", sweep, "--output", tmp_path / "frag.json"
    )
    assert "sbcpmu.characterize" in loaded
    assert "sbcpmu.mc" not in loaded


def test_characterize_delay_loads_no_numpy_ma(tmp_path):
    # np.percentile, np.median and np.unique would each import numpy.ma
    delay = tmp_path / "delay.csv"
    delay.write_text("delay_us,profile\n" + "".join(f"{1 + 0.1 * (i % 7)},idle\n" for i in range(40)))
    loaded = modules_after_main(
        "characterize", "delay", "--input", delay, "--output", tmp_path / "frag.json"
    )
    assert "sbcpmu.characterize" in loaded
    assert not {m for m in loaded if m.split(".")[:2] == ["numpy", "ma"]}


@pytest.mark.parametrize("kind, text", list(CSV_TEXT.items()))
def test_characterize_loads_no_numpy_char(tmp_path, kind, text):
    # the readers tell a label that fills its cell by the cell's last byte;
    # np.char.str_len would import numpy.char (about 2 ms of a CLI process)
    path = tmp_path / f"{kind}.csv"
    path.write_text(text)
    loaded = modules_after_main(
        "characterize", kind, "--input", path, "--output", tmp_path / "frag.json"
    )
    assert "sbcpmu.characterize" in loaded
    assert not loaded & {"numpy.char", "numpy._core.defchararray"}


def test_profile_show_loads_no_mc():
    loaded = modules_after_main("profile", "show", "paper")
    assert "sbcpmu.blocks" in loaded
    assert "sbcpmu.mc" not in loaded
    assert not any(m.split(".")[0] == "numpy" for m in loaded)


def test_profile_merge_loads_no_numpy(tmp_path):
    fragment = tmp_path / "frag.json"
    fragment.write_text(
        json.dumps(
            {
                "kind": "sweep",
                "gain_err_ppm": {"grand_mean": -4455.0, "total_std": 130.0, "within_std": 20.0},
                "offset_uv": {"grand_mean": 5.0, "total_std": 1.0},
            }
        )
    )
    out = tmp_path / "merged.json"
    loaded = modules_after_main("profile", "merge", "paper", fragment, "--out", out)
    assert "sbcpmu.blocks" in loaded
    assert not any(m.split(".")[0] == "numpy" for m in loaded)
    assert json.loads(out.read_text())["adc"]["gain_err_ppm"] == {"mean": -4455.0, "std": 130.0}


def test_simulate_loads_no_characterize(tmp_path):
    loaded = modules_after_main("simulate", "--config", write_scenario(tmp_path))
    assert {m for m in loaded if m.split(".")[0] == "sbcpmu"} == {
        "sbcpmu", "sbcpmu.cli", "sbcpmu.errors", "sbcpmu.data", "sbcpmu.blocks", "sbcpmu.mc",
    }


def test_public_surface_is_pinned():
    # a name added to or deleted from the package's exports is a reviewed diff here
    assert sbcpmu.__all__ == [
        "AafModel",
        "ChainModel",
        "ConfigError",
        "EstimationError",
        "GaussianTerm",
        "McScenario",
        "ModelParameterError",
        "Phasor",
        "PllDelayModel",
        "SbcPmuError",
        "ScheduleGuardError",
        "TimebaseModel",
        "aaf_response",
        "delay_statistics",
        "expected_response",
        "fe",
        "identity_chain",
        "load_profile",
        "model_curve",
        "monte_carlo",
        "ols_fit",
        "one_counter_estimate",
        "paper_profile",
        "save_profile",
        "sweep_plan",
        "tve",
        "variance_decomposition",
        "wrap_phase",
        "write_run",
    ]


def test_public_names_resolve():
    code = (
        "import sbcpmu\n"
        "listed = set(dir(sbcpmu))\n"  # before any name is loaded
        "missing = [n for n in sbcpmu.__all__ if n not in listed]\n"
        "values = {n: getattr(sbcpmu, n) for n in sbcpmu.__all__}\n"
        "from sbcpmu import *\n"
        "print(missing, all(globals()[n] is v for n, v in values.items()))\n"
    )
    assert run_python(code).split() == ["[]", "True"]
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        sbcpmu.no_such_name


@pytest.mark.parametrize("module", [m.name for m in pkgutil.iter_modules(sbcpmu.__path__)])
def test_submodule_public_names_resolve(module):
    # a name deleted from a submodule must leave its __all__ too
    mod = importlib.import_module(f"sbcpmu.{module}")
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


def test_test_modules_follow_the_submodules():
    # a module's tests live in tests/test_<module>.py; a folded module takes its tests along.
    # test_signals tests the sampled sinusoid across blocks (Phasor) and mc (the identity-chain
    # samples, the engine's grid and pulse-count guard), so it is cross-cutting too
    submodules = {m.name for m in pkgutil.iter_modules(sbcpmu.__path__)}
    cross_cutting = {"acceptance", "imports", "readme", "signals"}
    names = {p.stem.removeprefix("test_") for p in Path(__file__).parent.glob("test_*.py")}
    assert sorted(names - submodules - cross_cutting) == []


@pytest.mark.parametrize("source", ["sbcpmu.cli", "sbcpmu.mc"])
def test_a_wrapper_set_on_cli_is_what_the_command_calls(tmp_path, source):
    # an instrumenting wrapper replaces a name where sbcpmu.cli looks it up;
    # it may read the original from sbcpmu.cli itself or from where it is defined
    code = (
        "import importlib, sys\n"
        "from sbcpmu import cli\n"
        "calls = []\n"
        "def wrap(name, original):\n"
        "    def traced(*args, **kwargs):\n"
        "        calls.append(name)\n"
        "        return original(*args, **kwargs)\n"
        "    return traced\n"
        "source = importlib.import_module(sys.argv[1])\n"
        "for name in ('monte_carlo', 'write_run'):\n"
        "    setattr(cli, name, wrap(name, getattr(source, name)))\n"
        "assert cli.main(['simulate', '--config', sys.argv[2]]) == 0\n"
        "print(calls)\n"
    )
    out = run_python(code, source, write_scenario(tmp_path))
    assert out.splitlines()[-1] == "['monte_carlo', 'write_run']"
