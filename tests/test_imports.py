"""What each entry point imports, checked in fresh interpreters.

A CLI process pays for every module it loads, so ``import sbcpmu`` loads no
numpy, ``report`` loads none at all, and each subcommand loads only the
submodules it uses.
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

# Runs cli.main on argv[1:], then prints the sbcpmu and numpy modules loaded.
MODULES_AFTER_MAIN = (
    "import json, sys\n"
    "from sbcpmu import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'sbcpmu'))))\n"
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


def test_cli_import_pulls_in_no_scipy():
    # every CLI process pays the import; scipy.stats alone used to cost ~1 s
    code = (
        "import sys, sbcpmu, sbcpmu.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert run_python(code).strip() == "[]"


def test_package_import_loads_no_numpy():
    code = "import sys, sbcpmu; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    assert run_python(code).strip() == "[]"


def test_report_loads_no_numpy(tmp_path):
    from sbcpmu.cli import main

    assert main(["simulate", "--config", str(write_scenario(tmp_path))]) == 0
    loaded = modules_after_main("report", tmp_path / "run")
    assert not any(m.split(".")[0] == "numpy" for m in loaded)
    assert loaded == {"sbcpmu", "sbcpmu.cli", "sbcpmu.errors"}


def test_characterize_loads_no_mc_or_estimate(tmp_path):
    sweep = tmp_path / "sweep.csv"
    sweep.write_text("v_in,v_out,channel,device\n-1,-1,ch0,dev0\n0,0,ch0,dev0\n1,1,ch0,dev0\n")
    loaded = modules_after_main(
        "characterize", "sweep", "--input", sweep, "--output", tmp_path / "frag.json"
    )
    assert "sbcpmu.characterize" in loaded
    assert not loaded & {"sbcpmu.mc", "sbcpmu.estimate", "sbcpmu.signals"}


def test_profile_show_loads_no_signals_or_estimate():
    loaded = modules_after_main("profile", "show", "paper")
    assert "sbcpmu.blocks" in loaded
    assert not loaded & {"sbcpmu.mc", "sbcpmu.estimate", "sbcpmu.signals"}


def test_simulate_loads_no_characterize(tmp_path):
    loaded = modules_after_main("simulate", "--config", write_scenario(tmp_path))
    assert {m for m in loaded if m.split(".")[0] == "sbcpmu"} == {
        "sbcpmu", "sbcpmu.cli", "sbcpmu.errors", "sbcpmu.data", "sbcpmu.blocks",
        "sbcpmu.signals", "sbcpmu.estimate", "sbcpmu.mc",
    }


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
