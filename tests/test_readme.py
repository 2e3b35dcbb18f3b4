"""The README's examples run as written: a renamed function or config key fails here."""

import json
import re
from pathlib import Path

from sbcpmu.cli import scenario_from_json

README = Path(__file__).resolve().parents[1] / "README.md"


def block(after: str, language: str) -> str:
    """The first fenced ``language`` block of README.md below the line ``after``."""
    text = README.read_text(encoding="utf-8")
    fence = re.compile(rf"^```{language}\n(.*?)^```$", re.MULTILINE | re.DOTALL)
    return fence.search(text, text.index(f"\n{after}\n")).group(1)


def test_library_quick_start_runs():
    namespace = {}
    exec(compile(block("## Library quick start", "python"), str(README), "exec"), namespace)
    # the block's comment: ~1.05 % uncompensated
    assert abs(namespace["result"].grand_mean_tve - 0.0105) < 0.0005


def test_scenario_config_is_valid():
    scenario = scenario_from_json(json.loads(block("A scenario config:", "json")))
    assert scenario["run"] == {"trials": 240, "seed": 12345, "duration_s": 30.0, "channels": 8}
