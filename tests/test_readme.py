"""The README's examples run as written: a renamed function or config key fails here."""

import itertools
import json
import re
from pathlib import Path

from sbcpmu.cli import _MANIFEST, _REQUIRED, _SCENARIO, scenario_from_json

README = Path(__file__).resolve().parents[1] / "README.md"


def block(after: str, language: str) -> str:
    """The first fenced ``language`` block of README.md below the line ``after``."""
    text = README.read_text(encoding="utf-8")
    fence = re.compile(rf"^```{language}\n(.*?)^```$", re.MULTILINE | re.DOTALL)
    return fence.search(text, text.index(f"\n{after}\n")).group(1)


def lines_below(marker: str, first: str) -> list:
    """README.md's lines from the first starting with ``first`` below ``marker`` to a blank line."""
    text = README.read_text(encoding="utf-8")
    lines = text[text.index(marker) :].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(first))
    return list(itertools.takewhile(str.strip, lines[start:]))


def test_library_quick_start_runs():
    namespace = {}
    exec(compile(block("## Library quick start", "python"), str(README), "exec"), namespace)
    # the block's comment: ~1.05 % uncompensated
    assert abs(namespace["result"].grand_mean_tve - 0.0105) < 0.0005


def test_scenario_config_is_valid():
    scenario = scenario_from_json(json.loads(block("A scenario config:", "json")))
    assert scenario["run"] == {"trials": 240, "seed": 12345, "duration_s": 30.0, "channels": 8}


def test_scenario_key_table_is_the_scenario_table():
    rows = [row.split(" | ") for row in lines_below("\nIts keys:\n", "| ")[2:]]
    documented = [(path.strip("| `"), default.strip(" |`")) for path, _, default in rows]
    assert documented == [
        (path, "required" if default is _REQUIRED else json.dumps(default))
        for path, (_, default) in _SCENARIO.items()
    ]


def test_report_key_list_is_the_manifest_table():
    listed = lines_below("checks every key that `simulate` writes there:", "- ")
    assert sorted(re.findall(r"`(\w+)`", " ".join(listed))) == sorted(_MANIFEST)
