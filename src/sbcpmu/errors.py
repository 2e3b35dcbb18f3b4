"""Exception hierarchy shared across the package, and the JSON reader that raises it.

The CLI maps these onto exit codes: ConfigError -> 2, guard/model
violations -> 3, I/O problems -> 4.  This module imports only the standard
library, so a command that reads JSON and no arrays stays free of numpy.
"""

import json


class SbcPmuError(Exception):
    """Base class for all package errors."""


class ScheduleGuardError(SbcPmuError):
    """Pulse-count approximation guard |R-1|*N_s < 1 violated."""


class ModelParameterError(SbcPmuError):
    """An error-block model was built with an infeasible parameter set."""


class EstimationError(SbcPmuError):
    """A waveform cannot support the requested phasor estimate."""


class ConfigError(SbcPmuError):
    """Scenario/profile configuration is malformed or inconsistent."""


def read_json(path):
    """Parse a JSON file as UTF-8 whatever the locale.

    A file that is not UTF-8 text, or not JSON, is a ``ConfigError`` naming
    the file and line.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}: line {line}: not UTF-8 text ({exc.reason})") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
