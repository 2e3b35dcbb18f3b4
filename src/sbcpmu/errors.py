"""Exception hierarchy shared across the package, and the strict JSON reader and writer.

The CLI maps these onto exit codes: ConfigError and EstimationError -> 2,
guard/model violations -> 3, I/O problems -> 4.  Chain profiles and scenario
configs are read with the one set of validators below, each raising a
``ConfigError`` that names the dotted key path of the bad value.  This module
imports only the standard library, so a command that reads JSON and no
arrays stays free of numpy.
"""

import json
import os
import sys


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


def utf8(raw: bytes, path) -> str:
    """``raw`` decoded as UTF-8; bytes that are not UTF-8 are a ``ConfigError`` naming the line."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}: line {line}: not UTF-8 text ({exc.reason})") from exc


def read_json(path):
    """Parse a JSON file as UTF-8 whatever the locale.

    A file that is not UTF-8 text, or not JSON, is a ``ConfigError`` naming
    the file and line.
    """
    with open(path, "rb") as fh:
        text = utf8(fh.read(), path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer longer than Python's int-string digit limit
        raise ConfigError(f"{path}: {exc}") from exc


def write_json(obj, path, sort_keys: bool = False) -> None:
    """Write ``obj`` as indented JSON, replacing ``path`` only once the whole text is written.

    The text goes to a temporary file next to the target, which
    ``os.replace`` then moves over it: a write that fails or is cut part-way
    leaves the old file whole, and a failed write removes its temporary
    file.  A symlinked target is written through the link.
    """
    path = os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    fh = open(tmp, "w")
    try:
        with fh:
            json.dump(obj, fh, indent=2, sort_keys=sort_keys)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _kind(value) -> str:
    """What a JSON value is, for error messages."""
    if _is_number(value):
        return "a number"
    names = {dict: "an object", list: "an array", str: "a string", bool: "a boolean"}
    return names.get(type(value), "null")


def of_type(value, path: str, kind: type):
    """``value`` if it is a JSON object, array or string: ``kind`` is dict, list or str."""
    if not isinstance(value, kind):
        raise ConfigError(f"{path}: expected {_kind(kind())}, got {_kind(value)}")
    return value


def section(obj: dict, key: str, path: str = "") -> dict:
    """``obj[key]``, an empty object when absent; anything but an object is a ``ConfigError``."""
    return of_type(obj.get(key, {}), path + key, dict)


def number(value, path: str, null: bool = False):
    """A finite JSON number; with ``null``, a JSON null is accepted and returned as None."""
    if value is None and null:
        return None
    if not _is_number(value):
        expected = "a number or null" if null else "a number"
        raise ConfigError(f"{path}: expected {expected}, got {_kind(value)}")
    # Python's json reads NaN, Infinity and integers too large for a float
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return value


def positive(value, path: str):
    if not number(value, path) > 0:
        raise ConfigError(f"{path}: expected a number > 0, got {value!r}")
    return value


def integer(value, path: str, low: int, null: bool = False):
    """A JSON integer ``>= low``; a number with a fraction part, even ``.0``, is not one."""
    if value is None and null:
        return None
    if not (isinstance(value, int) and not isinstance(value, bool) and value >= low):
        expected = f"an integer >= {low}" + (" or null" if null else "")
        raise ConfigError(f"{path}: expected {expected}, got {value!r}")
    return value


def numbers(value, path: str) -> list:
    return [number(v, f"{path}[{i}]") for i, v in enumerate(of_type(value, path, list))]


def reject_unknown_keys(raw: dict, known: dict, prefix: str = "") -> None:
    """Raise a ``ConfigError`` at the first key of ``raw`` that ``known`` lacks.

    ``known`` is the form a reader built from ``raw``: a key it lacks, a typo
    most likely, was not read and would be dropped in silence.
    """
    for key, value in raw.items():
        if key not in known:
            raise ConfigError(f"{prefix}{key}: unknown key; expected one of {sorted(known)}")
        if isinstance(value, dict) and isinstance(known[key], dict):
            reject_unknown_keys(value, known[key], f"{prefix}{key}.")
