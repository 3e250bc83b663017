"""Run configuration: `key = value` files, flag precedence, provenance.

Config files are line-oriented UTF-8: one `key = value` per line, full-line
`#` comments, blank lines ignored. Every option resolves the same way: its
command-line flag, then the config file, then its environment variable if it
has one, then its built-in default. Every run appends a provenance record to
a run log so artifacts can be traced to their inputs.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
from typing import Callable, Collection, Iterable, NamedTuple, Optional

from .errors import WarmstartError, read_text

WORKERS_ENV = "WARMSTART_WORKERS"
MAX_WORKERS = 8


class ConfigError(WarmstartError):
    pass


def parse_config_file(path, known_keys: Collection[str]) -> dict[str, str]:
    """Read `key = value` lines; values keep internal whitespace.

    A key outside `known_keys` is an error, so a misspelt key cannot be
    silently ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key not in known_keys:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


class Option(NamedTuple):
    """One command-line option, declared once for argparse and config files.

    The config key is the argparse dest: the flag without its leading dashes
    and with `-` as `_`, unless `dest` names it. `convert` parses a string
    value (None keeps it a string) and raises ValueError on a bad one; an
    option converted by `parse_bool` is a switch that takes no value on the
    command line. `env` names an environment variable read when neither the
    flag nor the config file gives a value. `file` marks a path the run reads
    or writes: "in", "out", or "in store" or "out store" with its `.idx`.
    """

    flag: str
    default: object = None
    convert: Optional[Callable[[str], object]] = None
    choices: Optional[tuple[str, ...]] = None
    required: bool = False
    help: Optional[str] = None
    dest: Optional[str] = None
    env: Optional[str] = None
    file: Optional[str] = None

    @property
    def key(self) -> str:
        return self.dest or self.flag[2:].replace("-", "_")


def _convert(opt: Option, raw: str, source: str) -> object:
    """A config or environment string through the option's converter and
    choices, as argparse puts a flag's."""
    try:
        value = raw if opt.convert is None else opt.convert(raw)
    except ValueError as e:
        raise ConfigError(f"{source}: cannot parse {raw!r}: {e}") from e
    if opt.choices is not None and value not in opt.choices:
        raise ConfigError(f"{source}: {raw!r} is not one of {', '.join(opt.choices)}")
    return value


def resolve_options(options: Iterable[Option], args, config: dict[str, str]) -> dict[str, object]:
    """Effective value of every option: flag, then config, then the option's
    environment variable, then its default.

    Flags are pre-parsed and checked by argparse; config and environment
    values are strings and go through the option's converter and choices
    here, so a bad value fails the same way wherever it came from.
    """
    values: dict[str, object] = {}
    for opt in options:
        value = getattr(args, opt.key)
        if value is None and opt.key in config:
            value = _convert(opt, config[opt.key], f"config key {opt.key}")
        if value is None and opt.env is not None and opt.env in os.environ:
            value = _convert(opt, os.environ[opt.env], opt.env)
        if value is None:
            value = opt.default
        if value is None and opt.required:
            raise ConfigError(f"missing required value: {opt.flag}")
        values[opt.key] = value
    return values


def resolve_workers() -> int:
    """Worker processes a command may use: WARMSTART_WORKERS, else the CPUs
    this process may run on, and at most MAX_WORKERS either way. Outputs do
    not depend on it, so it stays out of the run log."""
    env = os.environ.get(WORKERS_ENV)
    if env is None:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        return min(cpus or 1, MAX_WORKERS)
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"{WORKERS_ENV}={env!r} is not a positive integer")
    return min(workers, MAX_WORKERS)


def config_hash(values: dict[str, object]) -> str:
    """Order-independent digest of the effective configuration."""
    lines = [f"{k}={values[k]!r}" for k in sorted(values)]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


def append_run_log(subcommand: str, values: dict[str, object]) -> None:
    """One provenance record per run, appended to `values["run_log"]`: when
    (UTC), what, which config, which seed.

    `values` is the full effective option dict, defaults included, so two
    runs that differ in any option log different hashes. The seed has its
    own field and the log's own path is not configuration, so neither is
    hashed.

    Logging failures never fail the run; the log is best-effort bookkeeping.
    """
    from . import __version__

    config = {k: v for k, v in values.items() if k not in ("seed", "run_log")}
    record = "\t".join(
        [
            time.strftime("%Y-%m-%dT%H:%M:%S%z", time.gmtime()),
            subcommand,
            f"config={config_hash(config)}",
            f"seed={values['seed']}",
            f"warmstart={__version__}",
            f"python={sys.version_info.major}.{sys.version_info.minor}.{sys.version_info.micro}",
        ]
    )
    try:
        with open(values["run_log"], "a", encoding="utf-8") as f:
            f.write(record + "\n")
    except OSError:
        pass
