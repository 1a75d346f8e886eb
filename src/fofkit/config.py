"""Harness configuration: INI-style files with CLI overrides.

The config is a plain key=value file with bracketed section headers (read by
configparser). Every value has a default, every default can be overridden by
a ``--set section.key=value`` flag, and the fully resolved config is echoed
into each output directory for provenance.

Each setting is one row of SETTINGS. HarnessConfig parses and range-checks
every row once, when it is built, so a malformed or out-of-range value raises
ConfigError before any work starts or any output is written.
"""

import configparser
import io
import math
import os

from .errors import ConfigError, DomainError
from .occlusion import MAX_RATIO, OCCLUDER_KINDS, OCCLUSION_POLICIES
from .raster import OrthoFrame
from .shapes import SHAPE_MAKERS


def number(text):
    """A finite float: the parser of every real-valued setting and CLI flag."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def numbers(text):
    """Comma-separated finite floats; empty items are skipped."""
    return [number(tok) for tok in text.split(",") if tok.strip()]


def integers(text):
    """Comma-separated integers; empty items are skipped."""
    return [int(tok) for tok in text.split(",") if tok.strip()]


# A range check is (predicate, what a valid value is).
def _at_least(lo):
    return (lambda v: v >= lo), f">= {lo}"


def _one_of(names):
    return (lambda v: v in names), f"one of {list(names)}"


_UNIT = (lambda v: 0.0 <= v <= 1.0), "in [0, 1]"
RATIO = (lambda v: 0.0 <= v <= MAX_RATIO), f"in [0, {MAX_RATIO}]"
_RATIOS = (lambda v: v and all(map(RATIO[0], v))), f"one or more ratios in [0, {MAX_RATIO}]"
_NON_EMPTY = bool, "non-empty"

# The [frame] rows have no attribute: they are the OrthoFrame fields of frame().
SETTINGS = (
    # section, key, default text, parser, range check, HarnessConfig attribute
    ("frame", "width", "128", int, None, None),
    ("frame", "height", "128", int, None, None),
    ("frame", "center", "0,0,0", numbers, None, None),
    ("frame", "half_extent", "1.0", number, None, None),
    ("encode", "order", "15", int, _at_least(0), "order"),
    ("extract", "grid_res", "128", int, _at_least(2), "grid_res"),
    ("extract", "iso", "0.5", number, None, "iso"),
    ("prior", "iterations", "20", int, _at_least(0), "prior_iterations"),
    ("prior", "strength", "0.5", number, _UNIT, "prior_strength"),
    ("occlude", "kind", "rectangle", str, _one_of(OCCLUDER_KINDS), "occluder_kind"),
    ("occlude", "policy", "zero", str, _one_of(OCCLUSION_POLICIES), "occlusion_policy"),
    ("occlude", "sigma", "0.1", number, None, "noise_sigma"),
    ("occlude", "feather_px", "3.0", number, None, "feather_px"),
    ("sweep", "shape", "sphere", str, _one_of(SHAPE_MAKERS), "sweep_shape"),
    ("sweep", "ratios", "0.2,0.4,0.6,0.8", numbers, _RATIOS, "sweep_ratios"),
    ("sweep", "seeds", "0,1,2,3,4", integers, _NON_EMPTY, "sweep_seeds"),
    ("sweep", "eval_samples", "10000", int, _at_least(1), "eval_samples"),
    ("sweep", "eval_seed", "0", int, None, "eval_seed"),
    ("sweep", "jobs", "0", int, None, "jobs"),
)


def parse_checked(name, raw, parse, check):
    """Parse raw text and apply a range check (None for none); ConfigError
    names `name` when either fails."""
    try:
        value = parse(raw)
    except ValueError as exc:
        raise ConfigError(f"{name} = {raw!r} is malformed: {exc}") from exc
    if check is not None and not check[0](value):
        raise ConfigError(f"{name} must be {check[1]}, got {raw!r}")
    return value


DEFAULTS = {sec: {key: text for s, key, text, *_ in SETTINGS if s == sec}
            for sec, *_ in SETTINGS}


def default_seed():
    """Global seed fallback from the environment."""
    try:
        return int(os.environ.get("OAHUMAN_SEED", "0"))
    except ValueError as exc:
        raise ConfigError(f"OAHUMAN_SEED must be an integer: {exc}") from exc


class HarnessConfig:
    """The section/key text table, parsed and checked into typed attributes."""

    def __init__(self, table):
        self._table = table
        frame = {}
        for sec, key, _, parse, check, attr in SETTINGS:
            value = parse_checked(f"{sec}.{key}", table[sec][key], parse, check)
            if attr is None:
                frame[key] = value
            else:
                setattr(self, attr, value)
        try:
            self._frame = OrthoFrame(**frame)
        except DomainError as exc:
            raise ConfigError(f"invalid frame: {exc}") from exc

    @classmethod
    def load(cls, path=None, overrides=()):
        table = {sec: dict(keys) for sec, keys in DEFAULTS.items()}
        if path is not None:
            parser = configparser.ConfigParser()
            read = parser.read(path)
            if not read:
                raise ConfigError(f"cannot read config file {path!r}")
            for sec in parser.sections():
                if sec not in table:
                    raise ConfigError(f"unknown config section [{sec}]")
                for key, value in parser[sec].items():
                    if key not in table[sec]:
                        raise ConfigError(f"unknown config key {sec}.{key}")
                    table[sec][key] = value
        for item in overrides:
            if "=" not in item:
                raise ConfigError(f"override must be section.key=value, got {item!r}")
            target, value = item.split("=", 1)
            if "." not in target:
                raise ConfigError(f"override must be section.key=value, got {item!r}")
            sec, key = target.split(".", 1)
            if sec not in table or key not in table[sec]:
                raise ConfigError(f"unknown config key {sec}.{key}")
            table[sec][key] = value
        return cls(table)

    def frame(self):
        """The OrthoFrame of the [frame] settings, built and checked at load."""
        return self._frame

    def resolved_text(self):
        """Canonical INI text of the fully resolved configuration."""
        out = io.StringIO()
        for sec in DEFAULTS:
            out.write(f"[{sec}]\n")
            for key in DEFAULTS[sec]:
                out.write(f"{key} = {self._table[sec][key]}\n")
            out.write("\n")
        return out.getvalue()
