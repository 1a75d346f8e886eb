"""Harness configuration: INI-style files with CLI overrides.

The config is a plain key=value file with bracketed section headers (read by
configparser). Every value has a default, every default can be overridden by
a ``--set section.key=value`` flag, and the fully resolved config is echoed
into each output directory for provenance.

Each setting is one row of SETTINGS, whose range check is the object the
library passes to errors.require for it. HarnessConfig parses and checks
every row once, when it is built, so a malformed or out-of-range value raises
ConfigError naming the setting before any work starts or output is written.
"""

import configparser
import io
import os

from .completion import FEATHER, ITERATIONS, STRENGTH
from .errors import ConfigError, require
from .fof import DEPTH_RES, ORDER
from .occlusion import KIND, POLICY, RATIO, SIGMA
from .raster import CENTER, HALF_EXTENT, PIXELS, OrthoFrame
from .rng import SEED
from .shapes import SHAPE
from .surface import ISO, SAMPLES


def numbers(text):
    """Comma-separated floats; empty items are skipped."""
    return [float(tok) for tok in text.split(",") if tok.strip()]


def integers(text):
    """Comma-separated integers; empty items are skipped."""
    return [int(tok) for tok in text.split(",") if tok.strip()]


# The [frame] rows have no attribute: they are the OrthoFrame fields of frame().
SETTINGS = (
    # section, key, default text, parser, range check, HarnessConfig attribute
    ("frame", "width", "128", int, PIXELS, None),
    ("frame", "height", "128", int, PIXELS, None),
    ("frame", "center", "0,0,0", lambda text: tuple(numbers(text)), CENTER, None),
    ("frame", "half_extent", "1.0", float, HALF_EXTENT, None),
    ("encode", "order", "15", int, ORDER, "order"),
    ("extract", "grid_res", "128", int, DEPTH_RES, "grid_res"),
    ("extract", "iso", "0.5", float, ISO, "iso"),
    ("prior", "iterations", "20", int, ITERATIONS, "prior_iterations"),
    ("prior", "strength", "0.5", float, STRENGTH, "prior_strength"),
    ("occlude", "kind", "rectangle", str, KIND, "occluder_kind"),
    ("occlude", "policy", "zero", str, POLICY, "occlusion_policy"),
    ("occlude", "sigma", "0.1", float, SIGMA, "noise_sigma"),
    ("occlude", "feather_px", "3.0", float, FEATHER, "feather_px"),
    ("sweep", "shape", "sphere", str, SHAPE, "sweep_shape"),
    ("sweep", "ratios", "0.2,0.4,0.6,0.8", numbers, RATIO, "sweep_ratios"),
    ("sweep", "seeds", "0,1,2,3,4", integers, SEED, "sweep_seeds"),
    ("sweep", "eval_samples", "10000", int, SAMPLES, "eval_samples"),
    ("sweep", "eval_seed", "0", int, SEED, "eval_seed"),
    ("sweep", "jobs", "0", int, None, "jobs"),
)


def parse_checked(name, raw, parse, check):
    """Parse raw text and apply a range check (None for none) to the value,
    or to each item of a non-empty list; ConfigError names `name` when
    either fails."""
    try:
        value = parse(raw)
    except ValueError as exc:
        raise ConfigError(f"{name} = {raw!r} is malformed: {exc}") from exc
    items = value if isinstance(value, list) else [value]
    if not items:
        raise ConfigError(f"{name} = {raw!r} is malformed: no values")
    for item in items if check is not None else ():
        require(name, item, check, ConfigError)
    return value


DEFAULTS = {sec: {key: text for s, key, text, *_ in SETTINGS if s == sec}
            for sec, *_ in SETTINGS}


def default_seed():
    """Global seed fallback from the environment."""
    return parse_checked("OAHUMAN_SEED", os.environ.get("OAHUMAN_SEED", "0"), int, SEED)


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
        self._frame = OrthoFrame(**frame)

    @classmethod
    def load(cls, path=None, overrides=()):
        table = {sec: dict(keys) for sec, keys in DEFAULTS.items()}
        if path is not None:
            parser = configparser.ConfigParser()
            # Interpolation errors are raised as the values are read, so the
            # loop over them lies inside the try too.
            try:
                if not parser.read(path):
                    raise ConfigError(f"cannot read config file {path!r}")
                for sec in parser.sections():
                    if sec not in table:
                        raise ConfigError(f"unknown config section [{sec}]")
                    for key, value in parser[sec].items():
                        if key not in table[sec]:
                            raise ConfigError(f"unknown config key {sec}.{key}")
                        table[sec][key] = value
            except (configparser.Error, UnicodeDecodeError) as exc:
                detail = " ".join(str(exc).split())  # one line
                raise ConfigError(f"malformed config file {path!r}: {detail}") from exc
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
