"""Harness configuration: INI-style files with CLI overrides.

The config is a plain key=value file with bracketed section headers (read by
configparser). Every value has a default, every default can be overridden by
a ``--set section.key=value`` flag, and the fully resolved config is echoed
into each output directory for provenance.
"""

import configparser
import io
import os

from .errors import ConfigError

DEFAULTS = {
    "frame": {
        "width": "128",
        "height": "128",
        "center": "0,0,0",
        "half_extent": "1.0",
    },
    "encode": {
        "order": "15",
    },
    "extract": {
        "grid_res": "128",
        "iso": "0.5",
    },
    "prior": {
        "iterations": "20",
        "strength": "0.5",
    },
    "occlude": {
        "kind": "rectangle",
        "policy": "zero",
        "sigma": "0.1",
        "feather_px": "3.0",
    },
    "sweep": {
        "shape": "sphere",
        "ratios": "0.2,0.4,0.6,0.8",
        "seeds": "0,1,2,3,4",
        "eval_samples": "10000",
        "eval_seed": "0",
        "jobs": "0",
    },
}


def default_seed():
    """Global seed fallback from the environment."""
    try:
        return int(os.environ.get("OAHUMAN_SEED", "0"))
    except ValueError as exc:
        raise ConfigError(f"OAHUMAN_SEED must be an integer: {exc}") from exc


class HarnessConfig:
    """Typed view over the section/key table."""

    def __init__(self, table):
        self._table = table

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

    def _get(self, sec, key):
        return self._table[sec][key]

    def _float(self, sec, key):
        try:
            return float(self._get(sec, key))
        except ValueError as exc:
            raise ConfigError(f"{sec}.{key} must be a number: {exc}") from exc

    def _int(self, sec, key):
        try:
            return int(self._get(sec, key))
        except ValueError as exc:
            raise ConfigError(f"{sec}.{key} must be an integer: {exc}") from exc

    def _float_list(self, sec, key):
        raw = self._get(sec, key)
        try:
            return [float(tok) for tok in raw.split(",") if tok.strip() != ""]
        except ValueError as exc:
            raise ConfigError(f"{sec}.{key} must be comma-separated numbers: {exc}") from exc

    def _int_list(self, sec, key):
        raw = self._get(sec, key)
        try:
            return [int(tok) for tok in raw.split(",") if tok.strip() != ""]
        except ValueError as exc:
            raise ConfigError(f"{sec}.{key} must be comma-separated integers: {exc}") from exc

    def frame(self):
        from .raster import OrthoFrame

        center = self._float_list("frame", "center")
        if len(center) != 3:
            raise ConfigError("frame.center must have 3 components")
        return OrthoFrame(self._int("frame", "width"), self._int("frame", "height"),
                          tuple(center), self._float("frame", "half_extent"))

    @property
    def order(self):
        return self._int("encode", "order")

    @property
    def grid_res(self):
        return self._int("extract", "grid_res")

    @property
    def iso(self):
        return self._float("extract", "iso")

    @property
    def prior_iterations(self):
        return self._int("prior", "iterations")

    @property
    def prior_strength(self):
        return self._float("prior", "strength")

    @property
    def occluder_kind(self):
        return self._get("occlude", "kind")

    @property
    def occlusion_policy(self):
        return self._get("occlude", "policy")

    @property
    def noise_sigma(self):
        return self._float("occlude", "sigma")

    @property
    def feather_px(self):
        return self._float("occlude", "feather_px")

    @property
    def sweep_shape(self):
        return self._get("sweep", "shape")

    @property
    def sweep_ratios(self):
        return self._float_list("sweep", "ratios")

    @property
    def sweep_seeds(self):
        return self._int_list("sweep", "seeds")

    @property
    def eval_samples(self):
        return self._int("sweep", "eval_samples")

    @property
    def eval_seed(self):
        return self._int("sweep", "eval_seed")

    @property
    def jobs(self):
        return self._int("sweep", "jobs")

    def validate(self):
        """Name and range checks of the sweep settings, before any work.

        Raises ConfigError for an unknown occluder kind, occlusion policy or
        shape, a ratio outside [0, MAX_RATIO], an empty ratio or seed list,
        grid_res < 2, order < 0, eval_samples < 1 or an invalid frame.
        """
        from .errors import DomainError
        from .occlusion import MAX_RATIO, OCCLUDER_KINDS, OCCLUSION_POLICIES
        from .shapes import SHAPE_MAKERS

        for sec, key, known in (("occlude", "kind", OCCLUDER_KINDS),
                                ("occlude", "policy", OCCLUSION_POLICIES),
                                ("sweep", "shape", SHAPE_MAKERS)):
            if self._get(sec, key) not in known:
                raise ConfigError(f"{sec}.{key} must be one of {list(known)}, "
                                  f"got {self._get(sec, key)!r}")
        if not self.sweep_ratios or not self.sweep_seeds:
            raise ConfigError("sweep needs at least one ratio and one seed")
        bad = [r for r in self.sweep_ratios if not 0.0 <= r <= MAX_RATIO]
        if bad:
            raise ConfigError(f"sweep.ratios must lie in [0, {MAX_RATIO}], got {bad}")
        for sec, key, lo in (("extract", "grid_res", 2), ("encode", "order", 0),
                             ("sweep", "eval_samples", 1)):
            if self._int(sec, key) < lo:
                raise ConfigError(f"{sec}.{key} must be >= {lo}, got {self._int(sec, key)}")
        try:
            self.frame()
        except DomainError as exc:
            raise ConfigError(f"invalid frame: {exc}") from exc

    def resolved_text(self):
        """Canonical INI text of the fully resolved configuration."""
        out = io.StringIO()
        for sec in DEFAULTS:
            out.write(f"[{sec}]\n")
            for key in DEFAULTS[sec]:
                out.write(f"{key} = {self._table[sec][key]}\n")
            out.write("\n")
        return out.getvalue()
