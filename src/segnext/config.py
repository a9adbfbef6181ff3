"""Line-oriented run configuration: `[section]` headers and `key = value`
pairs, strictly validated with line numbers in every error."""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Callable, get_type_hints

from .encoder import MIN_INPUT_SIZE, ConfigError, ModelConfig, PRESETS, preset


@dataclass(frozen=True)
class TrainParams:
    """The training recipe, named, defaulted and checked here alone. The
    fields are the ``[train]`` keys and ``train()``'s keywords."""

    iters: int = 2000
    batch: int = 8
    crop: int = 128
    lr: float = 6e-5
    power: float = 1.0
    warmup_iters: int = 0
    warmup_ratio: float = 0.1
    weight_decay: float = 0.01
    eval_interval: int = 250
    checkpoint_interval: int = 500

    def __post_init__(self):
        if self.iters < 0:
            raise ConfigError(f"iters must be >= 0, got {self.iters}")
        if self.batch < 1:
            raise ConfigError(f"batch must be >= 1, got {self.batch}")
        if self.crop < MIN_INPUT_SIZE:
            raise ConfigError(f"crop must be >= {MIN_INPUT_SIZE}, got {self.crop}")
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if not (self.power > 0 and math.isfinite(self.power)):
            raise ConfigError(f"power must be positive and finite, got {self.power}")
        if self.warmup_iters < 0:
            raise ConfigError(f"warmup_iters must be >= 0, got {self.warmup_iters}")
        if not 0.0 < self.warmup_ratio <= 1.0:
            raise ConfigError(f"warmup_ratio must be in (0, 1], got {self.warmup_ratio}")
        if not (self.weight_decay >= 0 and math.isfinite(self.weight_decay)):
            raise ConfigError(f"weight_decay must be >= 0 and finite, got {self.weight_decay}")
        if self.eval_interval < 0:
            raise ConfigError(f"eval_interval must be >= 0, got {self.eval_interval}")
        if self.checkpoint_interval < 0:
            raise ConfigError(
                f"checkpoint_interval must be >= 0, got {self.checkpoint_interval}")


@dataclass(frozen=True)
class DataParams:
    size: int = 128
    num_train: int = 64
    num_val: int = 8

    def __post_init__(self):
        if self.size < 64:
            raise ConfigError(f"size must be >= 64, got {self.size}")
        if self.num_train < 1:
            raise ConfigError(f"num_train must be >= 1, got {self.num_train}")
        if self.num_val < 1:
            raise ConfigError(f"num_val must be >= 1, got {self.num_val}")


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig
    train: TrainParams = TrainParams()
    data: DataParams = DataParams()
    seed: int = 0
    out_dir: str = "runs/default"


def _parse_bool(s: str) -> bool:
    if s == "true":
        return True
    if s == "false":
        return False
    raise ValueError(f"expected true or false, got {s!r}")


def _parse_int_list(s: str) -> tuple[int, ...]:
    return tuple(int(p.strip()) for p in s.split(","))


def _parse_preset(s: str) -> str:
    if s not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown preset {s!r}; known presets: {known}")
    return s


_PARSERS = {int: int, float: float, str: str, bool: _parse_bool,
            tuple[int, int, int, int]: _parse_int_list}
# RunConfig's other sections are classes of their own, not keys.
_NOT_KEYS = frozenset({"model", "train", "data"})
_RENAMED = {"include_stage1_in_decoder": "include_stage1"}


def _scalar_keys(cls) -> dict[str, tuple[str, Callable[[str], object]]]:
    """Config key -> (field name, parser) for each field of ``cls`` in
    declaration order. A field whose annotation has no parser raises, so no
    field is left out of the file format unnoticed."""
    hints = get_type_hints(cls)
    keys = {}
    for f in fields(cls):
        if f.name in _NOT_KEYS:
            continue
        if hints[f.name] not in _PARSERS:
            raise TypeError(f"{cls.__name__}.{f.name}: no config parser for {hints[f.name]!r}")
        keys[_RENAMED.get(f.name, f.name)] = (f.name, _PARSERS[hints[f.name]])
    return keys


# section -> its keys, in the order they are written.
_WRITTEN = {
    "model": _scalar_keys(ModelConfig),
    "train": _scalar_keys(TrainParams),
    "data": _scalar_keys(DataParams),
    "run": _scalar_keys(RunConfig),
}
# Reading also accepts a preset name in [model]; anything else is rejected.
_READ = {**_WRITTEN, "model": {"model": ("model", _parse_preset), **_WRITTEN["model"]}}


def parse_config(text: str) -> RunConfig:
    """Parse and validate; raises ConfigError with a line number on any
    malformed line, unknown key or section, duplicate, or bad value."""
    values: dict[str, dict[str, object]] = {section: {} for section in _READ}
    lines_of: dict[tuple[str, str], int] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _READ:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: entry before any [section] header")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        spot = (section, key)
        if key not in _READ[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        if spot in lines_of:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first set on line {lines_of[spot]})"
            )
        name, parser = _READ[section][key]
        try:
            values[section][name] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from None
        lines_of[spot] = lineno
    return _assemble(values)


def _assemble(values: dict[str, dict[str, object]]) -> RunConfig:
    model = values["model"]
    preset_name = model.pop("model", None)
    # A custom model is mscan-t's decoder on all three given stage lists.
    lists = {"channels", "depths", "expansions"} & model.keys()
    if lists and preset_name is not None:
        raise ConfigError("channels/depths/expansions cannot be combined with a model preset")
    if 0 < len(lists) < 3:
        raise ConfigError("custom models need all of channels, depths, and expansions")
    base = preset(preset_name or "mscan-t")
    model_cfg = replace(base, **model) if model else base
    return RunConfig(model_cfg, TrainParams(**values["train"]),
                     DataParams(**values["data"]), **values["run"])


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return ",".join(str(x) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def serialize_config(rc: RunConfig) -> str:
    """Canonical text form; parse(serialize(rc)) == rc, with the model
    written out field by field rather than as a preset name."""
    lines = []
    for section, keys in _WRITTEN.items():
        obj = rc if section == "run" else getattr(rc, section)
        lines.append(f"[{section}]")
        lines += [f"{key} = {_fmt(getattr(obj, name))}" for key, (name, _) in keys.items()]
        lines.append("")
    return "\n".join(lines)
