"""Experiment configuration: one JSON file drives gen/train/screen/eval.

The file is versioned (schema_version) and round-trips losslessly, so
a stored config fully determines every artifact the commands write.
Every JSON file dpnet writes or reads goes through write_json/read_json.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "SCHEMA_VERSION",
    "OodSourceConfig",
    "DatasetConfig",
    "ModelConfig",
    "RoleConfig",
    "ScreeningConfig",
    "EvalConfig",
    "ExperimentConfig",
    "default_config",
    "load_config",
    "save_config",
    "read_json",
    "write_json",
]

SCHEMA_VERSION = "dpn-exp-v1"

# Names the training command can resolve to an OOD exposure set.
KNOWN_SOURCES = ("far_ood", "shifted_train")


@dataclass(frozen=True)
class OodSourceConfig:
    name: str
    gamma: float
    lambda_out: float

    def __post_init__(self) -> None:
        if self.name not in KNOWN_SOURCES:
            raise ValueError(f"unknown OOD source {self.name!r}")
        if self.gamma < 0.0:
            raise ValueError("gamma must be >= 0")


@dataclass(frozen=True)
class DatasetConfig:
    classes: int = 3
    train: int = 3000
    val: int = 500
    test: int = 500
    seed: int = 7
    shift: float = 2.0
    scale: float = 1.0
    shifted_test: int = 500
    shifted_seed: int = 8
    shifted_train: int = 200
    shifted_train_seed: int = 9
    far_ood: int = 1000
    far_ood_seed: int = 10

    def __post_init__(self) -> None:
        if self.classes < 2:
            raise ValueError("classes must be >= 2")
        for name in ("train", "val", "test", "shifted_test", "shifted_train", "far_ood"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.scale <= 0.0:
            raise ValueError("scale must be positive")


@dataclass(frozen=True)
class ModelConfig:
    hidden: tuple[int, ...] = (32, 32)
    activation: str = "relu"

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if not self.hidden or any(h < 1 for h in self.hidden):
            raise ValueError("hidden must be positive layer widths")
        if self.activation not in ("relu", "tanh"):
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass(frozen=True)
class RoleConfig:
    lambda_in: float
    ood_sources: tuple[OodSourceConfig, ...]
    epochs: int
    batch_size: int
    learning_rate: float
    momentum: float
    seed: int
    init_seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "ood_sources", tuple(self.ood_sources))
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")


@dataclass(frozen=True)
class ScreeningConfig:
    drop_fraction_detector: float = 0.05
    drop_fraction_classifier: float = 0.01

    def __post_init__(self) -> None:
        for name in ("drop_fraction_detector", "drop_fraction_classifier"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in (0, 1)")


@dataclass(frozen=True)
class EvalConfig:
    drop_fractions: tuple[float, ...] = (0.05, 0.07, 0.1)

    def __post_init__(self) -> None:
        object.__setattr__(self, "drop_fractions", tuple(float(p) for p in self.drop_fractions))
        if not self.drop_fractions or any(not 0.0 < p < 1.0 for p in self.drop_fractions):
            raise ValueError("drop_fractions must lie in (0, 1)")


@dataclass(frozen=True)
class ExperimentConfig:
    out_dir: str
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    classifier: RoleConfig | None = None
    detector: RoleConfig | None = None
    screening: ScreeningConfig = field(default_factory=ScreeningConfig)
    evaluation: EvalConfig = field(default_factory=EvalConfig)

    def role(self, name: str) -> RoleConfig:
        if name == "classifier" and self.classifier is not None:
            return self.classifier
        if name == "detector" and self.detector is not None:
            return self.detector
        raise ValueError(f"config: no settings for role {name!r}")


def default_config(out_dir: str = "runs/default") -> ExperimentConfig:
    """Defaults sized so the full experiment runs in well under a minute."""
    return ExperimentConfig(
        out_dir=out_dir,
        classifier=RoleConfig(
            lambda_in=0.1,
            ood_sources=(OodSourceConfig("far_ood", 0.1, -1.0),),
            epochs=40,
            batch_size=64,
            learning_rate=0.05,
            momentum=0.9,
            seed=11,
            init_seed=101,
        ),
        detector=RoleConfig(
            lambda_in=0.5,
            ood_sources=(
                OodSourceConfig("far_ood", 0.5, -1.0),
                OodSourceConfig("shifted_train", 0.5, -0.2),
            ),
            epochs=40,
            batch_size=64,
            learning_rate=0.05,
            momentum=0.9,
            seed=12,
            init_seed=202,
        ),
    )


# JSON scalar check for each declared field type: (what it must be, test)
_SCALARS = {
    str: ("a string", lambda v: isinstance(v, str)),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    # compared, not converted: float() of a huge JSON integer would overflow
    float: ("a finite number", lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max),
}


@functools.cache
def _fields(cls) -> tuple:
    """(name, type, optional) for each field of a config dataclass.

    A field declared X | None comes out as (name, X, True). Cached
    because resolving the type hints costs more than a whole load.
    """
    hints = typing.get_type_hints(cls)
    out = []
    for f in dataclasses.fields(cls):
        args = typing.get_args(hints[f.name])
        optional = type(None) in args
        out.append((f.name, args[0] if optional else hints[f.name], optional))
    return tuple(out)


def _to_json(value):
    """JSON form of a config value; fields set to None (absent roles) are left out."""
    if dataclasses.is_dataclass(value):
        items = ((f.name, getattr(value, f.name)) for f in dataclasses.fields(value))
        return {name: _to_json(v) for name, v in items if v is not None}
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


def _from_json(tp, value, where: str):
    """Check a JSON value against the declared type tp and build it.

    where is the key path, used in every error message. A field whose
    type admits None may be left out and then takes None. A key that no
    field declares is refused.
    """
    if dataclasses.is_dataclass(tp):
        if not isinstance(value, dict):
            raise ValueError(f"{where or 'top-level value'} must be an object")
        in_where = f" in {where}" if where else ""
        kwargs = {}
        for name, hint, optional in _fields(tp):
            if name in value:
                kwargs[name] = _from_json(hint, value[name], f"{where}.{name}" if where else name)
            elif optional:
                kwargs[name] = None
            else:
                raise ValueError(f"missing key {name!r}{in_where}")
        unknown = [key for key in value if key not in kwargs]
        if unknown:
            raise ValueError(f"unknown key {unknown[0]!r}{in_where}")
        try:
            return tp(**kwargs)
        except ValueError as exc:
            if not where:
                raise
            raise ValueError(f"{where}: {exc}") from None
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ValueError(f"{where} must be a list")
        item = typing.get_args(tp)[0]
        return tuple(_from_json(item, v, f"{where}[{i}]") for i, v in enumerate(value))
    kind, accepts = _SCALARS[tp]
    if not accepts(value):
        raise ValueError(f"{where} must be {kind}")
    return tp(value)


def to_dict(cfg: ExperimentConfig) -> dict:
    return {"schema_version": SCHEMA_VERSION, **_to_json(cfg)}


def from_dict(d: dict) -> ExperimentConfig:
    if not isinstance(d, dict) or "schema_version" not in d:
        raise ValueError("missing key 'schema_version'")
    if d["schema_version"] != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {d['schema_version']!r}")
    return _from_json(ExperimentConfig, {k: v for k, v in d.items() if k != "schema_version"}, "")


def _load_json(path, build):
    """build(value) for the JSON value in the file at path; every refusal starts with '<path>: '."""
    try:
        with open(path, encoding="utf-8") as fh:
            return build(json.load(fh))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_json(path, cls):
    """The dataclass cls, built from the JSON file at path after _from_json checks every field."""
    return _load_json(path, functools.partial(_from_json, cls, where=""))


def write_json(path, blob) -> None:
    """Write blob to path as JSON with sorted keys, indent 2 and a trailing newline.

    The bytes go to a temp file beside path, which is fsynced and then
    renamed over it: a reader sees the old file or the new one, never a
    part. On failure the temp file is removed and the old file is unchanged.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(blob, fh, indent=2, sort_keys=True)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_config(path) -> ExperimentConfig:
    return _load_json(path, from_dict)


def save_config(cfg: ExperimentConfig, path) -> None:
    write_json(path, to_dict(cfg))
