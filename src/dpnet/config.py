"""Experiment configuration: one JSON file drives gen/train/screen/eval.

The file is versioned (schema_version) and round-trips losslessly, so
a stored config fully determines every artifact the commands write.
Every JSON file dpnet writes or reads goes through write_json/read_json.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import typing
from dataclasses import dataclass, field

from . import _atomic, data, losses, network, training

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

SCHEMA_VERSION = "dpn-exp-v2"

# How each named dataset is drawn from a DatasetConfig: the one table of draws, and the only
# code that knows which random stream, ds.seed + k, each set takes. Two streams are shared:
# shifted_test takes in_val's, so at equal row counts it is in_val's noise around the shifted
# centers; shifted_train takes in_test's, so its noise rows are in_test's first ones. The
# far_ood draw, which eval scores, is also the far exposure set train draws. ROADMAP item 1
# gives that exposure set a stream of its own.
_DRAWS = {
    "in_train": lambda ds: data.gen_in_domain(ds.train, ds.classes, ds.seed),
    "in_val": lambda ds: data.gen_in_domain(ds.val, ds.classes, ds.seed + 1),
    "in_test": lambda ds: data.gen_in_domain(ds.test, ds.classes, ds.seed + 2),
    "shifted_test": lambda ds: data.gen_shifted(ds.shifted_test, ds.classes, ds.seed + 1, ds.shift, ds.scale),
    "far_ood": lambda ds: data.gen_far_ood(ds.far_ood, ds.seed + 3),
    "shifted_train": lambda ds: data.gen_shifted(ds.shifted_train, ds.classes, ds.seed + 2, ds.shift, ds.scale),
}
# gen writes each GENERATED set to <name>.csv, in order; train draws each OOD source a role names
GENERATED = ("in_train", "in_val", "in_test", "shifted_test", "far_ood")
KNOWN_SOURCES = ("far_ood", "shifted_train")


@dataclass(frozen=True)
class OodSourceConfig:
    name: str
    gamma: float
    lambda_out: float

    def __post_init__(self) -> None:
        if self.name not in KNOWN_SOURCES:
            raise ValueError(f"unknown OOD source {self.name!r}")
        losses.OodTerm(self.gamma, self.lambda_out)  # OodTerm checks gamma and lambda_out


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
    shifted_train: int = 200
    far_ood: int = 1000

    def __post_init__(self) -> None:
        if self.classes < 2:
            raise ValueError("classes must be >= 2")
        for name in ("train", "val", "test", "shifted_test", "shifted_train"):
            if getattr(self, name) < self.classes:
                raise ValueError(f"{name} must be >= classes ({self.classes})")
        if self.far_ood < 1:
            raise ValueError("far_ood must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.scale <= 0.0:
            raise ValueError("scale must be positive")

    def draw(self, name: str) -> data.ExampleSet:
        """The dataset ``name``, one of GENERATED or KNOWN_SOURCES, drawn from these settings."""
        return _DRAWS[name](self)


@dataclass(frozen=True)
class ModelConfig:
    hidden: tuple[int, ...] = (32, 32)
    activation: str = "relu"

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if not self.hidden or any(h < 1 for h in self.hidden):
            raise ValueError("hidden must be positive layer widths")
        if self.activation not in network._ACTIVATIONS:
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
        self.train_config()  # refuses what TrainConfig refuses
        if self.init_seed < 0:
            raise ValueError("init_seed must be >= 0")

    def train_config(self) -> training.TrainConfig:
        """This role's settings as the TrainConfig that training.train takes."""
        terms = tuple(losses.OodTerm(s.gamma, s.lambda_out) for s in self.ood_sources)
        return training.TrainConfig(
            objective=losses.ObjectiveConfig(self.lambda_in, terms),
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            momentum=self.momentum,
            seed=self.seed,
        )


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


def _from_json(tp, value, where: str = ""):
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


# how many (builder, file bytes) results _load_json keeps; a config and a thresholds file per run
_JSON_CACHE_SIZE = 8


def _unique_keys(pairs: list) -> dict:
    """A JSON object's dict; a key given twice is refused, where json.loads alone would keep its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:  # a LookupError, so that _build_json's digit-limit branch cannot take it
            raise LookupError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


@functools.lru_cache(maxsize=_JSON_CACHE_SIZE)
def _build_json(raw: bytes, build, *args):
    """build(*args, value) for the JSON value in raw; a call that raises is not kept."""
    try:  # universal newlines, as a text-mode read gives, so error positions count the same characters
        text = raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        value = json.loads(text, object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError, LookupError) as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
    except ValueError:  # int() refuses a literal past the digit limit, advising a Python call
        raise ValueError(f"invalid JSON: an integer of more than {sys.get_int_max_str_digits()} digits") from None
    return build(*args, value)


def _load_json(path, build, *args):
    """build(*args, value) for the JSON value in the file at path; every refusal starts with '<path>: '.

    The file is read on every call, but bytes that this builder built
    recently are not decoded or checked again: the object built from
    them before is returned. Builders return frozen dataclasses.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return _build_json(raw, build, *args)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_json(path, cls):
    """The dataclass cls, built from the JSON file at path after _from_json checks every field."""
    return _load_json(path, _from_json, cls)


def write_json(path, blob) -> None:
    """Write blob to path as JSON with sorted keys, indent 2 and a trailing newline, by _atomic.write."""
    with _atomic.write(path) as fh:
        fh.write(json.dumps(blob, indent=2, sort_keys=True).encode() + b"\n")


def load_config(path) -> ExperimentConfig:
    return _load_json(path, from_dict)


def save_config(cfg: ExperimentConfig, path) -> None:
    write_json(path, to_dict(cfg))
