"""Command-line front end: gen, train, screen, eval, plot.

Every command is driven by one JSON experiment config plus explicit
checkpoint/input paths, and writes deterministic artifacts into the
output directory, so a rerun with the same config reproduces every
file byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import _atomic, data, dirichlet, network, pipeline, training


def _fmt(x: float) -> str:
    return repr(float(x))


def _read_dataset(path) -> bytes:
    """The whole dataset CSV at path, for a caller that both hashes and parses it."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        raise FileNotFoundError(f"missing dataset file {path}") from None


def _load_rows(
    path, dim: int | None = None, classes: int | None = None,
    what: str = "rows", expect: str = "checkpoints expect", raw: bytes | None = None,
) -> data.ExampleSet:
    """Load one dataset CSV a command reads, or its bytes ``raw`` already read, refusing it with its path.

    Refused: a missing file, a file without rows (``no <what>``), a feature
    count other than ``dim``, and, when ``classes`` is given, missing labels.
    Malformed lines, and labels >= ``classes``, are refused by data.load_csv.
    Commands load every input through here before they write any file.
    """
    try:
        examples = data.load_csv(path, classes, raw)
    except FileNotFoundError:
        raise FileNotFoundError(f"missing dataset file {path}") from None
    if len(examples) == 0:
        raise ValueError(f"{path}: no {what}")
    if dim is not None and examples.dim != dim:
        raise ValueError(f"{path}: {examples.dim} features, {expect} {dim}")
    if classes is not None and examples.labels is None:
        raise ValueError(f"{path}: no labels")
    return examples


def cmd_gen(cfg: cfgmod.ExperimentConfig, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    for name in cfgmod.GENERATED:
        examples, path = cfg.dataset.draw(name), out / f"{name}.csv"
        data.save_csv(path, examples)
        print(f"wrote {path} ({len(examples)} rows)")
    return 0


def cmd_train(cfg: cfgmod.ExperimentConfig, role_name: str, out: Path) -> int:
    """Train one role on in_train.csv and in_val.csv; its OOD exposure sets are drawn from the config."""
    role = getattr(cfg, role_name)
    ood_sets = [cfg.dataset.draw(source.name) for source in role.ood_sources]
    classes, in_train, in_val = cfg.dataset.classes, out / "in_train.csv", out / "in_val.csv"
    # every draw has the generators' feature count
    train_set = _load_rows(in_train, ood_sets[0].dim if ood_sets else None, classes, expect="exposure sets have")
    val_set = _load_rows(in_val, train_set.dim, classes, what="validation rows", expect=f"{in_train} has")

    sizes = (train_set.dim, *cfg.model.hidden, classes)
    model = network.init_model(sizes, role.init_seed, cfg.model.activation)
    try:
        trained, report = training.train(model, train_set, ood_sets, role.train_config(), val_set)
    except training.NonFiniteValidation as exc:
        raise RuntimeError(f"{in_val}: {exc}") from None

    ckpt = out / f"{role_name}.ckpt"
    network.save_checkpoint(trained, ckpt)
    cfgmod.write_json(out / f"{role_name}_report.json", dataclasses.asdict(report))
    print(f"wrote {ckpt} (val accuracy {report.final_val_accuracy})")
    return 0


_ModelPair = tuple[network.FeedForwardModel, network.FeedForwardModel]  # classifier, detector


def _load_model_pair(paths: list[str]) -> tuple[_ModelPair, tuple[str, str]]:
    """Both models, each read once by network.load_checkpoint, and the SHA-256 digests of their bytes.

    A digest hashes network.checkpoint_bytes of the loaded model, the bytes it
    was read from, so it names that model even if the file has since been
    replaced. The models must agree on input and class count.
    """
    if len(paths) != 2:
        raise ValueError("expected two --checkpoint flags: classifier first, detector second")
    classifier, detector = (network.load_checkpoint(path) for path in paths)
    if (classifier.input_dim, classifier.num_classes) != (detector.input_dim, detector.num_classes):
        raise ValueError(
            f"checkpoints disagree on input or class count: classifier {paths[0]} has layer_sizes "
            f"{list(classifier.layer_sizes)}, detector {paths[1]} has {list(detector.layer_sizes)}"
        )
    models = classifier, detector
    return models, tuple(hashlib.sha256(network.checkpoint_bytes(m)).hexdigest() for m in models)


_THRESHOLDS_FILE = "thresholds.json"
_THRESHOLDS_FORMAT = "dpnet-thresholds-v1"


# thresholds.json: its keys, and the JSON type of each value
@dataclasses.dataclass(frozen=True)
class _StoredThresholds:
    classifier_sha256: str
    detector_sha256: str
    drop_fraction_classifier: float
    drop_fraction_detector: float
    format: str
    in_val_rows: int
    in_val_sha256: str
    tau_c: float
    tau_d: float


def _calibration_inputs(cfg: cfgmod.ExperimentConfig, digests: tuple[str, str], val_raw: bytes) -> dict:
    """The thresholds.json fields that must all match for its thresholds to be reused; val_raw is in_val.csv's bytes."""
    return {
        "classifier_sha256": digests[0],
        "detector_sha256": digests[1],
        "drop_fraction_classifier": cfg.screening.drop_fraction_classifier,
        "drop_fraction_detector": cfg.screening.drop_fraction_detector,
        "format": _THRESHOLDS_FORMAT,
        "in_val_sha256": hashlib.sha256(val_raw).hexdigest(),
    }


def _calibrate(
    cfg: cfgmod.ExperimentConfig, inputs: dict, val: pipeline.ScreenScores, path: Path
) -> pipeline.ScreeningThresholds:
    """Both thresholds from the in_val.csv scores ``val``, written to ``path`` with ``inputs``."""
    thresholds = pipeline.ScreeningThresholds(
        tau_d=pipeline.calibrate_threshold(val.s_d, cfg.screening.drop_fraction_detector),
        tau_c=pipeline.calibrate_threshold(val.s_c, cfg.screening.drop_fraction_classifier),
    )
    stored = _StoredThresholds(**inputs, in_val_rows=len(val.s_d), **dataclasses.asdict(thresholds))
    cfgmod.write_json(path, dataclasses.asdict(stored))
    return thresholds


def _screen_scores(models: _ModelPair, ckpts: list[str], path, features) -> pipeline.ScreenScores:
    """pipeline.screen_scores; logits that overflow are refused with the checkpoint's and the file's path."""
    try:
        return pipeline.screen_scores(*models, features)
    except network.NonFiniteLogits as exc:
        ckpt = ckpts[0] if exc.model is models[0] else ckpts[1]
        raise ValueError(f"{ckpt}: non-finite logits on {path}") from None


def _screening_thresholds(
    cfg: cfgmod.ExperimentConfig, ckpts: list[str], models: _ModelPair, digests: tuple[str, str], out: Path,
    val_raw: bytes | None,
) -> pipeline.ScreeningThresholds:
    """Stored thresholds while thresholds.json matches; else calibrate on in_val.csv, given as val_raw or read once."""
    path, val_path = out / _THRESHOLDS_FILE, out / "in_val.csv"
    try:  # read first: when both files are malformed, thresholds.json is the one refused
        stored = cfgmod.read_json(path, _StoredThresholds)
    except FileNotFoundError:  # none stored yet
        stored = None
    val_raw = _read_dataset(val_path) if val_raw is None else val_raw
    inputs = _calibration_inputs(cfg, digests, val_raw)
    if stored is not None and all(getattr(stored, key) == value for key, value in inputs.items()):
        return pipeline.ScreeningThresholds(tau_d=stored.tau_d, tau_c=stored.tau_c)
    val_set = _load_rows(val_path, models[0].layer_sizes[0], what="validation rows", raw=val_raw)
    return _calibrate(cfg, inputs, _screen_scores(models, ckpts, val_path, val_set.features), path)


_OUTCOME_NAMES = [o.value for o in pipeline.Outcome]


def _write_decisions(
    path: Path, thresholds: pipeline.ScreeningThresholds, parts: list[tuple[str, pipeline.ScreenScores]]
) -> list[list[int]]:
    """Route each (id prefix, scores) part, then write its decisions.csv lines; return each part's count per outcome.

    Row i of a part gets the id ``<prefix><i>``. Each part is routed with
    one route_decision call before the file is opened; lines are then
    formatted and written data.CHUNK_ROWS at a time.
    """
    routed = [pipeline.route_decision(s.s_d, s.s_c, thresholds, s.predicted) for _, s in parts]
    with _atomic.write(path) as fh:
        fh.write(b"id,s_d,s_c,outcome,predicted_class\n")
        for (prefix, scores), (outcome, predicted) in zip(parts, routed):
            for i in range(0, len(outcome), data.CHUNK_ROWS):
                rows = slice(i, i + data.CHUNK_ROWS)
                columns = (scores.s_d[rows], scores.s_c[rows], outcome[rows], predicted[rows])
                # tolist() gives Python floats, whose repr is _fmt's output
                fh.write("".join([
                    f"{prefix}{j},{d!r},{c!r},{_OUTCOME_NAMES[o]},{'' if k < 0 else k}\n"
                    for j, d, c, o, k in zip(itertools.count(i), *(col.tolist() for col in columns))
                ]).encode())
    return [np.bincount(outcome, minlength=len(_OUTCOME_NAMES)).tolist() for outcome, _ in routed]


def cmd_screen(cfg: cfgmod.ExperimentConfig, ckpts: list[str], input_path: str, out: Path) -> int:
    """Route every row of ``input_path``: write decisions.csv, print the outcome counts.

    The thresholds come from ``<out>/thresholds.json`` when its format tag,
    both drop fractions and the SHA-256 digests of both checkpoints and
    ``in_val.csv`` match. Otherwise both are calibrated on ``in_val.csv``
    and the file is rewritten. ``in_val.csv`` is read once; its digest, and
    its parse if any, come from those bytes. A malformed file, or logits that
    overflow, are refused, naming the file, before any file is written.
    When ``input_path`` is ``in_val.csv`` itself, it is read once for both.
    """
    models, digests = _load_model_pair(ckpts)
    val_path = out / "in_val.csv"
    try:  # by stat, opening neither file; a missing file is not the same file
        same = os.path.samefile(input_path, val_path)
    except OSError:
        same = False
    val_raw = _read_dataset(val_path) if same else None
    examples = _load_rows(input_path, models[0].layer_sizes[0], raw=val_raw)
    scores = _screen_scores(models, ckpts, input_path, examples.features)
    thresholds = _screening_thresholds(cfg, ckpts, models, digests, out, val_raw)
    (counts,) = _write_decisions(out / "decisions.csv", thresholds, [("", scores)])
    print(f"wrote {out / 'decisions.csv'}")
    for name, count in zip(_OUTCOME_NAMES, counts):
        print(f"{name}={count}")
    return 0


def cmd_eval(cfg: cfgmod.ExperimentConfig, ckpts: list[str], out: Path) -> int:
    """Write scores.csv, routing.csv, detection_rates.csv, rescore_auroc.csv and thresholds.json.

    Both thresholds are always calibrated on ``in_val.csv`` here, and
    thresholds.json records them for ``screen`` to reuse, with the digest of
    the in_val.csv bytes parsed. All four dataset files are loaded and
    checked before anything is written.
    """
    models, digests = _load_model_pair(ckpts)
    classifier = models[0]
    dim = classifier.layer_sizes[0]
    val_raw = _read_dataset(out / "in_val.csv")
    sets = {
        "in_val": _load_rows(out / "in_val.csv", dim, what="validation rows", raw=val_raw),
        "in_test": _load_rows(out / "in_test.csv", dim),
        # its labels are what discard_and_rescore scores
        "shifted_test": _load_rows(out / "shifted_test.csv", dim, classifier.num_classes),
        "far_ood": _load_rows(out / "far_ood.csv", dim),
    }
    scores = {
        name: _screen_scores(models, ckpts, out / f"{name}.csv", examples.features)
        for name, examples in sets.items()
    }

    inputs = _calibration_inputs(cfg, digests, val_raw)
    thresholds = _calibrate(cfg, inputs, scores["in_val"], out / _THRESHOLDS_FILE)
    scored = ("in_test", "shifted_test", "far_ood")
    counts = _write_decisions(out / "scores.csv", thresholds, [(f"{name}/", scores[name]) for name in scored])
    routing_lines = [
        f"{name},{outcome},{n}" for name, part in zip(scored, counts) for outcome, n in zip(_OUTCOME_NAMES, part)
    ]
    with _atomic.write(out / "routing.csv") as fh:
        fh.write(("\n".join(["dataset,outcome,count"] + routing_lines) + "\n").encode())

    # calibrated once for both reports; a list, not a dict: each drop fraction, repeated or not, keeps its line
    taus = [(p, pipeline.calibrate_threshold(scores["in_val"].s_d, p)) for p in cfg.evaluation.drop_fractions]
    rate_lines = [
        f"{name},{_fmt(p)},{_fmt(pipeline.ood_detection_rate(scores[name].s_d, tau))}"
        for name in ("shifted_test", "far_ood") for p, tau in taus
    ]
    with _atomic.write(out / "detection_rates.csv") as fh:
        fh.write(("\n".join(["dataset,drop_fraction,detection_rate"] + rate_lines) + "\n").encode())

    shifted = scores["shifted_test"]
    # drop fraction 0.0 keeps every row
    rows = pipeline.discard_and_rescore(
        shifted.referable, sets["shifted_test"].labels, shifted.s_d, [(0.0, math.inf), *taus]
    )
    rescore_lines = [f"{_fmt(r.drop_fraction)},{r.retained},{_fmt(r.auroc)}" for r in rows]
    with _atomic.write(out / "rescore_auroc.csv") as fh:
        fh.write(("\n".join(["drop_fraction,retained,auroc"] + rescore_lines) + "\n").encode())

    for name in (_THRESHOLDS_FILE, "scores.csv", "routing.csv", "detection_rates.csv", "rescore_auroc.csv"):
        print(f"wrote {out / name}")  # in the order written
    return 0


def cmd_plot(ckpt: str, input_path: str, out: Path, resolution: int) -> int:
    model = network.load_checkpoint(ckpt)
    if model.num_classes != 3:
        raise ValueError(
            f"{ckpt}: density grids need a 3-class model, found {model.num_classes} classes"
        )
    examples = _load_rows(input_path, model.layer_sizes[0])
    try:
        logits = network.forward(model, examples.features[0])
    except network.NonFiniteLogits:
        raise ValueError(f"{ckpt}: non-finite logits on {input_path}") from None
    points, densities = dirichlet.density_grid(dirichlet.logits_to_alpha(logits), resolution)
    out.mkdir(parents=True, exist_ok=True)
    lines = [
        f"{_fmt(mu[0])},{_fmt(mu[1])},{_fmt(mu[2])},{_fmt(d)}"
        for mu, d in zip(points, densities)
    ]
    with _atomic.write(out / "density_grid.csv") as fh:
        fh.write(("\n".join(["mu1,mu2,mu3,density"] + lines) + "\n").encode())
    print(f"wrote {out / 'density_grid.csv'} ({len(lines)} lattice points)")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dpnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate the synthetic dataset CSVs")
    p.add_argument("--config", required=True)
    p.add_argument("--out")

    p = sub.add_parser("train", help="train one model role")
    p.add_argument("--config", required=True)
    p.add_argument("--role", required=True, choices=("classifier", "detector"))
    p.add_argument("--out")

    p = sub.add_parser("screen", help="route a CSV of inputs through both models")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", action="append", required=True,
                   help="given twice: classifier first, detector second")
    p.add_argument("--input", required=True)
    p.add_argument("--out")

    p = sub.add_parser("eval", help="write score, detection-rate, and rescore reports")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", action="append", required=True,
                   help="given twice: classifier first, detector second")
    p.add_argument("--out")

    p = sub.add_parser("plot", help="density grid of one input's Dirichlet")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", default=".")
    p.add_argument("--resolution", type=int, default=60)
    return parser


_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.command == "plot":
            return cmd_plot(args.checkpoint, args.input, Path(args.out), args.resolution)
        cfg = cfgmod.load_config(args.config)
        # only gen and plot create the directory: the others read their inputs from it
        out = Path(args.out or cfg.out_dir)
        if args.command == "gen":
            return cmd_gen(cfg, out)
        if args.command == "train":
            if getattr(cfg, args.role) is None:  # checked here, where the config's path is known
                raise ValueError(f"{args.config}: no settings for role {args.role!r}")
            return cmd_train(cfg, args.role, out)
        if args.command == "screen":
            return cmd_screen(cfg, args.checkpoint, args.input, out)
        return cmd_eval(cfg, args.checkpoint, out)  # the parser admits no other command
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:  # MemoryError: an input asked for too much
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
