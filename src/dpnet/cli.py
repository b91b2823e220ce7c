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
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import data, network, pipeline, training
from .losses import ObjectiveConfig, OodTerm


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_lines(path: Path, lines: list[str]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _load_rows(
    path, dim: int | None = None, classes: int | None = None,
    what: str = "rows", expect: str = "checkpoints expect",
) -> data.ExampleSet:
    """Load one dataset CSV a command reads, refusing it with its path.

    Refused: a missing file, a file without rows (``no <what>``), a feature
    count other than ``dim``, and, when ``classes`` is given, missing labels.
    Malformed lines, and labels >= ``classes``, are refused by data.load_csv.
    Commands load every input through here before they write any file.
    """
    try:
        examples = data.load_csv(path, classes)
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
    ds = cfg.dataset
    sets = {
        "in_train.csv": data.gen_in_domain(ds.train, ds.classes, ds.seed),
        "in_val.csv": data.gen_in_domain(ds.val, ds.classes, ds.seed + 1),
        "in_test.csv": data.gen_in_domain(ds.test, ds.classes, ds.seed + 2),
        "shifted_test.csv": data.gen_shifted(
            ds.shifted_test, ds.classes, ds.shifted_seed, ds.shift, ds.scale
        ),
        "far_ood.csv": data.gen_far_ood(ds.far_ood, ds.far_ood_seed),
    }
    for name, examples in sets.items():
        data.save_csv(out / name, examples)
        print(f"wrote {out / name} ({len(examples)} rows)")
    return 0


def _resolve_ood_sources(
    cfg: cfgmod.ExperimentConfig, role: cfgmod.RoleConfig, out: Path, train_set: data.ExampleSet
):
    """Map configured source names to example sets.

    far_ood comes from the generated file; shifted_train is a small
    exposure sample drawn from the shifted distribution with its own
    seed, disjoint from shifted_test.csv, and is never written to disk.
    """
    ds = cfg.dataset
    sets = []
    terms = []
    for source in role.ood_sources:
        if source.name == "far_ood":
            examples = _load_rows(
                out / "far_ood.csv", train_set.dim, expect=f"{out / 'in_train.csv'} has"
            )
        else:
            examples = data.gen_shifted(
                ds.shifted_train, ds.classes, ds.shifted_train_seed, ds.shift, ds.scale
            )
        sets.append(data.ExampleSet(examples.features))
        terms.append(OodTerm(source.gamma, source.lambda_out))
    return sets, tuple(terms)


def cmd_train(cfg: cfgmod.ExperimentConfig, role_name: str, out: Path) -> int:
    role = cfg.role(role_name)
    classes, in_train = cfg.dataset.classes, out / "in_train.csv"
    train_set = _load_rows(in_train, classes=classes)
    val_set = _load_rows(
        out / "in_val.csv", train_set.dim, classes, what="validation rows", expect=f"{in_train} has"
    )
    ood_sets, ood_terms = _resolve_ood_sources(cfg, role, out, train_set)

    sizes = (train_set.dim, *cfg.model.hidden, classes)
    model = network.init_model(sizes, role.init_seed, cfg.model.activation)
    train_cfg = training.TrainConfig(
        objective=ObjectiveConfig(role.lambda_in, ood_terms),
        epochs=role.epochs,
        batch_size=role.batch_size,
        learning_rate=role.learning_rate,
        momentum=role.momentum,
        seed=role.seed,
    )
    trained, report = training.train(model, train_set, ood_sets, train_cfg, val_set)

    ckpt = out / f"{role_name}.ckpt"
    network.save_checkpoint(trained, ckpt)
    cfgmod.write_json(out / f"{role_name}_report.json", dataclasses.asdict(report))
    print(
        f"wrote {ckpt} (selected epoch {report.selected_epoch}, "
        f"val accuracy {report.final_val_accuracy})"
    )
    return 0


def _load_model_pair(paths: list[str]) -> tuple[network.FeedForwardModel, network.FeedForwardModel]:
    if len(paths) != 2:
        raise ValueError("expected two --checkpoint flags: classifier first, detector second")
    classifier = network.load_checkpoint(paths[0])
    detector = network.load_checkpoint(paths[1])
    if classifier.layer_sizes[0] != detector.layer_sizes[0] or (
        classifier.num_classes != detector.num_classes
    ):
        raise ValueError(
            f"checkpoints disagree on input or class count: classifier {paths[0]} has layer_sizes "
            f"{list(classifier.layer_sizes)}, detector {paths[1]} has {list(detector.layer_sizes)}"
        )
    return classifier, detector


def _calibrated_thresholds(
    cfg: cfgmod.ExperimentConfig, val: pipeline.ScreenScores
) -> pipeline.ScreeningThresholds:
    return pipeline.ScreeningThresholds(
        tau_d=pipeline.calibrate_threshold(val.s_d, cfg.screening.drop_fraction_detector),
        tau_c=pipeline.calibrate_threshold(val.s_c, cfg.screening.drop_fraction_classifier),
    )


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


def _sha256(path) -> str | None:
    """The file's SHA-256 hex digest; None if it is missing, which matches no stored digest."""
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def _calibration_inputs(cfg: cfgmod.ExperimentConfig, ckpts: list[str], val_path: Path) -> dict:
    """The thresholds.json fields that must all match for its thresholds to be reused."""
    return {
        "classifier_sha256": _sha256(ckpts[0]),
        "detector_sha256": _sha256(ckpts[1]),
        "drop_fraction_classifier": cfg.screening.drop_fraction_classifier,
        "drop_fraction_detector": cfg.screening.drop_fraction_detector,
        "format": _THRESHOLDS_FORMAT,
        "in_val_sha256": _sha256(val_path),
    }


def _write_thresholds(
    path: Path, inputs: dict, val_rows: int, thresholds: pipeline.ScreeningThresholds
) -> None:
    stored = _StoredThresholds(**inputs, in_val_rows=val_rows, **dataclasses.asdict(thresholds))
    cfgmod.write_json(path, dataclasses.asdict(stored))


def _screening_thresholds(
    cfg: cfgmod.ExperimentConfig,
    ckpts: list[str],
    classifier: network.FeedForwardModel,
    detector: network.FeedForwardModel,
    out: Path,
) -> pipeline.ScreeningThresholds:
    """Stored thresholds while thresholds.json matches; else calibrate and rewrite it."""
    val_path = out / "in_val.csv"
    inputs = _calibration_inputs(cfg, ckpts, val_path)
    path = out / _THRESHOLDS_FILE
    stored = cfgmod.read_json(path, _StoredThresholds) if path.exists() else None
    if stored is not None and all(getattr(stored, key) == value for key, value in inputs.items()):
        return pipeline.ScreeningThresholds(tau_d=stored.tau_d, tau_c=stored.tau_c)
    val_set = _load_rows(val_path, classifier.layer_sizes[0], what="validation rows")
    thresholds = _calibrated_thresholds(
        cfg, pipeline.screen_scores(classifier, detector, val_set.features)
    )
    _write_thresholds(path, inputs, len(val_set), thresholds)
    return thresholds


_OUTCOME_NAMES = [o.value for o in pipeline.Outcome]


def _decision_rows(
    thresholds: pipeline.ScreeningThresholds, scores: pipeline.ScreenScores, id_prefix: str
) -> tuple[list[str], list[int]]:
    """decisions.csv lines with ids ``<id_prefix><row>``, and the count per outcome."""
    outcome, predicted = pipeline.route_decision(
        scores.s_d, scores.s_c, thresholds, scores.predicted
    )
    # tolist() gives Python floats, whose repr is _fmt's output
    lines = [
        f"{id_prefix}{i},{d!r},{c!r},{_OUTCOME_NAMES[o]},{'' if k < 0 else k}"
        for i, (d, c, o, k) in enumerate(
            zip(scores.s_d.tolist(), scores.s_c.tolist(), outcome.tolist(), predicted.tolist())
        )
    ]
    return lines, np.bincount(outcome, minlength=len(_OUTCOME_NAMES)).tolist()


def cmd_screen(cfg: cfgmod.ExperimentConfig, ckpts: list[str], input_path: str, out: Path) -> int:
    """Route every row of ``input_path``: write decisions.csv, print the outcome counts.

    The thresholds come from ``<out>/thresholds.json`` when its format tag,
    both drop fractions and the SHA-256 digests of both checkpoints and
    ``in_val.csv`` match; then ``in_val.csv`` is hashed but not parsed.
    Otherwise both thresholds are calibrated on ``in_val.csv`` and the file
    is rewritten. A malformed file is refused, naming it, before any file is written.
    """
    classifier, detector = _load_model_pair(ckpts)
    examples = _load_rows(input_path, classifier.layer_sizes[0])
    thresholds = _screening_thresholds(cfg, ckpts, classifier, detector, out)
    scores = pipeline.screen_scores(classifier, detector, examples.features)
    lines, counts = _decision_rows(thresholds, scores, "")
    _write_lines(out / "decisions.csv", ["id,s_d,s_c,outcome,predicted_class"] + lines)
    print(f"wrote {out / 'decisions.csv'}")
    for name, count in zip(_OUTCOME_NAMES, counts):
        print(f"{name}={count}")
    return 0


def cmd_eval(cfg: cfgmod.ExperimentConfig, ckpts: list[str], out: Path) -> int:
    """Write scores.csv, detection_rates.csv, rescore_auroc.csv and thresholds.json.

    Both thresholds are always calibrated on ``in_val.csv`` here, and
    thresholds.json records them for ``screen`` to reuse. All four dataset
    files are loaded and checked before anything is written.
    """
    classifier, detector = _load_model_pair(ckpts)
    dim = classifier.layer_sizes[0]
    sets = {
        "in_val": _load_rows(out / "in_val.csv", dim, what="validation rows"),
        "in_test": _load_rows(out / "in_test.csv", dim),
        # its labels are what discard_and_rescore scores
        "shifted_test": _load_rows(out / "shifted_test.csv", dim, classifier.num_classes),
        "far_ood": _load_rows(out / "far_ood.csv", dim),
    }
    scores = {
        name: pipeline.screen_scores(classifier, detector, examples.features)
        for name, examples in sets.items()
    }
    s_val = scores["in_val"].s_d

    thresholds = _calibrated_thresholds(cfg, scores["in_val"])
    inputs = _calibration_inputs(cfg, ckpts, out / "in_val.csv")
    _write_thresholds(out / _THRESHOLDS_FILE, inputs, len(sets["in_val"]), thresholds)
    score_lines: list[str] = []
    for name in ("in_test", "shifted_test", "far_ood"):
        score_lines.extend(_decision_rows(thresholds, scores[name], f"{name}/")[0])
    _write_lines(out / "scores.csv", ["id,s_d,s_c,outcome,predicted_class"] + score_lines)

    rate_lines = []
    for name in ("shifted_test", "far_ood"):
        for p in cfg.evaluation.drop_fractions:
            tau = pipeline.calibrate_threshold(s_val, p)
            rate = pipeline.ood_detection_rate(scores[name].s_d, tau)
            rate_lines.append(f"{name},{_fmt(p)},{_fmt(rate)}")
    _write_lines(out / "detection_rates.csv", ["dataset,drop_fraction,detection_rate"] + rate_lines)

    shifted = scores["shifted_test"]
    rows = pipeline.discard_and_rescore(
        shifted.referable,
        sets["shifted_test"].labels,
        shifted.s_d,
        s_val,
        (0.0, *cfg.evaluation.drop_fractions),
    )
    rescore_lines = [f"{_fmt(r.drop_fraction)},{r.retained},{_fmt(r.auroc)}" for r in rows]
    _write_lines(out / "rescore_auroc.csv", ["drop_fraction,retained,auroc"] + rescore_lines)

    for name in ("scores.csv", "detection_rates.csv", "rescore_auroc.csv"):
        print(f"wrote {out / name}")
    return 0


def cmd_plot(ckpt: str, input_path: str, out: Path, resolution: int) -> int:
    model = network.load_checkpoint(ckpt)
    if model.num_classes != 3:
        raise ValueError("density grids need a 3-class model")
    examples = _load_rows(input_path, model.layer_sizes[0])
    out.mkdir(parents=True, exist_ok=True)
    from .dirichlet import density_grid, logits_to_alpha

    params = logits_to_alpha(network.forward(model, examples.features[0]))
    points, densities = density_grid(params, resolution)
    lines = [
        f"{_fmt(mu[0])},{_fmt(mu[1])},{_fmt(mu[2])},{_fmt(d)}"
        for mu, d in zip(points, densities)
    ]
    _write_lines(out / "density_grid.csv", ["mu1,mu2,mu3,density"] + lines)
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
            return cmd_train(cfg, args.role, out)
        if args.command == "screen":
            return cmd_screen(cfg, args.checkpoint, args.input, out)
        if args.command == "eval":
            return cmd_eval(cfg, args.checkpoint, out)
        raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
