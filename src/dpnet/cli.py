"""Command-line front end: gen, train, screen, eval, plot.

Every command is driven by one JSON experiment config plus explicit
checkpoint/input paths, and writes deterministic artifacts into the
output directory, so a rerun with the same config reproduces every
file byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import config as cfgmod
from . import data, network, pipeline, training
from .data import _fmt
from .losses import ObjectiveConfig, OodTerm


def _write_lines(path: Path, lines: list[str]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _out_dir(cfg: cfgmod.ExperimentConfig, override: str | None) -> Path:
    out = Path(override) if override else Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_dataset(out: Path, name: str) -> data.ExampleSet:
    path = out / name
    if not path.exists():
        raise FileNotFoundError(f"missing dataset file {path}")
    return data.load_csv(path)


def cmd_gen(cfg: cfgmod.ExperimentConfig, out: Path) -> int:
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


def _resolve_ood_sources(cfg: cfgmod.ExperimentConfig, role: cfgmod.RoleConfig, out: Path):
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
            examples = _load_dataset(out, "far_ood.csv")
        else:
            examples = data.gen_shifted(
                ds.shifted_train, ds.classes, ds.shifted_train_seed, ds.shift, ds.scale
            )
        sets.append(data.ExampleSet(examples.features))
        terms.append(OodTerm(source.gamma, source.lambda_out))
    return sets, tuple(terms)


def cmd_train(cfg: cfgmod.ExperimentConfig, role_name: str, out: Path) -> int:
    role = cfg.role(role_name)
    train_set = _load_dataset(out, "in_train.csv")
    val_set = _load_dataset(out, "in_val.csv")
    ood_sets, ood_terms = _resolve_ood_sources(cfg, role, out)

    sizes = (train_set.dim, *cfg.model.hidden, cfg.dataset.classes)
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
    report_path = out / f"{role_name}_report.json"
    with open(report_path, "w", newline="\n") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
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
        raise ValueError("classifier and detector checkpoints disagree on dimensions")
    return classifier, detector


def _calibrated_thresholds(
    cfg: cfgmod.ExperimentConfig,
    classifier: network.FeedForwardModel,
    detector: network.FeedForwardModel,
    val_set: data.ExampleSet,
) -> pipeline.ScreeningThresholds:
    s_d = pipeline.score_set(detector, val_set.features, pipeline.ScoreKind.MUTUAL_INFORMATION)
    s_c = pipeline.score_set(classifier, val_set.features, pipeline.ScoreKind.MUTUAL_INFORMATION)
    return pipeline.ScreeningThresholds(
        tau_d=pipeline.calibrate_threshold(s_d, cfg.screening.drop_fraction_detector),
        tau_c=pipeline.calibrate_threshold(s_c, cfg.screening.drop_fraction_classifier),
    )


def _decision_rows(
    classifier: network.FeedForwardModel,
    detector: network.FeedForwardModel,
    thresholds: pipeline.ScreeningThresholds,
    examples: data.ExampleSet,
    ids: list[str],
) -> tuple[list[str], dict[str, int]]:
    s_d = pipeline.score_set(detector, examples.features, pipeline.ScoreKind.MUTUAL_INFORMATION)
    s_c = pipeline.score_set(classifier, examples.features, pipeline.ScoreKind.MUTUAL_INFORMATION)
    preds = network.forward_batch(classifier, examples.features).argmax(axis=1)
    lines = []
    counts = {o.value: 0 for o in pipeline.Outcome}
    for i, row_id in enumerate(ids):
        decision = pipeline.route_decision(s_d[i], s_c[i], thresholds, int(preds[i]))
        counts[decision.outcome.value] += 1
        cls = "" if decision.predicted_class is None else str(decision.predicted_class)
        lines.append(f"{row_id},{_fmt(decision.s_d)},{_fmt(decision.s_c)},{decision.outcome.value},{cls}")
    return lines, counts


def cmd_screen(cfg: cfgmod.ExperimentConfig, ckpts: list[str], input_path: str, out: Path) -> int:
    classifier, detector = _load_model_pair(ckpts)
    val_set = _load_dataset(out, "in_val.csv")
    thresholds = _calibrated_thresholds(cfg, classifier, detector, val_set)
    examples = data.load_csv(input_path)
    if len(examples) == 0:
        raise ValueError(f"{input_path}: no rows to screen")
    ids = [str(i) for i in range(len(examples))]
    lines, counts = _decision_rows(classifier, detector, thresholds, examples, ids)
    _write_lines(out / "decisions.csv", ["id,s_d,s_c,outcome,predicted_class"] + lines)
    print(f"wrote {out / 'decisions.csv'}")
    for outcome in pipeline.Outcome:
        print(f"{outcome.value}={counts[outcome.value]}")
    return 0


def cmd_eval(cfg: cfgmod.ExperimentConfig, ckpts: list[str], out: Path) -> int:
    classifier, detector = _load_model_pair(ckpts)
    val_set = _load_dataset(out, "in_val.csv")
    in_test = _load_dataset(out, "in_test.csv")
    shifted_test = _load_dataset(out, "shifted_test.csv")
    far_ood = _load_dataset(out, "far_ood.csv")

    thresholds = _calibrated_thresholds(cfg, classifier, detector, val_set)
    score_lines: list[str] = []
    for name, examples in (("in_test", in_test), ("shifted_test", shifted_test), ("far_ood", far_ood)):
        ids = [f"{name}/{i}" for i in range(len(examples))]
        lines, _ = _decision_rows(classifier, detector, thresholds, examples, ids)
        score_lines.extend(lines)
    _write_lines(out / "scores.csv", ["id,s_d,s_c,outcome,predicted_class"] + score_lines)

    s_val = pipeline.score_set(detector, val_set.features, pipeline.ScoreKind.MUTUAL_INFORMATION)
    rate_lines = []
    for name, examples in (("shifted_test", shifted_test), ("far_ood", far_ood)):
        scores = pipeline.score_set(
            detector, examples.features, pipeline.ScoreKind.MUTUAL_INFORMATION
        )
        for p in cfg.evaluation.drop_fractions:
            tau = pipeline.calibrate_threshold(s_val, p)
            rate = pipeline.ood_detection_rate(scores, tau)
            rate_lines.append(f"{name},{_fmt(p)},{_fmt(rate)}")
    _write_lines(out / "detection_rates.csv", ["dataset,drop_fraction,detection_rate"] + rate_lines)

    rows = pipeline.discard_and_rescore(
        classifier, detector, shifted_test, val_set, (0.0, *cfg.evaluation.drop_fractions)
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
    examples = data.load_csv(input_path)
    if len(examples) == 0:
        raise ValueError(f"{input_path}: no input point")
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


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "plot":
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            return cmd_plot(args.checkpoint, args.input, out, args.resolution)
        cfg = cfgmod.load_config(args.config)
        out = _out_dir(cfg, args.out)
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
