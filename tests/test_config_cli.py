import contextlib
import dataclasses
import errno
import functools
import hashlib
import io
import json
import math
import operator
import os
import re
import resource
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dpnet import _atomic, cli, config, data, dirichlet, network, pipeline
from dpnet.config import (
    SCHEMA_VERSION,
    DatasetConfig,
    EvalConfig,
    ExperimentConfig,
    ModelConfig,
    OodSourceConfig,
    RoleConfig,
    ScreeningConfig,
    default_config,
    from_dict,
    load_config,
    save_config,
    to_dict,
    write_json,
)
from dpnet.data import ExampleSet, load_csv, save_csv
from dpnet.losses import ObjectiveConfig, OodTerm
from dpnet.network import FeedForwardModel, init_model, load_checkpoint, save_checkpoint
from dpnet.training import TrainConfig


def test_default_config_roundtrips(tmp_path):
    cfg = default_config(out_dir=str(tmp_path / "run"))
    path = tmp_path / "config.json"
    save_config(cfg, path)
    assert load_config(path) == cfg
    save_config(cfg, tmp_path / "again.json")
    assert path.read_bytes() == (tmp_path / "again.json").read_bytes()


def test_config_dict_roundtrip_preserves_everything():
    cfg = default_config()
    assert from_dict(to_dict(cfg)) == cfg
    assert to_dict(cfg)["schema_version"] == SCHEMA_VERSION

    no_roles = dataclasses.replace(cfg, classifier=None, detector=None)
    blob = to_dict(no_roles)
    assert "classifier" not in blob and "detector" not in blob
    assert from_dict(blob) == no_roles


def test_config_rejects_other_schema_versions():
    blob = to_dict(default_config())
    blob["schema_version"] = "dpn-exp-v1"
    with pytest.raises(ValueError, match="schema_version"):
        from_dict(blob)


DELETE = object()


def test_config_errors_name_the_key_path(tmp_path):
    cases = [
        (("dataset", "train"), DELETE, "missing key 'train' in dataset"),
        (("dataset", "train"), "lots", "dataset.train must be an integer"),
        (("dataset", "train"), True, "dataset.train must be an integer"),
        (
            ("classifier", "ood_sources", 0, "gamma"),
            math.nan,
            "classifier.ood_sources[0].gamma must be a finite number",
        ),
        (("model", "hidden"), 32, "model.hidden must be a list"),
        (("evaluation", "drop_fractions"), 0.05, "evaluation.drop_fractions must be a list"),
        (("model", "hidden"), [32.7, 32], "model.hidden[0] must be an integer"),
        (("out_dir",), None, "out_dir must be a string"),
        # float() of this integer overflows
        (("dataset", "shift"), 10**400, "dataset.shift must be a finite number"),
        # keys no field declares; schema_version belongs to the top level only
        (("classifier", "epoch"), 5, "unknown key 'epoch' in classifier"),
        (("classifier", "schema_version"), SCHEMA_VERSION, "unknown key 'schema_version' in classifier"),
        (("detector", "ood_sources", 1, "weight"), 1.0, "unknown key 'weight' in detector.ood_sources[1]"),
        (("epochs",), 5, "unknown key 'epochs'"),
        # value checks name the object they refuse
        (("detector", "epochs"), -1, "detector: epochs must be >= 0"),
        (("detector", "batch_size"), 0, "detector: batch_size must be >= 1"),
        (("detector", "learning_rate"), 0.0, "detector: learning_rate must be positive"),
        (("detector", "momentum"), 1.0, "detector: momentum must lie in [0, 1)"),
        (
            ("detector", "ood_sources", 0, "gamma"),
            -0.5,
            "detector.ood_sources[0]: gamma must be finite and >= 0",
        ),
        (
            ("classifier", "ood_sources", 0, "name"),
            "near_ood",
            "classifier.ood_sources[0]: unknown OOD source 'near_ood'",
        ),
        (("dataset", "classes"), 1, "dataset: classes must be >= 2"),
        # each labeled set needs one example per class; far_ood is unlabeled
        (("dataset", "val"), 2, "dataset: val must be >= classes (3)"),
        (("dataset", "shifted_train"), 1, "dataset: shifted_train must be >= classes (3)"),
        (("dataset", "far_ood"), 0, "dataset: far_ood must be >= 1"),
        # numpy's generators refuse negative seeds only once gen or train runs
        (("dataset", "seed"), -1, "dataset: seed must be >= 0"),
        # every set's seed is derived from dataset.seed; the per-set seeds of dpn-exp-v1 are gone
        (("dataset", "shifted_seed"), -1, "unknown key 'shifted_seed' in dataset"),
        (("dataset", "shifted_train_seed"), -1, "unknown key 'shifted_train_seed' in dataset"),
        (("dataset", "far_ood_seed"), -1, "unknown key 'far_ood_seed' in dataset"),
        (("classifier", "seed"), -1, "classifier: seed must be >= 0"),
        (("detector", "init_seed"), -1, "detector: init_seed must be >= 0"),
        (("model", "activation"), "swish", "model: unknown activation 'swish'"),
        (
            ("screening", "drop_fraction_detector"),
            1.0,
            "screening: drop_fraction_detector must lie in (0, 1)",
        ),
    ]
    file = tmp_path / "config.json"
    for path, value, message in cases:
        blob = to_dict(default_config())
        holder = functools.reduce(operator.getitem, path[:-1], blob)
        if value is DELETE:
            del holder[path[-1]]
        else:
            holder[path[-1]] = value
        with pytest.raises(ValueError) as refused:
            from_dict(blob)
        assert str(refused.value) == message
        file.write_text(json.dumps(blob))
        with pytest.raises(ValueError) as refused:
            load_config(file)
        assert str(refused.value) == f"{file}: {message}"


BLOB = {"b": [1, 2.5, None], "a": {"z": "x", "y": True}}


def writer_cases(src: Path) -> dict:
    """For each artifact writer: the file name it writes, a call that writes it into a directory,
    and the bytes it must write. ``plot`` stands for the CSVs written whole by eval and plot."""
    examples = ExampleSet(np.array([[0.5, -1.25], [3.0, 1e-300]]), np.array([1, 0]))
    model = init_model((2, 4, 3), 3, "relu")
    save_csv(src / "input.csv", examples)
    save_checkpoint(model, src / "model.ckpt")
    thresholds = pipeline.ScreeningThresholds(tau_d=0.5, tau_c=1.0)
    scores = pipeline.ScreenScores(np.array([0.25, 0.75, 0.0]), np.array([0.5, 0.5, 2.0]), np.array([1, 2, 0]), None)
    alpha = dirichlet.logits_to_alpha(network.forward(model, examples.features[0]))
    grid = [",".join(map(repr, [*mu, d])) for mu, d in zip(*(a.tolist() for a in dirichlet.density_grid(alpha, 4)))]
    return {
        "save_csv": (
            "data.csv", lambda out: save_csv(out / "data.csv", examples),
            b"features:2,label:1\n0.5,-1.25,1\n3.0,1e-300,0\n",
        ),
        "save_checkpoint": (
            "model.ckpt", lambda out: save_checkpoint(model, out / "model.ckpt"),
            b"dpnet-v1\n2,4,3\nrelu\n" + model.params.astype("<f8").tobytes(),
        ),
        "write_json": (
            "blob.json", lambda out: write_json(out / "blob.json", BLOB),
            json.dumps(BLOB, indent=2, sort_keys=True).encode() + b"\n",
        ),
        "_write_decisions": (
            "decisions.csv", lambda out: cli._write_decisions(out / "decisions.csv", thresholds, [("a/", scores)]),
            b"id,s_d,s_c,outcome,predicted_class\na/0,0.25,0.5,trusted,1\na/1,0.75,0.5,human_review,2\n"
            b"a/2,0.0,2.0,discard,\n",
        ),
        "plot": (
            "density_grid.csv", lambda out: cli.cmd_plot(str(src / "model.ckpt"), str(src / "input.csv"), out, 4),
            "\n".join(["mu1,mu2,mu3,density", *grid, ""]).encode(),
        ),
    }


@contextlib.contextmanager
def disk_full_after(size: int):
    """Writes past ``size`` bytes of any file fail with EFBIG, as on a full disk (this process only)."""
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    resource.setrlimit(resource.RLIMIT_FSIZE, (size, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        signal.signal(signal.SIGXFSZ, handler)


@pytest.mark.parametrize("writer", ["save_csv", "save_checkpoint", "write_json", "_write_decisions", "plot"])
def test_every_writer_replaces_the_file_whole(tmp_path, capsys, writer):
    """Each writer's bytes are the only file in the directory, at the umask's mode. A rewrite
    replaces a chmod-ed file or a symlink, and a write that fails at the temp file's open, part
    way, at fsync or at the rename leaves the old bytes and no temp file, and raises an OSError
    naming the file. capsys keeps plot's output in memory, out of reach of the file size limit."""
    src, out = tmp_path / "src", tmp_path / "out"
    src.mkdir()
    out.mkdir()
    name, write, expected = writer_cases(src)[writer]
    path = out / name
    (src / "plain").write_bytes(b"")
    umask_mode = (src / "plain").stat().st_mode
    write(out)
    assert path.read_bytes() == expected
    assert [p.name for p in out.iterdir()] == [name]
    assert path.stat().st_mode == umask_mode

    path.chmod(0o600)
    write(out)
    assert path.stat().st_mode == umask_mode
    path.unlink()
    path.symlink_to(src / "plain")
    write(out)
    assert not path.is_symlink() and path.read_bytes() == expected
    assert (src / "plain").read_bytes() == b""

    def no_space(*args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def tmp_refused(file, mode):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(file))

    failures = [
        disk_full_after(8), mock.patch.object(_atomic, "open", tmp_refused, create=True),
        *(mock.patch.object(os, call, no_space) for call in ("fsync", "replace")),
    ]
    for failure in failures:
        path.write_bytes(b"old bytes\n")
        # the error names the artifact, not its temp file
        with failure, pytest.raises(OSError, match=f": '{re.escape(str(path))}'$"):
            write(out)
        assert path.read_bytes() == b"old bytes\n"
        assert [p.name for p in out.iterdir()] == [name]


@pytest.mark.parametrize("error", [ValueError("bad row"), KeyboardInterrupt()])
def test_atomic_write_passes_other_exceptions_through(tmp_path, error):
    """An exception other than OSError in the block comes through unchanged,
    and leaves the old file and no temp file."""
    path = tmp_path / "artifact.csv"
    path.write_bytes(b"old bytes\n")
    with pytest.raises(type(error)) as raised:
        with _atomic.write(path) as fh:
            fh.write(b"new bytes\n")
            raise error
    assert raised.value is error
    assert path.read_bytes() == b"old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.csv"]


def test_config_invalid_json_reports_path(tmp_path):
    path = tmp_path / "broken.json"
    save_config(default_config(), path)
    for text in (b"{not json", path.read_bytes() + b"\xff", b"[1, 2]"):
        path.write_bytes(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            load_config(path)


def test_component_validation():
    with pytest.raises(ValueError):
        OodSourceConfig("near_ood", 0.5, -1.0)
    with pytest.raises(ValueError):
        OodSourceConfig("far_ood", -0.5, -1.0)
    with pytest.raises(ValueError):
        DatasetConfig(classes=1)
    with pytest.raises(ValueError):
        DatasetConfig(train=0)
    with pytest.raises(ValueError):
        DatasetConfig(scale=0.0)
    with pytest.raises(ValueError):
        ModelConfig(hidden=())
    with pytest.raises(ValueError):
        ModelConfig(activation="swish")
    with pytest.raises(ValueError):
        RoleConfig(0.1, (), epochs=1, batch_size=8, learning_rate=0.1, momentum=1.0, seed=0, init_seed=0)
    with pytest.raises(ValueError):
        ScreeningConfig(drop_fraction_detector=0.0)
    with pytest.raises(ValueError):
        EvalConfig(drop_fractions=())
    with pytest.raises(ValueError):
        EvalConfig(drop_fractions=(0.5, 1.0))


@pytest.mark.parametrize("seed", [7, 47, 117, 2**32 + 5])
def test_every_draw_keeps_its_stream(seed):
    """Each set is drawn from dataset.seed + k, with the k that dpn-exp-v1's default seeds had.

    Seeds 7, 47 and 117 are the seed sweep's s = 0, 4 and 11; the last is past 2**32.
    """
    ds = DatasetConfig(seed=seed)
    expected = {
        "in_train": data.gen_in_domain(ds.train, ds.classes, seed),
        "in_val": data.gen_in_domain(ds.val, ds.classes, seed + 1),
        "in_test": data.gen_in_domain(ds.test, ds.classes, seed + 2),
        "shifted_test": data.gen_shifted(ds.shifted_test, ds.classes, seed + 1, ds.shift, ds.scale),
        "shifted_train": data.gen_shifted(ds.shifted_train, ds.classes, seed + 2, ds.shift, ds.scale),
        "far_ood": data.gen_far_ood(ds.far_ood, seed + 3),
    }
    assert set(expected) == set(config.GENERATED) | set(config.KNOWN_SOURCES)
    for name, want in expected.items():
        got = ds.draw(name)
        assert got.features.tobytes() == want.features.tobytes(), name
        assert (got.labels is None) == (want.labels is None), name
        if want.labels is not None:
            assert np.array_equal(got.labels, want.labels), name


def test_role_train_config_is_the_one_train_builds():
    """train_config() carries every training field of the role, with seed (not init_seed) as its seed."""
    cfg = default_config()
    for role in (cfg.classifier, cfg.detector):
        terms = tuple(OodTerm(s.gamma, s.lambda_out) for s in role.ood_sources)
        assert role.train_config() == TrainConfig(
            objective=ObjectiveConfig(role.lambda_in, terms),
            epochs=role.epochs,
            batch_size=role.batch_size,
            learning_rate=role.learning_rate,
            momentum=role.momentum,
            seed=role.seed,
        )
    assert cfg.classifier.train_config().seed == 11
    assert cfg.detector.train_config().objective.ood_terms == (OodTerm(0.5, -1.0), OodTerm(0.5, -0.2))


def small_config(out_dir: str) -> ExperimentConfig:
    return ExperimentConfig(
        out_dir=out_dir,
        dataset=DatasetConfig(
            train=300, val=120, test=120, shifted_test=120, shifted_train=60, far_ood=200
        ),
        model=ModelConfig(hidden=(16, 16)),
        classifier=RoleConfig(
            lambda_in=0.1,
            ood_sources=(OodSourceConfig("far_ood", 0.1, -1.0),),
            epochs=12,
            batch_size=32,
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
            epochs=12,
            batch_size=32,
            learning_rate=0.05,
            momentum=0.9,
            seed=12,
            init_seed=202,
        ),
    )


def run_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    """One full gen/train/screen/eval pass shared by the artifact tests."""
    out = tmp_path_factory.mktemp("exp")
    cfg_path = out / "config.json"
    save_config(small_config(str(out)), cfg_path)
    cfg = str(cfg_path)

    stdout = {}
    rc, stdout["gen"] = run_cli(["gen", "--config", cfg])
    assert rc == 0
    for role in ("classifier", "detector"):
        rc, stdout[role] = run_cli(["train", "--config", cfg, "--role", role])
        assert rc == 0
    ckpts = [
        "--checkpoint", str(out / "classifier.ckpt"),
        "--checkpoint", str(out / "detector.ckpt"),
    ]
    rc, stdout["screen"] = run_cli(
        ["screen", "--config", cfg, *ckpts, "--input", str(out / "in_test.csv")]
    )
    assert rc == 0
    rc, stdout["eval"] = run_cli(["eval", "--config", cfg, *ckpts])
    assert rc == 0
    return {"out": out, "cfg": cfg, "stdout": stdout}


def test_gen_writes_expected_datasets(experiment):
    out = experiment["out"]
    sizes = {
        "in_train.csv": 300,
        "in_val.csv": 120,
        "in_test.csv": 120,
        "shifted_test.csv": 120,
        "far_ood.csv": 200,
    }
    for name, n in sizes.items():
        examples = load_csv(out / name)
        assert len(examples) == n, name
        assert examples.labels is None if name == "far_ood.csv" else examples.labels is not None


def test_gen_is_reproducible(experiment, tmp_path):
    rc, _ = run_cli(["gen", "--config", experiment["cfg"], "--out", str(tmp_path)])
    assert rc == 0
    for name in ("in_train.csv", "shifted_test.csv", "far_ood.csv"):
        assert (tmp_path / name).read_bytes() == (experiment["out"] / name).read_bytes()


# SHA-256 of each CSV that gen writes on the default config: a change to a
# generator, to a set's random stream or to the CSV format moves one of them
DEFAULT_DRAW_SHA256 = {
    "in_train": "fef7cdba8bb895bb27970f45d5f9007f6577704da840c913a501583e9818d898",
    "in_val": "269de833ca662649152f179339583947ffe3ef5596f0d2ba21b7288673913e95",
    "in_test": "104399e76c3de13b98792ba1cf1a04433e10cd74ead54aca4fc207a38d3b279c",
    "shifted_test": "70c0e55614ce6798ce67dfb6ce2a5b60e7ef85d44d971254578bd3552aeda1d2",
    "far_ood": "dfceceec3e7dab73225e11e5d283e788234ebbbfe52cc81b2576fbbfabf3bb89",
}


def test_gen_default_draws_are_pinned(tmp_path):
    path = tmp_path / "config.json"
    save_config(default_config(str(tmp_path)), path)
    rc, _ = run_cli(["gen", "--config", str(path)])
    assert rc == 0
    digests = {
        name: hashlib.sha256((tmp_path / f"{name}.csv").read_bytes()).hexdigest()
        for name in config.GENERATED
    }
    assert digests == DEFAULT_DRAW_SHA256


def test_train_writes_checkpoint_and_report(experiment):
    out = experiment["out"]
    for role in ("classifier", "detector"):
        model = load_checkpoint(out / f"{role}.ckpt")
        assert model.layer_sizes == (2, 16, 16, 3)
        report = json.loads((out / f"{role}_report.json").read_text())
        assert len(report["loss_total"]) == 12
        assert report["final_val_accuracy"] == report["val_accuracy"][-1] > 0.85
    assert len(json.loads((out / "detector_report.json").read_text())["loss_ood"]) == 2


def test_screen_decisions_schema(experiment):
    out = experiment["out"]
    lines = (out / "decisions.csv").read_text().splitlines()
    assert lines[0] == "id,s_d,s_c,outcome,predicted_class"
    assert len(lines) == 1 + 120
    outcomes = {"trusted": 0, "human_review": 0, "discard": 0}
    for i, line in enumerate(lines[1:]):
        row_id, s_d, s_c, outcome, cls = line.split(",")
        assert row_id == str(i)
        float(s_d), float(s_c)
        outcomes[outcome] += 1
        assert (cls == "") == (outcome == "discard")
    assert sum(outcomes.values()) == 120
    for key, count in outcomes.items():
        assert f"{key}={count}" in experiment["stdout"]["screen"]


def test_eval_scores_cover_all_three_datasets(experiment):
    lines = (experiment["out"] / "scores.csv").read_text().splitlines()
    assert lines[0] == "id,s_d,s_c,outcome,predicted_class"
    ids = [line.split(",")[0] for line in lines[1:]]
    assert sum(i.startswith("in_test/") for i in ids) == 120
    assert sum(i.startswith("shifted_test/") for i in ids) == 120
    assert sum(i.startswith("far_ood/") for i in ids) == 200
    assert ids[0] == "in_test/0"


def test_eval_routing_tallies_scores_and_reruns_byte_identical(experiment, tmp_path):
    routing = (experiment["out"] / "routing.csv").read_text()
    tally = {(name, outcome.value): 0 for name in ("in_test", "shifted_test", "far_ood") for outcome in pipeline.Outcome}
    for line in (experiment["out"] / "scores.csv").read_text().splitlines()[1:]:
        row_id, _, _, outcome, _ = line.split(",")
        tally[row_id.split("/")[0], outcome] += 1
    assert routing == "dataset,outcome,count\n" + "".join(f"{d},{o},{n}\n" for (d, o), n in tally.items())

    ckpts = copy_run(experiment, tmp_path)
    assert run_cli(["eval", "--config", experiment["cfg"], *ckpts, "--out", str(tmp_path)])[0] == 0
    assert (tmp_path / "routing.csv").read_text() == routing


def test_eval_detection_rates_schema(experiment):
    lines = (experiment["out"] / "detection_rates.csv").read_text().splitlines()
    assert lines[0] == "dataset,drop_fraction,detection_rate"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["shifted_test"] * 3 + ["far_ood"] * 3
    assert [float(r[1]) for r in rows] == [0.05, 0.07, 0.1] * 2
    assert all(0.0 <= float(r[2]) <= 1.0 for r in rows)


def test_eval_rescore_table_schema(experiment):
    lines = (experiment["out"] / "rescore_auroc.csv").read_text().splitlines()
    assert lines[0] == "drop_fraction,retained,auroc"
    rows = [line.split(",") for line in lines[1:]]
    assert [float(r[0]) for r in rows] == [0.0, 0.05, 0.07, 0.1]
    assert int(rows[0][1]) == 120
    retained = [int(r[1]) for r in rows]
    assert retained == sorted(retained, reverse=True)
    assert all(0.0 <= float(r[2]) <= 1.0 for r in rows)


def test_eval_detection_rates_are_written_by_repr(experiment):
    """Each rate in detection_rates.csv loads back as exactly the ood_detection_rate of the s_d column
    of scores.csv at the threshold calibrated on in_val.csv's detector scores."""
    out = experiment["out"]
    models = [load_checkpoint(out / f"{role}.ckpt") for role in ("classifier", "detector")]
    val_s_d = pipeline.screen_scores(*models, load_csv(out / "in_val.csv").features).s_d
    s_d = {}
    for line in (out / "scores.csv").read_text().splitlines()[1:]:
        row_id, score = line.split(",")[:2]
        s_d.setdefault(row_id.split("/")[0], []).append(float(score))
    tau_d = json.loads((out / "thresholds.json").read_text())["tau_d"]
    assert pipeline.calibrate_threshold(val_s_d, 0.05) == tau_d
    lines = (out / "detection_rates.csv").read_text().splitlines()[1:]
    for name, p, rate in (line.split(",") for line in lines):
        tau = pipeline.calibrate_threshold(val_s_d, float(p))
        assert float(rate) == pipeline.ood_detection_rate(s_d[name], tau), (name, p)


def test_eval_writes_nan_auroc_for_a_retained_set_without_a_class(experiment, tmp_path):
    """With every shifted_test row labeled 1, no retained set holds the referable class 0:
    each AUROC in rescore_auroc.csv is written as nan."""
    ckpts = copy_run(experiment, tmp_path)
    shifted = load_csv(tmp_path / "shifted_test.csv")
    save_csv(tmp_path / "shifted_test.csv", ExampleSet(shifted.features, np.ones(len(shifted), dtype=np.int64)))
    assert run_cli(["eval", "--config", experiment["cfg"], *ckpts, "--out", str(tmp_path)])[0] == 0
    rows = [line.split(",") for line in (tmp_path / "rescore_auroc.csv").read_text().splitlines()[1:]]
    assert [float(p) for p, _, _ in rows] == [0.0, 0.05, 0.07, 0.1]
    assert [auroc for _, _, auroc in rows] == ["nan"] * 4


def test_eval_reports_agree_on_every_drop_fraction(experiment):
    """At each drop fraction, rescore_auroc.csv retains the shifted_test rows that
    detection_rates.csv does not flag; drop fraction 0.0 retains every row."""
    out = experiment["out"]
    n = len(load_csv(out / "shifted_test.csv"))
    rates = [line.split(",") for line in (out / "detection_rates.csv").read_text().splitlines()[1:]]
    unflagged = [(float(p), n - round(float(rate) * n)) for name, p, rate in rates if name == "shifted_test"]
    rescore = [line.split(",") for line in (out / "rescore_auroc.csv").read_text().splitlines()[1:]]
    assert [(float(p), int(kept)) for p, kept, _ in rescore] == [(0.0, n), *unflagged]
    assert any(kept < n for _, kept in unflagged)


def test_eval_calibrates_each_threshold_once(experiment, tmp_path, monkeypatch):
    """eval calibrates tau_d, tau_c and one detector threshold per drop fraction, each once:
    the rescoring reuses the thresholds the detection rates were computed at."""
    calls = []
    calibrate = pipeline.calibrate_threshold
    monkeypatch.setattr(pipeline, "calibrate_threshold", lambda scores, p: calls.append(p) or calibrate(scores, p))
    ckpts = copy_run(experiment, tmp_path)
    assert run_cli(["eval", "--config", experiment["cfg"], *ckpts, "--out", str(tmp_path)])[0] == 0
    cfg = load_config(experiment["cfg"])
    fractions = [cfg.screening.drop_fraction_detector, cfg.screening.drop_fraction_classifier]
    assert calls == [*fractions, *cfg.evaluation.drop_fractions]
    for name in ("detection_rates.csv", "rescore_auroc.csv"):
        assert (tmp_path / name).read_bytes() == (experiment["out"] / name).read_bytes()


def test_eval_stdout_names_each_file_it_writes(experiment, tmp_path, monkeypatch):
    """eval prints one `wrote <path>` line for each file whose bytes it writes, in the order written."""
    written = []
    write = _atomic.write
    monkeypatch.setattr(_atomic, "write", lambda path: written.append(path) or write(path))
    ckpts = copy_run(experiment, tmp_path)
    rc, stdout = run_cli(["eval", "--config", experiment["cfg"], *ckpts, "--out", str(tmp_path)])
    assert rc == 0
    assert stdout == "".join(f"wrote {path}\n" for path in written)
    assert [path.name for path in written] == [
        "thresholds.json", "scores.csv", "routing.csv", "detection_rates.csv", "rescore_auroc.csv"
    ]


def test_plot_writes_density_grid(experiment, tmp_path):
    rc, stdout = run_cli([
        "plot",
        "--checkpoint", str(experiment["out"] / "classifier.ckpt"),
        "--input", str(experiment["out"] / "in_test.csv"),
        "--out", str(tmp_path),
        "--resolution", "24",
    ])
    assert rc == 0 and "lattice points" in stdout
    lines = (tmp_path / "density_grid.csv").read_text().splitlines()
    assert lines[0] == "mu1,mu2,mu3,density"
    assert len(lines) == 1 + 24 * 23 // 2
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.allclose(rows[:, :3].sum(axis=1), 1.0, atol=1e-12)
    assert (rows[:, 3] >= 0.0).all()
    # every field loads back as exactly the value density_grid gives on the input's first row
    model = load_checkpoint(experiment["out"] / "classifier.ckpt")
    alpha = dirichlet.logits_to_alpha(network.forward(model, load_csv(experiment["out"] / "in_test.csv").features[0]))
    points, densities = dirichlet.density_grid(alpha, 24)
    assert rows.tolist() == np.column_stack([points, densities]).tolist()


def test_cli_requires_two_checkpoints(experiment, capsys):
    rc = cli.main([
        "screen",
        "--config", experiment["cfg"],
        "--checkpoint", str(experiment["out"] / "classifier.ckpt"),
        "--input", str(experiment["out"] / "in_test.csv"),
    ])
    assert rc == 1
    assert "two --checkpoint" in capsys.readouterr().err


def test_cli_rejects_mismatched_checkpoints(experiment, tmp_path, capsys):
    odd = tmp_path / "odd.ckpt"
    save_checkpoint(init_model((3, 4, 3), seed=1), odd)
    rc = cli.main([
        "eval",
        "--config", experiment["cfg"],
        "--checkpoint", str(experiment["out"] / "classifier.ckpt"),
        "--checkpoint", str(odd),
    ])
    assert rc == 1
    assert "disagree" in capsys.readouterr().err


def test_cli_rejects_non_three_class_plot(tmp_path, capsys):
    ckpt = tmp_path / "two.ckpt"
    save_checkpoint(init_model((2, 8, 2), seed=2), ckpt)
    points = tmp_path / "p.csv"
    points.write_text("features:2,label:0\n0.0,0.0\n")
    rc = cli.main(["plot", "--checkpoint", str(ckpt), "--input", str(points), "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {ckpt}: density grids need a 3-class model, found 2 classes\n"
    )


def test_cli_reports_broken_config(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    rc = cli.main(["gen", "--config", str(path)])
    assert rc == 1
    assert "invalid JSON" in capsys.readouterr().err

    blob = to_dict(default_config(str(tmp_path / "run")))
    blob["model"]["hidden"] = 32
    path.write_text(json.dumps(blob))
    rc = cli.main(["gen", "--config", str(path)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {path}: model.hidden must be a list\n"

    # deeper than the JSON decoder's recursion limit
    blob["model"]["hidden"] = "deep"
    path.write_text(json.dumps(blob).replace('"deep"', "[" * 100_000 + "]" * 100_000))
    rc = cli.main(["gen", "--config", str(path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: invalid JSON: maximum recursion depth")

    # past the interpreter's digit limit for int(), whose own message advises a Python call
    blob["model"]["hidden"] = [int("9" * 4000)]
    path.write_text(json.dumps(blob).replace("9" * 4000, "9" * 5000))
    rc = cli.main(["gen", "--config", str(path)])
    assert rc == 1
    limit = sys.get_int_max_str_digits()
    assert capsys.readouterr().err == f"error: {path}: invalid JSON: an integer of more than {limit} digits\n"


@pytest.mark.parametrize("line, doubled, key", [
    ('"epochs": 40,', '"epochs": 40, "epochs": 5,', "epochs"),  # the first "epochs" is the classifier's
    ('"out_dir": ', '"out_dir": "elsewhere", "out_dir": ', "out_dir"),
    ('"out_dir": ', '"a": 1, "b": 2, "b": 3, "a": 4, "out_dir": ', "b"),  # the earliest repeated pair names the key
    ('"out_dir": ', ", ".join(f'"k{i}": {i}' for i in range(19_999)) + ', "k0": 0, "out_dir": ', "k0"),
], ids=["in-a-role", "top-level", "abba", "20k-keys"])
def test_config_refuses_a_key_given_twice(tmp_path, capsys, line, doubled, key):
    """A key given twice in one object is refused with the file's path, where json.loads would keep
    the last value; gen writes nothing, and a refused build is not kept by the cache. The repeat is
    found in one pass, so 20,000 keys are refused well within 2 s."""
    path, out = tmp_path / "config.json", tmp_path / "run"
    save_config(default_config(str(out)), path)
    text = path.read_text()
    assert line in text
    path.write_text(text.replace(line, doubled, 1))
    for _ in range(2):
        hits, start = config._build_json.cache_info().hits, time.perf_counter()
        assert cli.main(["gen", "--config", str(path)]) == 1
        assert time.perf_counter() - start < 2.0
        assert capsys.readouterr().err == f"error: {path}: invalid JSON: duplicate key {key!r}\n"
        assert config._build_json.cache_info().hits == hits
    assert not out.exists()


def test_cli_parses_each_call_afresh(experiment, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "cmd_screen", lambda cfg, ckpts, path, out: seen.append(ckpts) or 0)
    screen = ["screen", "--config", experiment["cfg"], "--input", "rows.csv"]
    assert cli.main([*screen, "--checkpoint", "a", "--checkpoint", "b"]) == 0
    assert cli.main([*screen, "--checkpoint", "c"]) == 0
    with pytest.raises(SystemExit):
        cli.main([*screen, "--checkpoint", "d", "--unknown"])
    with pytest.raises(SystemExit):
        cli.main(["screen", "--config", experiment["cfg"], "--checkpoint", "e"])
    assert cli.main([*screen, "--checkpoint", "f", "--checkpoint", "g"]) == 0
    assert seen == [["a", "b"], ["c"], ["f", "g"]]


RUN_FILES = ("in_val.csv", "in_test.csv", "shifted_test.csv", "far_ood.csv", "classifier.ckpt", "detector.ckpt")


def copy_run(experiment, dest) -> list[str]:
    """Copy the datasets and checkpoints into ``dest``; returns the --checkpoint flags."""
    for name in RUN_FILES:
        (dest / name).write_bytes((experiment["out"] / name).read_bytes())
    return ["--checkpoint", str(dest / "classifier.ckpt"), "--checkpoint", str(dest / "detector.ckpt")]


def screen_argv(cfg: str, ckpts: list[str], out) -> list[str]:
    return ["screen", "--config", cfg, *ckpts, "--input", str(out / "shifted_test.csv"), "--out", str(out)]


# every (command, input file) pair a command reads, with the defects that apply to it;
# input.csv is the --input of screen and plot, and labels matter where train or eval uses them
INPUT_DEFECTS = [
    ("train", "in_train.csv", ("missing", "header-only", "wide", "unlabeled", "label-range", "huge-label")),
    ("train", "in_val.csv", ("missing", "header-only", "wide", "unlabeled", "label-range")),
    ("eval", "in_val.csv", ("missing", "header-only", "wide")),
    ("eval", "in_test.csv", ("missing", "header-only", "wide")),
    ("eval", "shifted_test.csv", ("missing", "header-only", "wide", "unlabeled", "label-range")),
    ("eval", "far_ood.csv", ("missing", "header-only", "wide", "narrow")),
    ("screen", "input.csv", (
        "missing", "header-only", "wide", "late-row", "late-utf8", "huge-label", "huge-width",
    )),
    ("screen", "in_val.csv", ("missing", "header-only", "wide")),
    ("plot", "input.csv", ("missing", "header-only", "wide", "huge-label", "huge-width")),
]


@pytest.mark.parametrize("command, name, defect", [
    (command, name, defect) for command, name, defects in INPUT_DEFECTS for defect in defects
])
def test_cli_refuses_bad_input_before_writing(experiment, tmp_path, capsys, command, name, defect):
    """Each defect is refused with the file's path, exit 1, and no file created or changed."""
    ckpts = copy_run(experiment, tmp_path)
    (tmp_path / "in_train.csv").write_bytes((experiment["out"] / "in_train.csv").read_bytes())
    (tmp_path / "input.csv").write_bytes((experiment["out"] / "in_test.csv").read_bytes())
    path = tmp_path / name
    header = path.read_text().split("\n", 1)[0]
    label = ",0" if header.endswith("label:1") else ""
    if defect == "missing":
        path.unlink()
    else:
        path.write_text({
            "header-only": header + "\n",
            "wide": f"features:3,{header.split(',')[1]}\n0.0,1.0,2.0{label}\n",
            "narrow": f"features:1,{header.split(',')[1]}\n0.5{label}\n",
            "unlabeled": "features:2,label:0\n0.0,1.0\n",
            "label-range": "features:2,label:1\n0.0,1.0,0\n0.5,0.5,3\n",
            # past int64; screen and plot read --input without a class count
            "huge-label": f"features:2,label:1\n0.0,1.0,0\n0.5,0.5,{2**63}\n",
            # past the first piece load_csv parses
            "late-row": header + "\n" + f"0.5,0.5{label}\n" * 9000 + f"0.5,x{label}\n",
            # the byte 0xff, past the first piece load_csv reads
            "late-utf8": header + "\n" + f"0.5,0.5{label}\n" * 9000 + f"0.5,\udcff{label}\n",
            # a row of that many float64 values overflows numpy's size type
            "huge-width": f"features:{2**62},{header.split(',')[1]}\n",
        }[defect], errors="surrogateescape")
    expect = "checkpoints expect"
    if command == "train":  # in_train.csv must match the exposure sets train draws; in_val.csv, in_train.csv
        expect = "exposure sets have" if name == "in_train.csv" else f"{tmp_path / 'in_train.csv'} has"
    message = {
        "missing": f"missing dataset file {path}",
        "header-only": f"{path}: no {'validation ' if name == 'in_val.csv' else ''}rows",
        "wide": f"{path}: 3 features, {expect} 2",
        "narrow": f"{path}: 1 features, {expect} 2",
        "unlabeled": f"{path}: no labels",
        "label-range": f"{path}:3: label 3 >= 3 classes",
        "huge-label": f"{path}:3: label {2**63} >= 3 classes" if command == "train"
        else f"{path}:3: label must be < 2**63",
        "late-row": f"{path}:9002: non-numeric feature",
        "late-utf8": f"{path}:9002: not UTF-8 (invalid start byte)",
        "huge-width": f"{path}:1: malformed header counts",
    }[defect]
    argv = {
        "train": ["train", "--config", experiment["cfg"], "--role", "classifier"],
        "eval": ["eval", "--config", experiment["cfg"], *ckpts],
        "screen": ["screen", "--config", experiment["cfg"], *ckpts, "--input", str(tmp_path / "input.csv")],
        "plot": ["plot", *ckpts[:2], "--input", str(tmp_path / "input.csv")],
    }[command]
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    capsys.readouterr()
    assert cli.main([*argv, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_train_refuses_non_finite_last_update(experiment, tmp_path, capsys):
    """One step whose update overflows: exit 1, no checkpoint or report is written, and no
    numpy warning (the suite makes those errors)."""
    for name in ("in_train.csv", "in_val.csv", "far_ood.csv"):
        (tmp_path / name).write_bytes((experiment["out"] / name).read_bytes())
    cfg = small_config(str(tmp_path))
    # relu, because tanh keeps every hidden value in [-1, 1] and so the logits finite
    model = dataclasses.replace(cfg.model, activation="relu")
    role = dataclasses.replace(cfg.detector, epochs=1, batch_size=300, learning_rate=1e308)
    save_config(dataclasses.replace(cfg, model=model, detector=role), tmp_path / "config.json")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    capsys.readouterr()
    rc = cli.main(["train", "--config", str(tmp_path / "config.json"), "--role", "detector"])
    assert rc == 1
    assert capsys.readouterr().err == "error: non-finite parameters after step 0\n"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_train_refuses_parameters_whose_logits_overflow(experiment, tmp_path, capsys):
    """Finite parameters whose forward pass overflows: exit 1, no checkpoint or report,
    and no numpy warning (the suite makes those errors)."""
    for name in ("in_train.csv", "in_val.csv", "far_ood.csv"):
        (tmp_path / name).write_bytes((experiment["out"] / name).read_bytes())
    cfg = small_config(str(tmp_path))
    # relu, because tanh keeps every hidden value in [-1, 1] and so the logits finite
    model = dataclasses.replace(cfg.model, activation="relu")
    role = dataclasses.replace(cfg.classifier, epochs=1, batch_size=300, learning_rate=1e308)
    save_config(dataclasses.replace(cfg, model=model, classifier=role), tmp_path / "config.json")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    capsys.readouterr()
    rc = cli.main(["train", "--config", str(tmp_path / "config.json"), "--role", "classifier"])
    assert rc == 1
    assert capsys.readouterr().err == "error: non-finite logits after step 0\n"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("role", ["classifier", "detector"])
def test_train_names_in_val_whose_logits_overflow(experiment, tmp_path, capsys, role):
    """A finite in_val.csv row whose logits overflow: exit 1 naming in_val.csv and the step after
    which it was scored, and no checkpoint or report is written."""
    for name in ("in_train.csv", "in_val.csv"):
        (tmp_path / name).write_bytes((experiment["out"] / name).read_bytes())
    in_val = tmp_path / "in_val.csv"
    header, rows = in_val.read_bytes().split(b"\n", 1)
    in_val.write_bytes(header + b"\n1.7e308,1.7e308,0\n" + rows)
    cfg = small_config(str(tmp_path))
    # relu, because tanh keeps every hidden value in [-1, 1] and so the logits finite
    save_config(dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, activation="relu")),
                tmp_path / "config.json")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    capsys.readouterr()
    assert cli.main(["train", "--config", str(tmp_path / "config.json"), "--role", role]) == 1
    last_step = -(-cfg.dataset.train // getattr(cfg, role).batch_size) - 1  # the first epoch's
    assert capsys.readouterr().err == f"error: {in_val}: non-finite logits on the validation rows after step {last_step}\n"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_plot_refuses_a_grid_too_large_to_allocate(experiment, tmp_path):
    """plot --resolution 100000 needs a 75 GiB array: exit 1 with one error line, no traceback
    and no --out directory. The child caps its address space at 3 GiB, so the allocation fails
    at once instead of paging the host."""
    cap = "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (3 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))"
    argv = ["plot", "--checkpoint", str(experiment["out"] / "classifier.ckpt"),
            "--input", str(experiment["out"] / "in_test.csv"), "--out", str(tmp_path / "plot"),
            "--resolution", "100000"]
    proc = subprocess.run(
        [sys.executable, "-c", f"{cap}; from dpnet import cli; sys.exit(cli.main(sys.argv[1:]))", *argv],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": "src", "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert re.fullmatch(r"error: Unable to allocate [^\n]+\n", proc.stderr), proc.stderr
    assert not (tmp_path / "plot").exists()


@pytest.mark.parametrize("command", ["screen", "eval", "plot"])
@pytest.mark.parametrize("role", ["classifier", "detector"])
def test_cli_refuses_checkpoint_whose_logits_overflow(experiment, tmp_path, capsys, command, role):
    """Finite but huge parameters: exit 1 naming the checkpoint and the data file, no file
    or --out directory created or changed, and no numpy warning (the suite makes those errors)."""
    ckpts = copy_run(experiment, tmp_path)
    ckpt = tmp_path / f"{role}.ckpt"
    # re-saved as relu, because tanh keeps every hidden value in [-1, 1] and so the logits finite
    loaded = load_checkpoint(ckpt)
    model = FeedForwardModel(loaded.layer_sizes, loaded.weights, loaded.biases, activation="relu")
    model.params *= 1e150
    save_checkpoint(model, ckpt)
    # screen and plot score their --input first; eval scores in_val.csv first
    scored = "in_val.csv" if command == "eval" else "shifted_test.csv"
    argv = {
        "screen": screen_argv(experiment["cfg"], ckpts, tmp_path),
        "eval": ["eval", "--config", experiment["cfg"], *ckpts, "--out", str(tmp_path)],
        "plot": ["plot", "--checkpoint", str(ckpt), "--input", str(tmp_path / scored),
                 "--out", str(tmp_path / "plot")],
    }[command]
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    capsys.readouterr()
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {ckpt}: non-finite logits on {tmp_path / scored}\n"
    assert not (tmp_path / "plot").exists()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_train_refuses_config_without_the_role(experiment, tmp_path, capsys):
    copy_run(experiment, tmp_path)
    cfg = tmp_path / "config.json"
    save_config(dataclasses.replace(small_config(str(tmp_path)), detector=None), cfg)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    capsys.readouterr()
    assert cli.main(["train", "--config", str(cfg), "--role", "detector"]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: no settings for role 'detector'\n"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("far_ood", ["missing", "malformed"])
def test_train_reads_no_far_ood_file(experiment, tmp_path, far_ood):
    """train draws its OOD exposure sets from the config: with far_ood.csv removed or malformed,
    both roles exit 0 and write the checkpoints and reports they write with it intact."""
    for name in ("in_train.csv", "in_val.csv"):
        (tmp_path / name).write_bytes((experiment["out"] / name).read_bytes())
    if far_ood == "malformed":
        (tmp_path / "far_ood.csv").write_bytes(b"features:3,label:0\n0.5,x\n")
    for role in ("classifier", "detector"):
        rc, stdout = run_cli(["train", "--config", experiment["cfg"], "--role", role, "--out", str(tmp_path)])
        assert rc == 0, stdout
        for name in (f"{role}.ckpt", f"{role}_report.json"):
            assert (tmp_path / name).read_bytes() == (experiment["out"] / name).read_bytes(), name


def test_refused_command_creates_no_out_dir(experiment, tmp_path):
    out, absent = experiment["out"], tmp_path / "absent"
    ckpts = ["--checkpoint", str(out / "classifier.ckpt"), "--checkpoint", str(out / "detector.ckpt")]
    for argv in (
        ["train", "--config", experiment["cfg"], "--role", "classifier"],
        ["eval", "--config", experiment["cfg"], *ckpts],
        ["screen", "--config", experiment["cfg"], *ckpts, "--input", str(out / "in_test.csv")],
        ["plot", *ckpts[:2], "--input", str(tmp_path / "none.csv")],
        ["plot", *ckpts[:2], "--input", str(out / "in_test.csv"), "--resolution", "1"],
    ):
        assert cli.main([*argv, "--out", str(absent)]) == 1
        assert not absent.exists(), argv[0]


def test_screen_reuses_thresholds_byte_for_byte(experiment, tmp_path):
    ckpts = copy_run(experiment, tmp_path)
    screen = screen_argv(experiment["cfg"], ckpts, tmp_path)
    thresholds = tmp_path / "thresholds.json"
    rc, cold = run_cli(screen)
    assert rc == 0
    decisions, written = (tmp_path / "decisions.csv").read_bytes(), thresholds.read_bytes()
    rc, warm = run_cli(screen)
    assert rc == 0 and warm == cold
    assert (tmp_path / "decisions.csv").read_bytes() == decisions
    assert thresholds.read_bytes() == written
    for _ in range(2):
        rc, _ = run_cli(["eval", "--config", experiment["cfg"], *ckpts, "--out", str(tmp_path)])
        assert rc == 0 and thresholds.read_bytes() == written
    # no paths inside: the shared experiment's run, elsewhere on disk, wrote the same bytes
    assert (experiment["out"] / "thresholds.json").read_bytes() == written

    blob = json.loads(written)
    assert list(blob) == sorted(blob)
    assert blob["format"] == "dpnet-thresholds-v1"
    assert blob["in_val_rows"] == 120
    for key, name in [("classifier_sha256", "classifier.ckpt"), ("detector_sha256", "detector.ckpt"),
                      ("in_val_sha256", "in_val.csv")]:
        assert blob[key] == hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert (blob["drop_fraction_detector"], blob["drop_fraction_classifier"]) == (0.05, 0.01)
    assert all(math.isfinite(blob[key]) for key in ("tau_d", "tau_c"))


@pytest.mark.parametrize("when", ["cold", "warm"])
def test_screen_of_in_val_matches_a_screen_of_its_copy(experiment, tmp_path, when):
    """screen --input <out>/in_val.csv, which reads that file once for both the decisions and
    the thresholds, writes what a screen of a byte copy of it writes."""
    ckpts = copy_run(experiment, tmp_path)
    copy = tmp_path / "in_val_copy.csv"
    copy.write_bytes((tmp_path / "in_val.csv").read_bytes())
    screen = ["screen", "--config", experiment["cfg"], *ckpts, "--out", str(tmp_path), "--input"]
    rc, stdout = run_cli([*screen, str(copy)])
    assert rc == 0
    written = {name: (tmp_path / name).read_bytes() for name in ("decisions.csv", "thresholds.json")}
    if when == "cold":
        (tmp_path / "thresholds.json").unlink()
    (tmp_path / "decisions.csv").unlink()
    assert run_cli([*screen, str(tmp_path / "in_val.csv")]) == (0, stdout)
    assert {name: (tmp_path / name).read_bytes() for name in written} == written


def plant_thresholds(path, **changes) -> bytes:
    """Rewrite thresholds.json with both taus at -1 (every row discarded) plus ``changes``."""
    blob = {**json.loads(path.read_text()), "tau_d": -1.0, "tau_c": -1.0, **changes}
    path.write_text(json.dumps(blob))
    return path.read_bytes()


def test_screen_obeys_matching_thresholds_file(experiment, tmp_path):
    ckpts = copy_run(experiment, tmp_path)
    screen = screen_argv(experiment["cfg"], ckpts, tmp_path)
    assert run_cli(screen)[0] == 0
    planted = plant_thresholds(tmp_path / "thresholds.json")
    rc, stdout = run_cli(screen)
    assert rc == 0
    assert "trusted=0\nhuman_review=0\ndiscard=120\n" in stdout
    assert (tmp_path / "thresholds.json").read_bytes() == planted


def test_eval_ignores_matching_thresholds_file(experiment, tmp_path):
    """eval always calibrates: a matching planted file changes no score line and is rewritten."""
    ckpts = copy_run(experiment, tmp_path)
    cfg = experiment["cfg"]
    thresholds = tmp_path / "thresholds.json"
    assert run_cli(screen_argv(cfg, ckpts, tmp_path))[0] == 0
    cold = thresholds.read_bytes()
    evaluate = ["eval", "--config", cfg, *ckpts, "--out", str(tmp_path)]
    assert run_cli(evaluate)[0] == 0
    scores = (tmp_path / "scores.csv").read_bytes()

    plant_thresholds(thresholds)
    assert run_cli(evaluate)[0] == 0
    assert (tmp_path / "scores.csv").read_bytes() == scores
    assert thresholds.read_bytes() == cold


def perturb_checkpoint(path) -> None:
    model = load_checkpoint(path)
    model.weights[0][0, 0] += 1e-3
    save_checkpoint(model, path)


def drop_last_row(path) -> None:
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")


@pytest.mark.parametrize("change", [
    "classifier.ckpt", "detector.ckpt", "in_val.csv",
    "drop_fraction_detector", "drop_fraction_classifier", "format",
])
def test_screen_recalibrates_stale_thresholds_file(experiment, tmp_path, change):
    ckpts = copy_run(experiment, tmp_path)
    cfg = experiment["cfg"]
    assert run_cli(screen_argv(cfg, ckpts, tmp_path))[0] == 0
    planted = plant_thresholds(
        tmp_path / "thresholds.json", **({"format": "dpnet-thresholds-v0"} if change == "format" else {})
    )
    if change.endswith(".ckpt"):
        perturb_checkpoint(tmp_path / change)
    elif change == "in_val.csv":
        drop_last_row(tmp_path / change)
    elif change.startswith("drop_fraction"):
        screening = dataclasses.replace(ScreeningConfig(), **{change: 0.1})
        cfg = str(tmp_path / "config.json")
        save_config(dataclasses.replace(small_config(str(tmp_path)), screening=screening), cfg)

    rc, stdout = run_cli(screen_argv(cfg, ckpts, tmp_path))
    assert rc == 0 and "discard=120" not in stdout
    rewritten = (tmp_path / "thresholds.json").read_bytes()
    assert rewritten != planted
    # eval always calibrates: the rewritten file must be what it writes
    assert run_cli(["eval", "--config", cfg, *ckpts, "--out", str(tmp_path)])[0] == 0
    assert (tmp_path / "thresholds.json").read_bytes() == rewritten


@pytest.mark.parametrize("corrupt, message", [
    (lambda blob: "{not json", "invalid JSON"),
    (lambda blob: "[1, 2]", "top-level value must be an object"),
    (lambda blob: json.dumps({k: v for k, v in blob.items() if k != "tau_c"}), "missing key 'tau_c'"),
    (lambda blob: json.dumps({**blob, "tau_d": "0.1"}), "tau_d must be a finite number"),
    (lambda blob: json.dumps({**blob, "tau_d": math.nan}), "tau_d must be a finite number"),
    (
        lambda blob: json.dumps({**blob, "drop_fraction_detector": math.nan}),
        "drop_fraction_detector must be a finite number",
    ),
    (lambda blob: json.dumps({**blob, "tau": 0.1}), "unknown key 'tau'"),
    (
        lambda blob: json.dumps(blob).replace('"tau_d": ', '"tau_d": 0.5, "tau_d": '),
        "invalid JSON: duplicate key 'tau_d'",
    ),
    (lambda blob: "[" * 100_000 + "]" * 100_000, "invalid JSON: maximum recursion depth"),
    (
        lambda blob: json.dumps({**blob, "in_val_rows": "rows"}).replace('"rows"', "9" * 5000),
        f"invalid JSON: an integer of more than {sys.get_int_max_str_digits()} digits\n",
    ),
], ids=[
    "bad-json", "not-an-object", "missing-key", "string-tau", "nan-tau", "nan-drop-fraction", "unknown-key",
    "duplicate-tau_d", "deep-nesting", "huge-integer",
])
def test_screen_refuses_malformed_thresholds_file(experiment, tmp_path, capsys, corrupt, message):
    """A malformed thresholds.json is refused with its path, and left as it is: not recalibrated."""
    ckpts = copy_run(experiment, tmp_path)
    screen = screen_argv(experiment["cfg"], ckpts, tmp_path)
    path = tmp_path / "thresholds.json"
    assert cli.main(screen) == 0
    path.write_text(corrupt(json.loads(path.read_text())))
    corrupted = path.read_bytes()
    capsys.readouterr()
    assert cli.main(screen) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {message}"), err
    assert path.read_bytes() == corrupted


# what a byte edit of a JSON file may insert: any bytes, or one of these
EDIT_BYTES = [b"NaN", b"-Infinity", b"nan", b"inf", b"1e999", b"9" * 5000, b"\xef\xbb\xbf", b"\x00", b"\r"]
# what may replace the value of one key
EDIT_VALUES = [
    b"NaN", b"Infinity", b"-Infinity", b"1e999", b"-1e999", str(2**63).encode(), str(10**308).encode(),
    str(10**309).encode(), b"-" + b"9" * 5000, b'"0.1"', b"null", b"[]", b"true", b"0", b"0.5", b"-1",
]
byte_edit = st.tuples(
    st.integers(0, 2**12),  # where, taken modulo the file's length plus one
    st.integers(0, 8),  # how many bytes it removes
    st.one_of(st.binary(max_size=8), st.sampled_from(EDIT_BYTES)),  # what it inserts
)


def value_edit(keys):
    """Edits that give every value of one of ``keys`` one of EDIT_VALUES."""
    return st.tuples(st.sampled_from(sorted(keys)), st.sampled_from(EDIT_VALUES))


CONFIG_KEYS = {"schema_version"} | {
    f.name for cls in (ExperimentConfig, DatasetConfig, ModelConfig, RoleConfig, OodSourceConfig,
                       ScreeningConfig, EvalConfig) for f in dataclasses.fields(cls)
}


def apply_edits(raw: bytes, edits) -> bytes:
    """raw with each byte_edit or value_edit applied in turn."""
    for edit in edits:
        if isinstance(edit[0], int):
            where, removed, inserted = edit
            where %= len(raw) + 1
            raw = raw[:where] + inserted + raw[where + removed:]
        else:
            key, value = edit
            raw = re.sub(rb'("%s": )[^,\n]*' % key.encode(), lambda m: m[1] + value, raw)
    return raw


def screen_survives(argv, path, raw, edits, refused=None):
    """screen with the file at path edited: exit 0, or exit 1 with stderr matching ``refused``
    (by default, naming the file) and no file in --out created or changed; never an uncaught
    exception."""
    path.write_bytes(apply_edits(raw, edits))
    out = Path(argv[argv.index("--out") + 1])
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        rc = cli.main(argv)
    assert rc in (0, 1)
    if rc == 1:
        assert re.match(refused or re.escape(f"error: {path}: "), err.getvalue()), err.getvalue()
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    else:
        assert err.getvalue() == ""


@pytest.fixture(scope="module")
def warm_screen(experiment, tmp_path_factory):
    """A copy of the run after one cold screen: its argv, its thresholds.json and that file's bytes."""
    out = tmp_path_factory.mktemp("warm")
    argv = screen_argv(experiment["cfg"], copy_run(experiment, out), out)
    assert run_cli(argv)[0] == 0
    return argv, out / "thresholds.json", (out / "thresholds.json").read_bytes()


@settings(max_examples=150, deadline=None, database=None)
@given(st.lists(st.one_of(byte_edit, value_edit(f.name for f in dataclasses.fields(cli._StoredThresholds))),
                min_size=1, max_size=3))
def test_screen_survives_any_thresholds_file(warm_screen, edits):
    screen_survives(*warm_screen, edits)


@pytest.fixture(scope="module")
def config_screen(experiment, tmp_path_factory):
    """A copy of the run, with its own config.json, after one cold screen: its argv, its
    config.json and that file's bytes."""
    out = tmp_path_factory.mktemp("config")
    save_config(small_config(str(out)), out / "config.json")
    argv = screen_argv(str(out / "config.json"), copy_run(experiment, out), out)
    assert run_cli(argv)[0] == 0
    return argv, out / "config.json", (out / "config.json").read_bytes()


@settings(max_examples=150, deadline=None, database=None)
@given(st.lists(st.one_of(byte_edit, value_edit(CONFIG_KEYS)), min_size=1, max_size=3))
def test_screen_survives_any_config_file(config_screen, edits):
    screen_survives(*config_screen, edits)


@pytest.fixture(scope="module", params=["classifier", "detector"])
def checkpoint_screen(experiment, tmp_path_factory, request):
    """A copy of the run after one cold screen: its argv, one role's checkpoint and that file's bytes."""
    out = tmp_path_factory.mktemp(request.param)
    argv = screen_argv(experiment["cfg"], copy_run(experiment, out), out)
    assert run_cli(argv)[0] == 0
    return argv, out / f"{request.param}.ckpt", (out / f"{request.param}.ckpt").read_bytes()


@settings(max_examples=100, deadline=None, database=None)
@given(st.lists(byte_edit, min_size=1, max_size=3))
def test_screen_survives_any_checkpoint(checkpoint_screen, edits):
    screen_survives(*checkpoint_screen, edits)


# what a byte edit of a checkpoint's header may insert: each is read by int() beside a digit
SIZES_BYTES = [b"+", b"-", b" ", b"_", b"0", b"\t", b"\r", b"\xd9\xa2"]
sizes_edit = st.tuples(st.integers(0, 24), st.integers(0, 2), st.sampled_from(SIZES_BYTES))


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.one_of(byte_edit, sizes_edit), min_size=1, max_size=3))
@example([(len(b"dpnet-v1\n"), 0, b"+")])
@example([(len(b"dpnet-v1\n2,"), 0, b" ")])
@example([(len(b"dpnet-v1\n2,1"), 0, b"_")])
def test_loaded_checkpoint_has_its_file_bytes(experiment, edits):
    """A checkpoint that load_checkpoint reads gives back its file's bytes through
    checkpoint_bytes, so the digest thresholds.json records names the bytes read."""
    raw = apply_edits((experiment["out"] / "classifier.ckpt").read_bytes(), edits)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        path.write_bytes(raw)
        try:
            model = load_checkpoint(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: "), exc
        else:
            assert network.checkpoint_bytes(model) == raw


def input_file(out, rows: int):
    """``out``/input.csv: the first ``rows`` rows of shifted_test.csv, the first row's features set to 1.0."""
    examples = load_csv(out / "shifted_test.csv")
    features = examples.features[:rows].copy()
    features[0] = 1.0
    save_csv(out / "input.csv", ExampleSet(features, examples.labels[:rows]))
    return out / "input.csv"


@pytest.fixture(scope="module")
def input_screen(experiment, tmp_path_factory):
    """A copy of the run after one screen of a 64-row --input: its argv, the input and its bytes."""
    out = tmp_path_factory.mktemp("input")
    ckpts, path = copy_run(experiment, out), input_file(out, 64)
    argv = ["screen", "--config", experiment["cfg"], *ckpts, "--input", str(path), "--out", str(out)]
    assert run_cli(argv)[0] == 0
    return argv, path, path.read_bytes()


@settings(max_examples=150, deadline=None, database=None)
@given(st.lists(byte_edit, min_size=1, max_size=3))
# finite features whose logits overflow the classifier
@example([
    (len(b"features:2,label:1\n"), len(b"1.0"), b"1e308"),
    (len(b"features:2,label:1\n1e308,"), len(b"1.0"), b"1e308"),
])
def test_screen_survives_any_input_file(input_screen, edits):
    """An edited --input is screened, refused at its path, or refused as overflowing a checkpoint."""
    argv, path, _ = input_screen
    ckpt = re.escape(str(path.parent)) + r"/(classifier|detector)\.ckpt"
    refused = rf"error: ({re.escape(str(path))}:|{ckpt}: non-finite logits on {re.escape(str(path))}\n$)"
    screen_survives(*input_screen, edits, refused)


@pytest.fixture(scope="module", params=["eval", "screen"])
def in_val_run(experiment, tmp_path_factory, request):
    """A copy of the run: the argv of eval or of a screen, in_val.csv and that file's bytes."""
    out = tmp_path_factory.mktemp(f"in-val-{request.param}")
    ckpts = copy_run(experiment, out)
    argv = {
        "eval": ["eval", "--config", experiment["cfg"], *ckpts, "--out", str(out)],
        "screen": screen_argv(experiment["cfg"], ckpts, out),
    }[request.param]
    return argv, out / "in_val.csv", (out / "in_val.csv").read_bytes()


@settings(max_examples=150, deadline=None, database=None)
@given(st.lists(byte_edit, min_size=1, max_size=3))
# a first row of finite features whose logits overflow the classifier
@example([(len(b"features:2,label:1\n"), 0, b"1e308,1e308,0\n")])
def test_eval_and_cold_screen_survive_any_in_val_file(in_val_run, edits):
    """An edited in_val.csv is calibrated on, refused at its path, or refused as overflowing a checkpoint."""
    argv, path, _ = in_val_run
    (path.parent / "thresholds.json").unlink(missing_ok=True)  # so a screen calibrates on in_val.csv
    ckpt = re.escape(str(path.parent)) + r"/(classifier|detector)\.ckpt"
    refused = rf"error: ({re.escape(str(path))}:|{ckpt}: non-finite logits on {re.escape(str(path))}\n$)"
    screen_survives(*in_val_run, edits, refused)


@pytest.mark.parametrize("role", ["classifier", "detector"])
@pytest.mark.parametrize("gone", ["removed", "directory"])
def test_screen_refuses_a_checkpoint_gone_after_a_warm_screen(experiment, tmp_path, capsys, role, gone):
    """After warm screens, a checkpoint that cannot be read is refused with its OSError."""
    ckpts = copy_run(experiment, tmp_path)
    screen = screen_argv(experiment["cfg"], ckpts, tmp_path)
    for _ in range(2):
        assert cli.main(screen) == 0
    path = tmp_path / f"{role}.ckpt"
    path.unlink()
    if gone == "directory":
        path.mkdir()
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    capsys.readouterr()
    assert cli.main(screen) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: \[Errno \d+\] [^:]+: '{re.escape(str(path))}'\n", err), err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


@pytest.fixture(scope="module", params=["in_train.csv", "in_val.csv"])
def train_run(experiment, tmp_path_factory, request):
    """A copy of in_train.csv and in_val.csv with a one-epoch detector: train's argv, one of the
    two files and its bytes."""
    out = tmp_path_factory.mktemp(f"train-{request.param}")
    for name in ("in_train.csv", "in_val.csv"):
        (out / name).write_bytes((experiment["out"] / name).read_bytes())
    cfg = small_config(str(out))
    save_config(dataclasses.replace(cfg, detector=dataclasses.replace(cfg.detector, epochs=1)), out / "config.json")
    argv = ["train", "--config", str(out / "config.json"), "--role", "detector", "--out", str(out)]
    return argv, out / request.param, (out / request.param).read_bytes()


@settings(max_examples=100, deadline=None, database=None)
@given(st.lists(byte_edit, min_size=1, max_size=3))
# a first row of finite features whose forward pass overflows
@example([(len(b"features:2,label:1\n"), 0, b"1.7e308,1.7e308,0\n")])
def test_train_survives_any_dataset_file(train_run, edits):
    """An edited in_train.csv or in_val.csv is trained on, refused at its path, or refused by
    train's own checks for non-finite values."""
    path = train_run[1]
    own = "non-finite (training loss|parameters|logits) "
    refused = rf"error: ({re.escape(str(path))}:|missing dataset file |{own})"
    screen_survives(*train_run, edits, refused)


def test_screen_without_validation_file_fails_cold_and_warm(experiment, tmp_path, capsys):
    ckpts = copy_run(experiment, tmp_path)
    screen = screen_argv(experiment["cfg"], ckpts, tmp_path)
    assert cli.main(screen) == 0
    (tmp_path / "in_val.csv").unlink()
    for _ in ("warm", "cold"):
        capsys.readouterr()
        assert cli.main(screen) == 1
        assert capsys.readouterr().err == f"error: missing dataset file {tmp_path / 'in_val.csv'}\n"
        (tmp_path / "thresholds.json").unlink(missing_ok=True)


def decision_scores(path) -> tuple[list[str], list[str]]:
    """The s_d and s_c columns of a decisions.csv, as written."""
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    return [r[1] for r in rows], [r[2] for r in rows]


def direct_scores(classifier, detector, input_path) -> tuple[list[str], list[str]]:
    """The s_d and s_c columns that screening input_path with these checkpoints must write,
    computed without the CLI."""
    scores = pipeline.screen_scores(
        load_checkpoint(classifier), load_checkpoint(detector), load_csv(input_path).features
    )
    return [repr(x) for x in scores.s_d.tolist()], [repr(x) for x in scores.s_c.tolist()]


def test_screen_follows_a_rewritten_config(experiment, tmp_path):
    """A warm screen, then config.json rewritten in place: the next screen recalibrates."""
    ckpts = copy_run(experiment, tmp_path)
    cfg = tmp_path / "config.json"
    save_config(small_config(str(tmp_path)), cfg)
    screen = screen_argv(str(cfg), ckpts, tmp_path)
    assert run_cli(screen)[0] == 0
    before = json.loads((tmp_path / "thresholds.json").read_text())
    screening = ScreeningConfig(drop_fraction_detector=0.2)
    save_config(dataclasses.replace(small_config(str(tmp_path)), screening=screening), cfg)
    assert run_cli(screen)[0] == 0
    after = json.loads((tmp_path / "thresholds.json").read_text())
    assert (before["drop_fraction_detector"], after["drop_fraction_detector"]) == (0.05, 0.2)
    assert after["tau_d"] < before["tau_d"]


def test_screen_refuses_an_invalid_config_on_every_call(experiment, tmp_path, capsys):
    """After a warm screen, an invalid config.json is refused with its path on each call;
    restored, it screens again."""
    ckpts = copy_run(experiment, tmp_path)
    cfg = tmp_path / "config.json"
    save_config(small_config(str(tmp_path)), cfg)
    valid = cfg.read_bytes()
    screen = screen_argv(str(cfg), ckpts, tmp_path)
    assert cli.main(screen) == 0
    blob = json.loads(valid)
    blob["screening"]["drop_fraction_detector"] = 1.5
    cfg.write_text(json.dumps(blob))
    for _ in range(2):
        capsys.readouterr()
        assert cli.main(screen) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: screening: drop_fraction_detector must lie in (0, 1)\n"
        )
    cfg.write_bytes(valid)
    assert cli.main(screen) == 0


def test_screen_follows_an_overwritten_checkpoint(experiment, tmp_path):
    """After a warm screen, classifier.ckpt gets other valid bytes: decisions follow the new model."""
    ckpts = copy_run(experiment, tmp_path)
    screen = screen_argv(experiment["cfg"], ckpts, tmp_path)
    assert run_cli(screen)[0] == 0
    old = decision_scores(tmp_path / "decisions.csv")
    perturb_checkpoint(tmp_path / "classifier.ckpt")
    assert run_cli(screen)[0] == 0
    new = direct_scores(tmp_path / "classifier.ckpt", tmp_path / "detector.ckpt", tmp_path / "shifted_test.csv")
    assert decision_scores(tmp_path / "decisions.csv") == new != old


def test_screen_loads_swapped_checkpoints_again(experiment, tmp_path, monkeypatch):
    """After a warm screen, the same two checkpoints in the other order are loaded, not reused."""
    ckpts = copy_run(experiment, tmp_path)
    assert run_cli(screen_argv(experiment["cfg"], ckpts, tmp_path))[0] == 0
    loaded = []
    load = network.load_checkpoint
    monkeypatch.setattr(network, "load_checkpoint", lambda path: loaded.append(path) or load(path))
    swapped = [ckpts[0], ckpts[3], ckpts[2], ckpts[1]]
    assert run_cli(screen_argv(experiment["cfg"], swapped, tmp_path))[0] == 0
    assert loaded == [ckpts[3], ckpts[1]]
    classifier, detector = tmp_path / "detector.ckpt", tmp_path / "classifier.ckpt"
    direct = direct_scores(classifier, detector, tmp_path / "shifted_test.csv")
    assert decision_scores(tmp_path / "decisions.csv") == direct
    stored = json.loads((tmp_path / "thresholds.json").read_text())
    assert stored["classifier_sha256"] == hashlib.sha256(classifier.read_bytes()).hexdigest()


def test_repeated_screen_builds_nothing_again(experiment, tmp_path, monkeypatch):
    """Of two identical screens, the second does not call config.from_dict."""
    calls = []
    from_dict = config.from_dict
    monkeypatch.setattr(config, "from_dict", lambda blob: calls.append(blob) or from_dict(blob))
    screen = screen_argv(experiment["cfg"], copy_run(experiment, tmp_path), tmp_path)
    assert run_cli(screen)[0] == 0
    assert len(calls) == 1
    assert run_cli(screen)[0] == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", [
    "train", "cold-screen", "warm-screen", "cold-screen-in_val", "warm-screen-in_val", "eval", "plot",
])
def test_each_call_opens_each_file_once(experiment, tmp_path, monkeypatch, command):
    """One call opens each file it reads once, so no file replaced during the call can give one
    read's bytes to a digest and another's to a parse."""
    ckpts = copy_run(experiment, tmp_path)
    (tmp_path / "in_train.csv").write_bytes((experiment["out"] / "in_train.csv").read_bytes())
    cfg, out = experiment["cfg"], ["--out", str(tmp_path)]
    screen = screen_argv(cfg, ckpts, tmp_path)
    screen_reads = [cfg, ckpts[1], ckpts[3], "shifted_test.csv", "thresholds.json", "in_val.csv"]
    screen_in_val = ["screen", "--config", cfg, *ckpts, "--input", str(tmp_path / "in_val.csv"), *out]
    # each call's argv and the files it reads: absolute paths, or names in tmp_path
    argv, reads = {
        "train": (["train", "--config", cfg, "--role", "detector", *out],
                  [cfg, "in_train.csv", "in_val.csv"]),
        "cold-screen": (screen, screen_reads),
        "warm-screen": (screen, screen_reads),
        # the --input that is in_val.csv is read once, for the decisions and the thresholds
        "cold-screen-in_val": (screen_in_val, screen_reads[:3] + screen_reads[4:]),
        "warm-screen-in_val": (screen_in_val, screen_reads[:3] + screen_reads[4:]),
        "eval": (["eval", "--config", cfg, *ckpts, *out],
                 [cfg, ckpts[1], ckpts[3], "in_val.csv", "in_test.csv", "shifted_test.csv", "far_ood.csv"]),
        "plot": (["plot", *ckpts[:2], "--input", str(tmp_path / "in_test.csv"), *out], [ckpts[1], "in_test.csv"]),
    }[command]
    if command.startswith("warm-screen"):
        assert run_cli(argv)[0] == 0
    opened = []
    real_open = open

    def spied_open(file, mode="r", *args, **kwargs):
        opened.append((str(file), mode))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr("builtins.open", spied_open)
    assert run_cli(argv)[0] == 0
    read = [name for name, mode in opened if not set(mode) & set("wax+")]
    assert sorted(read) == sorted(str(tmp_path / name) for name in reads)


@pytest.mark.parametrize("command", ["eval", "cold-screen"])
@pytest.mark.parametrize("when", ["before", "after"])
def test_thresholds_describe_the_in_val_bytes_parsed(experiment, tmp_path, monkeypatch, command, when):
    """in_val.csv replaced by its first 60 rows just before or just after it is parsed:
    thresholds.json records the digest and row count of the bytes that were parsed."""
    ckpts = copy_run(experiment, tmp_path)
    path = tmp_path / "in_val.csv"
    old = path.read_bytes()
    new = b"".join(old.splitlines(keepends=True)[:61])
    argv = {
        "eval": ["eval", "--config", experiment["cfg"], *ckpts, "--out", str(tmp_path)],
        "cold-screen": screen_argv(experiment["cfg"], ckpts, tmp_path),
    }[command]
    load, parsed = data.load_csv, []

    def replaced(name, *args):
        if name == path and when == "before":
            path.write_bytes(new)
        examples = load(name, *args)
        if name == path:
            parsed.append(len(examples))
            if when == "after":
                path.write_bytes(new)
        return examples

    monkeypatch.setattr(data, "load_csv", replaced)
    assert run_cli(argv)[0] == 0
    assert path.read_bytes() == new and len(parsed) == 1
    blob = json.loads((tmp_path / "thresholds.json").read_text())
    described = {120: old, 60: new}[parsed[0]]
    assert (blob["in_val_sha256"], blob["in_val_rows"]) == (hashlib.sha256(described).hexdigest(), parsed[0])


def test_screen_recalibrates_when_thresholds_file_vanishes_before_its_read(experiment, tmp_path, monkeypatch):
    """thresholds.json removed between a warm screen's start and its read: the screen calibrates
    again and writes the same file, rather than refusing the call."""
    screen = screen_argv(experiment["cfg"], copy_run(experiment, tmp_path), tmp_path)
    assert run_cli(screen)[0] == 0
    path = tmp_path / "thresholds.json"
    written, read_json = path.read_bytes(), config.read_json

    def removed_then_read(name, cls):
        Path(name).unlink()
        return read_json(name, cls)

    monkeypatch.setattr(config, "read_json", removed_then_read)
    assert run_cli(screen)[0] == 0
    assert path.read_bytes() == written


def test_thresholds_name_the_checkpoint_bytes_the_model_came_from(experiment, tmp_path, monkeypatch):
    """classifier.ckpt replaced just before it is read: thresholds.json records the new bytes'
    digest. Once the old bytes are back, the next screen recalibrates with the restored model."""
    ckpts = copy_run(experiment, tmp_path)
    screen = screen_argv(experiment["cfg"], ckpts, tmp_path)
    path, thresholds = tmp_path / "classifier.ckpt", tmp_path / "thresholds.json"
    old = path.read_bytes()
    perturb_checkpoint(path)
    new = path.read_bytes()
    path.write_bytes(old)
    load = network.load_checkpoint

    def replaced_then_loaded(name):
        if name == str(path):
            path.write_bytes(new)
        return load(name)

    monkeypatch.setattr(network, "load_checkpoint", replaced_then_loaded)
    assert run_cli(screen)[0] == 0
    assert json.loads(thresholds.read_text())["classifier_sha256"] == hashlib.sha256(new).hexdigest()
    monkeypatch.undo()

    path.write_bytes(old)
    assert run_cli(screen)[0] == 0
    assert json.loads(thresholds.read_text())["classifier_sha256"] == hashlib.sha256(old).hexdigest()
    restored = direct_scores(path, tmp_path / "detector.ckpt", tmp_path / "shifted_test.csv")
    assert decision_scores(tmp_path / "decisions.csv")[1] == restored[1]


def test_screen_names_decisions_a_full_disk_refuses(experiment, tmp_path, capsys):
    """A warm screen whose decisions.csv outgrows the disk: exit 1 naming that file, no file
    changed and no temp file left. capsys keeps the output in memory."""
    screen = screen_argv(experiment["cfg"], copy_run(experiment, tmp_path), tmp_path)
    assert cli.main(screen) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    capsys.readouterr()
    with disk_full_after(1000):
        assert cli.main(screen) == 1
    err = capsys.readouterr().err
    path = re.escape(str(tmp_path / "decisions.csv"))
    assert re.fullmatch(rf"error: \[Errno {errno.EFBIG}\] [^:]+: '{path}'\n", err), err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


ROOT = Path(__file__).resolve().parents[1]


def test_screen_as_a_process_matches_main(experiment, tmp_path, capsys):
    """python -m dpnet.cli screen writes main's decisions.csv, thresholds.json and stdout, and
    refuses a malformed --input with main's exit code and stderr."""
    ckpts, path = copy_run(experiment, tmp_path), input_file(tmp_path, 64)
    argv = ["screen", "--config", experiment["cfg"], *ckpts, "--input", str(path), "--out", str(tmp_path)]

    def process():
        proc = subprocess.run(
            [sys.executable, "-m", "dpnet.cli", *argv], cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def files():
        return {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    assert cli.main(argv) == 0
    in_process, written = capsys.readouterr(), files()
    for name in ("decisions.csv", "thresholds.json"):
        (tmp_path / name).unlink()
    assert process() == (0, in_process.out, "")
    assert files() == written

    path.write_bytes(path.read_bytes().replace(b"\n1.0,1.0,", b"\n1.0,one,", 1))
    assert cli.main(argv) == 1
    in_process = capsys.readouterr()
    assert in_process.err.startswith(f"error: {path}:2: ")
    assert process() == (1, "", in_process.err)


def per_row_decision_rows(thresholds, scores, id_prefix):
    """decisions.csv lines and outcome counts as built before lines were written in chunks:
    the whole set's lines at once, one f-string per row."""
    names = [o.value for o in pipeline.Outcome]
    outcome, predicted = pipeline.route_decision(scores.s_d, scores.s_c, thresholds, scores.predicted)
    lines = [
        f"{id_prefix}{i},{d!r},{c!r},{names[o]},{'' if k < 0 else k}"
        for i, (d, c, o, k) in enumerate(
            zip(scores.s_d.tolist(), scores.s_c.tolist(), outcome.tolist(), predicted.tolist())
        )
    ]
    return lines, np.bincount(outcome, minlength=len(names)).tolist()


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def decision_parts(draw):
    n = draw(st.integers(0, 30))
    s_d, s_c = (draw(arrays(np.float64, n, elements=finite)) for _ in range(2))
    predicted = draw(arrays(np.int64, n, elements=st.integers(0, 4)))
    return draw(st.sampled_from(["", "in_test/", "far_ood/"])), pipeline.ScreenScores(s_d, s_c, predicted, s_d)


@settings(max_examples=100, deadline=None, database=None)
@given(st.lists(decision_parts(), min_size=1, max_size=3), finite, finite, st.integers(1, 4))
def test_decisions_writer_matches_per_row_lines(parts, tau_d, tau_c, chunk):
    """With chunks of a few rows, the writer's lines and each part's counts are the per-row f-string's."""
    thresholds = pipeline.ScreeningThresholds(tau_d=tau_d, tau_c=tau_c)
    lines, counts = [], []
    for prefix, scores in parts:
        part_lines, part_counts = per_row_decision_rows(thresholds, scores, prefix)
        lines += part_lines
        counts.append(part_counts)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(data, "CHUNK_ROWS", chunk):
        path = Path(tmp) / "decisions.csv"
        assert cli._write_decisions(path, thresholds, parts) == counts
        assert path.read_bytes() == "\n".join(["id,s_d,s_c,outcome,predicted_class", *lines, ""]).encode()


def test_screen_memory_stays_flat(experiment, tmp_path):
    """The traced peak of screening 50k rows: about 5.7 MiB, where whole-file CSV I/O took 14 MiB."""
    ckpts = copy_run(experiment, tmp_path)
    features = np.random.default_rng(4).normal(0, 6, (50_000, 2))
    save_csv(tmp_path / "input.csv", ExampleSet(features))
    screen = ["screen", "--config", experiment["cfg"], *ckpts, "--input", str(tmp_path / "input.csv"),
              "--out", str(tmp_path)]
    tracemalloc.start()
    try:
        rc, _ = run_cli(screen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert len((tmp_path / "decisions.csv").read_text().splitlines()) == 50_001
    assert peak < 8 * 2**20, peak
