import dataclasses
import functools
import hashlib
import io
import json
import math
import operator
import re
from contextlib import redirect_stdout

import numpy as np
import pytest

from dpnet import cli
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
from dpnet.data import load_csv
from dpnet.network import init_model, load_checkpoint, save_checkpoint


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
    blob["schema_version"] = "dpn-exp-v2"
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
        (("detector", "ood_sources", 0, "gamma"), -0.5, "detector.ood_sources[0]: gamma must be >= 0"),
        (
            ("classifier", "ood_sources", 0, "name"),
            "near_ood",
            "classifier.ood_sources[0]: unknown OOD source 'near_ood'",
        ),
        (("dataset", "classes"), 1, "dataset: classes must be >= 2"),
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


def test_write_json_replaces_the_file_whole(tmp_path):
    path = tmp_path / "blob.json"
    blob = {"b": [1, 2.5, None], "a": {"z": "x", "y": True}}
    write_json(path, blob)
    assert path.read_text() == json.dumps(blob, indent=2, sort_keys=True) + "\n"
    assert [p.name for p in tmp_path.iterdir()] == ["blob.json"]
    # the umask-default mode, like every other artifact
    (tmp_path / "plain").write_text("")
    assert path.stat().st_mode == (tmp_path / "plain").stat().st_mode
    (tmp_path / "plain").unlink()

    written = path.read_bytes()
    with pytest.raises(TypeError):
        write_json(path, {"a": 1, "b": {2}})  # the dump fails at the set, after "a"
    assert path.read_bytes() == written
    assert [p.name for p in tmp_path.iterdir()] == ["blob.json"]


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


def test_missing_role_is_an_error():
    cfg = ExperimentConfig(out_dir="x")
    with pytest.raises(ValueError, match="role"):
        cfg.role("classifier")
    assert default_config().role("detector").lambda_in == 0.5


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


def test_train_writes_checkpoint_and_report(experiment):
    out = experiment["out"]
    for role in ("classifier", "detector"):
        model = load_checkpoint(out / f"{role}.ckpt")
        assert model.layer_sizes == (2, 16, 16, 3)
        report = json.loads((out / f"{role}_report.json").read_text())
        assert len(report["loss_total"]) == 12
        assert report["final_val_accuracy"] > 0.85
        assert 0 <= report["selected_epoch"] < 12
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


def test_cli_reports_missing_dataset(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    save_config(small_config(str(tmp_path)), cfg_path)
    rc = cli.main(["train", "--config", str(cfg_path), "--role", "classifier"])
    assert rc == 1
    assert "missing dataset file" in capsys.readouterr().err


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


def test_cli_rejects_empty_screen_input(experiment, tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("features:2,label:0\n")
    rc = cli.main([
        "screen",
        "--config", experiment["cfg"],
        "--checkpoint", str(experiment["out"] / "classifier.ckpt"),
        "--checkpoint", str(experiment["out"] / "detector.ckpt"),
        "--input", str(empty),
    ])
    assert rc == 1
    assert "no rows" in capsys.readouterr().err


def test_cli_rejects_input_with_other_feature_count(experiment, tmp_path, capsys):
    ckpts = [
        "--checkpoint", str(experiment["out"] / "classifier.ckpt"),
        "--checkpoint", str(experiment["out"] / "detector.ckpt"),
    ]
    wide = tmp_path / "wide.csv"
    wide.write_text("features:3,label:0\n0.0,1.0,2.0\n")
    rc = cli.main(["screen", "--config", experiment["cfg"], *ckpts, "--input", str(wide)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {wide}: 3 features, checkpoints expect 2\n"

    for name in ("in_val.csv", "in_test.csv", "shifted_test.csv", "far_ood.csv"):
        (tmp_path / name).write_bytes((experiment["out"] / name).read_bytes())
    (tmp_path / "far_ood.csv").write_text("features:1,label:0\n0.5\n")
    rc = cli.main(["eval", "--config", experiment["cfg"], *ckpts, "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: {tmp_path / 'far_ood.csv'}: 1 features, checkpoints expect 2\n"


def test_cli_rejects_non_three_class_plot(tmp_path, capsys):
    ckpt = tmp_path / "two.ckpt"
    save_checkpoint(init_model((2, 8, 2), seed=2), ckpt)
    points = tmp_path / "p.csv"
    points.write_text("features:2,label:0\n0.0,0.0\n")
    rc = cli.main(["plot", "--checkpoint", str(ckpt), "--input", str(points), "--out", str(tmp_path)])
    assert rc == 1
    assert "3-class" in capsys.readouterr().err


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


def test_cli_rejects_empty_validation_set(experiment, tmp_path, capsys):
    """Header-only in_val.csv fails screen and eval; a header-only test set fails eval.

    Each error names the file, and nothing is written.
    """
    ckpts = copy_run(experiment, tmp_path)
    eval_argv = ["eval", "--config", experiment["cfg"], *ckpts, "--out", str(tmp_path)]
    (tmp_path / "in_val.csv").write_text("features:2,label:1\n")
    expected = f"error: {tmp_path / 'in_val.csv'}: no validation rows\n"
    for argv in (screen_argv(experiment["cfg"], ckpts, tmp_path), eval_argv):
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == expected
    for name in ("in_test.csv", "shifted_test.csv", "far_ood.csv"):
        copy_run(experiment, tmp_path)
        header = (tmp_path / name).read_text().split("\n", 1)[0]
        (tmp_path / name).write_text(header + "\n")
        assert cli.main(eval_argv) == 1
        assert capsys.readouterr().err == f"error: {tmp_path / name}: no rows\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(RUN_FILES)


# every (command, input file) pair a command reads, with the defects that apply to it;
# input.csv is the --input of screen and plot, and labels matter where train or eval uses them
INPUT_DEFECTS = [
    ("train", "in_train.csv", ("missing", "header-only", "unlabeled", "label-range")),
    ("train", "in_val.csv", ("missing", "header-only", "wide", "unlabeled", "label-range")),
    ("train", "far_ood.csv", ("missing", "header-only", "wide")),
    ("eval", "in_val.csv", ("missing", "header-only", "wide")),
    ("eval", "in_test.csv", ("missing", "header-only", "wide")),
    ("eval", "shifted_test.csv", ("missing", "header-only", "wide", "unlabeled", "label-range")),
    ("eval", "far_ood.csv", ("missing", "header-only", "wide")),
    ("screen", "input.csv", ("missing", "header-only", "wide")),
    ("screen", "in_val.csv", ("missing", "header-only", "wide")),
    ("plot", "input.csv", ("missing", "header-only", "wide")),
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
            "unlabeled": "features:2,label:0\n0.0,1.0\n",
            "label-range": "features:2,label:1\n0.0,1.0,0\n0.5,0.5,3\n",
        }[defect])
    expect = f"{tmp_path / 'in_train.csv'} has" if command == "train" else "checkpoints expect"
    message = {
        "missing": f"missing dataset file {path}",
        "header-only": f"{path}: no {'validation ' if name == 'in_val.csv' else ''}rows",
        "wide": f"{path}: 3 features, {expect} 2",
        "unlabeled": f"{path}: no labels",
        "label-range": f"{path}:3: label 3 >= 3 classes",
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


def test_refused_command_creates_no_out_dir(experiment, tmp_path):
    out, absent = experiment["out"], tmp_path / "absent"
    ckpts = ["--checkpoint", str(out / "classifier.ckpt"), "--checkpoint", str(out / "detector.ckpt")]
    for argv in (
        ["train", "--config", experiment["cfg"], "--role", "classifier"],
        ["eval", "--config", experiment["cfg"], *ckpts],
        ["screen", "--config", experiment["cfg"], *ckpts, "--input", str(out / "in_test.csv")],
        ["plot", *ckpts[:2], "--input", str(tmp_path / "none.csv")],
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
], ids=["bad-json", "not-an-object", "missing-key", "string-tau", "nan-tau", "nan-drop-fraction", "unknown-key"])
def test_screen_refuses_malformed_thresholds_file(experiment, tmp_path, capsys, corrupt, message):
    ckpts = copy_run(experiment, tmp_path)
    screen = screen_argv(experiment["cfg"], ckpts, tmp_path)
    path = tmp_path / "thresholds.json"
    assert cli.main(screen) == 0
    path.write_text(corrupt(json.loads(path.read_text())))
    capsys.readouterr()
    assert cli.main(screen) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {message}"), err


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
