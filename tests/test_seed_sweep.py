"""The default experiment on 12 dataset seeds, fixed in advance.

Seed s shifts every dataset seed of the default config by 10*s and runs
gen, train for both roles and eval through the CLI. On every seed the
rescore AUROC must not fall by more than 0.02 when 10% of the shifted
rows are discarded (criterion 4(d)), and no far-ring row may be routed
`trusted`. The far-OOD detection rate at a 5% drop (criterion 4(b))
must reach 0.90 on at least 10 of the 12 seeds. No seed is ever dropped
for failing.
"""

import dataclasses
import io
from contextlib import redirect_stdout

from dpnet import cli
from dpnet.config import default_config, save_config

SEEDS = range(12)
FAR_AT_5_MIN_SEEDS = 10


def run_seed(s: int, root) -> dict:
    out = root / f"s{s}"
    cfg = default_config(str(out))
    ds = cfg.dataset
    cfg = dataclasses.replace(cfg, dataset=dataclasses.replace(
        ds,
        seed=ds.seed + 10 * s,
        shifted_seed=ds.shifted_seed + 10 * s,
        shifted_train_seed=ds.shifted_train_seed + 10 * s,
        far_ood_seed=ds.far_ood_seed + 10 * s,
    ))
    cfg_path = root / f"s{s}.json"
    save_config(cfg, cfg_path)
    ckpts = ["--checkpoint", str(out / "classifier.ckpt"), "--checkpoint", str(out / "detector.ckpt")]
    for argv in (
        ["gen"],
        ["train", "--role", "classifier"],
        ["train", "--role", "detector"],
        ["eval", *ckpts],
    ):
        with redirect_stdout(io.StringIO()):
            assert cli.main([*argv, "--config", str(cfg_path)]) == 0, (s, argv[0])

    rates = {}
    for line in (out / "detection_rates.csv").read_text().splitlines()[1:]:
        name, p, rate = line.split(",")
        rates[name, float(p)] = float(rate)
    rescore = {}
    for line in (out / "rescore_auroc.csv").read_text().splitlines()[1:]:
        p, _, auroc = line.split(",")
        rescore[float(p)] = float(auroc)
    far_trusted = sum(
        line.startswith("far_ood/") and line.split(",")[3] == "trusted"
        for line in (out / "scores.csv").read_text().splitlines()[1:]
    )
    return {
        "far_at_5": rates["far_ood", 0.05],
        "rescore_0": rescore[0.0],
        "rescore_10": rescore[0.1],
        "far_trusted": far_trusted,
    }


def test_headline_holds_on_every_dataset_seed(tmp_path):
    runs = {s: run_seed(s, tmp_path) for s in SEEDS}
    failures = []
    for s, r in runs.items():
        if r["rescore_10"] < r["rescore_0"] - 0.02:
            failures.append(f"s={s}: (d) rescore AUROC {r['rescore_10']:.4f} < {r['rescore_0']:.4f} - 0.02")
        if r["far_trusted"]:
            failures.append(f"s={s}: {r['far_trusted']} far_ood rows routed trusted")
    short = [f"s={s} ({r['far_at_5']:.3f})" for s, r in runs.items() if r["far_at_5"] < 0.90]
    if len(SEEDS) - len(short) < FAR_AT_5_MIN_SEEDS:
        failures.append(f"(b) far-OOD@5% < 0.90 on {len(short)} seeds: {', '.join(short)}")
    assert not failures, "\n".join(failures)
