"""The default experiment on 12 dataset seeds, fixed in advance.

Seed s shifts the default config's dataset seed by 10*s and runs
gen, train for both roles and eval through the CLI. On every seed the
rescore AUROC must not fall by more than 0.02 when 10% of the shifted
rows are discarded (criterion 4(d)), and no far-ring row may be routed
`trusted`. The far-OOD detection rate at a 5% drop (criterion 4(b))
must reach 0.90 on at least 10 of the 12 seeds. No seed is ever dropped
for failing.

One line per seed is printed, pass or fail: far@5 and shifted@5, the
share of in_test rows with s_d > tau_d beside its exchangeable expectation
and central 95% band (in_domain_band), the share of each dataset's rows
routed to each outcome (from routing.csv), the number of scored rows whose
s_d equals tau_d, and the sign of the rescore AUROC change at a 10% drop.
Beside them come exact references from the known generator (oracle_line):
the density oracle's far@5 and shifted@5, and the accuracy of the Bayes
classifier on shifted_test. It reports and gates nothing.
"""

import dataclasses
import io
import itertools
import json
import math
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np

from dpnet import cli, data, pipeline
from dpnet.config import default_config, save_config

SEEDS = range(12)
FAR_AT_5_MIN_SEEDS = 10
OUTCOMES = [o.value for o in pipeline.Outcome]


def in_domain_band(n: int, p: float, m: int) -> tuple[float, float, float]:
    """The expected share of m test rows above tau_d, calibrated at drop fraction p on n validation
    rows, and the central 95% band of that share, for rows exchangeable with the validation rows.

    tau_d is the (n - k)-th smallest of n scores, k = floor(p*n), so a new row exceeds it with
    probability (k + 1)/(n + 1); over validation draws that probability is Beta(k + 1, n - k)
    (split conformal; Angelopoulos & Bates, arXiv:2107.07511). The count of m rows flagged is
    then Beta-binomial(m, k + 1, n - k), whose quantiles bound the band.
    """
    k = math.floor(Fraction(repr(p)) * n)  # as pipeline.calibrate_threshold takes it
    a, b = k + 1, n - k

    def log_beta(x, y):
        return math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)

    log_choose = [math.lgamma(m + 1) - math.lgamma(x + 1) - math.lgamma(m - x + 1) for x in range(m + 1)]
    cdf = list(itertools.accumulate(
        math.exp(log_choose[x] + log_beta(x + a, m - x + b) - log_beta(a, b)) for x in range(m + 1)
    ))
    low, high = (next(x for x, c in enumerate(cdf) if c >= q) for q in (0.025, 0.975))
    return a / (n + 1), low / m, high / m


def oracle_line(out, classes: int, drop_fraction: float) -> str:
    """The exact references from the generator, on the seed's CSVs in out.

    In-domain data is the equal mixture of unit-variance Gaussians at data._cluster_centers(classes).
    The density oracle scores -log p_in(x) and is calibrated at drop_fraction on in_val.csv, as tau_d
    is; the Bayes classifier picks the nearest centre, since the priors are equal and the variance one.
    """
    centers = data._cluster_centers(classes)
    sets = {name: data.load_csv(out / f"{name}.csv") for name in ("in_val", "far_ood", "shifted_test")}
    sq = {name: ((x.features[:, None, :] - centers) ** 2).sum(axis=2) for name, x in sets.items()}
    score = {
        name: math.log(classes) + math.log(2 * math.pi) - np.logaddexp.reduce(-0.5 * d, axis=1)
        for name, d in sq.items()
    }
    tau = pipeline.calibrate_threshold(score["in_val"], drop_fraction)
    far, shifted = (pipeline.ood_detection_rate(score[name], tau) for name in ("far_ood", "shifted_test"))
    bayes = np.mean(sq["shifted_test"].argmin(axis=1) == sets["shifted_test"].labels)
    return f"oracle far@5 {far:.3f}, shifted@5 {shifted:.3f}; Bayes shifted accuracy {bayes:.3f}"


def run_seed(s: int, root) -> dict:
    out = root / f"s{s}"
    cfg = default_config(str(out))
    cfg = dataclasses.replace(cfg, dataset=dataclasses.replace(cfg.dataset, seed=cfg.dataset.seed + 10 * s))
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
    routed = {}  # outcome counts per dataset, in OUTCOMES order
    for line in (out / "routing.csv").read_text().splitlines()[1:]:
        name, outcome, count = line.split(",")
        routed.setdefault(name, {})[outcome] = int(count)
    stored = json.loads((out / "thresholds.json").read_text())
    tau_d = stored["tau_d"]
    rows = [line.split(",") for line in (out / "scores.csv").read_text().splitlines()[1:]]
    # scored rows whose s_d is tau_d
    ties = sum(float(r[1]) == tau_d for r in rows)
    in_test = [float(r[1]) for r in rows if r[0].startswith("in_test/")]
    return {
        "far_at_5": rates["far_ood", 0.05],
        "shifted_at_5": rates["shifted_test", 0.05],
        "in_flagged": sum(x > tau_d for x in in_test) / len(in_test),
        "in_band": in_domain_band(stored["in_val_rows"], stored["drop_fraction_detector"], len(in_test)),
        "rescore_0": rescore[0.0],
        "rescore_10": rescore[0.1],
        "far_trusted": routed["far_ood"]["trusted"],
        "routed": routed,
        "ties": ties,
        "oracle": oracle_line(out, cfg.dataset.classes, stored["drop_fraction_detector"]),
    }


def report_line(s: int, r: dict) -> str:
    shares = ", ".join(
        f"{name} " + "/".join(f"{n / sum(counts.values()):.2f}" for n in counts.values())
        for name, counts in r["routed"].items()
    )
    change = r["rescore_10"] - r["rescore_0"]
    sign = "+" if change > 0 else "-" if change < 0 else "0"
    expected, low, high = r["in_band"]
    return (
        f"[seed {s}] far@5 {r['far_at_5']:.3f}, shifted@5 {r['shifted_at_5']:.3f}; "
        f"in_test above tau_d {r['in_flagged']:.3f} (exchangeable {expected:.3f}, 95% {low:.3f}-{high:.3f}); "
        f"routed {'/'.join(OUTCOMES)}: {shares}; {r['ties']} rows at tau_d; rescore@10% {sign}; {r['oracle']}"
    )


def test_headline_holds_on_every_dataset_seed(tmp_path, capsys):
    runs = {}
    for s in SEEDS:
        runs[s] = run_seed(s, tmp_path)
        with capsys.disabled():
            print(report_line(s, runs[s]), flush=True)
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
