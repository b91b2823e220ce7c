import numpy as np
import pytest

from dpnet.data import ExampleSet, gen_far_ood, gen_in_domain
from dpnet.losses import ObjectiveConfig, OodTerm, objective_batch
from dpnet.network import forward_batch, init_model
from dpnet.training import TrainConfig, TrainReport, evaluate_accuracy, train

PLAIN = ObjectiveConfig(lambda_in=0.0, ood_terms=())


def small_objective():
    return ObjectiveConfig(lambda_in=0.1, ood_terms=(OodTerm(0.5, -1.0),))


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(PLAIN, epochs=-1, batch_size=8, learning_rate=0.1)
    with pytest.raises(ValueError):
        TrainConfig(PLAIN, epochs=1, batch_size=0, learning_rate=0.1)
    with pytest.raises(ValueError):
        TrainConfig(PLAIN, epochs=1, batch_size=8, learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(PLAIN, epochs=1, batch_size=8, learning_rate=float("nan"))
    with pytest.raises(ValueError):
        TrainConfig(PLAIN, epochs=1, batch_size=8, learning_rate=0.1, momentum=1.0)
    with pytest.raises(ValueError):
        TrainConfig(PLAIN, epochs=1, batch_size=8, learning_rate=0.1, momentum=-0.1)


def test_zero_epochs_returns_input_parameters():
    model = init_model((2, 8, 3), seed=1)
    data = gen_in_domain(30, 3, seed=2)
    cfg = TrainConfig(PLAIN, epochs=0, batch_size=8, learning_rate=0.1)
    trained, report = train(model, data, [], cfg)
    for got, want in zip(trained.weights, model.weights):
        assert np.array_equal(got, want)
    for got, want in zip(trained.biases, model.biases):
        assert np.array_equal(got, want)
    assert report.loss_total == [] and report.selected_epoch == -1


def test_input_model_never_mutated():
    model = init_model((2, 8, 3), seed=1)
    before = [w.copy() for w in model.weights] + [b.copy() for b in model.biases]
    data = gen_in_domain(30, 3, seed=2)
    cfg = TrainConfig(PLAIN, epochs=3, batch_size=8, learning_rate=0.1, seed=5)
    trained, _ = train(model, data, [], cfg)
    after = list(model.weights) + list(model.biases)
    for got, want in zip(after, before):
        assert np.array_equal(got, want)
    assert not np.array_equal(trained.weights[0], model.weights[0])


def test_training_is_seed_deterministic():
    data = gen_in_domain(60, 3, seed=3)
    ood = gen_far_ood(40, seed=4)
    cfg = TrainConfig(small_objective(), epochs=4, batch_size=16, learning_rate=0.05, seed=6)
    runs = [
        train(init_model((2, 8, 3), seed=1), data, [ood], cfg) for _ in range(2)
    ]
    for a, b in zip(runs[0][0].weights, runs[1][0].weights):
        assert np.array_equal(a, b)
    assert runs[0][1].loss_total == runs[1][1].loss_total

    other_cfg = TrainConfig(
        small_objective(), epochs=4, batch_size=16, learning_rate=0.05, seed=7
    )
    moved, _ = train(init_model((2, 8, 3), seed=1), data, [ood], other_cfg)
    assert not np.array_equal(runs[0][0].weights[0], moved.weights[0])


def test_momentum_updates_match_manual_steps():
    # One example per source makes batch selection trivial, so the whole
    # run reduces to the bare update rule v = m*v - lr*g; p += v.
    model = init_model((2, 8, 3), seed=9)
    data = ExampleSet(np.array([[0.5, -0.25]]), np.array([0]))
    ood = ExampleSet(np.array([[5.0, 5.0]]))
    cfg = TrainConfig(
        small_objective(), epochs=3, batch_size=1, learning_rate=0.05, momentum=0.9, seed=0
    )
    trained, report = train(model, data, [ood], cfg)

    work = model.copy()
    vel_w = [np.zeros_like(w) for w in work.weights]
    vel_b = [np.zeros_like(b) for b in work.biases]
    totals = []
    for _ in range(3):
        result = objective_batch(
            work, data.features, data.labels, [ood.features], cfg.objective
        )
        totals.append(result.total)
        for l in range(len(work.weights)):
            vel_w[l] = 0.9 * vel_w[l] - 0.05 * result.gradients.weights[l]
            vel_b[l] = 0.9 * vel_b[l] - 0.05 * result.gradients.biases[l]
            work.weights[l] += vel_w[l]
            work.biases[l] += vel_b[l]

    for got, want in zip(trained.weights, work.weights):
        assert np.array_equal(got, want)
    for got, want in zip(trained.biases, work.biases):
        assert np.array_equal(got, want)
    assert report.loss_total == totals


def test_loss_trace_shapes_and_descent():
    data = gen_in_domain(150, 3, seed=10)
    ood = gen_far_ood(80, seed=11)
    cfg = TrainConfig(small_objective(), epochs=12, batch_size=32, learning_rate=0.05, seed=12)
    model, report = train(init_model((2, 16, 16, 3), seed=13), data, [ood], cfg)
    assert len(report.loss_total) == 12
    assert len(report.loss_in) == 12
    assert len(report.loss_ood) == 1 and len(report.loss_ood[0]) == 12
    assert all(np.isfinite(report.loss_total))
    assert report.loss_total[-1] < report.loss_total[0]
    assert evaluate_accuracy(model, data) > 0.9


def test_small_ood_set_cycles_past_batch_size():
    data = gen_in_domain(40, 3, seed=14)
    ood = ExampleSet(np.array([[12.0, 0.0], [0.0, 12.0], [-12.0, 0.0]]))
    cfg = TrainConfig(small_objective(), epochs=2, batch_size=16, learning_rate=0.05, seed=15)
    _, report = train(init_model((2, 8, 3), seed=16), data, [ood], cfg)
    assert all(np.isfinite(report.loss_ood[0]))


def test_validation_selects_best_epoch():
    data = gen_in_domain(200, 3, seed=17)
    val = gen_in_domain(100, 3, seed=18)
    cfg = TrainConfig(PLAIN, epochs=8, batch_size=32, learning_rate=0.08, seed=19)
    model, report = train(init_model((2, 16, 3), seed=20), data, [], cfg, val_set=val)
    assert len(report.val_accuracy) == 8
    best = max(report.val_accuracy)
    assert report.selected_epoch == report.val_accuracy.index(best)
    assert report.final_val_accuracy == best
    assert evaluate_accuracy(model, val) == best


def test_zero_epochs_with_validation_reports_initial_accuracy():
    model = init_model((2, 8, 3), seed=21)
    data = gen_in_domain(30, 3, seed=22)
    val = gen_in_domain(30, 3, seed=23)
    cfg = TrainConfig(PLAIN, epochs=0, batch_size=8, learning_rate=0.1)
    trained, report = train(model, data, [], cfg, val_set=val)
    assert report.final_val_accuracy == evaluate_accuracy(trained, val)
    assert report.selected_epoch == -1


def test_divergence_reports_step_number():
    data = gen_in_domain(30, 3, seed=24)
    cfg = TrainConfig(PLAIN, epochs=50, batch_size=8, learning_rate=1e12, seed=25)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match=r"non-finite training loss at step \d+"):
            train(init_model((2, 8, 3), seed=26), data, [], cfg)


def test_train_input_validation():
    model = init_model((2, 8, 3), seed=27)
    labeled = gen_in_domain(30, 3, seed=28)
    cfg = TrainConfig(small_objective(), epochs=1, batch_size=8, learning_rate=0.1)

    with pytest.raises(ValueError, match="labeled"):
        train(model, ExampleSet(labeled.features), [labeled], cfg)
    with pytest.raises(ValueError, match="input dim"):
        train(model, ExampleSet(np.zeros((4, 3)), np.zeros(4, dtype=int)), [labeled], cfg)
    with pytest.raises(ValueError, match="class count"):
        bad = ExampleSet(labeled.features, np.full(30, 3, dtype=int))
        train(model, bad, [labeled], cfg)
    with pytest.raises(ValueError, match="OOD sets"):
        train(model, labeled, [], cfg)
    with pytest.raises(ValueError, match="empty OOD"):
        train(model, labeled, [ExampleSet(np.zeros((0, 2)))], cfg)
    with pytest.raises(ValueError, match="input dim"):
        train(model, labeled, [ExampleSet(np.zeros((4, 3)))], cfg)
    # the validation set is checked on entry, not after the first epoch
    for val, message in [
        (ExampleSet(np.zeros((4, 3)), np.zeros(4, dtype=int)), "validation features"),
        (ExampleSet(labeled.features), "validation set must be labeled"),
        (ExampleSet(labeled.features, np.full(30, 3, dtype=int)), "validation labels"),
        (ExampleSet(np.zeros((0, 2)), np.zeros(0, dtype=int)), "validation set must not be empty"),
    ]:
        with pytest.raises(ValueError, match=message):
            train(model, labeled, [labeled], cfg, val_set=val)


def test_evaluate_accuracy_validation_and_value():
    model = init_model((2, 8, 3), seed=29)
    data = gen_in_domain(30, 3, seed=30)
    preds = forward_batch(model, data.features).argmax(axis=1)
    assert evaluate_accuracy(model, data) == (preds == data.labels).mean()
    with pytest.raises(ValueError):
        evaluate_accuracy(model, ExampleSet(data.features))
    with pytest.raises(ValueError):
        evaluate_accuracy(model, ExampleSet(np.zeros((0, 2)), np.zeros(0, dtype=int)))


def test_report_to_dict_roundtrips_through_json():
    import dataclasses
    import json

    report = TrainReport(
        loss_total=[1.0, 0.5],
        loss_in=[0.9, 0.4],
        loss_ood=[[0.1, 0.1]],
        val_accuracy=[0.5, 0.75],
        selected_epoch=1,
        final_val_accuracy=0.75,
    )
    blob = json.dumps(dataclasses.asdict(report))
    assert json.loads(blob)["selected_epoch"] == 1
