import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_losses import masked_sigmoid

import dpnet.losses
import dpnet.training
from dpnet.data import ExampleSet, gen_far_ood, gen_in_domain
from dpnet.losses import ObjectiveConfig, OodTerm, objective_batch
from dpnet.network import _param_views, forward_batch, init_model
from dpnet.training import NonFiniteValidation, TrainConfig, TrainReport, _Cycler, evaluate_accuracy, train

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
    assert report.loss_total == [] and report.final_val_accuracy is None


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
    # an empty source yields no rows, however many are asked for
    empty = _Cycler(0, np.random.default_rng(15)).take(16)
    assert empty.shape == (0,) and empty.dtype == np.int64


def test_cycler_draws_what_one_permutation_at_a_time_draws():
    """take(k) for k far past the set's size gives the indices, and leaves the generator in the state,
    of drawing one permutation per loop pass; it costs time linear in k, so 120,000 indices from 3 rows
    take well under 2 s."""
    for n in (1, 3, 7):
        cycler, rng, pending = _Cycler(n, np.random.default_rng(40)), np.random.default_rng(40), np.empty(0, np.int64)
        for k in (2, 50, 1, 333, n, 0, 1000):
            while len(pending) < k:
                pending = np.concatenate((pending, rng.permutation(n)))
            expected, pending = pending[:k], pending[k:]
            got = cycler.take(k)
            assert got.dtype == np.int64 and np.array_equal(got, expected)
        assert cycler.rng.bit_generator.state == rng.bit_generator.state
    start = time.perf_counter()
    taken = _Cycler(3, np.random.default_rng(41)).take(120_000)
    assert time.perf_counter() - start < 2.0
    assert len(taken) == 120_000 and np.array_equal(np.bincount(taken), [40_000] * 3)


def test_validation_set_only_adds_a_trace():
    data = gen_in_domain(200, 3, seed=17)
    val = gen_in_domain(100, 3, seed=18)
    ood = gen_far_ood(80, seed=11)
    cfg = TrainConfig(small_objective(), epochs=8, batch_size=32, learning_rate=0.08, seed=19)
    plain, plain_report = train(init_model((2, 16, 3), seed=20), data, [ood], cfg)
    model, report = train(init_model((2, 16, 3), seed=20), data, [ood], cfg, val_set=val)
    assert same_bits(model.params, plain.params)
    for trace in ("loss_total", "loss_in", "loss_ood"):
        assert getattr(report, trace) == getattr(plain_report, trace), trace
    assert plain_report.val_accuracy == [] and plain_report.final_val_accuracy is None
    assert len(report.val_accuracy) == 8
    assert report.final_val_accuracy == report.val_accuracy[-1] == evaluate_accuracy(model, val)


def test_zero_epochs_with_validation_reports_initial_accuracy():
    model = init_model((2, 8, 3), seed=21)
    data = gen_in_domain(30, 3, seed=22)
    val = gen_in_domain(30, 3, seed=23)
    cfg = TrainConfig(PLAIN, epochs=0, batch_size=8, learning_rate=0.1)
    trained, report = train(model, data, [], cfg, val_set=val)
    assert report.final_val_accuracy == evaluate_accuracy(trained, val)
    assert report.val_accuracy == []


@pytest.mark.parametrize("epochs", [0, 1, 3])
def test_validation_runs_once_per_epoch(monkeypatch, epochs):
    """One validation pass per epoch, the last one giving final_val_accuracy; one pass at zero epochs."""
    calls = []

    def counted(model, examples):
        calls.append(model.params.copy())
        return evaluate_accuracy(model, examples)

    monkeypatch.setattr(dpnet.training, "evaluate_accuracy", counted)
    data, val = gen_in_domain(40, 3, seed=39), gen_in_domain(30, 3, seed=40)
    cfg = TrainConfig(PLAIN, epochs=epochs, batch_size=16, learning_rate=0.1, seed=41)
    trained, report = train(init_model((2, 8, 3), seed=42), data, [], cfg, val_set=val)
    assert len(calls) == max(epochs, 1)
    assert same_bits(calls[-1], trained.params)
    assert report.final_val_accuracy == evaluate_accuracy(trained, val)


@pytest.mark.parametrize("epochs, when", [(0, "before step 0"), (2, "after step 2")])
def test_validation_overflow_names_the_step(epochs, when):
    data = gen_in_domain(24, 3, seed=43)
    val = ExampleSet(np.full((2, 2), -1.7e308), np.zeros(2, dtype=int))
    cfg = TrainConfig(PLAIN, epochs=epochs, batch_size=8, learning_rate=0.1, seed=44)
    with pytest.raises(NonFiniteValidation, match=f"^non-finite logits on the validation rows {when}$"):
        train(init_model((2, 8, 3), seed=45), data, [], cfg, val_set=val)


def test_divergence_reports_step_number():
    data = gen_in_domain(30, 3, seed=24)
    cfg = TrainConfig(PLAIN, epochs=50, batch_size=8, learning_rate=1e12, seed=25)
    # train silences its own overflow warnings (the suite makes those errors)
    with pytest.raises(RuntimeError, match=r"non-finite training loss at step \d+"):
        train(init_model((2, 8, 3), seed=26), data, [], cfg)


@pytest.mark.parametrize("with_val", [False, True])
def test_non_finite_last_update_fails(with_val):
    # one step, so no later loss can catch the overflowing update
    data = gen_in_domain(30, 3, seed=24)
    val = gen_in_domain(30, 3, seed=38) if with_val else None
    cfg = TrainConfig(PLAIN, epochs=1, batch_size=len(data), learning_rate=1e308, seed=25)
    with pytest.raises(RuntimeError, match=r"^non-finite parameters after step 0$"):
        train(init_model((2, 8, 3), seed=26), data, [], cfg, val_set=val)


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
    # a finite row whose logits overflow is refused without a numpy warning (the suite makes those errors)
    with pytest.raises(RuntimeError, match="^non-finite logits"):
        evaluate_accuracy(model, ExampleSet(np.full((1, 2), -1.7e308), np.zeros(1, dtype=int)))


def test_report_to_dict_roundtrips_through_json():
    import dataclasses
    import json

    report = TrainReport(
        loss_total=[1.0, 0.5],
        loss_in=[0.9, 0.4],
        loss_ood=[[0.1, 0.1]],
        val_accuracy=[0.5, 0.75],
        final_val_accuracy=0.75,
    )
    blob = json.dumps(dataclasses.asdict(report))
    assert json.loads(blob) == dataclasses.asdict(report)


def reference_objective(model, X, y, batches, cfg):
    """objective_batch in its earlier form: every constant built per call,
    out-of-place forward and backward, the masked sigmoid and .mean() parts.
    Returns (total, in-domain part, OOD parts...) and the flat gradient."""
    act, dact = {
        "relu": (lambda s: np.maximum(s, 0.0), lambda h: h > 0.0),
        "tanh": (np.tanh, lambda h: 1.0 - h**2),
    }[model.activation]
    n, k = len(X), model.num_classes
    S = np.concatenate([X, *batches])
    sizes = [n, *(len(B) for B in batches)]
    target = np.full((len(S), k), 1.0 / k)
    target[:n] = 0.0
    target[np.arange(n), y] = 1.0
    lam = np.repeat([cfg.lambda_in, *(t.lambda_out for t in cfg.ood_terms)], sizes)
    weight = np.repeat(
        [1.0 / n, *(t.gamma / max(m, 1) for t, m in zip(cfg.ood_terms, sizes[1:]))], sizes
    )

    acts = [S]
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        acts.append(act(acts[-1] @ w.T + b))
    Z = acts[-1] @ model.weights[-1].T + model.biases[-1]
    c = lam / k
    shifted = Z - Z.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    sig = masked_sigmoid(Z)
    losses = -(target * logp).sum(axis=1) - c * sig.sum(axis=1)
    delta = (np.exp(logp) - target - c[:, None] * sig * (1.0 - sig)) * weight[:, None]

    flat = np.empty_like(model.params)
    grads_w, grads_b = _param_views(model.layer_sizes, flat)
    for l in range(len(model.weights) - 1, -1, -1):
        grads_w[l][...] = delta.T @ acts[l]
        grads_b[l][...] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ model.weights[l]) * dact(acts[l])

    ends = np.cumsum([0, *sizes]).tolist()
    parts = [float(losses[a:b].mean()) if b > a else 0.0 for a, b in zip(ends, ends[1:])]
    total = parts[0] + sum(t.gamma * part for t, part in zip(cfg.ood_terms, parts[1:]))
    return (total, *parts), flat


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_objective_batch_is_bit_identical_to_earlier_formulas(activation):
    rng = np.random.default_rng(31)
    model = init_model((2, 16, 8, 3), seed=32, activation=activation)
    two_terms = ObjectiveConfig(0.5, (OodTerm(0.5, -1.0), OodTerm(0.3, -0.2)))
    with_empty = ObjectiveConfig(0.1, (OodTerm(0.5, -1.0), OodTerm(0.0, -0.2)))
    # one after another: other labels, block sizes and terms each time, so no
    # constant built for one call may leak into the next
    calls = [
        (64, (64, 64), two_terms),
        (7, (64, 64), two_terms),
        (64, (5, 0), with_empty),
        (64, (64, 64), two_terms),
        (1, (3, 0), with_empty),
    ]
    for n, sizes, cfg in calls:
        X = rng.normal(0.0, 2.0, (n, 2))
        y = rng.integers(0, 3, n)
        batches = [rng.normal(0.0, 4.0, (m, 2)) for m in sizes]
        result = objective_batch(model, X, y, batches, cfg)
        parts, flat = reference_objective(model, X, y, batches, cfg)
        assert same_bits([result.total, result.in_loss, *result.ood_losses], parts)
        assert same_bits(result.gradients.flat, flat)


def test_objective_batch_int_coefficients_match_floats():
    rng = np.random.default_rng(36)
    model = init_model((2, 8, 3), seed=37)
    X, y = rng.normal(0.0, 2.0, (16, 2)), rng.integers(0, 3, 16)
    batches = [rng.normal(0.0, 4.0, (16, 2)), np.empty((0, 2))]
    ints = ObjectiveConfig(1, (OodTerm(1, -1), OodTerm(0, 0)))
    floats = ObjectiveConfig(1.0, (OodTerm(1.0, -1.0), OodTerm(0.0, 0.0)))
    a = objective_batch(model, X, y, batches, ints)
    b = objective_batch(model, X, y, batches, floats)
    assert same_bits([a.total, a.in_loss, *a.ood_losses], [b.total, b.in_loss, *b.ood_losses])
    assert same_bits(a.gradients.flat, b.gradients.flat)


def test_cached_objective_constants_never_leak_between_calls():
    rng = np.random.default_rng(38)
    model = init_model((2, 8, 3), seed=39)
    X, y = rng.normal(0.0, 2.0, (16, 2)), rng.integers(0, 3, 16)
    batches = [rng.normal(0.0, 4.0, (16, 2)), rng.normal(0.0, 4.0, (8, 2))]
    # each pair compares equal. The first differs in the sign of a zero lambda, so it
    # gets its own constants; no output bit shows that sign (numpy sums start from
    # +0.0), so the entry count checks it. The second differs in int vs float, whose
    # float64 bits are the same, so the two share one entry.
    pairs = [
        ((ObjectiveConfig(0.0, (OodTerm(0.5, -1.0), OodTerm(0.3, 0.0))),
          ObjectiveConfig(-0.0, (OodTerm(0.5, -1.0), OodTerm(0.3, -0.0)))), 2),
        ((ObjectiveConfig(0, (OodTerm(1, -1), OodTerm(0, 0))),
          ObjectiveConfig(0.0, (OodTerm(1.0, -1.0), OodTerm(0.0, 0.0)))), 1),
    ]
    for pair, layouts in pairs:
        assert pair[0] == pair[1]
        for order in (pair, pair[::-1]):
            dpnet.losses._layout.cache_clear()
            for cfg in (*order, *order):
                args = [X.copy(), y.copy(), [B.copy() for B in batches]]
                result = objective_batch(model, *args, cfg)
                parts, flat = reference_objective(model, X, y, batches, cfg)
                assert same_bits([result.total, result.in_loss, *result.ood_losses], parts)
                assert same_bits(result.gradients.flat, flat)
                # neither the caller's arrays nor the result are shared with a later call
                args[0][:] = 1e6
                args[1][:] = 0
                for B in args[2]:
                    B[:] = -1e6
                result.gradients.flat[:] = np.nan  # the weights and biases are views of it
            assert dpnet.losses._layout.cache_info().currsize == layouts


def reference_train(model, train_set, ood_sets, cfg):
    """train() without validation in its earlier form: per-step fancy
    indexing, out-of-place momentum and reference_objective. Returns the
    final parameters and each step's total loss."""
    work = model.copy()
    velocity = np.zeros_like(work.params)
    seeds = np.random.SeedSequence(cfg.seed).spawn(1 + len(ood_sets))
    in_rng = np.random.default_rng(seeds[0])
    cyclers = [
        _Cycler(len(s), np.random.default_rng(child)) if len(s) else None
        for s, child in zip(ood_sets, seeds[1:])
    ]
    n, totals = len(train_set), []
    for _ in range(cfg.epochs):
        order = in_rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            batches = [
                s.features[cy.take(cfg.batch_size)] if cy is not None else s.features
                for s, cy in zip(ood_sets, cyclers)
            ]
            parts, flat = reference_objective(
                work, train_set.features[idx], train_set.labels[idx], batches, cfg.objective
            )
            velocity = cfg.momentum * velocity - cfg.learning_rate * flat
            work.params += velocity
            totals.append(parts[0])
    return work.params, totals


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_train_is_bit_identical_to_earlier_loop_with_one_call_per_step(activation, monkeypatch):
    data = gen_in_domain(37, 3, seed=33)  # 16-row batches: the last one has 5 rows
    far = gen_far_ood(20, seed=34)
    near = ExampleSet(gen_in_domain(9, 3, seed=35).features * 3.0)
    none = ExampleSet(np.empty((0, 2)))  # a zero-row batch at every step
    objective = ObjectiveConfig(0.5, (OodTerm(0.5, -1.0), OodTerm(0.3, -0.2), OodTerm(0.0, -1.0)))
    cfg = TrainConfig(objective, epochs=3, batch_size=16, learning_rate=0.05, seed=36)
    model = init_model((2, 8, 8, 3), seed=37, activation=activation)

    # the bench tracer wraps training.objective_batch by name and reads
    # its positional arguments
    totals = []

    def counted(*args, **kwargs):
        assert len(args) == 5 and not kwargs
        result = objective_batch(*args)
        totals.append(result.total)
        return result

    monkeypatch.setattr(dpnet.training, "objective_batch", counted)
    trained, _ = train(model, data, [far, near, none], cfg)
    assert len(totals) == cfg.epochs * -(-len(data) // cfg.batch_size) == 9

    params, want = reference_train(model, data, [far, near, none], cfg)
    assert same_bits(trained.params, params)
    assert same_bits(totals, want)


@st.composite
def gather_cases(draw):
    """n with a batch size that does not divide it, and OOD sets of 0 rows, fewer rows
    than a batch, or a divisor of an epoch's draw, so a cycler wraps exactly at its end."""
    batch = draw(st.integers(2, 9))
    n = batch * draw(st.integers(0, 3)) + draw(st.integers(1, batch - 1))
    epoch_rows = batch * -(-n // batch)
    wraps = [m for m in range(1, epoch_rows + 1) if epoch_rows % m == 0]
    sizes = draw(
        st.lists(
            st.one_of(st.just(0), st.integers(1, batch - 1), st.sampled_from(wraps)),
            min_size=1, max_size=3,
        )
    )
    terms = tuple(
        OodTerm(draw(st.sampled_from([0.3, 1.0])) if m else 0.0, draw(st.sampled_from([-1.0, -0.2])))
        for m in sizes
    )
    return n, batch, sizes, terms, draw(st.integers(1, 3)), draw(st.sampled_from(["relu", "tanh"]))


@settings(max_examples=60, deadline=None, database=None)
@given(gather_cases(), st.integers(0, 2**16))
def test_epoch_level_ood_gather_matches_per_step_draws(case, seed):
    n, batch, sizes, terms, epochs, activation = case
    rng = np.random.default_rng(seed)
    data = ExampleSet(rng.normal(0.0, 3.0, (n, 2)), rng.integers(0, 3, n))
    ood = [ExampleSet(rng.normal(0.0, 8.0, (m, 2))) for m in sizes]
    cfg = TrainConfig(
        ObjectiveConfig(0.5, terms), epochs=epochs, batch_size=batch, learning_rate=0.05, seed=seed
    )
    model = init_model((2, 8, 3), seed=seed, activation=activation)
    totals = []

    def counted(*args):
        result = objective_batch(*args)
        totals.append(result.total)
        return result

    with mock.patch.object(dpnet.training, "objective_batch", counted):
        trained, _ = train(model, data, ood, cfg)
    params, want = reference_train(model, data, ood, cfg)
    assert len(totals) == epochs * -(-n // batch)
    assert same_bits(trained.params, params)
    assert same_bits(totals, want)
