import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dpnet.losses import ObjectiveConfig, OodTerm, _sigmoid, loss_in, loss_out, objective_batch
from dpnet.network import backward, forward_batch, init_model


def fd_logit_grad(fn, z, h=1e-5):
    g = np.zeros_like(z)
    for i in range(z.size):
        up, down = z.copy(), z.copy()
        up[i] += h
        down[i] -= h
        g[i] = (fn(up) - fn(down)) / (2 * h)
    return g


def rel_err(a, b, floor):
    scale = np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / scale))


def test_loss_in_uniform_logits_value():
    value, _ = loss_in([0.0, 0.0], 0, 0.1)
    assert value == pytest.approx(math.log(2.0) - 0.05, abs=1e-12)


def test_loss_in_zero_lambda_is_cross_entropy():
    rng = np.random.default_rng(14)
    for _ in range(50):
        k = int(rng.integers(2, 6))
        z = rng.normal(0, 3, k)
        y = int(rng.integers(0, k))
        value, _ = loss_in(z, y, 0.0)
        p = np.exp(z - z.max())
        p /= p.sum()
        assert value == pytest.approx(-math.log(p[y]), rel=1e-12)


def test_loss_in_rejects_bad_label():
    with pytest.raises(ValueError):
        loss_in([0.0, 0.0], 2, 0.1)
    with pytest.raises(ValueError):
        loss_in([0.0, 0.0], -1, 0.1)


def test_loss_out_uniform_logits_value():
    value, _ = loss_out([0.0, 0.0], -1.0)
    assert value == pytest.approx(math.log(2.0) + 0.5, abs=1e-12)


def test_loss_out_minimized_at_uniform_posterior():
    rng = np.random.default_rng(15)
    for _ in range(100):
        k = int(rng.integers(2, 6))
        z = rng.normal(0, 3, k)
        value, _ = loss_out(z, 0.0)
        assert value >= math.log(k) - 1e-12


def test_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(16)
    worst = 0.0
    for _ in range(25):
        k = int(rng.integers(2, 6))
        z = rng.normal(0, 3, k)
        y = int(rng.integers(0, k))
        lam = float(rng.normal(0, 1))
        _, g = loss_in(z, y, lam)
        worst = max(worst, rel_err(g, fd_logit_grad(lambda v: loss_in(v, y, lam)[0], z), 1e-4))
        _, g = loss_out(z, lam)
        worst = max(worst, rel_err(g, fd_logit_grad(lambda v: loss_out(v, lam)[0], z), 1e-4))
    assert worst <= 1e-6


def test_objective_all_zero_gamma_equals_in_domain_mean():
    rng = np.random.default_rng(17)
    model = init_model((2, 8, 3), 4)
    X = rng.normal(0, 2, (6, 2))
    y = rng.integers(0, 3, 6)
    ood = rng.normal(0, 5, (4, 2))
    cfg = ObjectiveConfig(0.1, (OodTerm(0.0, -1.0),))
    result = objective_batch(model, X, y, [ood], cfg)
    from dpnet.network import forward

    per_example = [loss_in(forward(model, X[i]), int(y[i]), 0.1)[0] for i in range(6)]
    assert result.total == pytest.approx(float(np.mean(per_example)), rel=1e-12)
    assert result.total == pytest.approx(result.in_loss, rel=1e-12)


def test_objective_single_example_sums_both_losses():
    model = init_model((2, 8, 3), 5)
    x = np.array([[0.3, -0.8]])
    cfg = ObjectiveConfig(0.5, (OodTerm(1.0, -1.0),))
    result = objective_batch(model, x, np.array([1]), [x], cfg)
    from dpnet.network import forward

    z = forward(model, x[0])
    expect = loss_in(z, 1, 0.5)[0] + loss_out(z, -1.0)[0]
    assert result.total == pytest.approx(expect, rel=1e-12)
    assert result.ood_losses[0] == pytest.approx(loss_out(z, -1.0)[0], rel=1e-12)


def test_objective_input_validation():
    model = init_model((2, 8, 3), 6)
    X = np.zeros((2, 2))
    y = np.zeros(2, dtype=int)
    cfg = ObjectiveConfig(0.1, (OodTerm(0.5, -1.0),))
    with pytest.raises(ValueError):
        objective_batch(model, np.zeros((0, 2)), np.zeros(0, dtype=int), [X], cfg)
    with pytest.raises(ValueError, match=r"in_features must have shape \(n, 2\)"):
        objective_batch(model, np.zeros((2, 3)), y, [X], cfg)
    with pytest.raises(ValueError, match="in_labels must match in_features rows"):
        objective_batch(model, X, np.zeros(3, dtype=int), [X], cfg)
    with pytest.raises(ValueError, match=r"OOD batch must have shape \(m, 2\)"):
        objective_batch(model, X, y, [np.zeros(2)], cfg)
    with pytest.raises(ValueError):
        objective_batch(model, X, y, [], cfg)  # batch count mismatch
    with pytest.raises(ValueError):
        objective_batch(model, X, y, [np.zeros((0, 2))], cfg)  # empty OOD, gamma > 0
    with pytest.raises(ValueError):
        objective_batch(model, X, np.array([0, 3]), [X], cfg)  # label out of range
    with pytest.raises(ValueError):
        objective_batch(model, X, np.array([1.7, 0.2]), [X], cfg)  # non-integer labels
    for bad in (np.nan, np.inf, -np.inf):
        poisoned = np.array([[0.0, 0.0], [0.5, bad]])
        with pytest.raises(ValueError):
            objective_batch(model, poisoned, y, [X], cfg)  # non-finite in-domain row
        with pytest.raises(ValueError):
            objective_batch(model, X, y, [poisoned], cfg)  # non-finite OOD row
    # empty OOD batch is fine when its gamma is 0
    ok = objective_batch(model, X, y, [np.zeros((0, 2))], ObjectiveConfig(0.1, (OodTerm(0.0, -1.0),)))
    assert ok.ood_losses == (0.0,)


def test_objective_gradients_match_finite_differences():
    h = 1e-5
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(700 + trial)
        act = "relu" if trial % 2 == 0 else "tanh"
        model = init_model((2, 8, 3), int(rng.integers(1e6)), act)
        X = rng.normal(0, 2, (5, 2))
        y = rng.integers(0, 3, 5)
        ood_a = rng.normal(0, 4, (4, 2))
        ood_b = rng.normal(2, 1, (3, 2))
        cfg = ObjectiveConfig(0.5, (OodTerm(0.7, -1.0), OodTerm(0.3, -0.2)))
        result = objective_batch(model, X, y, [ood_a, ood_b], cfg)
        analytic = np.concatenate(
            [g.ravel() for g in result.gradients.weights + result.gradients.biases]
        )
        params = [*model.weights, *model.biases]
        theta = np.concatenate([p.ravel() for p in params])
        fd = np.zeros_like(theta)

        def write(vec):
            pos = 0
            for p in params:
                p[...] = vec[pos : pos + p.size].reshape(p.shape)
                pos += p.size

        for i in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[i] += h
            down[i] -= h
            write(up)
            f_up = objective_batch(model, X, y, [ood_a, ood_b], cfg).total
            write(down)
            f_down = objective_batch(model, X, y, [ood_a, ood_b], cfg).total
            fd[i] = (f_up - f_down) / (2 * h)
        write(theta)
        worst = max(worst, rel_err(analytic, fd, 1e-6))
    assert worst <= 1e-4


@st.composite
def objective_cases(draw):
    hidden = draw(st.lists(st.integers(1, 10), min_size=1, max_size=3))
    classes = draw(st.integers(2, 5))
    activation = draw(st.sampled_from(["relu", "tanh"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = init_model((2, *hidden, classes), int(rng.integers(1 << 30)), activation)
    n = draw(st.integers(1, 20))
    X = rng.normal(0.0, 2.0, (n, 2))
    y = rng.integers(0, classes, n)
    terms, batches = [], []
    for _ in range(draw(st.integers(0, 3))):
        m = draw(st.integers(0, 70))
        gamma = 0.0 if m == 0 else draw(st.sampled_from([0.0, 0.3, 1.0, 2.5]))
        terms.append(OodTerm(gamma, draw(st.floats(-1.5, 0.5))))
        batches.append(rng.normal(0.0, 4.0, (m, 2)))
    cfg = ObjectiveConfig(draw(st.floats(0.0, 1.0)), tuple(terms))
    return model, X, y, batches, cfg


def per_source_objective(model, X, y, batches, cfg):
    """Per-row losses and per-row backward passes, source by source, summed."""
    grads = [np.zeros_like(p) for p in model.weights + model.biases]

    def source(rows, row_losses, scale):
        for x, (_, dz) in zip(rows, row_losses):
            g = backward(model, x, dz * scale)
            for acc, part in zip(grads, g.weights + g.biases):
                acc += part
        return float(np.mean([value for value, _ in row_losses])) if row_losses else 0.0

    in_rows = [loss_in(z, int(c), cfg.lambda_in) for z, c in zip(forward_batch(model, X), y)]
    in_loss = source(X, in_rows, 1 / len(X))
    ood_losses = [
        source(B, [loss_out(z, t.lambda_out) for z in forward_batch(model, B)], t.gamma / max(len(B), 1))
        for t, B in zip(cfg.ood_terms, batches)
    ]
    total = in_loss + sum(t.gamma * part for t, part in zip(cfg.ood_terms, ood_losses))
    return total, in_loss, ood_losses, grads


@settings(max_examples=60, deadline=None, database=None)
@given(objective_cases())
def test_stacked_objective_matches_per_source_reference(case):
    model, X, y, batches, cfg = case
    result = objective_batch(model, X, y, batches, cfg)
    total, in_loss, ood_losses, grads = per_source_objective(model, X, y, batches, cfg)

    def close(a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
        return float(np.max(np.abs(a - b), initial=0.0)) <= 1e-12 * scale

    assert close(result.total, total)
    assert close(result.in_loss, in_loss)
    assert len(result.ood_losses) == len(ood_losses)
    assert close(result.ood_losses, ood_losses)
    for got, want in zip(result.gradients.weights + result.gradients.biases, grads, strict=True):
        assert got.shape == want.shape
        assert close(got, want)


def test_objective_deterministic():
    rng = np.random.default_rng(18)
    model = init_model((2, 8, 3), 7)
    X = rng.normal(0, 2, (6, 2))
    y = rng.integers(0, 3, 6)
    ood = rng.normal(0, 5, (4, 2))
    cfg = ObjectiveConfig(0.5, (OodTerm(0.5, -1.0),))
    a = objective_batch(model, X, y, [ood], cfg)
    b = objective_batch(model, X, y, [ood], cfg)
    assert a.total == b.total
    for ga, gb in zip(a.gradients.weights, b.gradients.weights):
        assert np.array_equal(ga, gb)


def test_ood_term_validation():
    with pytest.raises(ValueError):
        OodTerm(-0.1, -1.0)
    with pytest.raises(ValueError):
        OodTerm(0.5, math.nan)
    with pytest.raises(ValueError):
        ObjectiveConfig(math.inf, ())


def masked_sigmoid(z):
    """The earlier two-branch form: each branch's exp runs only on its own rows."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 745.0, -745.0, 1e308, -1e308]


@settings(max_examples=300, deadline=None, database=None)
@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=40),
        elements=st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGES),
    )
)
@example(np.array(EDGES))
@example(np.array(EDGES)[::-1].reshape(3, 3))
def test_sigmoid_matches_masked_form_bit_for_bit(z):
    got = _sigmoid(z)
    assert got.shape == z.shape
    assert np.array_equal(got.view(np.int64), masked_sigmoid(z).view(np.int64))
