import gc
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpnet.data import ExampleSet
from dpnet.network import (
    CHECKPOINT_MAGIC,
    FeedForwardModel,
    NonFiniteLogits,
    backward,
    checkpoint_bytes,
    forward,
    forward_batch,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from dpnet.pipeline import score_set, screen_scores
from dpnet.training import evaluate_accuracy


def naive_forward(model, x):
    """Plain per-layer loop oracle."""
    h = np.asarray(x, dtype=float)
    last = len(model.weights) - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        s = w @ h + b
        if l < last:
            h = np.maximum(s, 0.0) if model.activation == "relu" else np.tanh(s)
        else:
            h = s
    return h


def flatten_params(model):
    return np.concatenate([a.ravel() for a in model.weights + model.biases])


def set_params(model, vec):
    pos = 0
    for arr in model.weights + model.biases:
        arr[...] = vec[pos : pos + arr.size].reshape(arr.shape)
        pos += arr.size


def test_identity_single_layer():
    model = FeedForwardModel((2, 2), [np.eye(2)], [np.zeros(2)], "relu")
    assert np.allclose(forward(model, [1.0, 2.0]), [1.0, 2.0], atol=1e-15)


def test_forward_matches_naive_oracle():
    rng = np.random.default_rng(5)
    for trial in range(20):
        act = "relu" if trial % 2 == 0 else "tanh"
        model = init_model((2, 16, 3), int(rng.integers(1e6)), act)
        for _ in range(5):
            x = rng.normal(0, 3, 2)
            assert np.allclose(forward(model, x), naive_forward(model, x), atol=1e-12)


def test_forward_batch_matches_single():
    model = init_model((3, 8, 8, 4), 17, "tanh")
    X = np.random.default_rng(2).normal(0, 2, (9, 3))
    Z = forward_batch(model, X)
    assert Z.shape == (9, 4)
    for i in range(9):  # forward is forward_batch on one row: the same bits
        assert np.array_equal(Z[i], forward(model, X[i]))


# every public entry point that runs a forward pass, called on (model, rows, labels)
ENTRY_POINTS = {
    "forward": lambda m, X, y: forward(m, X[0]),
    "forward_batch": lambda m, X, y: forward_batch(m, X),
    "score_set": lambda m, X, y: score_set(m, X, "mutual_information"),
    "screen_scores": lambda m, X, y: screen_scores(m, m, X),
    "evaluate_accuracy": lambda m, X, y: evaluate_accuracy(m, ExampleSet(X, y)),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_overflowing_logits_refused_at_every_entry_point(entry):
    """Finite but huge parameters: NonFiniteLogits naming the model, and no numpy warning
    (the suite makes those errors)."""
    model = init_model((2, 8, 3), 47, "relu")
    model.params *= 1e200
    X = np.array([[1.0, -0.5], [0.3, 2.0]])
    with pytest.raises(NonFiniteLogits, match="^non-finite logits$") as info:
        ENTRY_POINTS[entry](model, X, np.zeros(2, dtype=int))
    assert info.value.model is model


def test_overflow_in_the_zero_padding_is_not_refused():
    """Only the given rows are checked: here the padding rows' logits overflow and the real row's are 0."""
    model = FeedForwardModel(
        (1, 1, 2), [np.array([[-1.0]]), np.array([[1e10], [0.0]])], [np.array([1e300]), np.zeros(2)], "relu"
    )
    X = np.array([[1e300]])
    assert np.array_equal(forward_batch(model, X), [[0.0, 0.0]])
    for call in ENTRY_POINTS.values():
        call(model, X, np.zeros(1, dtype=int))


def test_dimension_errors():
    model = init_model((2, 4, 3), 0)
    with pytest.raises(ValueError):
        forward(model, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        forward(model, [math.inf, 0.0])
    with pytest.raises(ValueError):
        forward_batch(model, np.zeros((4, 3)))
    with pytest.raises(ValueError, match="X must be finite"):
        forward_batch(model, np.array([[0.0, 1.0], [np.nan, 0.0]]))
    with pytest.raises(ValueError):
        backward(model, [1.0, 2.0], [0.1, 0.2])  # dL_dz length 2, K = 3
    with pytest.raises(ValueError, match="dL_dz must be finite"):
        backward(model, [1.0, 2.0], [0.1, math.inf, 0.2])


def test_model_constructor_validation():
    weights, biases = [np.eye(2), np.ones((3, 2))], [np.zeros(2), np.zeros(3)]
    assert FeedForwardModel((2, 2, 3), weights, biases).num_classes == 3
    with pytest.raises(ValueError, match="unknown activation 'swish'"):
        FeedForwardModel((2, 2, 3), weights, biases, "swish")
    with pytest.raises(ValueError, match="do not match layer_sizes"):
        FeedForwardModel((2, 2, 3), weights[:1], biases)
    with pytest.raises(ValueError, match="layer 1: parameter shape mismatch"):
        FeedForwardModel((2, 2, 3), weights, [biases[0], np.zeros(2)])
    with pytest.raises(ValueError, match="parameters must be finite"):
        FeedForwardModel((2, 2, 3), [weights[0], np.full((3, 2), np.nan)], biases)


def test_init_model_seeded_and_scaled():
    a = init_model((64, 256, 3), 42)
    b = init_model((64, 256, 3), 42)
    c = init_model((64, 256, 3), 43)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert any(not np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights))
    assert all(np.all(bias == 0.0) for bias in a.biases)
    # He scale on a large layer: sample std close to sqrt(2 / fan_in)
    assert a.weights[0].std() == pytest.approx(math.sqrt(2.0 / 64), rel=0.05)


def test_init_model_rejects_bad_sizes():
    with pytest.raises(ValueError):
        init_model((2,), 0)
    with pytest.raises(ValueError):
        init_model((2, 0, 3), 0)
    with pytest.raises(ValueError):
        init_model((2, 4, 1), 0)  # single logit is useless


def test_backward_matches_finite_differences():
    # scalar head L = v . z exercises the full parameter chain
    h = 1e-5
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(300 + trial)
        act = "relu" if trial % 2 == 0 else "tanh"
        model = init_model((2, 8, 3), int(rng.integers(1e6)), act)
        x = rng.normal(0, 2, 2)
        v = rng.normal(0, 1, 3)
        grads = backward(model, x, v)
        analytic = np.concatenate([g.ravel() for g in grads.weights + grads.biases])
        theta = flatten_params(model)
        fd = np.zeros_like(theta)
        for i in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[i] += h
            down[i] -= h
            set_params(model, up)
            f_up = float(v @ forward(model, x))
            set_params(model, down)
            f_down = float(v @ forward(model, x))
            fd[i] = (f_up - f_down) / (2 * h)
        set_params(model, theta)
        scale = np.maximum(1e-6, np.maximum(np.abs(analytic), np.abs(fd)))
        worst = max(worst, float(np.max(np.abs(analytic - fd) / scale)))
    assert worst <= 1e-4


@settings(max_examples=60, deadline=None, database=None)
@given(
    inputs=st.integers(1, 4),
    hidden=st.lists(st.integers(1, 10), min_size=1, max_size=3),
    classes=st.integers(2, 5),
    activation=st.sampled_from(["relu", "tanh"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(inputs=2, hidden=[32, 32], classes=3, activation="relu", seed=9)
def test_checkpoint_roundtrip_bitwise(inputs, hidden, classes, activation, seed):
    model = init_model((inputs, *hidden, classes), seed, activation)
    # params is laid out W0, b0, W1, b1, ...: a write to it shows through every view
    model.params[:] = np.random.default_rng(seed).normal(0.0, 1.0, model.params.size)
    model.params[-1] = -0.0
    layers = [a.ravel() for w, b in zip(model.weights, model.biases) for a in (w, b)]
    assert np.concatenate(layers).tobytes() == model.params.tobytes()

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        loaded = load_checkpoint(path)
        # identical bytes when saved again
        save_checkpoint(loaded, Path(tmp) / "again.ckpt")
        assert (Path(tmp) / "again.ckpt").read_bytes() == raw
    assert raw.split(b"\n", 3)[3] == model.params.astype("<f8").tobytes()
    assert loaded.layer_sizes == model.layer_sizes
    assert loaded.activation == model.activation
    assert loaded.params.tobytes() == model.params.tobytes()
    for a, b in zip(model.weights + model.biases, loaded.weights + loaded.biases):
        assert a.tobytes() == b.tobytes()
        assert np.shares_memory(b, loaded.params)
    x = np.linspace(-1.1, 0.4, inputs)
    assert np.array_equal(forward(model, x), forward(loaded, x))

    dup = model.copy()
    assert dup.params.tobytes() == model.params.tobytes()
    for a in [dup.params, *dup.weights, *dup.biases]:
        assert not np.shares_memory(a, model.params)


def test_checkpoint_load_closes_its_file(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_model((2, 4, 3), 1), path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        load_checkpoint(path)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_checkpoint_header_format(tmp_path):
    model = init_model((2, 4, 3), 1, "tanh")
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    head = path.read_bytes().split(b"\n", 3)
    assert head[0] == CHECKPOINT_MAGIC.encode()
    assert head[1] == b"2,4,3"
    assert head[2] == b"tanh"


def test_checkpoint_rejects_corruption(tmp_path):
    model = init_model((2, 4, 3), 1)
    good = tmp_path / "good.ckpt"
    save_checkpoint(model, good)
    raw = good.read_bytes()

    bad_magic = tmp_path / "bad_magic.ckpt"
    bad_magic.write_bytes(b"x" + raw[1:])
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(bad_magic)

    truncated = tmp_path / "trunc.ckpt"
    truncated.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="bytes"):
        load_checkpoint(truncated)
    for head in (b"", b"dpnet-v1\n"):
        truncated.write_bytes(head)
        with pytest.raises(ValueError, match=f"^{re.escape(str(truncated))}: truncated checkpoint header$"):
            load_checkpoint(truncated)

    bad_sizes = tmp_path / "sizes.ckpt"
    bad_sizes.write_bytes(b"dpnet-v1\n2,banana,3\nrelu\n" + raw.split(b"\n", 3)[3])
    with pytest.raises(ValueError, match="layer sizes"):
        load_checkpoint(bad_sizes)

    bad_act = tmp_path / "act.ckpt"
    bad_act.write_bytes(raw.replace(b"\nrelu\n", b"\nswish\n"))
    with pytest.raises(ValueError, match="activation"):
        load_checkpoint(bad_act)

    payload = raw.split(b"\n", 3)[3]
    nan_blob = np.frombuffer(payload, dtype="<f8").copy()
    nan_blob[0] = np.nan
    poisoned = tmp_path / "nan.ckpt"
    poisoned.write_bytes(b"dpnet-v1\n2,4,3\nrelu\n" + nan_blob.tobytes())
    with pytest.raises(ValueError, match="non-finite"):
        load_checkpoint(poisoned)

    # every single-byte substitution in the three header lines is refused, naming the file
    mutant = tmp_path / "mutant.ckpt"
    loaded = []
    for pos in range(len(b"dpnet-v1\n2,4,3\nrelu\n")):
        for value in range(256):
            if value == raw[pos]:
                continue
            mutant.write_bytes(raw[:pos] + bytes([value]) + raw[pos + 1 :])
            try:
                load_checkpoint(mutant)
            except ValueError as exc:
                assert str(mutant) in str(exc), (pos, value, exc)
            else:
                loaded.append((pos, value))
    assert loaded == []


@pytest.mark.parametrize("sizes", [
    b"+2,4,3", b" 2,4,3", b"2,4,3 ", b"02,4,3", b"2,0_4,3", b"2,4,3\r", b"2, 4,3", b"2,4,+3",
])
def test_checkpoint_reads_only_the_written_sizes_line(tmp_path, sizes):
    """int() reads each of these sizes lines as 2,4,3, but only checkpoint_bytes' form is read, so a
    loaded model's checkpoint_bytes are always its file's bytes."""
    raw = checkpoint_bytes(init_model((2, 4, 3), 1))
    path = tmp_path / "m.ckpt"
    path.write_bytes(raw.replace(b"\n2,4,3\n", b"\n" + sizes + b"\n", 1))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: bad layer sizes: "):
        load_checkpoint(path)
    path.write_bytes(raw)
    assert checkpoint_bytes(load_checkpoint(path)) == raw


def test_model_copy_is_independent():
    model = init_model((2, 4, 3), 3)
    dup = model.copy()
    dup.weights[0][0, 0] += 1.0
    assert model.weights[0][0, 0] != dup.weights[0][0, 0]
