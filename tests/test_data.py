import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dpnet.data import (
    CLUSTER_RADIUS,
    ExampleSet,
    GrayImage,
    gen_far_ood,
    gen_in_domain,
    gen_shifted,
    load_csv,
    median_filter,
    save_csv,
)


def cluster_centers(classes):
    angles = 2.0 * math.pi * np.arange(classes) / classes
    return CLUSTER_RADIUS * np.column_stack([np.cos(angles), np.sin(angles)])


def test_gen_in_domain_balanced_and_clustered():
    examples = gen_in_domain(300, 3, seed=1)
    assert len(examples) == 300
    counts = np.bincount(examples.labels, minlength=3)
    assert counts.tolist() == [100, 100, 100]
    centers = cluster_centers(3)
    for k in range(3):
        block = examples.features[examples.labels == k]
        assert np.linalg.norm(block.mean(axis=0) - centers[k]) < 0.5
        assert 0.8 < block.std(axis=0).mean() < 1.2


def test_gen_in_domain_uneven_split_stays_balanced():
    examples = gen_in_domain(10, 3, seed=2)
    counts = np.bincount(examples.labels, minlength=3)
    assert sorted(counts.tolist()) == [3, 3, 4]


def test_gen_in_domain_deterministic():
    a = gen_in_domain(50, 3, seed=9)
    b = gen_in_domain(50, 3, seed=9)
    c = gen_in_domain(50, 3, seed=10)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.features, c.features)


def test_gen_in_domain_validation():
    with pytest.raises(ValueError):
        gen_in_domain(2, 3, seed=0)
    with pytest.raises(ValueError):
        gen_in_domain(10, 1, seed=0)


def test_gen_shifted_identity_settings_match_in_domain():
    a = gen_in_domain(60, 3, seed=4)
    b = gen_shifted(60, 3, seed=4, shift=0.0, scale=1.0)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_gen_shifted_scale_widens_clusters():
    examples = gen_shifted(600, 3, seed=5, shift=0.0, scale=1.5)
    for k in range(3):
        block = examples.features[examples.labels == k]
        assert block.std(axis=0).mean() == pytest.approx(1.5, abs=0.3)


def test_gen_shifted_translates_means():
    base = gen_in_domain(600, 3, seed=6)
    moved = gen_shifted(600, 3, seed=6, shift=2.0, scale=1.0)
    for k in range(3):
        offset = (
            moved.features[moved.labels == k].mean(axis=0)
            - base.features[base.labels == k].mean(axis=0)
        )
        assert np.allclose(offset, [2.0, 2.0], atol=0.5)


def test_gen_far_ood_ring_norms():
    examples = gen_far_ood(2000, seed=7)
    assert examples.labels is None
    norms = np.linalg.norm(examples.features, axis=1)
    assert norms.min() >= 10.0 and norms.max() <= 14.0


def test_csv_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(12)
    examples = ExampleSet(rng.normal(0, 100, (100, 2)), rng.integers(0, 5, 100))
    path = tmp_path / "data.csv"
    save_csv(path, examples)
    loaded = load_csv(path)
    assert np.array_equal(loaded.features, examples.features)
    assert np.array_equal(loaded.labels, examples.labels)
    assert path.read_text().splitlines()[0] == "features:2,label:1"


def test_csv_roundtrip_unlabeled(tmp_path):
    examples = ExampleSet(np.array([[1.5, -2.25], [0.0, 3.125]]))
    path = tmp_path / "u.csv"
    save_csv(path, examples)
    loaded = load_csv(path)
    assert loaded.labels is None
    assert np.array_equal(loaded.features, examples.features)
    assert path.read_text().splitlines()[0] == "features:2,label:0"


def test_csv_parse_errors_name_lines(tmp_path):
    path = tmp_path / "bad.csv"

    path.write_text("")
    with pytest.raises(ValueError, match=":1"):
        load_csv(path)

    path.write_text("features:two,label:1\n")
    with pytest.raises(ValueError, match=":1"):
        load_csv(path)

    path.write_text("features:2,label:1\n1.0,2.0,0\n3.0,4.0\n")
    with pytest.raises(ValueError, match=":3"):
        load_csv(path)

    path.write_text("features:2,label:1\n1.0,abc,0\n")
    with pytest.raises(ValueError, match="non-numeric"):
        load_csv(path)

    path.write_text("features:2,label:1\n1.0,2.0,1.5\n")
    with pytest.raises(ValueError, match="integer"):
        load_csv(path)

    path.write_text("features:2,label:0\n1.0,nan\n")
    with pytest.raises(ValueError, match="non-finite"):
        load_csv(path)


def test_save_csv_exact_bytes(tmp_path):
    path = tmp_path / "b.csv"
    save_csv(path, ExampleSet(np.array([[-0.0, 1e-320], [0.1, 2.0]]), np.array([0, 3])))
    assert path.read_bytes() == b"features:2,label:1\n-0.0,1e-320,0\n0.1,2.0,3\n"
    save_csv(path, ExampleSet(np.array([[0.1, -0.0, 1e-320]])))
    assert path.read_bytes() == b"features:3,label:0\n0.1,-0.0,1e-320\n"


def with_blank_lines(text: str, blanks: list[str]) -> tuple[str, list[int]]:
    """Put blanks[i] before data row i; returns the text and each row's line number."""
    header, *rows = text.splitlines()
    lines, numbers = [header], []
    for i, row in enumerate(rows):
        if i < len(blanks):
            lines.append(blanks[i])
        lines.append(row)
        numbers.append(len(lines))
    return "\n".join(lines + blanks[len(rows) :]) + "\n", numbers


blank_lines = st.lists(st.sampled_from(["", "  ", "\t"]), max_size=40)


@st.composite
def example_sets(draw, max_rows=600):
    rows, dim = draw(st.integers(0, max_rows)), draw(st.integers(1, 3))
    values = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([-0.0, 5e-324, -2.5e-320, 1e308, -1e308]),
    )
    features = draw(arrays(np.float64, (rows, dim), elements=values))
    labels = None
    if draw(st.booleans()):
        labels = draw(arrays(np.int64, rows, elements=st.integers(0, 2**62)))
    return ExampleSet(features, labels)


@settings(max_examples=60, deadline=None, database=None)
@given(example_sets())
@example(ExampleSet(np.array([[-0.0, 5e-324], [1e308, -1e308]]), np.array([0, 7])))
@example(ExampleSet(np.zeros((0, 2))))
def test_csv_roundtrip_property(examples):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        save_csv(path, examples)
        loaded = [load_csv(path)]
        # blank and whitespace-only lines are skipped
        path.write_text(with_blank_lines(path.read_text(), ["", " \t", ""] * 10)[0])
        loaded.append(load_csv(path))
    for got in loaded:
        assert got.features.shape == examples.features.shape
        # bit-identical, so -0.0 stays negative
        assert got.features.tobytes() == examples.features.tobytes()
        if examples.labels is None:
            assert got.labels is None
        else:
            assert np.array_equal(got.labels, examples.labels)


def corruptions(want: int, labeled: bool) -> list[tuple[str, str]]:
    """(how, message) pairs for one damaged data line."""
    kinds = [
        ("extra field", "expected {want} fields, got {more}"),
        ("abc", "non-numeric feature"),
        ("nan", "non-finite feature"),
        ("inf", "non-finite feature"),
        ("-inf", "non-finite feature"),
    ]
    if want > 1:  # a one-field line with its field removed is blank, and skipped
        kinds.append(("missing field", "expected {want} fields, got {less}"))
    if labeled:
        kinds += [("1.5", "label must be an integer"), ("-1", "label must be >= 0")]
    return kinds


@settings(max_examples=100, deadline=None, database=None)
@given(st.data())
def test_csv_corrupt_line_is_named(data):
    examples = data.draw(example_sets(max_rows=30).filter(len))
    labeled = examples.labels is not None
    dim, want = examples.dim, examples.dim + labeled
    bad_row = data.draw(st.integers(0, len(examples) - 1))
    column = data.draw(st.integers(0, dim - 1))
    blanks = data.draw(blank_lines)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        save_csv(path, examples)
        clean = path.read_text()
        for how, message in corruptions(want, labeled):
            header, *rows = clean.splitlines()
            fields = rows[bad_row].split(",")
            if how == "extra field":
                fields.append("0")
            elif how == "missing field":
                fields.pop()
            elif how in ("1.5", "-1"):
                fields[dim] = how
            else:
                fields[column] = how
            rows[bad_row] = ",".join(fields)
            text, numbers = with_blank_lines("\n".join([header, *rows]), blanks)
            path.write_text(text)
            expected = message.format(want=want, more=want + 1, less=want - 1)
            with pytest.raises(ValueError) as err:
                load_csv(path)
            assert str(err.value) == f"{path}:{numbers[bad_row]}: {expected}"


def test_csv_missing_file():
    with pytest.raises(OSError):
        load_csv("/nonexistent/nope.csv")


def median_oracle(pixels, window):
    """Loop-and-sort reference with clamped (edge replicated) indexing."""
    h, w = pixels.shape
    r = window // 2
    out = np.empty_like(pixels)
    for i in range(h):
        for j in range(w):
            vals = []
            for di in range(-r, r + 1):
                for dj in range(-r, r + 1):
                    ii = min(max(i + di, 0), h - 1)
                    jj = min(max(j + dj, 0), w - 1)
                    vals.append(pixels[ii, jj])
            vals.sort()
            out[i, j] = vals[len(vals) // 2]
    return out


def test_median_filter_identity_cases():
    img = GrayImage(4, 3, np.full((3, 4), 0.25))
    assert np.array_equal(median_filter(img, 3).pixels, img.pixels)
    assert np.array_equal(median_filter(img, 1).pixels, img.pixels)


def test_median_filter_removes_isolated_spike():
    pixels = np.zeros((5, 5))
    pixels[2, 2] = 1.0
    filtered = median_filter(GrayImage(5, 5, pixels), 3)
    assert np.array_equal(filtered.pixels, np.zeros((5, 5)))


def test_median_filter_matches_sort_oracle():
    rng = np.random.default_rng(13)
    for _ in range(50):
        h = int(rng.integers(3, 9))
        w = int(rng.integers(3, 9))
        pixels = rng.random((h, w))
        img = GrayImage(w, h, pixels)
        for window in (1, 3, 5):
            if window > min(h, w):
                continue
            got = median_filter(img, window).pixels
            assert np.array_equal(got, median_oracle(pixels, window)), (h, w, window)


def test_median_filter_validation():
    img = GrayImage(4, 4, np.zeros((4, 4)))
    with pytest.raises(ValueError):
        median_filter(img, 2)
    with pytest.raises(ValueError):
        median_filter(img, 5)
    with pytest.raises(ValueError):
        median_filter(img, -1)


def test_gray_image_validation():
    with pytest.raises(ValueError):
        GrayImage(2, 2, np.array([[0.5, 1.5], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        GrayImage(3, 2, np.zeros((3, 3)))


def test_example_set_validation():
    with pytest.raises(ValueError):
        ExampleSet(np.zeros(3))  # 1-D
    with pytest.raises(ValueError):
        ExampleSet(np.zeros((2, 2)), np.array([0]))  # label count mismatch
    with pytest.raises(ValueError):
        ExampleSet(np.zeros((2, 2)), np.array([0, -1]))
    with pytest.raises(ValueError):
        ExampleSet(np.array([[math.inf, 0.0]]))
