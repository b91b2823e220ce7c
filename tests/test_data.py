import itertools
import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dpnet import data as datamod
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
    # gen_in_domain is gen_shifted at shift 0 and scale 1; gen_shifted also refuses a bad shift or scale
    for shift in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="shift must be finite"):
            gen_shifted(30, 3, seed=0, shift=shift, scale=1.0)
    for scale in (0.0, -1.0):
        with pytest.raises(ValueError, match="scale positive"):
            gen_shifted(30, 3, seed=0, shift=0.0, scale=scale)
    with pytest.raises(ValueError, match="at least one example"):
        gen_far_ood(0, seed=0)


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


@pytest.mark.parametrize("dim", [2**60, 2**62, 10**23])
def test_csv_header_width_past_numpy_is_refused(tmp_path, dim):
    """A feature count whose float64 row overflows numpy's size type is a malformed header."""
    path = tmp_path / "wide.csv"
    path.write_text(f"features:{dim},label:0\n")
    with pytest.raises(ValueError) as err:
        load_csv(path)
    assert str(err.value) == f"{path}:1: malformed header counts"
    # the widest row numpy can shape still loads
    path.write_text(f"features:{2**60 - 1},label:0\n")
    assert load_csv(path).features.shape == (0, 2**60 - 1)


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
        kinds += [
            ("1.5", "label must be an integer"),
            ("-1", "label must be >= 0"),
            (str(CLASSES), f"label {CLASSES} >= {CLASSES} classes"),
            (HUGE_LABEL, f"label {HUGE_LABEL} >= {CLASSES} classes"),
        ]
    # a lone surrogate is written as the raw byte 0xff
    kinds.append(("\udcff", "not UTF-8 (invalid start byte)"))
    return kinds


# one more than the largest label example_sets draws, so only the planted label is out of range
CLASSES = 2**62 + 1
# the smallest label past int64; without ``classes`` it is refused as "label must be < 2**63"
HUGE_LABEL = str(2**63)


def damage(row: str, how: str, dim: int, column: int) -> str:
    """``row`` with one corruption from ``corruptions`` applied."""
    fields = row.split(",")
    if how == "extra field":
        fields.append("0")
    elif how == "missing field":
        fields.pop()
    elif how in ("1.5", "-1", str(CLASSES), HUGE_LABEL):
        fields[dim] = how
    else:
        fields[column] = how
    return ",".join(fields)


# every line boundary of str.splitlines
line_endings = st.sampled_from(
    ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)


@settings(max_examples=100, deadline=None, database=None)
@given(st.data())
def test_csv_corrupt_line_is_named(data):
    examples = data.draw(example_sets(max_rows=30).filter(len))
    labeled = examples.labels is not None
    dim, want = examples.dim, examples.dim + labeled
    bad_row = data.draw(st.integers(0, len(examples) - 1))
    column = data.draw(st.integers(0, dim - 1))
    blanks = data.draw(blank_lines)
    ending = data.draw(line_endings)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        save_csv(path, examples)
        clean = path.read_text()
        for how, message in corruptions(want, labeled):
            header, *rows = clean.splitlines()
            rows[bad_row] = damage(rows[bad_row], how, dim, column)
            text, numbers = with_blank_lines("\n".join([header, *rows]), blanks)
            path.write_bytes(text.replace("\n", ending).encode("utf-8", "surrogateescape"))
            expected = message.format(want=want, more=want + 1, less=want - 1)
            with pytest.raises(ValueError) as err:
                load_csv(path, CLASSES)
            assert str(err.value) == f"{path}:{numbers[bad_row]}: {expected}"
            if how == HUGE_LABEL:
                with pytest.raises(ValueError) as err:
                    load_csv(path)
                assert str(err.value) == f"{path}:{numbers[bad_row]}: label must be < 2**63"


# load_csv and save_csv as they were before CSVs were read and written in chunks:
# the whole file's lines, tokens and text at once
def whole_file_raise_first_error(path, lines, dim, labeled, classes):
    want = dim + (1 if labeled else 0)
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != want:
            raise ValueError(f"{path}:{lineno}: expected {want} fields, got {len(fields)}")
        try:
            row = [float(t) for t in fields[:dim]]
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric feature") from None
        if not all(math.isfinite(v) for v in row):
            raise ValueError(f"{path}:{lineno}: non-finite feature")
        if labeled:
            try:
                label = int(fields[dim])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: label must be an integer") from None
            if label < 0:
                raise ValueError(f"{path}:{lineno}: label must be >= 0")
            if classes is not None and label >= classes:
                raise ValueError(f"{path}:{lineno}: label {label} >= {classes} classes")


def whole_file_load_csv(path, classes=None):
    raw = Path(path).read_bytes()
    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        line = len((raw[: exc.start].decode("utf-8") + "-").splitlines())
        raise ValueError(f"{path}:{line}: not UTF-8 ({exc.reason})") from None
    if not lines or not lines[0].strip():
        raise ValueError(f"{path}:1: missing header")
    dim, labeled = datamod._parse_header(lines[0], path)
    want = dim + (1 if labeled else 0)
    rows = list(filter(str.strip, lines[1:]))
    try:
        if list(map(str.count, rows, itertools.repeat(","))).count(want - 1) != len(rows):
            raise ValueError("wrong field count")
        tokens = ",".join(rows).split(",") if rows else []
        labels = None
        if labeled:
            labels = np.array([int(t) for t in tokens[dim::want]], dtype=np.int64)
            del tokens[dim::want]
            if labels.size and (
                labels.min() < 0 or classes is not None and labels.max() >= classes
            ):
                raise ValueError("label out of range")
        features = np.array(tokens, dtype=float).reshape(len(rows), dim)
        if not np.all(np.isfinite(features)):
            raise ValueError("non-finite feature")
    except ValueError:
        whole_file_raise_first_error(path, lines, dim, labeled, classes)
        raise
    return ExampleSet(features, labels)


def whole_file_save_csv(path, examples):
    labeled = examples.labels is not None
    rows = [",".join(map(repr, row)) for row in examples.features.tolist()]
    if labeled:
        rows = [f"{row},{label}" for row, label in zip(rows, examples.labels.tolist())]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join([f"features:{examples.dim},label:{int(labeled)}", *rows]) + "\n")


def load_or_error(load, path):
    try:
        return load(path, CLASSES)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_chunked_csv_io_matches_whole_file(data):
    """With pieces of a few rows, files cross many piece edges: same bytes, arrays and errors,
    whether load_csv reads the file or is given its bytes."""
    examples = data.draw(example_sets(max_rows=40))
    blanks = data.draw(blank_lines)
    # mixed, so pieces cut at b"\n" hold lines ended by every other boundary
    endings = data.draw(st.lists(line_endings, min_size=1, max_size=8))
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        datamod, "CHUNK_ROWS", data.draw(st.integers(1, 4))
    ):
        path = Path(tmp) / "data.csv"
        whole_file_save_csv(path, examples)
        expected = path.read_bytes()
        save_csv(path, examples)
        assert path.read_bytes() == expected

        header, *rows = path.read_text().splitlines()
        if rows and data.draw(st.booleans()):
            labeled = examples.labels is not None
            # not a label past int64: the whole-file code raises OverflowError on it
            kinds = [k for k in corruptions(examples.dim + labeled, labeled) if k[0] != HUGE_LABEL]
            i = data.draw(st.integers(0, len(rows) - 1))
            how = data.draw(st.sampled_from([how for how, _ in kinds]))
            rows[i] = damage(rows[i], how, examples.dim, data.draw(st.integers(0, examples.dim - 1)))
        lines = with_blank_lines("\n".join([header, *rows]), blanks)[0].split("\n")[:-1]
        text = "".join(line + endings[n % len(endings)] for n, line in enumerate(lines))
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        want = load_or_error(whole_file_load_csv, path)
        # the file's bytes passed as raw parse as the file does
        raw = path.read_bytes()
        results = [load_or_error(load_csv, path), load_or_error(lambda p, classes: load_csv(p, classes, raw), path)]
    for got in results:
        if isinstance(want, str):
            assert got == want
            continue
        assert got.features.shape == want.features.shape
        assert got.features.tobytes() == want.features.tobytes()
        if want.labels is None:
            assert got.labels is None
        else:
            assert got.labels.tobytes() == want.labels.tobytes()


@settings(max_examples=100, deadline=None, database=None)
@given(st.data())
def test_csv_earlier_of_two_defects_is_named(data):
    """A malformed row and a non-UTF-8 byte, in either order: the earlier is named at any CHUNK_ROWS."""
    examples = data.draw(example_sets(max_rows=40).filter(lambda e: len(e) >= 2))
    labeled = examples.labels is not None
    dim, want = examples.dim, examples.dim + labeled
    bad, utf8 = data.draw(st.permutations(range(len(examples))))[:2]
    how, message = data.draw(st.sampled_from(corruptions(want, labeled)[:-1]))
    blanks = data.draw(blank_lines)
    ending = data.draw(line_endings)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        save_csv(path, examples)
        header, *rows = path.read_text().splitlines()
        rows[bad] = damage(rows[bad], how, dim, data.draw(st.integers(0, dim - 1)))
        rows[utf8] = damage(rows[utf8], "\udcff", dim, data.draw(st.integers(0, dim - 1)))
        text, numbers = with_blank_lines("\n".join([header, *rows]), blanks)
        path.write_bytes(text.replace("\n", ending).encode("utf-8", "surrogateescape"))
        if bad < utf8:
            reason = message.format(want=want, more=want + 1, less=want - 1)
            expected = f"{path}:{numbers[bad]}: {reason}"
        else:
            expected = f"{path}:{numbers[utf8]}: not UTF-8 (invalid start byte)"
        got = [load_or_error(load_csv, path)]
        for rows_per_piece in range(1, 5):
            with mock.patch.object(datamod, "CHUNK_ROWS", rows_per_piece):
                got.append(load_or_error(load_csv, path))
    assert got == [expected] * 5


# lines that break two rules, and pairs of lines where the later one breaks an earlier rule
TWO_FAULTS = [
    ["abc,0.5,1.5"],  # non-numeric feature, non-integer label
    ["nan,0.5,-1"],  # non-finite feature, negative label
    ["inf,abc,0"],  # non-finite and non-numeric features
    ["0.5,0.5,1.5,x"],  # field count, non-integer label
    ["0.5,0.5,-1.5"],  # non-integer and negative label
    [f"0.5,0.5,{2**63}"],  # label >= classes and past int64
    ["0.5,0.5,-1", "abc,0.5,0"],
    ["0.5,0.5,7", "0.5,0.5,1.5"],
]


@pytest.mark.parametrize("rows", TWO_FAULTS)
def test_csv_first_broken_rule_is_named(tmp_path, rows):
    """The first bad line is named by the first rule it breaks, as the line-by-line checker names it."""
    path = tmp_path / "bad.csv"
    lines = ["features:2,label:1", "0.0,1.0,0", *rows, "1.0,0.0,2"]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as expected:
        whole_file_raise_first_error(path, lines, 2, True, 3)
    with pytest.raises(ValueError) as got:
        load_csv(path, 3)
    assert str(got.value) == str(expected.value)


def test_save_csv_memory_stays_flat(tmp_path):
    """The traced peak of writing 100k rows: about 2.5 MiB, where the whole-file writer took 21 MiB."""
    examples = ExampleSet(np.random.default_rng(3).normal(0, 6, (100_000, 2)), np.arange(100_000) % 3)
    tracemalloc.start()
    try:
        save_csv(tmp_path / "big.csv", examples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20, peak


def test_load_csv_memory_holds_one_piece(tmp_path):
    """The traced peak of reading 100k labeled rows: about 6.1 MiB, where a whole-file decode took 9.9."""
    path = tmp_path / "big.csv"
    examples = ExampleSet(np.random.default_rng(3).normal(0, 6, (100_000, 2)), np.arange(100_000) % 3)
    save_csv(path, examples)
    tracemalloc.start()
    try:
        load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


@pytest.mark.parametrize("row", ["0.5", "x"])
def test_load_csv_closes_the_file(tmp_path, row):
    """Closed when load_csv returns, and while the refusal of a row in a later piece is held."""
    path = tmp_path / "data.csv"
    path.write_text("features:1,label:0\n" + "0.5\n" * 9 + f"{row}\n" + "0.5\n" * 9)
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    with mock.patch.object(datamod, "open", recording_open, create=True), mock.patch.object(
        datamod, "CHUNK_ROWS", 2
    ):
        try:
            load_csv(path)
        except ValueError as exc:
            assert str(exc) == f"{path}:11: non-numeric feature"
            assert [fh.closed for fh in opened] == [True]
    assert [fh.closed for fh in opened] == [True]


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
