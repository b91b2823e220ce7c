import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpnet.data import ExampleSet, gen_far_ood, gen_in_domain
from dpnet.dirichlet import _mutual_information_rows, logits_to_alpha, mutual_information
from dpnet.losses import ObjectiveConfig, OodTerm
from dpnet.network import FeedForwardModel, forward, forward_batch, init_model
from dpnet.pipeline import (
    Outcome,
    ScoreKind,
    ScreeningThresholds,
    auroc,
    calibrate_threshold,
    discard_and_rescore,
    ood_detection_rate,
    route_decision,
    score_set,
    screen_scores,
)
from dpnet.training import TrainConfig, train


@pytest.fixture(scope="module")
def detector():
    data = gen_in_domain(150, 3, seed=40)
    ood = gen_far_ood(80, seed=41)
    cfg = TrainConfig(
        ObjectiveConfig(0.5, (OodTerm(0.5, -1.0),)),
        epochs=15,
        batch_size=32,
        learning_rate=0.05,
        seed=42,
    )
    model, _ = train(init_model((2, 16, 16, 3), seed=43), data, [ood], cfg)
    return model


@pytest.fixture(scope="module")
def classifier():
    data = gen_in_domain(150, 3, seed=44)
    cfg = TrainConfig(
        ObjectiveConfig(0.1, ()), epochs=15, batch_size=32, learning_rate=0.05, seed=45
    )
    model, _ = train(init_model((2, 16, 16, 3), seed=46), data, [], cfg)
    return model


@settings(max_examples=25, deadline=None, database=None)
@given(
    hidden=st.lists(st.integers(1, 12), min_size=0, max_size=2),
    classes=st.integers(2, 5),
    rows=st.integers(0, 600),
    activation=st.sampled_from(["relu", "tanh"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(hidden=[8], classes=3, rows=513, activation="relu", seed=52)
@example(hidden=[1, 1], classes=5, rows=38, activation="relu", seed=274618120)  # logits past 30
def test_score_set_matches_single_input_scores(hidden, classes, rows, activation, seed):
    # row counts up to 600 cross the 256-row block edges of forward_batch
    model = init_model((2, *hidden, classes), seed=seed, activation=activation)
    X = np.random.default_rng(seed).uniform(-4.0, 4.0, (rows, 2))

    want = [mutual_information(logits_to_alpha(forward(model, x))) for x in X]
    got = score_set(model, X, ScoreKind.MUTUAL_INFORMATION)
    assert got.shape == (rows,)
    assert np.array_equal(got, want)  # forward and score_set share forward_batch's blocks

    # screen_scores reads one blocked pass per model: the same scores, plus
    # the classifier's argmax and referable posterior
    both = screen_scores(model, model, X)
    assert np.array_equal(both.s_d, got) and np.array_equal(both.s_c, got)
    Z = np.array([forward(model, x) for x in X]).reshape(rows, classes)
    assert np.array_equal(both.predicted, Z.argmax(axis=1))
    alpha = np.exp(np.clip(Z, -30.0, 30.0))
    assert np.array_equal(both.referable, alpha[:, 0] / alpha.sum(axis=1))

    # scores read the Dirichlet of logits_to_alpha, which clamps logits to +-30
    Z = np.clip([forward(model, x) for x in X], -30.0, 30.0).reshape(rows, classes)
    p = np.exp(Z - Z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    entropy = -(p * np.log(p)).sum(axis=1)
    np.testing.assert_allclose(score_set(model, X, ScoreKind.ENTROPY), entropy, rtol=0.0, atol=1e-12)


def reference_score_rows(model, X, kind):
    """_score_rows in its earlier form: the forward pass and the Dirichlet
    math together, once per 256-row block. Returns (score, predicted,
    referable)."""
    n = X.shape[0]
    score, predicted, referable = np.empty(n), np.empty(n, dtype=np.int64), np.empty(n)
    for i in range(0, n, 256):
        rows = slice(i, i + 256)
        Z = forward_batch(model, X[rows])
        alpha = np.exp(np.clip(Z, -30.0, 30.0))
        a0 = alpha.sum(axis=1)
        referable[rows] = alpha[:, 0] / a0
        if kind is ScoreKind.MUTUAL_INFORMATION:
            score[rows] = _mutual_information_rows(alpha)
        else:
            p = alpha / a0[:, None]
            score[rows] = -(p * np.log(p)).sum(axis=1)
        predicted[rows] = Z.argmax(axis=1)
    return score, predicted, referable


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("classes", [2, 3, 5])
def test_chunked_scoring_matches_per_block_reference(activation, classes):
    # row counts cross the 256-row block edges and the 8192-row chunk edges
    classifier = init_model((2, 16, 16, classes), seed=60 + classes, activation=activation)
    detector = init_model((2, 16, classes), seed=70 + classes, activation=activation)
    rng = np.random.default_rng(classes)
    for rows in (0, 1, 255, 256, 257, 8191, 8192, 8193, 20011):
        # a wide input range drives some logits past the +-30 clamp
        X = rng.uniform(-4.0, 4.0, (rows, 2)) * rng.choice([1.0, 40.0], (rows, 1))
        want = {kind: reference_score_rows(detector, X, kind)[0] for kind in ScoreKind}
        for kind in ScoreKind:
            assert np.array_equal(score_set(detector, X, kind), want[kind]), (rows, kind)
        got = screen_scores(classifier, detector, X)
        s_c, predicted, referable = reference_score_rows(classifier, X, ScoreKind.MUTUAL_INFORMATION)
        assert np.array_equal(got.s_d, want[ScoreKind.MUTUAL_INFORMATION]), rows
        assert np.array_equal(got.s_c, s_c), rows
        assert np.array_equal(got.predicted, predicted), rows
        assert np.array_equal(got.referable, referable), rows


@settings(max_examples=10, deadline=None, database=None)
@given(
    rows=st.integers(1, 600),
    seed=st.integers(0, 2**32 - 1),
    ends=st.lists(st.integers(0, 600), min_size=2, max_size=2),
)
@example(rows=513, seed=7, ends=[1, 513])  # a slice that crosses both block edges
def test_a_rows_scores_do_not_depend_on_the_rows_screened_with_it(classifier, detector, rows, seed, ends):
    # a set, a slice of it, and each row alone: each row gets the same bits
    X = np.random.default_rng(seed).uniform(-4.0, 4.0, (rows, 2))
    whole = screen_scores(classifier, detector, X)
    start, stop = sorted(min(end, rows) for end in ends)
    pieces = [slice(start, stop), *(slice(i, i + 1) for i in range(rows))]
    for piece in pieces:
        got = screen_scores(classifier, detector, X[piece])
        for name, column in zip(got._fields, got):
            assert np.array_equal(column, getattr(whole, name)[piece]), (name, piece)


def test_score_set_shapes():
    model = init_model((2, 8, 3), seed=56)
    assert score_set(model, np.zeros((0, 2)), ScoreKind.ENTROPY).shape == (0,)
    with pytest.raises(ValueError):
        score_set(model, np.zeros(4), ScoreKind.ENTROPY)
    # a kind's wire value scores as the kind; an unknown kind is refused, on no rows too
    X = np.random.default_rng(57).normal(0.0, 3.0, (10, 2))
    for kind in ScoreKind:
        assert np.array_equal(score_set(model, X, kind.value), score_set(model, X, kind)), kind
    for rows in (X, X[:0]):
        with pytest.raises(ValueError, match="'variance' is not a valid ScoreKind"):
            score_set(model, rows, "variance")


def test_calibrate_threshold_known_ranks():
    scores = np.arange(1.0, 101.0)
    assert calibrate_threshold(scores, 0.05) == 95.0
    assert calibrate_threshold(scores, 0.01) == 99.0
    # 0.29 * 100 rounds below 29 in float math; the rank guard must hold
    assert calibrate_threshold(scores, 0.29) == 71.0
    assert calibrate_threshold(np.arange(1.0, 11.0), 0.25) == 8.0


def test_calibrate_threshold_drop_count_property():
    rng = np.random.default_rng(57)
    for _ in range(30):
        n = int(rng.integers(20, 400))
        scores = rng.normal(0.0, 1.0, n)
        p = float(rng.uniform(0.01, 0.5))
        tau = calibrate_threshold(scores, p)
        assert int((scores > tau).sum()) == math.floor(Fraction(repr(p)) * n)


@settings(max_examples=300, deadline=None, database=None)
@given(st.integers(1, 15).flatmap(lambda places: st.tuples(
    st.just(places), st.integers(1, 10**places - 1))), st.integers(1, 20_000))
@example((12, 333333333333), 3)  # p * n is 0.999999999999: drop none, tau = 2.0
@example((13, 2999999999999), 10)  # p * n is 2.999999999999: drop 2 rows, not 3
def test_calibrate_threshold_drops_exact_decimal_share(decimal, n):
    """For a drop fraction with at most 15 decimal places, floor(p * N) is taken exactly."""
    places, digits = decimal
    share = Fraction(digits, 10**places)
    scores = np.arange(n, dtype=float)
    tau = calibrate_threshold(scores, float(share))
    drop = math.floor(share * n)
    assert tau == n - 1 - drop
    assert int((scores > tau).sum()) == drop


def test_calibrate_threshold_ties_never_overdrop():
    scores = np.array([1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 3.0])
    tau = calibrate_threshold(scores, 0.3)
    assert tau == 2.0
    assert int((scores > tau).sum()) <= 3


def test_calibrate_threshold_validation():
    with pytest.raises(ValueError):
        calibrate_threshold([], 0.1)
    with pytest.raises(ValueError):
        calibrate_threshold(np.zeros((2, 2)), 0.1)
    with pytest.raises(ValueError):
        calibrate_threshold([1.0, math.inf], 0.1)
    with pytest.raises(ValueError):
        calibrate_threshold([1.0, 2.0], 0.0)
    with pytest.raises(ValueError):
        calibrate_threshold([1.0, 2.0], 1.0)


THRESHOLDS = ScreeningThresholds(tau_d=0.5, tau_c=0.8)


OUTCOMES = list(Outcome)


def route_row(s_d, s_c, thresholds, predicted_class):
    """The per-row rule: the classifier gate first, then the detector gate."""
    if s_c > thresholds.tau_c:
        return Outcome.DISCARD, -1
    if s_d > thresholds.tau_d:
        return Outcome.HUMAN_REVIEW, predicted_class
    return Outcome.TRUSTED, predicted_class


def test_route_decision_outcomes():
    outcome, predicted = route_decision(
        np.array([0.2, 0.6, 0.2, 0.9]), np.array([0.3, 0.3, 0.9, 0.9]), THRESHOLDS, np.array([1, 2, 0, 0])
    )
    # the classifier gate wins even when both scores are high
    assert [OUTCOMES[o] for o in outcome] == [
        Outcome.TRUSTED, Outcome.HUMAN_REVIEW, Outcome.DISCARD, Outcome.DISCARD
    ]
    assert predicted.tolist() == [1, 2, -1, -1]

    outcome, predicted = route_decision(np.zeros(0), np.zeros(0), THRESHOLDS, np.zeros(0, dtype=int))
    assert outcome.shape == predicted.shape == (0,)


def test_route_decision_threshold_boundaries_do_not_flag():
    outcome, _ = route_decision([0.5, math.nextafter(0.5, 1.0), 0.5], [0.8, 0.8, math.nextafter(0.8, 1.0)], THRESHOLDS, [0, 0, 0])
    assert [OUTCOMES[o] for o in outcome] == [Outcome.TRUSTED, Outcome.HUMAN_REVIEW, Outcome.DISCARD]


def test_route_decision_rejects_non_finite():
    with pytest.raises(ValueError):
        route_decision([math.nan], [0.1], THRESHOLDS, [0])
    with pytest.raises(ValueError):
        route_decision([0.1], [math.inf], THRESHOLDS, [0])
    with pytest.raises(ValueError):
        route_decision([0.1, 0.2], [0.1], THRESHOLDS, [0, 0])


finite = st.floats(allow_nan=False, allow_infinity=False)
# thresholds within 1e300 stay finite when nudged up one ulp or raised by 1e300
taus = st.floats(-1e300, 1e300)


@st.composite
def routing_cases(draw):
    """Thresholds plus rows whose scores often sit at, or one ulp from, a threshold."""
    thresholds = ScreeningThresholds(draw(taus), draw(taus))

    def near(tau):
        return st.one_of(
            finite,
            st.sampled_from([tau, math.nextafter(tau, math.inf), math.nextafter(tau, -math.inf)]),
        )

    n = draw(st.integers(0, 40))
    s_d = draw(st.lists(near(thresholds.tau_d), min_size=n, max_size=n))
    s_c = draw(st.lists(near(thresholds.tau_c), min_size=n, max_size=n))
    classes = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    return thresholds, np.array(s_d, dtype=float), np.array(s_c, dtype=float), np.array(classes, dtype=int)


@settings(max_examples=200, deadline=None, database=None)
@given(routing_cases())
def test_route_decision_matches_per_row_rule(case):
    thresholds, s_d, s_c, classes = case
    outcome, predicted = route_decision(s_d, s_c, thresholds, classes)
    want = [route_row(d, c, thresholds, k) for d, c, k in zip(s_d.tolist(), s_c.tolist(), classes.tolist())]
    assert [(OUTCOMES[o], k) for o, k in zip(outcome.tolist(), predicted.tolist())] == want


@settings(max_examples=200, deadline=None, database=None)
@given(tau_d=taus, tau_c=taus)
def test_route_decision_flags_only_above_threshold(tau_d, tau_c):
    thresholds = ScreeningThresholds(tau_d, tau_c)
    up_d, up_c = math.nextafter(tau_d, math.inf), math.nextafter(tau_c, math.inf)
    outcome, predicted = route_decision([tau_d, up_d, tau_d], [tau_c, tau_c, up_c], thresholds, [4, 4, 4])
    assert [OUTCOMES[o] for o in outcome] == [Outcome.TRUSTED, Outcome.HUMAN_REVIEW, Outcome.DISCARD]
    assert predicted.tolist() == [4, 4, -1]


@settings(max_examples=200, deadline=None, database=None)
@given(routing_cases(), st.floats(0.0, 1e300), st.floats(0.0, 1e300))
def test_route_decision_is_monotone_in_thresholds(case, raise_d, raise_c):
    # outcome indices run from least to most flagged
    thresholds, s_d, s_c, classes = case
    before, _ = route_decision(s_d, s_c, thresholds, classes)
    higher = [
        ScreeningThresholds(thresholds.tau_d + raise_d, thresholds.tau_c),
        ScreeningThresholds(thresholds.tau_d, thresholds.tau_c + raise_c),
    ]
    for raised in higher:
        after, _ = route_decision(s_d, s_c, raised, classes)
        assert np.all(after <= before)


@settings(max_examples=100, deadline=None, database=None)
@given(routing_cases(), st.sampled_from([math.nan, math.inf, -math.inf]), st.booleans(), st.integers(0))
def test_route_decision_rejects_any_non_finite_score(case, bad, detector_side, where):
    thresholds, s_d, s_c, classes = case
    if s_d.size == 0:
        s_d, s_c, classes = np.zeros(1), np.zeros(1), np.zeros(1, dtype=int)
    (s_d if detector_side else s_c)[where % s_d.size] = bad
    with pytest.raises(ValueError, match="finite"):
        route_decision(s_d, s_c, thresholds, classes)


def test_screening_thresholds_validation():
    with pytest.raises(ValueError):
        ScreeningThresholds(math.inf, 0.5)
    with pytest.raises(ValueError):
        ScreeningThresholds(0.5, math.nan)


def test_outcome_and_kind_wire_values():
    assert [o.value for o in Outcome] == ["trusted", "human_review", "discard"]
    assert ScoreKind.MUTUAL_INFORMATION.value == "mutual_information"
    assert ScoreKind.ENTROPY.value == "entropy"


def auroc_oracle(neg, pos):
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def test_auroc_known_values():
    assert auroc([1.0, 2.0], [3.0, 4.0]) == 1.0
    assert auroc([3.0, 4.0], [1.0, 2.0]) == 0.0
    assert auroc([1.0, 1.0], [1.0, 1.0]) == 0.5
    assert auroc([0.0, 1.0], [0.5]) == 0.5


def test_auroc_matches_pairwise_oracle():
    rng = np.random.default_rng(58)
    for _ in range(30):
        m = int(rng.integers(1, 40))
        k = int(rng.integers(1, 40))
        # quarter-integer grids force plenty of ties
        neg = rng.integers(0, 12, m) / 4.0
        pos = rng.integers(2, 14, k) / 4.0
        assert abs(auroc(neg, pos) - auroc_oracle(neg, pos)) < 1e-12


def test_auroc_validation():
    with pytest.raises(ValueError):
        auroc([], [1.0])
    with pytest.raises(ValueError):
        auroc([1.0], [])
    with pytest.raises(ValueError):
        auroc([1.0], [math.nan])


def test_ood_detection_rate_strictness():
    scores = [1.0, 2.0, 3.0, 4.0]
    assert ood_detection_rate(scores, 2.5) == 0.5
    assert ood_detection_rate(scores, 3.0) == 0.25
    assert ood_detection_rate(scores, 0.0) == 1.0
    with pytest.raises(ValueError):
        ood_detection_rate([], 0.5)
    with pytest.raises(ValueError):
        ood_detection_rate([1.0, math.nan], 0.5)
    with pytest.raises(ValueError):
        ood_detection_rate(scores, math.inf)


def referable_posterior(classifier, features):
    alpha = np.exp(np.clip(forward_batch(classifier, features), -30.0, 30.0))
    return alpha[:, 0] / alpha.sum(axis=1)


def test_discard_and_rescore_baseline_row(classifier, detector):
    test = gen_in_domain(90, 3, seed=47)
    val = gen_in_domain(90, 3, seed=48)
    prob = referable_posterior(classifier, test.features)
    s_test = score_set(detector, test.features, ScoreKind.MUTUAL_INFORMATION)
    s_val = score_set(detector, val.features, ScoreKind.MUTUAL_INFORMATION)
    taus = [(0.0, math.inf), *((p, calibrate_threshold(s_val, p)) for p in (0.05, 0.1, 0.2))]
    rows = discard_and_rescore(prob, test.labels, s_test, taus)
    assert [r.drop_fraction for r in rows] == [0.0, 0.05, 0.1, 0.2]
    assert rows[0].retained == 90
    retained = [r.retained for r in rows]
    assert retained == sorted(retained, reverse=True)
    assert retained == [int((s_test <= tau).sum()) for _, tau in taus]

    want = auroc(prob[test.labels != 0], prob[test.labels == 0])
    assert rows[0].auroc == want


def test_discard_and_rescore_reports_nan_when_class_vanishes(classifier):
    # z = (x0, 0, 0), so the first coordinate alone sets the score: x0 = -8
    # is near-maximally uncertain while x0 = +8 is confident
    picky = FeedForwardModel(
        layer_sizes=(2, 3),
        params=[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],  # W0 = [[1, 0], [0, 0], [0, 0]], b0 = 0
        activation="relu",
    )
    referable = np.column_stack([np.full(20, -8.0), np.zeros(20)])
    confident = np.column_stack([np.full(40, 8.0), np.linspace(-1.0, 1.0, 40)])
    test = ExampleSet(
        np.vstack([referable, confident]),
        np.concatenate([np.zeros(20, dtype=int), np.ones(40, dtype=int)]),
    )
    val = ExampleSet(np.column_stack([np.full(30, 8.0), np.linspace(-1.0, 1.0, 30)]))
    tau = calibrate_threshold(score_set(picky, val.features, ScoreKind.MUTUAL_INFORMATION), 0.3)
    rows = discard_and_rescore(
        referable_posterior(classifier, test.features),
        test.labels,
        score_set(picky, test.features, ScoreKind.MUTUAL_INFORMATION),
        [(0.3, tau)],
    )
    assert math.isnan(rows[0].auroc)
    assert rows[0].retained == 40


def test_discard_and_rescore_validation():
    prob, labels, s_test, keep_all = np.full(4, 0.5), np.array([0, 1, 0, 1]), np.zeros(4), [(0.0, math.inf)]
    with pytest.raises(ValueError, match="labeled"):
        discard_and_rescore(prob, None, s_test, keep_all)
    with pytest.raises(ValueError, match="empty"):
        discard_and_rescore(prob[:0], labels[:0], s_test[:0], keep_all)
    # a nan score would be dropped even at tau = inf
    with pytest.raises(ValueError, match="finite"):
        discard_and_rescore(prob, labels, np.array([math.nan, 0.0, 0.0, 0.0]), keep_all)
    with pytest.raises(ValueError, match="one entry per example"):
        discard_and_rescore(prob, labels[:3], s_test, keep_all)
    # a nan threshold would keep no row; it is refused, not reported as an empty retained set
    with pytest.raises(ValueError, match="nan"):
        discard_and_rescore(prob, labels, s_test, [*keep_all, (0.1, math.nan)])
