import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dpnet.dirichlet import (
    ConcentrationParams,
    _alpha_rows,
    density_grid,
    digamma,
    logits_to_alpha,
    mutual_information,
)
from dpnet.pipeline import ScoreKind, _block_scores

EULER_MASCHERONI = 0.5772156649015329

# Independent digamma oracle: recurrence up to x >= 50, then a 10-term
# asymptotic tail with exact Bernoulli coefficients B_{2n}/(2n).
_ORACLE_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
    -3617.0 / 8160.0,
    43867.0 / 14364.0,
    -174611.0 / 6600.0,
)


def digamma_oracle(x: float) -> float:
    acc = 0.0
    while x < 50.0:
        acc -= 1.0 / x
        x += 1.0
    r = 1.0 / (x * x)
    tail = 0.0
    for c in reversed(_ORACLE_TAIL):
        tail = r * (c + tail)
    return acc + math.log(x) - 0.5 / x - tail


def test_digamma_euler_mascheroni():
    assert digamma(1.0) == pytest.approx(-EULER_MASCHERONI, abs=1e-10)


def test_digamma_against_series_oracle():
    for x in [1e-3, 0.02, 0.5, 1.0, 2.0, 5.999, 6.0, 10.5, 123.4, 1e4, 1e6]:
        assert abs(digamma(x) - digamma_oracle(x)) <= 1e-10, x
    xs = np.logspace(-3, 6, 500)
    worst = max(abs(digamma(float(x)) - digamma_oracle(float(x))) for x in xs)
    assert worst <= 1e-10


def test_digamma_recurrence_identity():
    rng = np.random.default_rng(11)
    for x in 10 ** rng.uniform(-3, 2, 200):
        assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, rel=1e-10)


def test_digamma_rejects_nonpositive():
    for bad in (0.0, -1.0, -0.5, math.nan):
        with pytest.raises(ValueError):
            digamma(bad)
    with pytest.raises(ValueError):
        digamma(np.array([1.0, -2.0]))


def test_digamma_array_matches_scalar():
    xs = np.array([0.001, 0.7, 3.0, 6.0, 42.0, 1e5])
    out = digamma(xs)
    assert out.shape == xs.shape
    for x, v in zip(xs, out):
        assert v == pytest.approx(digamma(float(x)), abs=1e-14)


def test_logits_to_alpha_basic():
    params = logits_to_alpha([0.0, 0.0, 0.0])
    assert np.array_equal(params.alpha, np.ones(3))
    assert params.precision == pytest.approx(3.0)


def test_logits_to_alpha_clamps_extremes():
    params = logits_to_alpha([100.0, 0.0])
    assert params.alpha[0] == pytest.approx(math.exp(30.0))
    assert params.alpha[1] == pytest.approx(1.0)
    low = logits_to_alpha([-1e9, 0.0])
    assert low.alpha[0] == pytest.approx(math.exp(-30.0))


def test_logits_to_alpha_rejects_bad_input():
    with pytest.raises(ValueError):
        logits_to_alpha([1.0])
    with pytest.raises(ValueError):
        logits_to_alpha([math.nan, 0.0])
    with pytest.raises(ValueError):
        logits_to_alpha([[0.0, 1.0]])


def test_alpha_positive_finite_for_random_logits():
    rng = np.random.default_rng(3)
    for _ in range(100):
        k = int(rng.integers(2, 8))
        params = logits_to_alpha(rng.normal(0, 50, k))
        assert np.all(params.alpha > 0) and np.all(np.isfinite(params.alpha))
        assert params.precision == pytest.approx(params.alpha.sum(), rel=1e-12)


@settings(max_examples=60, deadline=None, database=None)
@given(
    Z=hnp.arrays(
        float,
        st.tuples(st.integers(1, 40), st.integers(2, 6)),
        # logits inside the +-30 clamp, just past it, and far beyond it
        elements=st.floats(-45.0, 45.0) | st.floats(-1e300, 1e300),
    )
)
@example(Z=np.array([[30.0, -30.0, 0.0], [30.5, -1e9, 29.999], [1e300, -1e300, 45.0]]))
def test_scalar_api_is_the_batched_core_row_by_row(Z):
    alpha = _alpha_rows(Z)
    precision = alpha.sum(axis=1)
    mi, _ = _block_scores(Z, ScoreKind.MUTUAL_INFORMATION)
    for i, z in enumerate(Z):
        params = logits_to_alpha(z)
        assert np.array_equal(params.alpha, alpha[i])
        assert params.precision == precision[i]
        assert mutual_information(params) == mi[i]


def test_density_normalizes_on_lattice():
    # midpoint quadrature over the grid's own cells, area 1/r^2 each
    r = 400
    for alpha in ([1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [5.0, 1.0, 1.0], [1.5, 3.0, 2.0]):
        _, densities = density_grid(ConcentrationParams.from_alpha(alpha), r)
        assert densities.sum() / r**2 == pytest.approx(1.0, abs=1e-2), alpha


def test_density_grid_uniform_constant():
    points, densities = density_grid(ConcentrationParams.from_alpha([1.0, 1.0, 1.0]), 40)
    assert points.shape == (40 * 39 // 2, 3)
    assert np.allclose(densities, 2.0, atol=1e-12)
    assert np.allclose(points.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(points > 0)


def test_density_grid_peaked_alpha_argmax_near_corner():
    points, densities = density_grid(ConcentrationParams.from_alpha([5.0, 1.0, 1.0]), 24)
    best = points[int(densities.argmax())]
    # the winning lattice point is the one closest to the (1, 0, 0) corner
    corner = np.array([1.0, 0.0, 0.0])
    dists = np.linalg.norm(points - corner, axis=1)
    assert np.array_equal(best, points[int(dists.argmin())])


def test_density_increases_toward_corners_for_sparse_alpha():
    # lattice points with mu1 == mu2 lie on the line from the third corner
    # through the centroid to the midpoint of the opposite edge
    points, densities = density_grid(ConcentrationParams.from_alpha([0.5, 0.5, 0.5]), 60)
    diagonal = points[:, 0] == points[:, 1]
    a, values = points[diagonal, 0], densities[diagonal]
    toward_corner = values[a < 1 / 3][::-1]  # centroid first, corner last
    toward_edge = values[a > 1 / 3]
    assert toward_corner.size > 5 and toward_edge.size > 5
    assert np.all(np.diff(toward_corner) > 0)
    assert np.all(np.diff(toward_edge) > 0)


def test_density_grid_requires_three_classes():
    with pytest.raises(ValueError):
        density_grid(ConcentrationParams.from_alpha([1.0, 1.0]), 20)
    with pytest.raises(ValueError):
        density_grid(ConcentrationParams.from_alpha([1.0, 1.0, 1.0]), 1)


def test_mutual_information_flat_dirichlet_closed_forms():
    mi3 = mutual_information(ConcentrationParams.from_alpha([1.0, 1.0, 1.0]))
    assert mi3 == pytest.approx(math.log(3.0) - 5.0 / 6.0, abs=1e-9)
    mi2 = mutual_information(ConcentrationParams.from_alpha([1.0, 1.0]))
    assert mi2 == pytest.approx(math.log(2.0) - 0.5, abs=1e-9)


def symmetric_mi_oracle(total: float, k: int) -> float:
    # closed form for alpha = (total/k, ..., total/k)
    return digamma_oracle(total / k + 1.0) - digamma_oracle(total + 1.0) + math.log(k)


def test_mutual_information_symmetric_ladder():
    k = 3
    totals = [0.01, 0.1, 1.0, 10.0, 100.0, 1000.0]
    values = []
    for s in totals:
        params = ConcentrationParams.from_alpha([s / k] * k)
        mi = mutual_information(params)
        assert mi == pytest.approx(symmetric_mi_oracle(s, k), abs=1e-12)
        values.append(mi)
    assert all(b < a for a, b in zip(values, values[1:]))  # strictly decreasing in total
    near_flat = mutual_information(ConcentrationParams.from_alpha([0.001 / k] * k))
    assert abs(near_flat - math.log(k)) < 0.01
    sharp = mutual_information(ConcentrationParams.from_alpha([3000.0 / k] * k))
    assert sharp < 0.002


def test_mutual_information_bounds_random():
    rng = np.random.default_rng(21)
    for _ in range(200):
        k = int(rng.integers(2, 7))
        params = logits_to_alpha(rng.normal(0, 10, k))
        mi = mutual_information(params)
        assert mi >= -1e-12
        assert mi <= math.log(k) + 1e-9


def test_concentration_params_validation():
    with pytest.raises(ValueError):
        ConcentrationParams.from_alpha([1.0, -1.0])
    with pytest.raises(ValueError):
        ConcentrationParams.from_alpha([0.0, 1.0])
    params = ConcentrationParams.from_alpha([2.0, 3.0])
    assert params.num_classes == 2
    with pytest.raises(ValueError):
        params.alpha[0] = 5.0  # read-only view
