"""Tests for the random forest regressor."""

import numpy as np
import pytest

from repro.common.errors import ReproError
from repro.ml import RandomForestRegressor


@pytest.fixture
def data():
    rng = np.random.default_rng(0)
    X = rng.random((120, 3))
    y = np.sin(4 * X[:, 0]) + X[:, 1]
    return X, y


class TestForest:
    def test_fit_predict_shapes(self, data):
        X, y = data
        f = RandomForestRegressor(n_estimators=10, seed=0).fit(X, y)
        assert f.predict(X[:7]).shape == (7,)

    def test_return_std(self, data):
        X, y = data
        f = RandomForestRegressor(n_estimators=10, seed=0).fit(X, y)
        mean, std = f.predict(X[:5], return_std=True)
        assert mean.shape == std.shape == (5,)
        assert (std >= 0).all()

    def test_seeded_determinism(self, data):
        X, y = data
        p1 = RandomForestRegressor(n_estimators=8, seed=3).fit(X, y).predict(X[:10])
        p2 = RandomForestRegressor(n_estimators=8, seed=3).fit(X, y).predict(X[:10])
        np.testing.assert_array_equal(p1, p2)

    def test_learns_signal(self, data):
        X, y = data
        f = RandomForestRegressor(n_estimators=25, seed=0).fit(X[:100], y[:100])
        pred = f.predict(X[100:])
        mse = float(np.mean((pred - y[100:]) ** 2))
        var = float(np.var(y[100:]))
        assert mse < 0.5 * var  # clearly better than predicting the mean

    def test_no_bootstrap_uniform_trees_identical_without_feature_sampling(self, data):
        X, y = data
        f = RandomForestRegressor(
            n_estimators=5, bootstrap=False, max_features=None, seed=0
        ).fit(X, y)
        _, std = f.predict(X[:10], return_std=True)
        np.testing.assert_allclose(std, 0.0, atol=1e-12)

    def test_uncertainty_higher_off_manifold(self, data):
        X, y = data
        f = RandomForestRegressor(n_estimators=30, seed=0).fit(X, y)
        _, std_in = f.predict(X[:30], return_std=True)
        far = np.full((30, 3), 5.0)  # far outside the unit cube
        _, std_out = f.predict(far, return_std=True)
        assert std_out.mean() >= std_in.mean() * 0.5  # not degenerate

    def test_predict_before_fit(self):
        with pytest.raises(ReproError):
            RandomForestRegressor().predict(np.zeros((1, 3)))

    def test_bad_n_estimators(self):
        with pytest.raises(ReproError):
            RandomForestRegressor(n_estimators=0)

    def test_bad_data(self):
        with pytest.raises(ReproError):
            RandomForestRegressor().fit(np.zeros((3, 2)), np.zeros(5))

    def test_predict_wrong_width_rejected(self, data):
        X, y = data
        f = RandomForestRegressor(n_estimators=3, seed=0).fit(X, y)
        with pytest.raises(ReproError):
            f.predict(X[:, :2])
        with pytest.raises(ReproError):
            f.predict(X[0])
