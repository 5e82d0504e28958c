import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_
from scipy.spatial.distance import pdist

from sitetransport import (
    FeatureMap,
    KernelSpec,
    apply_feature_map,
    fit_feature_map,
    kernel_matrix,
    resolve_bandwidth,
)
from sitetransport.errors import (
    AllPointsIdenticalError,
    DimensionMismatchError,
    EmptySampleError,
    UnfittedMapError,
)
from sitetransport.features import (
    BANDWIDTH_SUBSAMPLE_CAP,
    _median,
    map_raw_means,
    raw_feature_names,
    resolve_kernels,
)


class TestFitFeatureMap:
    def test_population_sd_convention(self):
        # {0, 2}: mean 1, squared deviations 1 -> population sd exactly 1
        fitted = fit_feature_map(FeatureMap(standardize=True), np.array([[0.0], [2.0]]))
        assert fitted.fitted_scale[0] == pytest.approx(1.0)
        np.testing.assert_allclose(apply_feature_map(fitted, np.array([2.0])), [2.0])

    def test_constant_feature_dropped_and_recorded(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        fitted = fit_feature_map(FeatureMap(standardize=True), X)
        assert fitted.dropped == ("x1",)
        assert fitted.output_dim == 1

    def test_identity_without_standardization(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        fitted = fit_feature_map(FeatureMap(standardize=False), X)
        np.testing.assert_allclose(apply_feature_map(fitted, X), X)

    def test_empty_sample(self):
        with pytest.raises(EmptySampleError):
            fit_feature_map(FeatureMap(), np.empty((0, 2)))

    def test_interaction_index_out_of_range(self):
        with pytest.raises(DimensionMismatchError):
            fit_feature_map(FeatureMap(interactions=((0, 5),)), np.ones((3, 2)))


class TestApplyFeatureMap:
    def test_interaction_column(self):
        fitted = fit_feature_map(
            FeatureMap(interactions=((0, 1),), standardize=False),
            np.array([[1.0, 2.0], [0.0, 1.0], [2.0, 0.0]]),
        )
        np.testing.assert_allclose(apply_feature_map(fitted, np.array([1.0, 2.0])), [1.0, 2.0, 2.0])

    def test_zero_vector_maps_to_zero(self):
        fitted = fit_feature_map(
            FeatureMap(interactions=((0, 1), (1, 1)), standardize=False),
            np.array([[1.0, 2.0], [0.5, 1.0], [2.0, -1.0]]),
        )
        np.testing.assert_array_equal(apply_feature_map(fitted, np.zeros(2)), np.zeros(4))

    def test_divides_by_fitted_scale(self):
        # population sds (2, 1): columns {0,4} and {-1,1}
        X = np.array([[0.0, -1.0], [4.0, 1.0]])
        fitted = fit_feature_map(FeatureMap(standardize=True), X)
        np.testing.assert_allclose(fitted.fitted_scale, [2.0, 1.0])
        np.testing.assert_allclose(apply_feature_map(fitted, np.array([4.0, 3.0])), [2.0, 3.0])

    def test_unfitted_raises(self):
        with pytest.raises(UnfittedMapError):
            apply_feature_map(FeatureMap(), np.ones(2))

    def test_dropped_features_leave_the_kept_columns_in_order(self):
        # x2 is constant zero, so x2 and x1*x2 are dropped between kept columns
        rng = np.random.default_rng(6)
        X = np.column_stack([rng.normal(size=30), np.zeros(30), rng.normal(2.0, 1.0, 30)])
        fitted = fit_feature_map(FeatureMap(interactions=((0, 2), (0, 1), (2, 2))), X)
        assert fitted.dropped == ("x2", "x1*x2")
        sample = rng.normal(size=(7, 3))
        kept = np.column_stack([sample[:, 0], sample[:, 2], sample[:, 0] * sample[:, 2], sample[:, 2] * sample[:, 2]])
        expected = kept / fitted.fitted_scale
        assert np.array_equal(apply_feature_map(fitted, sample), expected)
        assert np.array_equal(apply_feature_map(fitted, sample[4]), expected[4])

    @settings(max_examples=30, deadline=None)
    @given(
        st_.floats(-10, 10, allow_nan=False),
        st_.floats(-10, 10, allow_nan=False),
        st_.floats(-3, 3, allow_nan=False),
    )
    def test_linear_without_interactions(self, a, b, c):
        rng = np.random.default_rng(0)
        fitted = fit_feature_map(FeatureMap(standardize=True), rng.normal(size=(20, 2)))
        x = np.array([a, b])
        y = rng.normal(size=2)
        lhs = apply_feature_map(fitted, x + c * y)
        rhs = apply_feature_map(fitted, x) + c * apply_feature_map(fitted, y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestMapRawMeans:
    def test_raw_names_are_covariates_then_products(self):
        assert raw_feature_names(3, ((0, 2), (1, 1))) == ("x1", "x2", "x3", "x1*x3", "x2*x2")

    def test_mean_of_the_mapped_rows(self):
        # x3 is constant zero, so x3 and x1*x3 are dropped; the rest are scaled
        rng = np.random.default_rng(4)
        X = np.column_stack([rng.normal(2.0, 3.0, 40), rng.normal(-1.0, 0.5, 40), np.zeros(40)])
        fitted = fit_feature_map(FeatureMap(interactions=((0, 2), (0, 1)), standardize=True), X)
        assert fitted.dropped == ("x3", "x1*x3")
        sample = rng.normal(1.0, 2.0, size=(25, 3))
        raw = np.concatenate([sample.mean(axis=0), [(sample[:, 0] * sample[:, 2]).mean()],
                              [(sample[:, 0] * sample[:, 1]).mean()]])
        np.testing.assert_allclose(
            map_raw_means(fitted, raw), apply_feature_map(fitted, sample).mean(axis=0), rtol=1e-12
        )

    def test_length_must_be_the_raw_feature_count(self):
        fitted = fit_feature_map(FeatureMap(interactions=((0, 1),)), np.random.default_rng(1).normal(size=(9, 2)))
        with pytest.raises(DimensionMismatchError, match="3 raw features"):
            map_raw_means(fitted, np.zeros(2))


class TestKernels:
    def test_rbf_at_zero_distance(self):
        spec = KernelSpec("rbf", bandwidth=1.5)
        assert kernel_matrix(spec, np.array([1.0, 2.0]), np.array([1.0, 2.0]))[0, 0] == pytest.approx(1.0)

    def test_linear_dot_product(self):
        spec = KernelSpec("linear")
        assert kernel_matrix(spec, np.array([1.0, 2.0]), np.array([3.0, 4.0]))[0, 0] == pytest.approx(11.0)

    def test_linear_kernel_takes_no_bandwidth(self):
        with pytest.raises(ValueError, match="a linear kernel takes no bandwidth"):
            KernelSpec("linear", bandwidth=0.5)

    @pytest.mark.parametrize("bandwidth", [np.inf, np.nan, 0.0, -1.0], ids=["inf", "nan", "zero", "negative"])
    def test_bandwidth_must_be_finite_and_positive(self, bandwidth):
        # an infinite bandwidth used to be accepted: its RBF Gram is all ones
        with pytest.raises(ValueError, match=f"bandwidth must be a finite positive number, got {bandwidth}"):
            KernelSpec("rbf", bandwidth=bandwidth)

    def test_identical_unresolved_kernels_share_one_resolution(self, monkeypatch):
        from sitetransport import features

        calls = []
        real = features.resolve_bandwidth
        monkeypatch.setattr(features, "resolve_bandwidth", lambda X: calls.append(X) or real(X))
        rng = np.random.default_rng(5)
        samples = [rng.normal(size=(30, 2)), rng.normal(1.0, 1.0, size=(40, 2))]
        given = KernelSpec("rbf", 0.7)
        kernels = resolve_kernels([KernelSpec("rbf"), KernelSpec("linear"), given, KernelSpec("rbf")], samples)
        bandwidth = real(np.vstack(samples))
        assert kernels == (KernelSpec("rbf", bandwidth), KernelSpec("linear"), given, KernelSpec("rbf", bandwidth))
        assert len(calls) == 1
        assert resolve_kernels(kernels, samples) == kernels and len(calls) == 1

    def test_rbf_characteristic_distance(self):
        # ||x - y||^2 = 2 sigma^2  ->  exp(-1)
        sigma = 0.7
        x = np.array([0.0])
        y = np.array([np.sqrt(2.0) * sigma])
        assert kernel_matrix(KernelSpec("rbf", sigma), x, y)[0, 0] == pytest.approx(np.exp(-1.0))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            kernel_matrix(KernelSpec("linear"), np.ones(2), np.ones(3))

    def test_gram_matrices_are_psd(self):
        rng = np.random.default_rng(1)
        for spec in (KernelSpec("linear"), KernelSpec("rbf", 1.0), KernelSpec("rbf", 0.3)):
            for _ in range(5):
                X = rng.normal(size=(20, 4))
                K = kernel_matrix(spec, X)
                np.testing.assert_allclose(K, K.T, atol=1e-12)
                eigs = np.linalg.eigvalsh(K)
                assert eigs[0] >= -1e-8 * np.trace(K)

    def test_rbf_values_in_unit_interval(self):
        rng = np.random.default_rng(2)
        K = kernel_matrix(KernelSpec("rbf", 0.8), rng.normal(size=(15, 3)))
        assert np.all(K > 0.0) and np.all(K <= 1.0 + 1e-15)


class TestOutsideInputErrors:
    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: KernelSpec("poly"), ValueError, "unknown kernel kind 'poly'"),
            (lambda: kernel_matrix(KernelSpec("rbf"), np.ones((2, 2))), ValueError,
             "RBF bandwidth unresolved; call resolve_bandwidth first"),
            (lambda: resolve_bandwidth([[1.0, 2.0]]), EmptySampleError, "bandwidth resolution needs at least two points"),
            (lambda: apply_feature_map(fit_feature_map(FeatureMap(), np.eye(3)), np.ones((2, 2))),
             DimensionMismatchError, "expected 3 raw covariates, got 2"),
            (lambda: FeatureMap().output_dim, UnfittedMapError, "feature map has not been fitted"),
        ],
        ids=["poly-kernel", "unresolved-rbf", "one-point-bandwidth", "wrong-width", "unfitted-output-dim"],
    )
    def test_a_bad_input_names_what_is_wrong(self, call, error, message):
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message


class TestResolveBandwidth:
    def test_single_pair(self):
        assert resolve_bandwidth(np.array([[0.0], [2.0]])) == pytest.approx(2.0)

    def test_three_points_median(self):
        # pairwise distances {1, 3, 2} -> median 2
        assert resolve_bandwidth(np.array([[0.0], [1.0], [3.0]])) == pytest.approx(2.0)

    def test_one_dimensional_sample_is_scalar_observations(self):
        # three observations 0, 1, 3, not one point in three dimensions
        assert resolve_bandwidth(np.array([0.0, 1.0, 3.0])) == 2.0

    @pytest.mark.parametrize("n", [7, BANDWIDTH_SUBSAMPLE_CAP + 31], ids=["small", "past-cap"])
    def test_one_dimensional_sample_equals_its_column(self, n):
        x = np.random.default_rng(n).normal(size=n)
        assert resolve_bandwidth(x).hex() == resolve_bandwidth(x[:, None]).hex()
        assert resolve_kernels([KernelSpec("rbf")], [x]) == resolve_kernels([KernelSpec("rbf")], [x[:, None]])

    def test_identical_points(self):
        with pytest.raises(AllPointsIdenticalError):
            resolve_bandwidth(np.ones((3000, 2)))

    def test_subsample_cap_keeps_result_stable(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(5000, 2))
        bw = resolve_bandwidth(X)
        assert 0.5 < bw < 5.0

    def test_past_the_cap_the_bandwidth_ignores_row_order(self):
        # a site's rows stacked on a target's, as a kernel-mode site pools them
        rng = np.random.default_rng(10)
        X = np.vstack([rng.normal(0.0, 1.0, size=(400, 3)), rng.normal(1.5, 0.5, size=(2000, 3))])
        bw = resolve_bandwidth(X)
        for order in (rng.permutation(X.shape[0]), np.arange(X.shape[0])[::-1]):
            assert resolve_bandwidth(X[order]).hex() == bw.hex()

    def test_majority_duplicates_still_positive(self):
        X = np.vstack([np.zeros((10, 1)), np.ones((2, 1))])
        assert resolve_bandwidth(X) > 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_sample_rejected(self, bad):
        # NaN used to give a nan bandwidth, inf a finite one
        X = np.random.default_rng(4).normal(size=(50, 3))
        X[17, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            resolve_bandwidth(X)


def _median_by_numpy(sample):
    """The median heuristic as ``np.median`` computes it, subsample included."""
    X = np.asarray(sample, dtype=float)
    if X.shape[0] > BANDWIDTH_SUBSAMPLE_CAP:
        X = X[np.lexsort(X.T)[np.linspace(0, X.shape[0] - 1, BANDWIDTH_SUBSAMPLE_CAP).round().astype(int)]]
    d = pdist(X)
    med = np.median(d)
    return float(med if med > 0.0 else np.median(d[d > 0]))


class TestMedianSelection:
    """One selection gives the bits of ``np.median``."""

    @pytest.mark.parametrize(
        "values",
        [
            np.random.default_rng(5).normal(size=101),
            np.random.default_rng(6).normal(size=100),
            np.random.default_rng(7).integers(0, 3, size=201).astype(float),
            np.random.default_rng(8).integers(0, 3, size=200).astype(float),
            np.array([2.5, 2.5]),
            np.array([3.0]),
        ],
        ids=["odd", "even", "ties-odd", "ties-even", "pair", "single"],
    )
    def test_equals_numpy_median(self, values):
        expected = np.median(values)
        assert _median(values.copy()).hex() == float(expected).hex()

    @pytest.mark.parametrize(
        "n_points", [3, 4, 5, 6], ids=["3-distances", "6-distances", "10-distances", "15-distances"]
    )
    def test_bandwidth_equals_numpy_median(self, n_points):
        X = np.random.default_rng(n_points).normal(size=(n_points, 2))
        assert resolve_bandwidth(X).hex() == _median_by_numpy(X).hex()

    @pytest.mark.parametrize(
        "copies, others, expected",
        [(6, [1.0, 3.0], 2.0), (11, [1.0, 2.0, 5.0, 11.0], 4.5)],
        ids=["13-positive", "50-positive"],
    )
    def test_zero_median_branch_equals_numpy_median(self, copies, others, expected):
        # most pairs are copies of the origin; the positive distances have
        # their middle at 2 (odd count) and between 4 and 5 (even count)
        X = np.concatenate([np.zeros(copies), others])[:, None]
        assert np.median(pdist(X)) == 0.0
        assert resolve_bandwidth(X) == expected
        assert resolve_bandwidth(X).hex() == _median_by_numpy(X).hex()

    def test_past_subsample_cap_equals_numpy_median(self):
        X = np.random.default_rng(9).normal(size=(BANDWIDTH_SUBSAMPLE_CAP + 777, 3))
        assert resolve_bandwidth(X).hex() == _median_by_numpy(X).hex()
