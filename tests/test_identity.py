"""One equality rule per kind of object.

An object that holds arrays compares and hashes by identity: its generated
``==`` would compare arrays element-wise (and raise), and its generated hash
would hash them (and raise). Records and configurations keep value equality,
so they can serve as keys.
"""

from dataclasses import replace

import numpy as np
import pytest

from sitetransport import (
    BalanceProblem,
    FeatureMap,
    KernelSpec,
    QpSettings,
    SimConfig,
    TargetSpec,
    TransportConfig,
    UnitRecord,
    build_populations,
    fit_feature_map,
    generate_rep,
    imbalance_report,
    transport_all,
)
from sitetransport.balance import SweepRow, build_linear_qp, solve_weights
from sitetransport.estimators import TransportEstimate, density_ratio_fit
from sitetransport.heterogeneity import SiteEffectSet
from sitetransport.sim import SimResult, SimTableRow

from conftest import random_site


@pytest.fixture(scope="module")
def holders():
    """One object of each class that holds arrays, built by the package."""
    rng = np.random.default_rng(7)
    sites = [random_site(rng, n=40, site_id=s) for s in ("a", "b")]
    target = TargetSpec.from_sample(rng.normal(0.3, 1.0, size=(60, 3)))
    fmap = fit_feature_map(FeatureMap(), np.vstack([s.covariates for s in sites] + [target.sample]))
    prob = BalanceProblem(site=sites[0], target=target, lam=0.1, cate_map=fmap, prognostic_map=fmap)
    ws = solve_weights(prob)
    report = transport_all(sites, target, TransportConfig(estimators=("naive", "weighting")))
    ratio = density_ratio_fit(sites[0].covariates, target.sample, fmap)
    config = SimConfig(n_sites=4, experiment_intercepts=(0.0, 0.3), site_size_range=(40, 60))
    populations = build_populations(config)
    return {
        "SiteDataset": sites[0],
        "TargetSpec": target,
        "FeatureMap": fmap,
        "BalanceProblem": prob,
        "_SiteProgram": prob._program,
        "QuadraticProgram": build_linear_qp(prob),
        "QpSolution": ws.solver,
        "WeightSolution": ws,
        "ImbalanceReport": imbalance_report(prob, ws.gamma),
        "RegressionFit": ratio.fit,
        "DensityRatio": ratio,
        "SiteEffectSet": SiteEffectSet(np.array([0.1, 0.4]), np.array([0.2, 0.3])),
        "SiteResult": report.results[0],
        "TransportReport": report,
        "SitePopulation": populations[0],
        "SimReplicate": generate_rep(config, 0, populations),
    }


HOLDERS = [
    "SiteDataset", "TargetSpec", "FeatureMap", "BalanceProblem", "_SiteProgram", "QuadraticProgram",
    "QpSolution", "WeightSolution", "ImbalanceReport", "RegressionFit", "DensityRatio", "SiteEffectSet",
    "SiteResult", "TransportReport", "SitePopulation", "SimReplicate",
]


@pytest.mark.parametrize("name", HOLDERS)
def test_array_holders_compare_and_hash_by_identity(holders, name):
    obj = holders[name]
    assert type(obj).__name__ == name
    twin = replace(obj)  # every field the same object
    assert obj == obj and not obj != obj
    assert obj != twin and not obj == twin
    assert hash(obj) == object.__hash__(obj)
    assert len({obj, twin, obj}) == 2


def test_feature_maps_fitted_on_different_scales_are_unequal(rng):
    X = rng.normal(size=(50, 3))
    on_x, on_3x = fit_feature_map(FeatureMap(), X), fit_feature_map(FeatureMap(), 3.0 * X)
    assert (on_x.output_dim, on_x.dropped) == (on_3x.output_dim, on_3x.dropped)
    np.testing.assert_allclose(on_3x.fitted_scale, 3.0 * on_x.fitted_scale)
    assert on_x != on_3x and len({on_x, on_3x}) == 2
    assert fit_feature_map(FeatureMap(), X) != on_x  # identity, even on the same sample


def _values():
    """Pairs of equal records and configurations, each built twice."""
    row = SimTableRow("weighting", 0.03, 0.1, 0.05, 0)
    return [
        lambda: UnitRecord((1.0, -0.0), 1, 0.5, "a"),
        lambda: KernelSpec("rbf", 0.5),
        lambda: QpSettings(eps_abs=1e-8),
        lambda: TransportConfig(
            estimators=("naive",), lam=0.1, cate_kernel=KernelSpec("linear"), prognostic_kernel=KernelSpec("rbf")
        ),
        lambda: SimConfig(reps=3, seed=4),
        lambda: TransportEstimate(0.2, 0.1, 30.0, 28.0, "weighting", "a", ("note",)),
        lambda: SweepRow(0.03, 0.1, 0.2, 40.0, 0),
        lambda: SimTableRow("weighting", 0.03, 0.1, 0.05, 0),
        lambda: SimResult((row,), 3, 4, {("weighting", 0.03): np.zeros((3, 4))}),
    ]


@pytest.mark.parametrize("build", _values(), ids=lambda build: type(build()).__name__)
def test_records_and_configs_keep_value_equality(build):
    a, b = build(), build()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_an_equal_kernel_spec_finds_the_kept_target_term():
    target = TargetSpec.from_sample(np.arange(6.0).reshape(3, 2))
    assert target.memo(KernelSpec("rbf", 1.5), lambda: 2.0) == 2.0
    assert target.memo(KernelSpec("rbf", 1.5), lambda: pytest.fail("computed twice")) == 2.0
