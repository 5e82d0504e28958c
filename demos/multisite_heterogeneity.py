"""Compositional vs. contextual effect variation in a multisite trial.

Sites share one CATE function but differ in their covariate mix AND carry
site-specific intercept shifts. Transporting every site to the pooled
population removes the compositional part; the Q-profile heterogeneity
estimates before and after transport quantify how much variation the
observed covariates explain.

Run:  python demos/multisite_heterogeneity.py
"""

import numpy as np

from sitetransport import (
    SiteEffectSet,
    TransportConfig,
    UnitRecord,
    estimate_theta,
    pseudo_r2,
    transport_all,
    validate_dataset,
)

rng = np.random.default_rng(3)

# --- ten sites: shared slope, site-specific covariate centers + intercepts ---
d = 4
slope = np.array([0.6, -0.3, 0.2, 0.0])
records = []
for j in range(10):
    n = int(rng.integers(200, 400))
    center = rng.normal(0.0, 0.6, d)          # compositional differences
    context = rng.normal(0.0, 0.05)           # contextual differences (small)
    X = rng.normal(center, 1.0, size=(n, d))
    z = (rng.random(n) < 0.5).astype(int)
    y = X @ np.array([0.4, 0.1, -0.2, 0.3]) + z * (X @ slope + context)
    y += rng.normal(0, 0.4, n)
    records += [
        UnitRecord(tuple(X[i]), int(z[i]), float(y[i]), f"site{j:02d}") for i in range(n)
    ]

sites = validate_dataset(records)

# --- transport every site to the pooled population ---------------------------
# lambda sits at the low end of the trade-off curve: these sites are small,
# so aggressive balancing is affordable (see demos/lambda_tradeoff.py)
config = TransportConfig(estimators=("naive", "weighting"), lam=0.002)
report = transport_all(sites, target=None, config=config)  # None = overall population

results = [r for r in report.results if "weighting" in r.estimates]  # the sites whose weights solved
naive = [r.estimates["naive"] for r in results]
weighted = [r.estimates["weighting"] for r in results]
print(f"{'site':>8} {'untransported':>14} {'transported':>12} {'ESS(t)':>8}")
for nv, wt, res in zip(naive, weighted, results):
    print(
        f"{nv.site_id:>8} {nv.estimate:>+14.3f} {wt.estimate:>+12.3f}"
        f" {res.weights.ess:>8.1f}"
    )

# --- how much variation do unit-level covariates explain? --------------------
untr = estimate_theta(SiteEffectSet([e.estimate for e in naive], [e.std_error for e in naive]))
tr = estimate_theta(
    SiteEffectSet([e.estimate for e in weighted], [e.std_error for e in weighted])
)
print(f"\nheterogeneity sd, untransported: {untr.theta_sd:.4f}  CI {untr.ci_sd}")
print(f"heterogeneity sd, transported:   {tr.theta_sd:.4f}  CI {tr.ci_sd}")
if untr.theta_sd > 0:
    print(f"pseudo-R2 (share explained by composition): {pseudo_r2(untr.theta_sd, tr.theta_sd):.3f}")
