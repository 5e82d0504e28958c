"""The regularization trade-off curve: covariate imbalance vs. ESS.

Sweeps the balancing program over a logarithmic lambda grid (warm-starting
each solve from the previous one) and prints the averaged trade-off table,
the same analysis used to pick a production lambda.

Run:  python demos/lambda_tradeoff.py
"""

import numpy as np

from sitetransport import (
    FeatureMap,
    SiteDataset,
    TargetSpec,
    fit_feature_map,
    lambda_sweep,
)

rng = np.random.default_rng(11)

d = 6
sites = []
for j in range(5):
    n = int(rng.integers(150, 350))
    X = rng.normal(rng.normal(0, 0.5, d), 1.0, size=(n, d))
    z = (rng.random(n) < 0.5).astype(int)
    y = X @ rng.normal(0.2, 0.3, d) + 0.4 * z + rng.normal(0, 0.5, n)
    sites.append(SiteDataset(site_id=f"s{j}", covariates=X, treatment=z, outcomes=y))

target = TargetSpec.from_sample(rng.normal(0.4, 1.0, size=(800, d)))
fmap = fit_feature_map(
    FeatureMap(standardize=True),
    np.vstack([s.covariates for s in sites] + [target.sample]),
)

grid = np.logspace(-4, 2, 13).tolist() + [0.03]
rows = lambda_sweep(sites, target, grid, cate_map=fmap, prognostic_map=fmap)

avg_n = np.mean([s.n for s in sites])
print(f"{'lambda':>10} {'target imb.':>12} {'arm imb.':>10} {'ESS':>8} {'ESS %':>7}")
for row in rows:
    print(
        f"{row.lam:>10.4g} {row.cate_imbalance:>12.4f} {row.prognostic_imbalance:>10.4f}"
        f" {row.ess:>8.1f} {100 * row.ess / avg_n:>6.1f}%"
    )

print(
    "\nReading the table: moving down (larger lambda) trades balance for"
    "\neffective sample size. A production choice sits where most of the"
    "\nimbalance reduction is realized before ESS collapses."
)
