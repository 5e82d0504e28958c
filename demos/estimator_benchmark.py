"""Desk-scale estimator benchmark on synthetic multisite data.

Runs a reduced version of the simulation harness (fewer reps than the
default so it finishes in under a minute) and prints the RMSE / mean
absolute bias table across the regularization grid, including the
outcome-modeling, IPW, and doubly robust comparison estimators.

Run:  python demos/estimator_benchmark.py
"""

import time

from sitetransport import SimConfig, run_simulation

config = SimConfig(
    n_sites=8,
    experiment_intercepts=(-0.3, 0.25),
    site_size_range=(150, 400),
    reps=15,
    lambda_grid=(1e-4, 3e-2, 3e-1, 3.0, 1e8),
    seed=7,
)

start = time.time()
result = run_simulation(config)
print(f"{config.reps} repetitions x {config.n_sites} sites in {time.time() - start:.0f}s\n")

print(f"{'estimator':>16} {'lambda':>10} {'RMSE':>8} {'|bias|':>8} {'failed':>7}")
for row in result.rows:
    lam = f"{row.lam:g}" if row.lam is not None else "-"
    print(
        f"{row.estimator:>16} {lam:>10} {row.rmse:>8.4f} {row.mean_abs_bias:>8.4f}"
        f" {row.n_failed:>7}"
    )

print(
    "\nExpected pattern: the weighting estimator is least biased nearly"
    "\nunregularized, has its best RMSE at moderate regularization, and"
    "\ncollapses to the naive difference-in-means as lambda grows. Outcome"
    "\nmodeling and the doubly robust estimator degrade when site/target"
    "\noverlap is poor."
)
