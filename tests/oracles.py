"""Independent reference solvers used to check the QP engine and the
balancing programs. These deliberately avoid the production code paths."""

import itertools

import numpy as np


def projected_gradient_box(P, q, lo, hi, iters=4000):
    """Accelerated projected gradient for min 1/2 x'Px + q'x s.t. lo <= x <= hi."""
    P = np.asarray(P, dtype=float)
    q = np.asarray(q, dtype=float)
    L = max(float(np.linalg.eigvalsh(P)[-1]), 1e-12)
    step = 1.0 / L
    x = np.clip(np.zeros_like(q), lo, hi)
    v = x.copy()
    t = 1.0
    for _ in range(iters):
        grad = P @ v + q
        x_new = np.clip(v - step * grad, lo, hi)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        v = x_new + ((t - 1.0) / t_new) * (x_new - x)
        x, t = x_new, t_new
    return x


def active_set_enumeration(P, q, A, l, u):
    """Exact brute force for small m: enumerate which constraints are active
    at their lower/upper bound, solve the equality-constrained KKT system,
    and keep the best primal-dual feasible candidate."""
    P = np.asarray(P, dtype=float)
    q = np.asarray(q, dtype=float)
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    best_x, best_obj = None, np.inf
    for pattern in itertools.product((0, 1, 2), repeat=m):  # 0 inactive, 1 lower, 2 upper
        rows = [i for i, p in enumerate(pattern) if p != 0]
        bounds = np.array([l[i] if pattern[i] == 1 else u[i] for i in rows])
        if any(not np.isfinite(b) for b in bounds):
            continue
        Aa = A[rows]
        k = len(rows)
        kkt = np.block([[P, Aa.T], [Aa, np.zeros((k, k))]]) if k else P
        rhs = np.concatenate([-q, bounds]) if k else -q
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            continue
        x = sol[:n]
        mult = sol[n:]
        Ax = A @ x
        if np.any(Ax < l - 1e-8) or np.any(Ax > u + 1e-8):
            continue
        # dual feasibility: at the lower bound the multiplier must push up,
        # at the upper bound it must push down (sign convention of Ax = b rows)
        ok = True
        for j, i in enumerate(rows):
            if l[i] == u[i]:
                continue  # equality rows: any sign
            if pattern[i] == 1 and mult[j] > 1e-8:
                ok = False
                break
            if pattern[i] == 2 and mult[j] < -1e-8:
                ok = False
                break
        if not ok:
            continue
        obj = 0.5 * x @ P @ x + q @ x
        if obj < best_obj - 1e-12:
            best_obj, best_x = obj, x
    return best_x, best_obj


def balance_objective(site, target_mean, gamma, lam, phi=None):
    """Direct evaluation of the linear balancing objective (no QP plumbing)."""
    X = site.covariates if phi is None else phi
    z = site.treatment
    pi = site.propensity
    n = site.n
    treated_term = (z * gamma) @ X / (n * pi) - target_mean
    w = (z - pi) / (pi * (1.0 - pi))
    control_term = (w * gamma) @ X / n
    ridge = lam * np.sum(gamma**2 * (z / pi + (1.0 - z) / (1.0 - pi)))
    return float(treated_term @ treated_term + control_term @ control_term + ridge)


def bootstrap_loop(site, target, feature_map, n_boot, seed, doubly_robust=False, ratio=None):
    """The arm-stratified bootstrap fitted replicate by replicate, each arm by
    one pivoted QR, each replicate scored on the whole target design. Returns
    the bootstrap SE and the number of replicates in which either arm's fit
    dropped collinear columns. With ``doubly_robust`` the replicate also
    refits the density ratio on the raw covariates (target held fixed), or,
    given a ``ratio`` callable, weights by that ratio held fixed."""
    from sitetransport.errors import SiteTransportError
    from sitetransport.estimators import density_ratio_fit
    from sitetransport.features import apply_feature_map
    from sitetransport.regression import fit_least_squares

    def design(X):
        return np.column_stack([np.ones(len(X)), apply_feature_map(feature_map, X)])

    site_design, target_design = design(site.covariates), design(target.sample)
    y, pi = site.outcomes, site.propensity
    idx1 = np.flatnonzero(site.treatment == 1)
    idx0 = np.flatnonzero(site.treatment == 0)
    if doubly_robust:
        r = (ratio or density_ratio_fit(site.covariates, target.sample, feature_map))(site.covariates)
    rng = np.random.default_rng(seed)
    reps, n_dropped = [], 0
    for _ in range(n_boot):
        b1, b0 = rng.choice(idx1, size=idx1.size), rng.choice(idx0, size=idx0.size)
        f1 = fit_least_squares(site_design[b1], y[b1])
        f0 = fit_least_squares(site_design[b0], y[b0])
        n_dropped += bool(f1.dropped or f0.dropped)
        m1 = target_design @ f1.coefficients
        m0 = target_design @ f0.coefficients
        if not doubly_robust:
            reps.append(np.mean(m1 - m0))
            continue
        rows = np.concatenate([b1, b0])
        zb = np.concatenate([np.ones(b1.size), np.zeros(b0.size)])
        if ratio is not None:
            rb = r[rows]
        else:
            try:
                rb = density_ratio_fit(site.covariates[rows], target.sample, feature_map)(site.covariates[rows])
            except SiteTransportError:
                rb = r[rows]
        resid1 = y[rows] - site_design[rows] @ f1.coefficients
        resid0 = y[rows] - site_design[rows] @ f0.coefficients
        aug1 = np.mean(rb * zb * resid1 / pi) + np.mean(m1)
        aug0 = np.mean(rb * (1 - zb) * resid0 / (1 - pi)) + np.mean(m0)
        reps.append(aug1 - aug0)
    return float(np.std(reps, ddof=1)), n_dropped
