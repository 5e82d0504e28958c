"""Balancing-weight programs for one site against a target distribution.

Two formulations of the same convex program: a linear-feature QP whose
quadratic term is kept in factored form (cheap to solve at scale), and a
kernelized QP built from Gram matrices. Both carry the three stability
constraints: treated weights sum to n1, control weights sum to n0, and all
weights are nonnegative.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .blas import single_threaded_blas
from .data import SiteDataset, TargetSpec
from .errors import (
    AllZeroWeightsError,
    ConfigError,
    DimensionMismatchError,
    ModeMismatchError,
    SolverFailedError,
)
from .features import FeatureMap, KernelSpec, apply_feature_map, kernel_matrix, map_raw_means, resolve_kernels
from .qp import SOLVED, QpSettings, QpSolution, QuadraticProgram, _psd_by_construction, as_number, solve_qp

# Weight solutions flag sites whose effective sample size drops below this
# share of the site size.
LOW_ESS_SHARE = 0.1
# A kernel-mode site program forms the n x m cross Gram's row means and the
# m x m target Gram's mean over row blocks of at most this many entries
# (8 MB), never the whole Gram.
_GRAM_BLOCK_DOUBLES = 1 << 20


def check_lambda(lam) -> float:
    """``lam`` as a float, or ConfigError naming it unless it is a finite nonnegative number (not a bool)."""
    value = as_number(lam)
    if not 0.0 <= value < np.inf:
        raise ConfigError(f"lambda must be a finite nonnegative number, got {lam!r}")
    return value


@dataclass(frozen=True, eq=False)
class BalanceProblem:
    """One site, one target, one regularization level.

    Linear mode supplies fitted feature maps for the effect (CATE) side and
    the prognostic side; kernel mode supplies kernel specs instead and
    requires a unit-level target sample. A run passes kernels resolved once
    for all its sites; an unresolved RBF bandwidth here is resolved on this
    site's covariates stacked with the target sample.
    """

    site: SiteDataset
    target: TargetSpec
    lam: float
    cate_map: FeatureMap | None = None
    prognostic_map: FeatureMap | None = None
    cate_kernel: KernelSpec | None = None
    prognostic_kernel: KernelSpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "lam", check_lambda(self.lam))
        has_maps = self.cate_map is not None or self.prognostic_map is not None
        has_kernels = self.cate_kernel is not None or self.prognostic_kernel is not None
        if has_maps and has_kernels:
            raise ModeMismatchError("supply feature maps or kernels, not both")
        if not has_maps and not has_kernels:
            raise ModeMismatchError("supply feature maps (linear mode) or kernels (kernel mode)")
        if has_maps and (self.cate_map is None or self.prognostic_map is None):
            raise ModeMismatchError("linear mode needs both cate_map and prognostic_map")
        if has_kernels and (self.cate_kernel is None or self.prognostic_kernel is None):
            raise ModeMismatchError("kernel mode needs both cate_kernel and prognostic_kernel")
        if has_kernels and not self.target.is_sample:
            raise ModeMismatchError("kernel mode requires a unit-level target sample")

    @property
    def mode(self) -> str:
        return "linear" if self.cate_map is not None else "kernel"

    @cached_property
    def _program(self) -> _SiteProgram:
        return _site_program(self)

    def with_lam(self, lam: float) -> BalanceProblem:
        """This problem at another lambda, sharing (and building, if need be)
        its lambda-free program; only ``lam`` is checked, the rest was when
        this problem was made. ``dataclasses.replace`` builds a fresh one."""
        copy = object.__new__(type(self))
        copy.__dict__.update(self.__dict__, lam=check_lambda(lam), _program=self._program)
        return copy


@dataclass(frozen=True, eq=False)
class WeightSolution:
    """Per-unit weights for one site plus solver and balance diagnostics.

    ``cate_imbalance`` is the treated-vs-target imbalance norm and
    ``prognostic_imbalance`` the treated-vs-control norm; in kernel mode both
    are RKHS-norm surrogates (square roots of the objective blocks).
    """

    gamma: np.ndarray
    lam: float
    solver: QpSolution
    cate_imbalance: float
    prognostic_imbalance: float
    ess: float
    notes: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class ImbalanceReport:
    cate_imbalance: float
    prognostic_imbalance: float
    per_feature_cate: np.ndarray
    per_feature_prognostic: np.ndarray


@dataclass(frozen=True)
class SweepRow:
    lam: float
    cate_imbalance: float
    prognostic_imbalance: float
    ess: float
    n_failed: int


@dataclass(frozen=True, eq=False)
class _SiteProgram:
    """The lambda-free part of one site's balancing program: ``base``, the QP
    without its ridge 2 lambda reg (P factored in linear mode, explicit in
    kernel mode); linear mode adds the mapped features (one array when one
    map serves both sides) and target mean ``t``, kernel mode the site Grams,
    target kernel-mean vector and Gram mean (closed forms if k(x, y) = x'y)."""

    a_cate: np.ndarray
    a_prog: np.ndarray
    reg: np.ndarray
    base: QuadraticProgram
    phi_cate: np.ndarray | None = None
    phi_prog: np.ndarray | None = None
    t: np.ndarray | None = None
    K_cate: np.ndarray | None = None
    K_prog: np.ndarray | None = None
    kernel_mean: np.ndarray | None = None
    target_block: float = 0.0

    def qp(self, lam: float) -> QuadraticProgram:
        return self.base.with_p_diag(2.0 * lam * self.reg)


def _site_program(prob: BalanceProblem) -> _SiteProgram:
    site = prob.site
    X, z, pi, n = site.covariates, site.treatment, site.propensity, site.n
    # per-unit multipliers of the effect-side and prognostic-side terms
    a_cate = z / (n * pi)
    a_prog = (z - pi) / (n * pi * (1.0 - pi))
    reg = z / pi + (1.0 - z) / (1.0 - pi)
    # the arm sums, gamma'z = n1 and gamma'(1 - z) = n0, and gamma >= 0
    arm_sums = np.array([site.n1, site.n0], dtype=float)
    constraints = dict(A=np.vstack([z, 1.0 - z]), l=arm_sums, u=arm_sums, lb=np.zeros(n))
    if prob.mode == "linear":
        cmap, pmap = prob.cate_map, prob.prognostic_map
        phi_cate = apply_feature_map(cmap, X)
        phi_prog = phi_cate if pmap is cmap else apply_feature_map(pmap, X)
        if prob.target.is_sample:  # the target's design, mapped once per map: its columns after the intercept
            t = prob.target.design(cmap)[:, 1:].mean(axis=0)
        else:
            t = map_raw_means(cmap, prob.target.moments)
        B_cate = a_cate[:, None] * phi_cate  # row i: a_cate_i * phi(X_i)
        B_prog = a_prog[:, None] * phi_prog
        p_factor = np.sqrt(2.0) * np.vstack([B_cate.T, B_prog.T])
        base = QuadraticProgram(q=-2.0 * (B_cate @ t), p_factor=p_factor, **constraints)
        return _SiteProgram(a_cate, a_prog, reg, base, phi_cate=phi_cate, phi_prog=phi_prog, t=t)

    # one BLAS thread, as for the solves of the explicit P built here
    with single_threaded_blas():
        target = prob.target.sample
        # a run passes resolved kernels; a problem on its own resolves on its site and target
        pooled = pooled_covariates([site], prob.target)
        k_cate, k_prog = resolve_kernels((prob.cate_kernel, prob.prognostic_kernel), pooled)
        K_cate = kernel_matrix(k_cate, X)
        K_prog = K_cate if k_prog == k_cate else kernel_matrix(k_prog, X)
        # 2 (K_c o a_c a_c' + K_p o a_p a_p') in place, symmetric bit for bit as the Grams are
        P, prog = np.outer(2.0 * a_cate, a_cate), np.outer(2.0 * a_prog, a_prog)
        P *= K_cate
        P += np.multiply(prog, K_prog, out=prog)
        if k_cate.kind == "linear":  # k(x, y) = x'y: both target terms need only its mean
            y_bar = target.mean(axis=0)
            kernel_mean, target_block = X @ y_bar, float(y_bar @ y_bar)
        else:  # row means of the n x m cross Gram; the m x m Gram's mean once per target and kernel
            kernel_mean = np.concatenate([K.mean(axis=1) for K in _gram_blocks(k_cate, X, target)])
            m = target.shape[0]
            target_block = prob.target.memo(
                k_cate, lambda: sum(float(K.sum()) for K in _gram_blocks(k_cate, target, target)) / (m * m)
            )
        # PSD by the Schur product theorem: no Cholesky certificate (see qp._Structure.certificate)
        base = _psd_by_construction(QuadraticProgram(P=P, q=-2.0 * a_cate * kernel_mean, **constraints))
        return _SiteProgram(
            a_cate, a_prog, reg, base, K_cate=K_cate, K_prog=K_prog, kernel_mean=kernel_mean,
            target_block=target_block,
        )


def _gram_blocks(spec: KernelSpec, X: np.ndarray, Y: np.ndarray) -> Iterator[np.ndarray]:
    """The kernel matrix k(X_i, Y_j) in row blocks of at most
    ``_GRAM_BLOCK_DOUBLES`` entries, so that it is never held whole."""
    rows = max(1, _GRAM_BLOCK_DOUBLES // Y.shape[0])
    for i in range(0, X.shape[0], rows):
        yield kernel_matrix(spec, X[i : i + rows], Y)


def pooled_covariates(sites: Sequence[SiteDataset], target: TargetSpec) -> list[np.ndarray]:
    """Every site's covariates, then the target sample if there is one: what a
    run pools for its feature map and its median-heuristic bandwidths.
    DimensionMismatchError names the first of another width than the first site's."""
    pooled = [s.covariates for s in sites] + ([target.sample] if target.is_sample else [])
    names = [f"site {s.site_id!r}" for s in sites] + ["the target sample"]
    for name, X in zip(names, pooled):
        if X.shape[1] != pooled[0].shape[1]:
            raise DimensionMismatchError(f"{name} has {X.shape[1]} covariates but {names[0]} has {pooled[0].shape[1]}")
    return pooled


def build_linear_qp(prob: BalanceProblem) -> QuadraticProgram:
    """Assemble the linear-feature balancing QP with a factored quadratic term.

    The objective is the squared treated-vs-target imbalance in the effect-side
    features, plus the squared treated-vs-control imbalance in the prognostic
    features, plus the lambda ridge penalty; the additive constant ``t't`` is
    dropped and does not affect the argmin.
    """
    if prob.mode != "linear":
        raise ModeMismatchError("build_linear_qp requires a linear-mode problem")
    return prob._program.qp(prob.lam)


def build_kernel_qp(prob: BalanceProblem) -> QuadraticProgram:
    """Assemble the kernelized balancing QP from Gram matrices.

    With linear kernels on both sides this produces the same argmin as
    ``build_linear_qp`` with identity feature maps (the objectives differ by an
    additive constant).
    """
    if prob.mode != "kernel":
        raise ModeMismatchError("build_kernel_qp requires a kernel-mode problem")
    return prob._program.qp(prob.lam)


def kish_ess(gamma: np.ndarray | Sequence[float]) -> float:
    """Kish effective sample size (sum w)^2 / sum w^2."""
    w = np.asarray(gamma, dtype=float).ravel()
    denom = float(np.sum(w**2))
    if denom <= 0.0:
        raise AllZeroWeightsError("effective sample size undefined for all-zero weights")
    return float(np.sum(w)) ** 2 / denom


def imbalance_report(prob: BalanceProblem, gamma: np.ndarray) -> ImbalanceReport:
    """Signed per-feature imbalances of the site's weights ``gamma`` and their norms (linear mode only)."""
    if prob.mode != "linear":
        raise ModeMismatchError("per-feature imbalance requires linear mode")
    program = prob._program
    gamma = np.asarray(gamma, dtype=float)
    cate_vec = program.phi_cate.T @ (program.a_cate * gamma) - program.t
    prog_vec = program.phi_prog.T @ (program.a_prog * gamma)
    return ImbalanceReport(
        cate_imbalance=float(np.linalg.norm(cate_vec)),
        prognostic_imbalance=float(np.linalg.norm(prog_vec)),
        per_feature_cate=cate_vec,
        per_feature_prognostic=prog_vec,
    )


def _kernel_imbalances(prob: BalanceProblem, gamma: np.ndarray) -> tuple[float, float]:
    """Square roots of the two kernel objective blocks (RKHS imbalance norms)."""
    program = prob._program
    g_cate = program.a_cate * gamma
    g_prog = program.a_prog * gamma
    cate_sq = float(g_cate @ program.K_cate @ g_cate) - 2.0 * float(g_cate @ program.kernel_mean)
    cate_sq += program.target_block
    prog_sq = float(g_prog @ program.K_prog @ g_prog)
    return float(np.sqrt(max(cate_sq, 0.0))), float(np.sqrt(max(prog_sq, 0.0)))


def _polish(site: SiteDataset, x: np.ndarray) -> np.ndarray:
    """Clip solver negatives at zero and rescale each arm to its exact sum."""
    gamma = np.maximum(x, 0.0)
    treated, control = site.arms
    s1 = gamma[treated].sum()
    s0 = gamma[control].sum()
    if s1 <= 0 or s0 <= 0:
        raise SolverFailedError("solver returned an arm with no positive weight mass")
    gamma[treated] *= site.n1 / s1
    gamma[control] *= site.n0 / s0
    return gamma


def solve_weights(
    prob: BalanceProblem,
    settings: QpSettings | None = None,
    warm_start: tuple[np.ndarray, np.ndarray] | None = None,
) -> WeightSolution:
    """Solve the balancing program and attach imbalance and ESS diagnostics.

    Returned weights are polished: negatives within solver tolerance are
    clipped and each arm is rescaled so the sum constraints hold exactly.
    """
    qp = build_linear_qp(prob) if prob.mode == "linear" else build_kernel_qp(prob)
    sol = solve_qp(qp, settings=settings, warm_start=warm_start)
    if sol.status != SOLVED:
        raise SolverFailedError(
            f"balancing QP for site {prob.site.site_id!r} ended with status {sol.status}"
        )
    gamma = _polish(prob.site, sol.x)

    if prob.mode == "linear":
        report = imbalance_report(prob, gamma)
        cate_imb, prog_imb = report.cate_imbalance, report.prognostic_imbalance
    else:
        cate_imb, prog_imb = _kernel_imbalances(prob, gamma)

    ess = kish_ess(gamma)
    notes = []
    if prob.site.n1 == 1 or prob.site.n0 == 1:
        notes.append("single-unit arm: its weight is forced by the sum constraint")
    if ess < LOW_ESS_SHARE * prob.site.n:
        notes.append(f"low effective sample size: {ess:.1f} of {prob.site.n} units")
    return WeightSolution(
        gamma=gamma,
        lam=prob.lam,
        solver=sol,
        cate_imbalance=cate_imb,
        prognostic_imbalance=prog_imb,
        ess=ess,
        notes=tuple(notes),
    )


def solve_along_grid(
    prob: BalanceProblem,
    lambdas: Sequence[float],
    settings: QpSettings | None = None,
) -> Iterator[tuple[float, WeightSolution | None]]:
    """Solve ``prob`` at each lambda of a descending grid, warm-starting each
    solve from the last success. Yields ``(lam, solution)``, with ``solution``
    None when the solve raised :class:`SolverFailedError`; other errors
    propagate."""
    warm = None
    for lam in lambdas:
        try:
            ws = solve_weights(prob.with_lam(lam), settings=settings, warm_start=warm)
        except SolverFailedError:
            ws = None
        else:
            warm = (ws.solver.x, ws.solver.y)
        yield lam, ws


def lambda_sweep(
    sites: Sequence[SiteDataset],
    target: TargetSpec,
    lambdas: Sequence[float],
    cate_map: FeatureMap | None = None,
    prognostic_map: FeatureMap | None = None,
    cate_kernel: KernelSpec | None = None,
    prognostic_kernel: KernelSpec | None = None,
    settings: QpSettings | None = None,
) -> list[SweepRow]:
    """Trade-off table over a regularization grid, averaged across sites.

    Each site's weights are warm-started along the grid in descending lambda
    order, under :func:`~sitetransport.blas.single_threaded_blas`. Unresolved
    RBF kernels get one median-heuristic bandwidth, on every site's
    covariates stacked with the target sample, which all sites share. A
    solver failure leaves its (lambda, site) cell out of the means and is
    counted in ``n_failed`` without aborting the sweep. Rows come back in
    ascending lambda order, one per distinct lambda: a lambda repeated in
    the grid is solved and reported once.
    """
    lambdas = [check_lambda(v) for v in lambdas]
    if not lambdas:
        raise ConfigError("lambda grid must be nonempty")
    order = sorted(set(lambdas), reverse=True)
    if cate_kernel is not None and prognostic_kernel is not None and target.is_sample:
        pooled = pooled_covariates(sites, target)
        cate_kernel, prognostic_kernel = resolve_kernels((cate_kernel, prognostic_kernel), pooled)

    # cate imbalance, prognostic imbalance and ESS per (lambda, site); NaN where the solve failed
    cells = np.full((3, len(order), len(sites)), np.nan)
    with single_threaded_blas():
        for j, site in enumerate(sites):
            prob = BalanceProblem(
                site=site,
                target=target,
                lam=order[0],
                cate_map=cate_map,
                prognostic_map=prognostic_map,
                cate_kernel=cate_kernel,
                prognostic_kernel=prognostic_kernel,
            )
            for i, (_, ws) in enumerate(solve_along_grid(prob, order, settings)):
                if ws is not None:
                    cells[:, i, j] = ws.cate_imbalance, ws.prognostic_imbalance, ws.ess
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # a lambda that failed at every site averages to NaN
        means = np.nanmean(cells, axis=2)
    n_failed = np.isnan(cells[2]).sum(axis=1).tolist()
    rows = [SweepRow(lam, *means[:, i].tolist(), n_failed[i]) for i, lam in enumerate(order)]
    return rows[::-1]
