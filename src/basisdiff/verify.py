"""Self-checking suites for the diffusion machinery.

Every suite re-derives a closed-form or statistical prediction through an
independent route (quadrature, finite differences, Monte Carlo, or a separate
hand-coded formula) and compares it against the library implementation.  All
randomness is drawn from fixed streams keyed on the suite seed, so a report is
a pure function of (suite name, seed): running the same suite twice yields
byte-identical JSON.

Statistical checks use z-scores with a 4-sigma acceptance bound; identity
checks use explicit numerical tolerances.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .bases import BasisSet, pixel_basis
from .denoisers import ConstantDenoiser, DiracDataset, DiracMixtureDenoiser
from .fields import Rng
from .process import DiffusionProcess
from .samplers import euler_trajectory, make_time_grid, sample_reference
from .schedules import (TERMINAL_FRACTION, Schedule, make_ddpm_schedule,
                        make_vp_schedule, sde_coefficients)

# Z-score bound for Monte Carlo checks.
Z_BOUND = 4.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    threshold: float
    seed: int

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "value": float(self.value),
            "threshold": float(self.threshold),
            "seed": int(self.seed),
        }


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    seed: int
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": int(self.seed),
            "passed": bool(self.passed),
            "n_checks": len(self.checks),
            "checks": [c.as_dict() for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)


def _upper(name: str, value: float, threshold: float, seed: int) -> CheckResult:
    """Check that passes when value <= threshold."""
    return CheckResult(name, bool(value <= threshold), float(value), float(threshold), seed)


def _lower(name: str, value: float, threshold: float, seed: int) -> CheckResult:
    """Check that passes when value >= threshold."""
    return CheckResult(name, bool(value >= threshold), float(value), float(threshold), seed)


def _random_full_rank_rows(d: int, rng: Rng, cond_cap: float = 1.0e4) -> np.ndarray:
    """d x d basis rows, resampled until H^T H is comfortably conditioned.

    Identity checks compare quantities that pass through a linear solve, so the
    achievable agreement degrades with cond(Sigma); the cap keeps roundoff far
    below the test tolerances.
    """
    while True:
        rows = rng.standard_normal((d, d))
        if np.linalg.cond(rows.T @ rows) <= cond_cap:
            return rows


# Rows per block of a population cloud.  The 1e5-row clouds are drawn and
# reduced a block at a time, so no (1e5, d) array is held whole.
_BLOCK_ROWS = 8192


def _row_blocks(n: int):
    """Slices of consecutive _BLOCK_ROWS-row blocks that cover n rows.

    Drawing each block in order from one stream gives the same values, row
    for row, as one (n, ...) draw.
    """
    for lo in range(0, n, _BLOCK_ROWS):
        yield slice(lo, min(lo + _BLOCK_ROWS, n))


def _cloud_moments(draw, n: int, centre, order: int):
    """Mean powers 1..order and mean cross products of an n-row cloud about
    its known centre, drawn and reduced a block at a time.

    draw(rows) returns the cloud's next (rows, d) block.  Each block is
    transposed to (d, rows), so that every sum runs along contiguous memory:
    numpy sums a contiguous row pairwise, but an (n, d) array's axis-0 sum
    row by row.  Returns the (order, d) mean powers and the (d, d) mean cross
    products.
    """
    powers = cross = 0.0
    for rows in _row_blocks(n):
        e = np.ascontiguousarray((draw(rows.stop - rows.start) - centre).T)
        term, sums = e, [e.sum(axis=1)]
        for _ in range(order - 1):
            term = term * e
            sums.append(term.sum(axis=1))
        powers = powers + np.array(sums)
        cross = cross + e @ e.T
    return powers / n, cross / n


# ---------------------------------------------------------------------------
# coefficients: SDE drift/diffusion reproduce the closed-form kernel moments
# ---------------------------------------------------------------------------


def _moments_by_quadrature(sched: Schedule, eta: float, bsum: np.ndarray,
                           x0: np.ndarray, sigma_mat: np.ndarray, t_targets,
                           nodes: int):
    """Kernel mean and covariance at each target time, by quadrature.

    d(mean)/dt = f mean + phi from mean(0) = x0 and dV/dt = 2 f V + g^2 Sigma
    from V(0) = 0 are linear with state-free coefficients, so their
    variation-of-constants solutions are exact:
    mean(t) = P(0) x0 + int_0^t P(tau) phi(tau) dtau and
    V(t) = [int_0^t P(tau)^2 g(tau)^2 dtau] Sigma, with P(tau) = exp(int_tau^t f).
    For eta > 0 phi ~ sigma' diverges like tau^(-1/2) at 0, so every
    integral is Gauss-Legendre in u = sqrt(tau), where dtau = 2u du and the
    integrands are smooth: `nodes` points on [0, sqrt(t)], and for each
    P(u_k) a nested rule of as many points on [u_k, sqrt(t)].  No node falls
    at tau = 0, where sde_coefficients is undefined.  f, g and phi come from
    one sde_coefficients call over every node of every target.  Returns the
    (targets, d) means and (targets, d, d) covariances.
    """
    xi, w = np.polynomial.legendre.leggauss(nodes)
    a, b = 0.5 * (1.0 + xi), 0.5 * w  # the rule on [0, 1]
    top = np.sqrt(np.asarray(t_targets, dtype=float))[:, None]
    u = top * a  # (targets, nodes) outer nodes
    # (targets, nodes, 1 + nodes): each outer node, then its inner rule
    grid = np.concatenate([u[..., None],
                           u[..., None] + (top - u)[..., None] * a], axis=-1)
    c = sde_coefficients(sched, eta, bsum, (grid * grid).ravel())
    twou = 2.0 * grid
    fu = twou * c.f.reshape(grid.shape)
    prop = np.exp((top - u) * (fu[..., 1:] @ b))  # P(u_k^2)
    prop0 = np.exp(top[:, 0] * (fu[..., 0] @ b))  # P(0)
    weight = top * b * twou[..., 0] * prop  # outer dtau-weights times P
    phi = c.phi.reshape(grid.shape + bsum.shape)[:, :, 0]
    g = c.g.reshape(grid.shape)[..., 0]
    means = prop0[:, None] * x0 + np.einsum("tk,tkd->td", weight, phi)
    scale = np.sum(weight * prop * g * g, axis=-1)
    return means, scale[:, None, None] * sigma_mat


def _checks_coefficients(seed: int, nodes: int = 32):
    rng = Rng(seed, 10)
    vp = make_vp_schedule()
    ddpm = make_ddpm_schedule()
    pixel = np.eye(3)
    rand = _random_full_rank_rows(3, Rng(seed, 11))

    cases = []  # (tag, schedule, eta, basis rows)
    for eta in (0.0, 10.0):
        cases.append((f"vp-pixel-eta{eta:g}", vp, eta, pixel))
        cases.append((f"vp-random-eta{eta:g}", vp, eta, rand))
    # scaled schedule (s != 1) exercises the f = s'/s term
    cases.append(("ddpm-random-eta10", ddpm, 10.0, rand))

    t_targets = (vp.T / 2.0, vp.T)  # both schedules share the horizon T
    checks = []
    for tag, sched, eta, rows in cases:
        x0 = rng.standard_normal((rows.shape[1],))
        bsum, sigma_mat = rows.sum(axis=0), rows.T @ rows
        means, variances = _moments_by_quadrature(sched, eta, bsum, x0,
                                                  sigma_mat, t_targets, nodes)
        mean_err = 0.0
        var_err = 0.0
        for t, mu_num, v_num in zip(t_targets, means, variances):
            s = sched.s(t)
            sig = sched.sigma(t)
            mu_ref = s * x0 + (eta * s * sig / (eta + 1.0)) * bsum
            v_ref = (s * sig / (eta + 1.0)) ** 2 * sigma_mat
            mean_err = max(mean_err, np.linalg.norm(mu_num - mu_ref)
                           / np.linalg.norm(mu_ref))
            var_err = max(var_err, np.linalg.norm(v_num - v_ref)
                          / np.linalg.norm(v_ref))
        checks += [
            _upper(f"coefficients/{tag}/mean-rel-err", mean_err, 1.0e-6, seed),
            _upper(f"coefficients/{tag}/variance-rel-err", var_err, 1.0e-6, seed),
        ]
    return checks


# ---------------------------------------------------------------------------
# moments: the Euler-Maruyama terminal cloud follows the chain's exact law,
# that law converges to the kernel at first order, and the scan walks the
# same paths as a plain step-by-step walk
# ---------------------------------------------------------------------------


def _dense_sigma(p: DiffusionProcess) -> np.ndarray:
    """The process's Sigma as a dense (d, d) array, Sigma I."""
    return p.cov_op.apply_flat(np.eye(p.cov_op.total.size))


def _em_chain_moments(p: DiffusionProcess, x0: np.ndarray, n_steps: int):
    """Exact mean/covariance of the Euler-Maruyama chain at the last knot.

    This is the law of the cloud DiffusionProcess.simulate_sde draws at
    n_steps, so the moment check reads the cloud against it with no
    allowance for the O(dt) gap to the continuous-time kernel; the
    gap-ratio check bounds that gap instead.  The update is linear in x with
    deterministic coefficients and independent Gaussian increments, so the
    chain moments follow closed recursions:
    mean <- (1 + f dt) mean + phi dt and C <- (1 + f dt)^2 C + g^2 dt Sigma.
    The recursion walks step by step, so it shares no arithmetic with the
    tail-product scan of DiffusionProcess.simulate_sde.
    """
    sched = p.schedule
    times = np.linspace(sched.T * TERMINAL_FRACTION, sched.T, n_steps + 1)
    dts = np.diff(times).tolist()
    mom0 = p.conditional_moments(x0, times[0])
    sigma_mat = _dense_sigma(p)
    c = sde_coefficients(sched, p.eta, p.cov_op.total, times[:-1])
    mean = mom0.mean
    cov = mom0.cov_scale * sigma_mat
    for f, g, phi, dt in zip(c.f.tolist(), c.g.tolist(), c.phi, dts):
        a = 1.0 + f * dt
        mean = a * mean + phi * dt
        cov = a * a * cov + (g * g * dt) * sigma_mat
    return mean, cov


def _gap_ratio_error(p: DiffusionProcess, x0: np.ndarray, n_steps: int) -> float:
    """Largest |gap(n)/gap(2n) - 2| over the chain's mean and covariance.

    gap(n) is the largest entry of |chain moment - kernel moment| at T after
    n steps.  First-order Euler-Maruyama halves it with the step, so a
    coefficient that disagrees with the kernel shows as a ratio away from 2.
    A gap that is exactly 0 (the VP eta = 0 mean) must stay exactly 0 at 2n;
    any other zero gap reads inf.
    """
    mom = p.conditional_moments(x0, p.schedule.T)
    kernel = (mom.mean, mom.cov_scale * _dense_sigma(p))

    def gaps(n):
        chain = _em_chain_moments(p, x0, n)
        return [float(np.abs(c - k).max()) for c, k in zip(chain, kernel)]

    worst = 0.0
    for a, b in zip(gaps(n_steps), gaps(2 * n_steps)):
        if a == 0.0 or b == 0.0:
            worst = max(worst, 0.0 if a == b else math.inf)
        else:
            worst = max(worst, abs(a / b - 2.0))
    return worst


def _stepwise_endpoints(p: DiffusionProcess, x0: np.ndarray, n_steps: int,
                        n_paths: int, rng: Rng) -> np.ndarray:
    """Plain Euler-Maruyama endpoints: x <- x + (f x + phi) dt + g sqrt(dt) xi H.

    One step at a time from a forward sample at T/1000, with float
    coefficients per step, drawing the start's noise weights and then one
    (n_paths, M) draw per step as DiffusionProcess.simulate_sde does.
    """
    sched = p.schedule
    rows = p.basis.elements()
    basis_sum = rows.sum(axis=0)
    times = np.linspace(sched.T * TERMINAL_FRACTION, sched.T,
                        n_steps + 1).tolist()
    s, _, sig, _ = sched.evaluate(times[0])
    eps = rng.standard_normal((n_paths, rows.shape[0]))
    x = s * x0 + (s * sig) * (((p.eta + eps) / (p.eta + 1.0)) @ rows)
    for t, t_next in zip(times[:-1], times[1:]):
        dt = t_next - t
        c = sde_coefficients(sched, p.eta, basis_sum, t)
        xi = rng.standard_normal((n_paths, rows.shape[0]))
        x = x + (c.f * x + c.phi) * dt + (c.g * math.sqrt(dt)) * (xi @ rows)
    return x


def _checks_moments(seed: int, n_paths: int = 10_000, n_steps: int = 128):
    rng = Rng(seed, 20)
    sched = make_vp_schedule()
    rows = rng.standard_normal((2, 4))
    basis = BasisSet((4,), rows)
    x0 = rng.standard_normal((4,))

    checks = []
    pathwise = 0.0
    for stream, eta in ((21, 0.0), (22, 10.0)):
        p = DiffusionProcess(sched, basis, eta=eta)
        paths = p.simulate_sde(x0, n_steps, n_paths, Rng(seed, stream))
        mu, cov = _em_chain_moments(p, x0, n_steps)

        sample_mean = paths.mean(axis=0)
        se_mean = np.sqrt(np.diag(cov) / n_paths)
        z_mean = np.abs(sample_mean - mu) / se_mean

        centred = paths - mu
        sample_cov = centred.T @ centred / n_paths
        # SE of a Gaussian sample-covariance entry: sqrt((C_ii C_jj + C_ij^2)/n)
        dvar = np.outer(np.diag(cov), np.diag(cov))
        se_cov = np.sqrt((dvar + cov ** 2) / n_paths)
        z_cov = np.abs(sample_cov - cov) / se_cov

        checks.append(_upper(f"moments/eta{eta:g}/mean-z", float(z_mean.max()), Z_BOUND, seed))
        checks.append(_upper(f"moments/eta{eta:g}/cov-z", float(z_cov.max()), Z_BOUND, seed))

        # the scan's own noise path: the same draws walked step by step
        walked = _stepwise_endpoints(p, x0, 64, 8, Rng(seed, 23))
        scanned = p.simulate_sde(x0, 64, 8, Rng(seed, 23))
        pathwise = max(pathwise, float(np.abs(scanned - walked).max()
                                       / np.abs(walked).max()))

    for tag, make in (("vp", make_vp_schedule), ("ddpm", make_ddpm_schedule)):
        for eta in (0.0, 10.0):
            p = DiffusionProcess(make(), basis, eta=eta)
            checks.append(_upper(f"moments/{tag}/eta{eta:g}/gap-ratio",
                                 _gap_ratio_error(p, x0, n_steps), 0.5, seed))
    checks.append(_upper("moments/pathwise-rel-err", pathwise, 1.0e-12, seed))
    return checks


# ---------------------------------------------------------------------------
# score: analytic scores against finite differences of explicit log-densities
# ---------------------------------------------------------------------------


def _fd_gradient(logpdf, x: np.ndarray, h_scale: float = 1.0e-5) -> np.ndarray:
    g = np.zeros_like(x)
    for i in range(x.size):
        h = h_scale * (1.0 + abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (logpdf(xp) - logpdf(xm)) / (2.0 * h)
    return g


def _checks_score(seed: int, probes_per_case: int = 13):
    sched = make_vp_schedule()
    checks = []

    # conditional score: single Gaussian kernel
    rng = Rng(seed, 30)
    rows = _random_full_rank_rows(3, Rng(seed, 31))
    basis = BasisSet((3,), rows)
    cond_err = 0.0
    for eta in (0.0, 10.0):
        p = DiffusionProcess(sched, basis, eta=eta)
        x0 = rng.standard_normal((3,))
        for _ in range(probes_per_case):
            t = float(sched.T * (0.1 + 0.9 * rng.uniform()))
            x = p.forward_sample(x0[None, :], t, rng)
            mom = p.conditional_moments(x0, t)
            cov = mom.cov_scale * (rows.T @ rows)

            def logpdf(v, mean=mom.mean, cov=cov):
                r = v - mean
                return -0.5 * float(r @ np.linalg.solve(cov, r))

            fd = _fd_gradient(logpdf, x[0])
            sc = p.conditional_score(x0, t, x)[0]
            cond_err = max(cond_err, np.linalg.norm(sc - fd) / np.linalg.norm(fd))
    checks.append(_upper("score/conditional-vs-fd", cond_err, 1.0e-5, seed))

    # marginal score: explicit equal-weight Gaussian mixture
    rows2 = _random_full_rank_rows(2, Rng(seed, 32))
    basis2 = BasisSet((2,), rows2)
    marg_err = 0.0
    for eta in (0.0, 10.0):
        p = DiffusionProcess(sched, basis2, eta=eta)
        pts = [2.0 * rng.standard_normal((2,)) for _ in range(3)]
        den = DiracMixtureDenoiser(DiracDataset(pts), p)
        for _ in range(probes_per_case):
            t = float(sched.T * (0.1 + 0.9 * rng.uniform()))
            x = p.forward_sample(pts[rng.integers(0, 3)][None, :], t, rng)
            moms = [p.conditional_moments(y, t) for y in pts]
            # cov_scale depends on t alone, so the components share one
            # covariance and its normalising constant cancels in the gradient
            cov = moms[0].cov_scale * (rows2.T @ rows2)

            def logpdf(v, means=[mom.mean for mom in moms], cov=cov):
                logs = []
                for mean in means:
                    r = v - mean
                    logs.append(-0.5 * float(r @ np.linalg.solve(cov, r)))
                mx = max(logs)
                return mx + math.log(sum(math.exp(l - mx) for l in logs))

            fd = _fd_gradient(logpdf, x[0])
            sc = p.marginal_score_dirac(den, t, x)[0]
            marg_err = max(marg_err, np.linalg.norm(sc - fd) / np.linalg.norm(fd))
    checks.append(_upper("score/marginal-vs-fd", marg_err, 1.0e-5, seed))

    # at the kernel mean the conditional score vanishes identically
    p0 = DiffusionProcess(sched, basis, eta=10.0)
    y = rng.standard_normal((3,))
    mean = p0.conditional_moments(y, sched.T / 2.0).mean
    peak = p0.conditional_score(y, sched.T / 2.0, mean[None, :])
    checks.append(_upper("score/zero-at-mean", float(np.abs(peak).max()), 1.0e-12, seed))
    return checks


# ---------------------------------------------------------------------------
# cancellation: simplified flow equals raw flow with the analytic denoiser
# ---------------------------------------------------------------------------


def _checks_cancellation(seed: int, draws_per_case: int = 17):
    sched = make_vp_schedule()
    rng = Rng(seed, 40)
    checks = []
    for d in (2, 3, 4):
        rows = _random_full_rank_rows(d, Rng(seed, 41 + d))
        basis = BasisSet((d,), rows)
        x0 = rng.standard_normal((d,))
        worst = 0.0
        for eta in (0.0, 10.0):
            p = DiffusionProcess(sched, basis, eta=eta)
            den = ConstantDenoiser(x0)
            for _ in range(draws_per_case):
                t = float(sched.T * (0.005 + 0.995 * rng.uniform()))
                x = 2.0 * rng.standard_normal((1, d))
                raw = p.pfode_rhs_conditional(x0, t, x)
                simp = p.pfode_rhs(den, t, x)
                scale = max(1.0, float(np.abs(raw).max()))
                worst = max(worst, float(np.abs(raw - simp).max()) / scale)
        checks.append(_upper(f"cancellation/d{d}/max-abs-diff", worst, 1.0e-10, seed))
    return checks


# ---------------------------------------------------------------------------
# marginal: mixture-score flow equals simplified flow with the mixture denoiser
# ---------------------------------------------------------------------------


def _checks_marginal(seed: int, draws_per_case: int = 25):
    sched = make_vp_schedule()
    rng = Rng(seed, 50)
    checks = []
    for d in (2, 3):
        rows = _random_full_rank_rows(d, Rng(seed, 51 + d))
        basis = BasisSet((d,), rows)
        pts = [2.0 * rng.standard_normal((d,)) for _ in range(3)]
        ds = DiracDataset(pts)
        worst = 0.0
        for eta in (0.0, 10.0):
            p = DiffusionProcess(sched, basis, eta=eta)
            den = DiracMixtureDenoiser(ds, p)
            for _ in range(draws_per_case):
                t = float(sched.T * (0.01 + 0.99 * rng.uniform()))
                x = 2.0 * rng.standard_normal((1, d))
                raw = p.pfode_rhs_marginal(den, t, x)
                simp = p.pfode_rhs(den, t, x)
                scale = max(1.0, float(np.abs(raw).max()))
                worst = max(worst, float(np.abs(raw - simp).max()) / scale)
        checks.append(_upper(f"marginal/d{d}/max-abs-diff", worst, 1.0e-10, seed))
    return checks


# ---------------------------------------------------------------------------
# optimality: the analytic denoiser minimises the population reconstruction loss
# ---------------------------------------------------------------------------


def _checks_optimality(seed: int, n_samples: int = 100_000, n_directions: int = 100):
    sched = make_vp_schedule()
    rows = _random_full_rank_rows(2, Rng(seed, 61))
    basis = BasisSet((2,), rows)
    p = DiffusionProcess(sched, basis, eta=0.0)
    pts = np.array([[-1.5, 0.0], [1.5, 0.5], [0.0, 1.8]])
    den = DiracMixtureDenoiser(DiracDataset(pts), p)
    t = sched.T / 5.0

    # every index, then each block's normals: the one (n_samples, 2) draw of
    # forward_sample, written a block at a time into the residual
    draw = Rng(seed, 62)
    index = draw.integers(0, len(pts), (n_samples,))
    table = p.knot_table(t)
    resid = np.empty((n_samples, 2))
    for rows in _row_blocks(n_samples):
        y = pts[index[rows]]
        x = p.forward_sample(y, t, draw)
        resid[rows] = den.denoise_at(x, table, 0) - y
    del index  # np.cov below copies resid

    # Perturbing the denoiser by a constant delta changes each per-sample loss
    # by exactly 2 delta . resid + |delta|^2; common random numbers keep the
    # comparison noise far below the |delta|^2 optimality gap.  Over the
    # samples that difference has mean 2 delta . mean(resid) + |delta|^2 and
    # ddof-1 variance 4 delta^T cov(resid) delta, so one mean and one
    # covariance of resid give the margins of all directions.
    delta_mag = 1.0e-2
    v = Rng(seed, 63).standard_normal((n_directions, 2))
    deltas = delta_mag * v / np.linalg.norm(v, axis=1, keepdims=True)
    mean = 2.0 * (deltas @ resid.mean(axis=0)) + delta_mag ** 2
    var = 4.0 * np.einsum("ij,jk,ik->i", deltas, np.cov(resid, rowvar=False),
                          deltas)
    # a direction whose loss difference has zero variance (every residual
    # 0) scores +inf when its mean is positive and -inf otherwise
    sd = np.sqrt(var / n_samples)
    margin = np.where(mean > 0.0, np.inf, -np.inf)
    np.divide(mean, sd, out=margin, where=sd > 0.0)
    min_margin = float(margin.min())
    checks = [_lower("optimality/min-margin-sigmas", min_margin, 2.0, seed)]

    # posterior weights stay normalised and non-negative
    wrng = Rng(seed, 64)
    worst_norm = 0.0
    worst_neg = 0.0
    for _ in range(20):
        tt = float(sched.T * (0.02 + 0.98 * wrng.uniform()))
        xx = wrng.standard_normal((2,))
        w = den.weights_at(p.knot_table(tt), 0, xx)[0]
        worst_norm = max(worst_norm, abs(float(w.sum()) - 1.0))
        worst_neg = max(worst_neg, float(max(0.0, -w.min())))
    checks.append(_upper("optimality/weight-normalisation", worst_norm, 1.0e-12, seed))
    checks.append(_upper("optimality/weight-nonnegative", worst_neg, 0.0, seed))

    # the weights at the midpoint of two kernel means are 1/2 each unless a
    # centre is off; fixed rows, as random ones miss the bound at some seeds
    fixed = np.array([[1.0, 0.0], [0.3, 1.0]])
    ys = np.array([[-1.0, 0.5], [1.2, -0.3]])
    q = DiffusionProcess(sched, BasisSet((2,), fixed), eta=10.0)
    pair = DiracMixtureDenoiser(DiracDataset(ys), q)
    worst_mid = 0.0
    for tt in (10.0, 50.0, 100.0):
        s, _, sig, _ = sched.evaluate(tt)
        means = s * ys + (q.eta * s * sig / (q.eta + 1.0)) * fixed.sum(axis=0)
        w = pair.weights_at(q.knot_table(tt), 0, means.mean(axis=0))
        worst_mid = max(worst_mid, float(np.abs(w - 0.5).max()))
    checks.append(_upper("optimality/midpoint-weights", worst_mid, 1.0e-9, seed))
    return checks


# ---------------------------------------------------------------------------
# sampler: Euler and RK4 convergence orders, constant-denoiser closed form,
# round trip, oracle self-consistency
# ---------------------------------------------------------------------------


def _checks_sampler(seed: int):
    sched = make_vp_schedule()
    rows = np.array([[1.0, 0.0], [0.3, 1.0]])
    basis = BasisSet((2,), rows)
    p = DiffusionProcess(sched, basis, eta=0.0)
    pts = np.array([[-1.0, 0.5], [1.2, -0.3], [0.2, 1.5]])
    den = DiracMixtureDenoiser(DiracDataset(pts), p)

    # fixed, well-scaled toy states: these are identity/convergence checks,
    # so randomizing them would only add failure modes unrelated to the code
    x_top = np.array([0.9, -1.4])
    # round-trip start: a data point noised forward to the top knot
    x_noised = p.forward_sample(pts[1:2], sched.T, Rng(seed, 71))
    # the two starts walk each integrator together, one row each
    starts = np.concatenate([x_top[None, :], x_noised])
    oracle = sample_reference(p, den, starts, 512)
    ref, limit = oracle
    # Euler walks the quadratic grid, dense where the flow gain grows like
    # 1/(2t): only there is it first order (50/500 ratio 10.2; uniform 4.0)
    fine, back = euler_trajectory(
        p, den, starts, make_time_grid(sched.T, 500, "quadratic"))[-1]
    e_coarse = float(np.linalg.norm(euler_trajectory(
        p, den, x_top[None, :], make_time_grid(sched.T, 50, "quadratic"))[-1, 0] - ref))
    e_fine = float(np.linalg.norm(fine - ref))
    ratio = e_coarse / e_fine
    checks = [
        _lower("sampler/euler-error-ratio-min", ratio, 5.0, seed),
        _upper("sampler/euler-error-ratio-max", ratio, 20.0, seed),
    ]

    # constant denoiser: x(t) = c + (sigma(t)/sigma(T)) (x_T - c) for s = 1
    c = np.array([1.2, -0.8])
    cden = ConstantDenoiser(c)
    grid = make_time_grid(sched.T, 1000, "quadratic")
    closed = c + (sched.sigma(grid[-1]) / sched.sigma(sched.T)) * (x_top - c)

    def rel_err(x: np.ndarray) -> float:
        return float(np.linalg.norm(x - closed) / np.linalg.norm(closed))

    num = euler_trajectory(p, cden, x_top[None, :], grid)[-1, 0]
    checks.append(_upper("sampler/constant-denoiser-euler", rel_err(num), 1.0e-4, seed))
    rel_ref = rel_err(sample_reference(p, cden, x_top[None, :], 512)[0])
    checks.append(_upper("sampler/constant-denoiser-reference", rel_ref, 1.0e-8, seed))

    # round trip: the noised point integrated back down lands on the PFODE
    # limit as computed by the reference integrator
    rt = float(np.linalg.norm(back - limit) / np.linalg.norm(limit))
    checks.append(_upper("sampler/round-trip-rel-err", rt, 1.0e-2, seed))

    # RK4 is 4th order: twice the steps cut its error about 2^4 = 16-fold,
    # so the ratio lies in [12, 20], stored as its distance from 16
    order = rel_err(sample_reference(p, cden, x_top[None, :], 256)[0]) / rel_ref
    checks.append(_upper("sampler/reference-order", abs(order - 16.0), 4.0, seed))

    # the mixture oracle against itself at a quarter of the steps: for RK4
    # the 512-step error is about this gap / 255, so at the bound it is
    # about 4e-11, 1e5 times below the smallest error the oracle judges (the
    # round trip's, 5.0e-6 at seed 90210)
    gap = float(np.abs(oracle - sample_reference(p, den, starts, 128)).max())
    checks.append(_upper("sampler/oracle-self-consistency", gap, 1.0e-8, seed))
    return checks


# ---------------------------------------------------------------------------
# edm-reduction: eta = 0 + pixel basis collapses to the standard formulation
# ---------------------------------------------------------------------------


def _edm_flow_rhs(sched: Schedule, den, x: np.ndarray, t: float) -> np.ndarray:
    """Independently coded standard flow: (s'/s + sig'/sig) x - (sig' s / sig) D(x/s; t)."""
    s, s_p, sig, sig_p = sched.evaluate(t)
    d = den.denoise(x / s, t)
    return (s_p / s + sig_p / sig) * x - (sig_p * s / sig) * d


def _checks_edm_reduction(seed: int, n_draws: int = 100_000):
    sched = make_vp_schedule()
    basis = pixel_basis((2, 2))
    p = DiffusionProcess(sched, basis, eta=0.0)
    rng = Rng(seed, 80)

    # with eta = 0 and the pixel basis the injected noise is iid standard normal
    d = p.basis.M
    (m1, m2, m3, m4), cross = _cloud_moments(
        lambda rows: p.noise_from_normals(rng.standard_normal((rows, d))),
        n_draws, 0.0, 4)
    zs = [
        np.abs(m1) * math.sqrt(n_draws),
        np.abs(m2 - m1 * m1 - 1.0) / math.sqrt(2.0 / n_draws),
        # raw-moment standard errors under N(0,1): Var(X^3) = 15, Var(X^4) = 96
        np.abs(m3) / math.sqrt(15.0 / n_draws),
        np.abs(m4 - 3.0) / math.sqrt(96.0 / n_draws),
        np.abs(cross[~np.eye(d, dtype=bool)]) * math.sqrt(n_draws),
    ]
    checks = [_upper("edm-reduction/noise-normality-z", float(np.concatenate(zs).max()),
                     Z_BOUND, seed)]

    # forward kernel matches x0 + sigma * eps moments
    x0 = rng.standard_normal((2, 2)).reshape(-1)
    t = sched.T / 2.0
    sig = sched.sigma(t)
    kernel = Rng(seed, 81)
    (shift, second), _ = _cloud_moments(
        lambda rows: p.forward_sample(
            np.broadcast_to(x0, (rows, x0.size)), t, kernel),
        n_draws, x0, 2)
    z_mean = np.abs(shift) / (sig / math.sqrt(n_draws))
    z_var = (np.abs(second - shift * shift - sig ** 2)
             / (sig ** 2 * math.sqrt(2.0 / n_draws)))
    checks.append(_upper("edm-reduction/forward-kernel-z",
                         float(max(z_mean.max(), z_var.max())), Z_BOUND, seed))

    # per-step agreement between the generic flow and the standard expression
    pts = [rng.standard_normal((2, 2)) for _ in range(2)]
    den = DiracMixtureDenoiser(DiracDataset(pts), p)
    worst = 0.0
    for _ in range(20):
        t = float(sched.T * (0.01 + 0.99 * rng.uniform()))
        x = rng.standard_normal((2, 2)).reshape(1, -1)
        mine = p.pfode_rhs(den, t, x)
        std = _edm_flow_rhs(sched, den, x, t)
        worst = max(worst, float(np.abs(mine - std).max()))
    checks.append(_upper("edm-reduction/flow-rhs-max-diff", worst, 1.0e-12, seed))
    return checks


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------

_SUITE_FNS = {
    "coefficients": _checks_coefficients,
    "moments": _checks_moments,
    "score": _checks_score,
    "cancellation": _checks_cancellation,
    "marginal": _checks_marginal,
    "optimality": _checks_optimality,
    "sampler": _checks_sampler,
    "edm-reduction": _checks_edm_reduction,
}
SUITE_NAMES = tuple(_SUITE_FNS)


def run_suite(name: str, seed: int = 7) -> SuiteReport:
    """Run one named suite (or "all") and return its report."""
    if name == "all":
        checks = []
        for suite in SUITE_NAMES:
            checks.extend(_SUITE_FNS[suite](seed))
        return SuiteReport("all", seed, tuple(checks))
    if name not in _SUITE_FNS:
        raise ValueError(f"unknown suite {name!r}; expected one of "
                         f"{', '.join(SUITE_NAMES + ('all',))}")
    return SuiteReport(name, seed, tuple(_SUITE_FNS[name](seed)))
