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
from .samplers import (euler_trajectory, make_time_grid, rk4_step,
                       sample_reference)
from .schedules import (Schedule, make_ddpm_schedule, make_vp_schedule,
                        sde_coefficients)

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


# ---------------------------------------------------------------------------
# coefficients: SDE drift/diffusion reproduce the closed-form kernel moments
# ---------------------------------------------------------------------------


_RK4_BLOCK = 1024  # steps per vectorised rk4_step in _rk4_walk


def _rk4_grid(knots, n_steps: int):
    """Classical RK4 steps over consecutive knot intervals, about n_steps in all.

    Returns the step sizes h, the (3, n) times at which each step evaluates
    its right-hand side (start t, midpoint t + h/2, end t + h) and the index
    of the last step of each interval.
    """
    total = knots[-1] - knots[0]
    starts, sizes, last = [], [], []
    for a, b in zip(knots[:-1], knots[1:]):
        n = max(1, int(round(n_steps * (b - a) / total)))
        ts = np.linspace(a, b, n + 1)
        starts.append(ts[:-1])
        sizes.append(ts[1:] - ts[:-1])
        last.append((last[-1] if last else -1) + n)
    t, h = np.concatenate(starts), np.concatenate(sizes)
    return h, np.stack([t, t + 0.5 * h, t + h]), last


def _rk4_walk(rhs, lin, x, h, last):
    """rk4_step over the steps of _rk4_grid; the state after each step in last.

    rhs((k, i), x) is the right-hand side at time k (0 start, 1 midpoint,
    2 end) of step i, and lin((k, i), x) its part linear in x.  Both ODEs
    here are elementwise affine in the state with state-free coefficients,
    so one RK4 step is exactly x <- R_i * x + S_i, where S_i is the step of
    rhs from 0 and R_i the step of lin from 1.  R_i comes from lin alone, not
    as step(1) - step(0) of rhs: that difference cancels the constant part
    and loses digits.  The steps are formed _RK4_BLOCK at a time, one
    vectorised rk4_step each for R and S with index keys (k, block slice),
    then scanned in order; a block bounds the (block, *x.shape) temporaries
    that all steps at once would multiply.
    """
    last = set(last)
    out = []
    for a in range(0, h.size, _RK4_BLOCK):
        b = min(a + _RK4_BLOCK, h.size)
        hb = h[a:b].reshape((-1,) + (1,) * x.ndim)
        stages = ((0, slice(a, b)), (1, slice(a, b)), (2, slice(a, b)))
        gain = rk4_step(lin, 1.0, hb, stages)
        shift = rk4_step(rhs, 0.0, hb, stages)
        for i in range(b - a):
            x = gain[i] * x + shift[i]
            if a + i in last:
                out.append(x)
    return out


def _integrate_moment_odes(cases, bsums, x0s, sigma_mats, t_targets,
                           n_steps: int):
    """RK4 for the kernel mean and covariance ODEs of every case, one u grid.

    d(mean)/dt = f mean + phi from mean(0) = x0 and dV/dt = 2 f V + g^2 Sigma
    from V(0) = 0, with f, g and phi from one sde_coefficients call per case
    on the stage times.  For eta > 0 the drift offset phi ~ sigma'(t)
    diverges like t^(-1/2) at t = 0, which defeats a uniform-step
    integrator in t, so both walk u = sqrt(t), where each right side gains
    a factor 2u.  At u = 0, where sde_coefficients is undefined, 2u phi has
    the finite limit (eta s(0)/(eta+1)) * sqrt(d sigma^2/dt |_0) * sum_m h_m
    and every other term is 0.  The cases walk together, one row (mean) or
    (d, d) block (covariance) of the stacked states each.  Returns the
    stacked means and covariances at each target time.
    """
    h, us, last = _rk4_grid([0.0] + [math.sqrt(t) for t in t_targets], n_steps)
    live = us > 0.0
    u = us[live]
    t, twou = u * u, 2.0 * u
    # (stage, step, case) tables of 2u f, 2u g^2 and 2u phi
    fu = np.zeros(us.shape + (len(cases), 1))
    g2u = np.zeros(us.shape + (len(cases), 1, 1))
    phiu = np.empty(us.shape + x0s.shape)
    for j, (_, sched, eta, _) in enumerate(cases):
        c = sde_coefficients(sched, eta, bsums[j], np.minimum(t, sched.T))
        fu[live, j, 0] = twou * c.f
        g2u[live, j, 0, 0] = twou * (c.g * c.g)
        phiu[live, j] = twou[:, None] * c.phi
        phiu[~live, j] = (eta * sched.s(0.0) / (eta + 1.0)) \
            * math.sqrt(sched.dsigma2_dt(0.0)) * bsums[j]

    def mean_rhs(ki, mu):
        return fu[ki] * mu + phiu[ki]

    def mean_lin(ki, mu):
        return fu[ki] * mu

    def var_rhs(ki, v):
        return (2.0 * fu[ki][..., None]) * v + g2u[ki] * sigma_mats

    def var_lin(ki, v):
        return (2.0 * fu[ki][..., None]) * v

    return (_rk4_walk(mean_rhs, mean_lin, x0s, h, last),
            _rk4_walk(var_rhs, var_lin, np.zeros_like(sigma_mats), h, last))


def _checks_coefficients(seed: int, n_steps: int = 10_000):
    rng = Rng(seed, 10)
    vp = make_vp_schedule()
    ddpm = make_ddpm_schedule()
    pixel = np.eye(3)
    rand = _random_full_rank_rows(3, rng.derive(11))

    cases = []  # (tag, schedule, eta, basis rows)
    for eta in (0.0, 10.0):
        cases.append((f"vp-pixel-eta{eta:g}", vp, eta, pixel))
        cases.append((f"vp-random-eta{eta:g}", vp, eta, rand))
    # scaled schedule (s != 1) exercises the f = s'/s term
    cases.append(("ddpm-random-eta10", ddpm, 10.0, rand))

    x0s = np.stack([rng.standard_normal((rows.shape[1],))
                    for _, _, _, rows in cases])
    bsums = np.stack([rows.sum(axis=0) for _, _, _, rows in cases])
    sigma_mats = np.stack([rows.T @ rows for _, _, _, rows in cases])
    t_targets = (vp.T / 2.0, vp.T)  # both schedules share the horizon T
    means, variances = _integrate_moment_odes(cases, bsums, x0s, sigma_mats,
                                              t_targets, n_steps)

    checks = []
    for j, (tag, sched, eta, _) in enumerate(cases):
        mean_err = 0.0
        var_err = 0.0
        for t, mu_num, v_num in zip(t_targets, means, variances):
            s = sched.s(t)
            sig = sched.sigma(t)
            mu_ref = s * x0s[j] + (eta * s * sig / (eta + 1.0)) * bsums[j]
            v_ref = (s * sig / (eta + 1.0)) ** 2 * sigma_mats[j]
            mean_err = max(mean_err, np.linalg.norm(mu_num[j] - mu_ref)
                           / np.linalg.norm(mu_ref))
            var_err = max(var_err, np.linalg.norm(v_num[j] - v_ref)
                          / np.linalg.norm(v_ref))
        checks += [
            _upper(f"coefficients/{tag}/mean-rel-err", mean_err, 1.0e-6, seed),
            _upper(f"coefficients/{tag}/variance-rel-err", var_err, 1.0e-6, seed),
        ]
    return checks


# ---------------------------------------------------------------------------
# moments: Euler-Maruyama terminal cloud matches the kernel mean/covariance
# ---------------------------------------------------------------------------


def _em_chain_moments(p: DiffusionProcess, x0: np.ndarray, n_steps: int):
    """Exact mean/covariance of the Euler-Maruyama chain at the last knot.

    The update is linear in x with deterministic coefficients and independent
    Gaussian increments, so the chain moments follow closed recursions:
    mean <- (1 + f dt) mean + phi dt and C <- (1 + f dt)^2 C + g^2 dt Sigma.
    Their gap to the continuous-time kernel is the O(dt) bias the moment
    check must allow for.  The recursion walks step by step, so it shares
    no arithmetic with the tail-product scan of DiffusionProcess.simulate_sde.
    """
    sched = p.schedule
    times = np.linspace(sched.T / 1000.0, sched.T, n_steps + 1)
    dts = np.diff(times).tolist()
    mom0 = p.conditional_moments(x0, times[0])
    sigma_mat = p.cov_op.rows.T @ p.cov_op.rows
    c = sde_coefficients(sched, p.eta, p.cov_op.total, times[:-1])
    mean = mom0.mean
    cov = mom0.cov_scale * sigma_mat
    for f, g, phi, dt in zip(c.f.tolist(), c.g.tolist(), c.phi, dts):
        a = 1.0 + f * dt
        mean = a * mean + phi * dt
        cov = a * a * cov + (g * g * dt) * sigma_mat
    return mean, cov


def _checks_moments(seed: int, n_paths: int = 10_000, n_steps: int = 512):
    rng = Rng(seed, 20)
    sched = make_vp_schedule()
    rows = rng.standard_normal((2, 4))
    basis = BasisSet((4,), rows)
    x0 = rng.standard_normal((4,))

    checks = []
    for stream, eta in ((21, 0.0), (22, 10.0)):
        p = DiffusionProcess(sched, basis, eta=eta)
        paths = p.simulate_sde(x0, n_steps, n_paths, Rng(seed, stream))
        mom = p.conditional_moments(x0, sched.T)
        mu = mom.mean
        cov = mom.cov_scale * (rows.T @ rows)
        # discretization bias: gap between the exact chain moments and Eq. form
        chain_mu, chain_cov = _em_chain_moments(p, x0, n_steps)
        bias_mu = np.abs(chain_mu - mu)
        bias_cov = np.abs(chain_cov - cov)

        sample_mean = paths.mean(axis=0)
        se_mean = np.sqrt(np.diag(cov) / n_paths)
        z_mean = (np.abs(sample_mean - mu) - bias_mu) / se_mean

        centred = paths - mu
        sample_cov = centred.T @ centred / n_paths
        # SE of a Gaussian sample-covariance entry: sqrt((C_ii C_jj + C_ij^2)/n)
        dvar = np.outer(np.diag(cov), np.diag(cov))
        se_cov = np.sqrt((dvar + cov ** 2) / n_paths)
        z_cov = (np.abs(sample_cov - cov) - bias_cov) / se_cov

        checks.append(_upper(f"moments/eta{eta:g}/mean-z", float(z_mean.max()), Z_BOUND, seed))
        checks.append(_upper(f"moments/eta{eta:g}/cov-z", float(z_cov.max()), Z_BOUND, seed))
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
    rows = _random_full_rank_rows(3, rng.derive(31))
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
    rows2 = _random_full_rank_rows(2, rng.derive(32))
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
        rows = _random_full_rank_rows(d, rng.derive(41 + d))
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
        rows = _random_full_rank_rows(d, rng.derive(51 + d))
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
    rng = Rng(seed, 60)
    rows = _random_full_rank_rows(2, rng.derive(61))
    basis = BasisSet((2,), rows)
    p = DiffusionProcess(sched, basis, eta=0.0)
    pts = np.array([[-1.5, 0.0], [1.5, 0.5], [0.0, 1.8]])
    den = DiracMixtureDenoiser(DiracDataset(pts), p)
    t = sched.T / 5.0

    draw = Rng(seed, 62)
    y = pts[draw.integers(0, len(pts), (n_samples,))]
    x = p.forward_sample(y, t, draw)
    d_opt = den.denoise(x, t)
    resid = d_opt - y

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
# sampler: Euler and RK4 convergence orders, constant-denoiser closed form, round trip
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
    ref, limit = sample_reference(p, den, starts, 4096)
    fine, back = euler_trajectory(p, den, starts,
                                  make_time_grid(sched.T, 1000))[-1]
    e_coarse = float(np.linalg.norm(euler_trajectory(
        p, den, x_top[None, :], make_time_grid(sched.T, 100))[-1, 0] - ref))
    e_fine = float(np.linalg.norm(fine - ref))
    ratio = e_coarse / e_fine
    checks = [
        _lower("sampler/euler-error-ratio-min", ratio, 5.0, seed),
        _upper("sampler/euler-error-ratio-max", ratio, 20.0, seed),
    ]

    # constant denoiser: x(t) = c + (sigma(t)/sigma(T)) (x_T - c) for s = 1
    c = np.array([1.2, -0.8])
    cden = ConstantDenoiser(c)
    grid = make_time_grid(sched.T, 10_000)
    closed = c + (sched.sigma(grid[-1]) / sched.sigma(sched.T)) * (x_top - c)
    num = euler_trajectory(p, cden, x_top[None, :], grid)[-1, 0]
    rel = float(np.linalg.norm(num - closed) / np.linalg.norm(closed))
    checks.append(_upper("sampler/constant-denoiser-euler", rel, 1.0e-4, seed))

    def ref_err(steps: int) -> float:
        num_ref = sample_reference(p, cden, x_top[None, :], steps)[0]
        return float(np.linalg.norm(num_ref - closed) / np.linalg.norm(closed))

    rel_ref = ref_err(1000)
    checks.append(_upper("sampler/constant-denoiser-reference", rel_ref, 1.0e-8, seed))

    # round trip: the noised point integrated back down lands on the PFODE
    # limit as computed by the reference integrator
    rt = float(np.linalg.norm(back - limit) / np.linalg.norm(limit))
    checks.append(_upper("sampler/round-trip-rel-err", rt, 1.0e-2, seed))

    # RK4 is 4th order: twice the steps cut its error about 2^4 = 16-fold,
    # so the ratio lies in [12, 20], stored as its distance from 16
    order = ref_err(500) / rel_ref
    checks.append(_upper("sampler/reference-order", abs(order - 16.0), 4.0, seed))
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
    noise = p.noise_from_normals(rng.standard_normal((n_draws, p.basis.M)))
    zs = []
    zs.append(np.abs(noise.mean(axis=0)) * math.sqrt(n_draws))
    zs.append(np.abs(noise.var(axis=0) - 1.0) / math.sqrt(2.0 / n_draws))
    # raw-moment standard errors under N(0,1): Var(X^3) = 15, Var(X^4) = 96;
    # the powers are products in one reused buffer (a general pow costs ~10x)
    power = noise * noise
    power *= noise
    zs.append(np.abs(power.mean(axis=0)) / math.sqrt(15.0 / n_draws))
    power *= noise
    zs.append(np.abs(power.mean(axis=0) - 3.0) / math.sqrt(96.0 / n_draws))
    cov = noise.T @ noise / n_draws
    off = cov[~np.eye(4, dtype=bool)]
    zs.append(np.abs(off) * math.sqrt(n_draws))
    checks = [_upper("edm-reduction/noise-normality-z", float(np.concatenate(zs).max()),
                     Z_BOUND, seed)]
    # freed before the forward-kernel draw, which makes (n_draws, 4) arrays too
    del noise, power

    # forward kernel matches x0 + sigma * eps moments
    x0 = rng.standard_normal((2, 2)).reshape(-1)
    t = sched.T / 2.0
    sig = sched.sigma(t)
    batch = p.forward_sample(np.broadcast_to(x0, (n_draws, x0.size)), t,
                             rng.derive(81))
    z_mean = np.abs(batch.mean(axis=0) - x0) / (sig / math.sqrt(n_draws))
    z_var = np.abs(batch.var(axis=0) - sig ** 2) / (sig ** 2 * math.sqrt(2.0 / n_draws))
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
