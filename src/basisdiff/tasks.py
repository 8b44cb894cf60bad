"""Desk-scale synthetic restoration tasks and the discrete-noise demo.

Each task is a (clean, degraded) pair of procedurally generated phantom
images plus a domain transform:

* smooth-field: multiplicative smooth bias built from a fixed basis set,
  worked in the log domain where it becomes additive.
* streaks: additive high-magnitude oriented lines with a small "metal" disk
  mask whose interior carries the strongest corruption.
* shadow-box: intensities scaled down inside a rectangle; the mask marks it.

Restoration starts the deterministic sampler from the transformed degraded
image itself, with no extra noise injected, and reports psnr/rmse before and
after (split by mask region when one exists).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bases import BasisSet
from .denoisers import Denoiser
from .fields import Field, Rng, cast, psnr, rmse
from .process import DiffusionProcess
from .samplers import euler_trajectory, make_time_grid

EXTENT = (int, 1, None)  # each side of a task generator's size
RESTORE_STEPS = (int, 0, None)  # run_restoration's steps; 0 runs no walk


@dataclass(frozen=True)
class TaskInstance:
    name: str
    clean: Field
    degraded: Field
    mask: Field | None
    transform: str  # "log" | "identity"

    def __post_init__(self):
        if self.clean.shape != self.degraded.shape:
            raise ValueError("clean and degraded must share a shape")
        if self.mask is not None and self.mask.shape != self.clean.shape:
            raise ValueError("mask must share the image shape")
        if self.transform not in ("log", "identity"):
            raise ValueError(f"unknown transform {self.transform!r}")


def _phantom(shape, rng: Rng) -> np.ndarray:
    """Piecewise-constant image in (0,1]: background plus 1..3 shapes."""
    h, w = shape
    img = np.full((h, w), 0.2 + 0.2 * float(rng.uniform()))
    yy, xx = np.mgrid[0:h, 0:w]
    n_shapes = rng.integers(1, 4)  # 2..4 gray levels in total
    for _ in range(n_shapes):
        level = 0.3 + 0.65 * float(rng.uniform())
        if rng.integers(0, 2) == 0:
            cy = float(rng.uniform(0.2, 0.8)) * h
            cx = float(rng.uniform(0.2, 0.8)) * w
            r = float(rng.uniform(0.15, 0.35)) * min(h, w)
            img[(yy - cy) ** 2 + (xx - cx) ** 2 <= r * r] = level
        else:
            y0 = rng.integers(0, max(1, h // 2))
            x0 = rng.integers(0, max(1, w // 2))
            y1 = y0 + 1 + rng.integers(0, max(1, h // 2))
            x1 = x0 + 1 + rng.integers(0, max(1, w // 2))
            img[y0:y1, x0:x1] = level
    return img


def gen_smooth_field_task(size, basis: BasisSet, rng: Rng) -> TaskInstance:
    """Multiplicative smooth-bias corruption over a phantom image.

    The bias is a random positive combination of the basis functions,
    rescaled to span exactly [0.8, 1.25]; clean values stay in (0,1], so the
    log transform is always defined.
    """
    shape = tuple(cast(n, *EXTENT, "size") for n in size)
    if len(shape) != 2:
        raise ValueError("smooth-field task needs a 2-D size")
    if basis.shape != shape:
        raise ValueError("basis grid does not match the task size")
    clean = _phantom(shape, rng)
    coef = rng.uniform(0.0, 1.0, basis.M)
    raw = (coef @ basis.elements()).reshape(shape)
    lo, hi = float(raw.min()), float(raw.max())
    if hi - lo < 1e-12:
        bias = np.full(shape, 1.0)
    else:
        bias = 0.8 + 0.45 * (raw - lo) / (hi - lo)
    return TaskInstance(name="smooth-field", clean=Field(clean),
                        degraded=Field(clean * bias), mask=None,
                        transform="log")


def gen_residual_task(size, pattern: str, rng: Rng) -> TaskInstance:
    """Additive-residual corruptions with a region mask."""
    shape = tuple(cast(n, *EXTENT, "size") for n in size)
    if len(shape) != 2:
        raise ValueError("residual task needs a 2-D size")
    h, w = shape
    clean = _phantom(shape, rng)
    yy, xx = np.mgrid[0:h, 0:w]
    if pattern == "streaks":
        degraded = clean.copy()
        for _ in range(3 + rng.integers(0, 3)):
            th = float(rng.uniform(0.0, math.pi))
            offset = float(rng.uniform(-0.5, 0.5)) * min(h, w)
            amp = float(rng.uniform(0.4, 0.8)) * (1 if rng.integers(0, 2) else -1)
            line = (xx - w / 2) * math.cos(th) + (yy - h / 2) * math.sin(th)
            degraded[np.abs(line - offset) < 0.7] += amp
        cy = float(rng.uniform(0.3, 0.7)) * h
        cx = float(rng.uniform(0.3, 0.7)) * w
        r = max(1.5, 0.12 * min(h, w))
        mask = ((yy - cy) ** 2 + (xx - cx) ** 2 <= r * r).astype(np.float64)
        # the metal interior carries the dominant corruption
        degraded[mask == 1.0] += 1.5
        return TaskInstance(name="streaks", clean=Field(clean),
                            degraded=Field(degraded), mask=Field(mask),
                            transform="identity")
    if pattern == "shadow-box":
        y0 = rng.integers(0, max(1, h // 3))
        x0 = rng.integers(0, max(1, w // 3))
        y1 = y0 + max(2, h // 3) + rng.integers(0, max(1, h // 4))
        x1 = x0 + max(2, w // 3) + rng.integers(0, max(1, w // 4))
        mask = np.zeros((h, w))
        mask[y0:y1, x0:x1] = 1.0
        factor = 0.35 + 0.2 * float(rng.uniform())
        degraded = clean * (1.0 - mask) + clean * factor * mask
        return TaskInstance(name="shadow-box", clean=Field(clean),
                            degraded=Field(degraded), mask=Field(mask),
                            transform="identity")
    raise ValueError(f"unknown pattern {pattern!r}")


def _transform(task: TaskInstance, img: Field) -> Field:
    if task.transform == "log":
        v = img.values
        if np.any(v <= 0.0):
            raise ValueError("log transform requires strictly positive images")
        return Field(np.log(v))
    return img


def _untransform(task: TaskInstance, img: Field) -> Field:
    if task.transform == "log":
        return Field(np.exp(img.values))
    return img


def _region_metrics(a: Field, b: Field, mask: Field):
    """psnr/rmse restricted to mask==1 and mask==0 pixel sets."""
    m = mask.flat() == 1.0
    out = {}
    for key, sel in (("mask", m), ("background", ~m)):
        if not np.any(sel):
            continue
        a_sel, b_sel = a.flat()[sel], b.flat()[sel]
        out[f"rmse_{key}"] = rmse(a_sel, b_sel)
        out[f"psnr_{key}"] = psnr(a_sel, b_sel)
    return out


@dataclass
class RestorationResult:
    task: str
    steps: int
    psnr_in: float
    psnr_out: float
    rmse_in: float
    rmse_out: float
    restored: Field
    x_init: Field
    region_in: dict
    region_out: dict

    def metrics_dict(self) -> dict:
        rec = {
            "task": self.task,
            "steps": self.steps,
            "psnr_in": self.psnr_in,
            "psnr_out": self.psnr_out,
            "rmse_in": self.rmse_in,
            "rmse_out": self.rmse_out,
        }
        for k, v in self.region_in.items():
            rec[f"{k}_in"] = v
        for k, v in self.region_out.items():
            rec[f"{k}_out"] = v
        return rec


def run_restoration(task: TaskInstance, p: DiffusionProcess, den: Denoiser,
                    steps: int, scheme: str = "uniform") -> RestorationResult:
    """Restore the degraded image by deterministic reverse sampling.

    The sampler starts from the transformed degraded image itself (bit-for-
    bit; no noise injected).  steps = 0 is an identity run that skips the
    sampler entirely.
    """
    steps = cast(steps, *RESTORE_STEPS, "steps")
    if p.shape != task.clean.shape:
        raise ValueError("process shape does not match the task")
    x_init = _transform(task, task.degraded)
    if steps == 0:
        restored = task.degraded
    else:
        grid = make_time_grid(p.schedule.T, steps, scheme)
        end = euler_trajectory(p, den, x_init.flat()[None, :], grid)[-1, 0]
        restored = _untransform(task, Field(end, shape=x_init.shape))
    region_in, region_out = {}, {}
    if task.mask is not None:
        region_in = _region_metrics(task.degraded, task.clean, task.mask)
        region_out = _region_metrics(restored, task.clean, task.mask)
    return RestorationResult(
        task=task.name,
        steps=steps,
        psnr_in=psnr(task.degraded, task.clean),
        psnr_out=psnr(restored, task.clean),
        rmse_in=rmse(task.degraded, task.clean),
        rmse_out=rmse(restored, task.clean),
        restored=restored,
        x_init=x_init,
        region_in=region_in,
        region_out=region_out,
    )


# The largest rate numpy's Generator.poisson accepts
# (numpy.random._common.POISSON_LAM_MAX): the int64 maximum less ten of its
# square roots, so a draw stays inside the int64 result.  Above it numpy
# raises "lam value too large".
POISSON_LAM_MAX = float(np.iinfo(np.int64).max
                        - np.sqrt(np.iinfo(np.int64).max) * 10)
CASE3_DRAWS = (int, 1000, None)  # case3_discrete_demo's draws per arm, n
CASE3_ETAS = ([float], 0, None)  # and each eta of its eta_grid


def centered_poisson_sampler(lam: float = 4.0):
    """Example non-Gaussian target for the discrete-noise demo."""

    def sampler(n: int, rng: Rng):
        return rng.poisson(lam, n).astype(np.float64) - lam

    return sampler


def tv_distance(a: np.ndarray, b: np.ndarray, bins: int = 64) -> float:
    """Total-variation distance between two samples on a shared binning."""
    lo = min(float(a.min()), float(b.min()))
    hi = max(float(a.max()), float(b.max()))
    if hi <= lo:
        hi = lo + 1.0
    pa, _ = np.histogram(a, bins=bins, range=(lo, hi))
    pb, _ = np.histogram(b, bins=bins, range=(lo, hi))
    pa = pa / pa.sum()
    pb = pb / pb.sum()
    return 0.5 * float(np.abs(pa - pb).sum())


def case3_discrete_demo(noise_sampler, eta_grid, n: int, rng: Rng):
    """Histogram distance between target draws and mediated draws per eta.

    For each eta, fresh target draws h are compared against
    N = ((eta + eps)/(eta + 1)) h with standard normal eps.  Larger eta
    suppresses the Gaussian smearing, so the distance should fall toward the
    two-sample noise floor; the table reports, it does not assert.
    """
    n = cast(n, *CASE3_DRAWS, "n")
    table = []
    for eta in cast(list(eta_grid), *CASE3_ETAS, "eta_grid"):
        ref = noise_sampler(n, rng)
        h = noise_sampler(n, rng)
        eps = rng.standard_normal(n)
        mediated = (eta + eps) / (eta + 1.0) * h
        table.append((eta, tv_distance(ref, mediated)))
    return table
