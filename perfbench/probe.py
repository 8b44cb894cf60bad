"""Host-speed probe: fixed work, timed while and between the units of a run.

The benchmark runs on a few cores of a shared host, whose speed moves by
tens of percent from one second to the next as co-tenants come and go.  A
median over a run cannot remove that, because whole runs fall into slow
stretches.  The probe measures it: ``probe()`` times a fixed mix of small
kernels on inputs that never change.  Contention does not slow every kind
of work alike (a co-tenant that fills the caches slows matrix products and
parameter updates, and barely touches a scalar Python loop), so each
workload picks the kernels that resemble its own profile (``use``), and
the set-up, which is mostly imports, uses the scalar loop alone.

``timed(fn, before_s)`` runs one unit with the probe beside it: after it,
and every INTERVAL_S of wall time during it, from a SIGALRM handler.
Python runs the handler in the main thread between bytecodes, so the probe
never overlaps the program's own work, and the unit's time leaves the
probe's out.  That time, divided by the mean probe time (trimmed, so that
a probe the host stalled does not count) and multiplied by the mix's
nominal time, is the time the unit would have taken on a host that runs
each kernel in its nominal time (``scaled``).  A change of the host's
speed moves the probe as well, and cancels; a change of basisdiff's speed
leaves the probe, which is the benchmark's code, as it was.  The scalar
loop needs nothing but the standard library, so it can run while a set-up
imports numpy; the other kernels load numpy when ``use`` picks them.
"""

from __future__ import annotations

import math
import signal
import time

# Wall time between probes inside a unit.  The host switches speed every
# second or so; a probe every 50 ms follows it.
INTERVAL_S = 0.05

_spent = 0.0  # seconds of probe run inside timed calls so far
_data = {}  # the numpy kernels' fixed inputs, made on first use


def _bump(t: float) -> float:
    return math.exp(-0.5 * t * t) * math.sqrt(1.0 + t)


def _scalar() -> None:
    """Scalar Python calls, like Schedule's and verify's own loops."""
    acc = 0.0
    for i in range(3200):
        acc += _bump(i * 1e-4)


def _vector() -> None:
    """Small numpy ops, where the per-call overhead dominates."""
    np, v = _data["np"], _data["v"]
    for _ in range(120):
        v = np.tanh(v * 0.5 + 0.1)
        v.sum()


def _network() -> None:
    """Forward and backward products of a 257-96-96-256 net at batch 8."""
    np, x, w1, w2, w3 = (_data[k] for k in ("np", "x", "w1", "w2", "w3"))
    for _ in range(16):
        h1 = np.maximum(x @ w1, 0.0)
        h2 = np.maximum(h1 @ w2, 0.0)
        g1 = ((((h2 @ w3) @ w3.T) * (h2 > 0)) @ w2.T) * (h1 > 0)
        x.T @ g1


def _adam() -> None:
    """One Adam-style update over 60k parameters, temporaries and all."""
    np, g, p = _data["np"], _data["grad"], _data["params"]
    m = 0.1 * g
    s = 0.001 * g * g
    p - 1e-3 * m / (np.sqrt(s) + 1e-8)


def _cholesky() -> None:
    """Factor a 256 x 256 SPD matrix and solve against 8 columns."""
    sla = _data["sla"]
    sla.cho_solve(sla.cho_factor(_data["spd"]), _data["rhs"])


# kernel -> (function, nominal seconds: its median on an idle 2-vCPU Intel
# Xeon VM, BLAS at one thread)
KERNELS = {
    "scalar": (_scalar, 0.0011),
    "vector": (_vector, 0.0010),
    "network": (_network, 0.0015),
    "adam": (_adam, 0.0015),
    "cholesky": (_cholesky, 0.0010),
}
_mix = ("scalar",)


def _load_numpy_inputs() -> None:
    import numpy as np
    import scipy.linalg as sla

    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 256))
    _data.update(
        np=np, sla=sla, spd=a @ a.T + 256.0 * np.eye(256),
        rhs=rng.standard_normal((256, 8)), x=rng.standard_normal((8, 257)),
        w1=rng.standard_normal((257, 96)) / 16.0,
        w2=rng.standard_normal((96, 96)) / 10.0,
        w3=rng.standard_normal((96, 256)) / 10.0,
        params=rng.standard_normal(60000), grad=rng.standard_normal(60000),
        v=rng.standard_normal(257))


def use(*kernels: str) -> None:
    """Make ``probe()`` run these kernels, in this order."""
    global _mix
    if not kernels or set(kernels) - set(KERNELS):
        raise ValueError(f"probe kernels must be among {sorted(KERNELS)}")
    if set(kernels) - {"scalar"} and not _data:
        _load_numpy_inputs()
    _mix = kernels


def nominal_s() -> float:
    """The probe's time on the reference host, for the current mix."""
    return sum(KERNELS[k][1] for k in _mix)


def probe() -> float:
    """Seconds the current mix of kernels takes now."""
    t0 = time.perf_counter()
    for k in _mix:
        KERNELS[k][0]()
    return time.perf_counter() - t0


def warm() -> None:
    """Run the probe until its time settles (first calls load code paths)."""
    for _ in range(3):
        probe()


def spent() -> float:
    """Seconds the probe has run inside timed calls so far.

    A unit that times a part of itself subtracts the growth of this.
    """
    return _spent


def scaled(wall_s: float, probe_s: float) -> float:
    """A time at the nominal host speed, given the probe time beside it."""
    return wall_s * nominal_s() / probe_s


def timed(fn, before_s: float) -> tuple:
    """(fn(), wall_s, probe_s, after_s), with the probe sampling beside fn.

    ``before_s`` is a probe time taken just before fn; ``after_s`` is one
    taken just after, for the next call.  ``wall_s`` leaves out the probes
    run during fn, and ``probe_s`` is the trimmed mean of all of them.
    """
    inside = []

    def tick(signum, frame):
        global _spent
        inside.append(probe())
        _spent += inside[-1]

    old = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    t0 = time.perf_counter()
    try:
        out = fn()
    finally:
        wall = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    after = probe()
    probe_s = trimmed_mean([before_s, *inside, after])
    return out, wall - sum(inside), probe_s, after


def trimmed_mean(samples: list) -> float:
    """Mean of the middle 60 %: a probe the host stalled does not count.

    A plain median would jump between the host's fast and slow states; the
    trimmed mean follows the share of time spent in each.
    """
    xs = sorted(samples)
    k = len(xs) // 5
    xs = xs[k:len(xs) - k]
    return sum(xs) / len(xs)
