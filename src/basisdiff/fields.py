"""Dense float64 fields, deterministic random streams, and scalar metrics.

Every stochastic routine in the package draws from :class:`Rng`, a thin
wrapper around numpy's counter-based Philox (4x64) bit generator keyed by
``(seed, stream)``.  Identical keys reproduce identical byte sequences across
runs and platforms, which the golden test vectors rely on; distinct stream
ids give independent sequences.  Normal variates come from numpy's ziggurat
sampler.

``cast`` checks a value against a row ``(kind, least, most)``; a library
function reads each scalar argument through it, with a row kept beside the
function (``SEED`` for Rng), and ``config.SCHEMA`` is built from those rows.
"""

from __future__ import annotations

import math
import struct

import numpy as np

# Finite stand-in for +infinity so metric tables stay portable (CSV/JSON).
PSNR_EXACT_MATCH = 1.0e9
_POSITIVE = math.ulp(0.0)  # as a least: every float above zero
_BELOW_ONE = math.nextafter(1.0, 0.0)  # as a most: every float below one


class ConfigError(ValueError):
    """A value its row refuses, from a config or a library argument."""


def cast(x, kind, least, most, path: str):
    """x as a value of kind within [least, most], None leaving a side open;
    else a ConfigError (a ValueError) whose message starts with path.  A kind
    is int, float or str, a tuple of allowed names, or [kind] for a list (a
    list of lists needs rows of one length, at least 1)."""
    if isinstance(kind, list):
        if not isinstance(x, list):
            raise ConfigError(f"{path} = {x!r} must be a list")
        if (kind[0] is float and least is None and most is None
                and set(map(type, x)) <= {float}
                and all(map(math.isfinite, x))):
            return x  # a row of finite floats, as points has, is cast already
        out = [cast(v, kind[0], least, most, f"{path}.{i}")
               for i, v in enumerate(x)]
        rows = {len(row) for row in out} if isinstance(kind[0], list) else {1}
        if len(rows) > 1 or 0 in rows:
            raise ConfigError(f"{path} rows must share one length >= 1")
        return out
    if isinstance(kind, tuple):
        ok, need = x in kind, "one of " + ", ".join(kind)
    elif kind is str:
        ok, need = isinstance(x, str), "a string"
    else:  # a bool is no number, and an int key takes 3.0 but not 2.9
        need = "an integer" if kind is int else "a finite number"
        ok = (isinstance(x, (int, np.integer)) and type(x) is not bool
              or isinstance(x, (float, np.floating)) and (
                  float(x).is_integer() if kind is int else math.isfinite(x)))
    if not ok:
        raise ConfigError(f"{path} = {x!r} must be {need}")
    if kind not in (int, float):
        return x
    try:
        y = kind(x)
    except OverflowError:  # an int too large for a float
        raise ConfigError(f"{path} = {x!r} must be {need}") from None
    if least is not None and y < least:
        need = "positive" if least == _POSITIVE else f"at least {least!r}"
        raise ConfigError(f"{path} = {x!r} must be {need}")
    if most is not None and y > most:
        need = "below 1" if most == _BELOW_ONE else f"at most {most!r}"
        raise ConfigError(f"{path} = {x!r} must be {need}")
    return y


class Field:
    """Immutable dense array of 64-bit reals with an explicit shape.

    Construction copies the input, coerces to float64, and rejects NaN/Inf
    entries.  The wrapped array is marked read-only; ``.values`` and
    ``np.asarray(field)`` read it without a copy, ``np.array(field)`` copies.
    """

    __slots__ = ("_values",)

    def __init__(self, values, shape=None):
        arr = np.array(values, dtype=np.float64, order="C")
        if shape is not None:
            arr = arr.reshape(tuple(int(n) for n in shape))
        if not np.all(np.isfinite(arr)):
            raise ValueError("field entries must be finite")
        arr.setflags(write=False)
        self._values = arr

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def shape(self) -> tuple:
        return self._values.shape

    @property
    def size(self) -> int:
        return self._values.size

    @property
    def ndim(self) -> int:
        return self._values.ndim

    def flat(self) -> np.ndarray:
        """Row-major flat view of the data."""
        return self._values.reshape(-1)

    def __array__(self, dtype=None, copy=None):
        return np.array(self._values, dtype=dtype, copy=copy)

    def __repr__(self):
        return f"Field(shape={self.shape})"


SEED = (int, 0, 2 ** 64 - 1)  # a seed or a stream: half of the Philox key


class Rng:
    """Deterministic random source keyed by (seed, stream).

    The two ids form the 128-bit Philox key directly, so any (seed, stream)
    pair names one fixed, platform-independent sequence.  One Rng must not be
    shared across concurrent workers; give each worker its own stream instead.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = cast(seed, *SEED, "seed")
        self.stream = cast(stream, *SEED, "stream")
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def standard_normal(self, shape=()) -> np.ndarray:
        return self._gen.standard_normal(shape)

    def uniform(self, low=0.0, high=1.0, shape=None):
        """Uniform on [low, high); a Python float unless shape given."""
        return self._gen.uniform(low, high, shape)

    def integers(self, low: int, high: int, shape=None):
        """Integers drawn uniformly from [low, high); scalar unless shape given."""
        if shape is None:
            if high == low + 1:  # numpy draws nothing for it either
                return int(low)
            return int(self._gen.integers(low, high))
        return self._gen.integers(low, high, shape)

    def poisson(self, lam: float, shape=()) -> np.ndarray:
        return self._gen.poisson(lam, shape)

    def __repr__(self):
        return f"Rng(seed={self.seed}, stream={self.stream})"


def as_pair(a, b, what: str):
    """Fields or arrays a and b as float64 arrays of one non-empty shape,
    read without a copy; non-finite entries are refused, as a Field does."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise ValueError(f"{what} is undefined for empty fields")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("field entries must be finite")
    return a, b


def psnr(a, b, peak: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB; PSNR_EXACT_MATCH when a == b."""
    a, b = as_pair(a, b, "psnr")
    peak = cast(peak, float, _POSITIVE, None, "peak")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return PSNR_EXACT_MATCH
    return 10.0 * math.log10(peak * peak / mse)


def rmse(a, b) -> float:
    a, b = as_pair(a, b, "rmse")
    return float(np.sqrt(np.mean((a - b) ** 2)))


# ---------------------------------------------------------------------------
# Serialization: little-endian extents header followed by raw doubles, a
# CSV table writer, and a PGM dump for eyeballing 2-D fields.

def field_to_bytes(f: Field) -> bytes:
    head = struct.pack("<Q", f.ndim) + struct.pack(f"<{f.ndim}Q", *f.shape)
    return head + f.values.astype("<f8").tobytes()


def field_from_bytes(buf: bytes) -> Field:
    if len(buf) < 8:
        raise ValueError("truncated field header")
    (ndim,) = struct.unpack_from("<Q", buf, 0)
    off = 8 + 8 * ndim
    if len(buf) < off:
        raise ValueError("truncated extents header")
    shape = struct.unpack_from(f"<{ndim}Q", buf, 8)
    count = 1
    for n in shape:
        count *= n
    if len(buf) != off + 8 * count:
        raise ValueError("field payload size does not match extents")
    data = np.frombuffer(buf, dtype="<f8", count=count, offset=off)
    return Field(data, shape=shape)


def write_field(f: Field, path) -> None:
    with open(path, "wb") as fh:
        fh.write(field_to_bytes(f))


def read_field(path) -> Field:
    with open(path, "rb") as fh:
        return field_from_bytes(fh.read())


def write_csv(path, header, rows) -> None:
    """CSV of the header, then each row as rows yields it; a row holds Python
    numbers (ndarray.tolist()), printed as repr, which round-trips floats."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\n")


def write_pgm(f: Field, path) -> None:
    """8-bit binary PGM with the value range rescaled to 0..255."""
    if f.ndim != 2:
        raise ValueError("PGM dump requires a 2-D field")
    v = f.values
    lo, hi = float(v.min()), float(v.max())
    if hi > lo:
        q = np.round((v - lo) / (hi - lo) * 255.0)
    else:
        q = np.full(v.shape, 127.0)
    header = f"P5\n{v.shape[1]} {v.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header + q.astype(np.uint8).tobytes())
