import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basisdiff.fields import (PSNR_EXACT_MATCH, Field, Rng, field_from_bytes,
                              field_to_bytes, psnr, read_field, rmse,
                              write_field, write_pgm)


# ---------------------------------------------------------------------------
# Field value semantics


def test_field_copies_and_is_read_only():
    src = np.array([1.0, 2.0])
    f = Field(src)
    src[0] = 99.0
    assert f.values[0] == 1.0
    with pytest.raises(ValueError):
        f.values[0] = 5.0


def test_field_rejects_non_finite():
    with pytest.raises(ValueError):
        Field([1.0, np.nan])
    with pytest.raises(ValueError):
        Field([np.inf])


def test_field_shape_size_flat_reshape():
    f = Field(np.arange(6.0), shape=(2, 3))
    assert f.shape == (2, 3) and f.size == 6 and f.ndim == 2
    assert np.array_equal(f.flat(), np.arange(6.0))
    assert Field(f.values, shape=(3, 2)).shape == (3, 2)


def test_field_constructors():
    z = Field(np.zeros((2, 2)))
    assert z.shape == (2, 2) and np.all(z.values == 0.0)
    f = Field([1, 1, 1], shape=(3,))
    assert f.values.dtype == np.float64 and np.all(f.values == 1.0)


# ---------------------------------------------------------------------------
# Rng determinism and stream independence


def test_rng_fixed_key_is_reproducible():
    x = Rng(1, 0).standard_normal(4)
    y = Rng(1, 0).standard_normal(4)
    assert np.array_equal(x, y)


def test_rng_streams_differ():
    x = Rng(1, 0).standard_normal(8)
    y = Rng(1, 1).standard_normal(8)
    assert not np.array_equal(x, y)
    assert Rng(1, 0).derive(1).standard_normal(8) == pytest.approx(y)


def test_rng_integers_scalar_and_array():
    r = Rng(3)
    v = r.integers(0, 10)
    assert isinstance(v, int) and 0 <= v < 10
    arr = r.integers(0, 10, (5,))
    assert arr.shape == (5,) and np.all((arr >= 0) & (arr < 10))


def test_rng_rejects_negative_key():
    with pytest.raises(ValueError):
        Rng(-1)


def test_standard_normal_empty_extent():
    assert Rng(0).standard_normal((0,)).size == 0


def test_standard_normal_moments_one_million_draws():
    x = Rng(5, 9).standard_normal((1_000_000,))
    assert -0.003 <= x.mean() <= 0.003
    assert 0.995 <= x.var() <= 1.005


# ---------------------------------------------------------------------------
# Scalar metrics


def test_psnr_exact_match_sentinel():
    x = Field([0.3, 0.4])
    assert psnr(x, x, 1.0) == PSNR_EXACT_MATCH


def test_psnr_hand_value():
    a = Field(np.zeros(4))
    b = Field(np.full(4, 0.1))
    assert psnr(a, b, 1.0) == pytest.approx(20.0, abs=1e-12)


def test_psnr_errors():
    with pytest.raises(ValueError):
        psnr(Field([1.0]), Field([1.0, 2.0]))
    with pytest.raises(ValueError):
        psnr(Field([1.0]), Field([1.0]), peak=0.0)


@settings(max_examples=30)
@given(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=8),
       st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=8))
def test_psnr_is_symmetric(xs, ys):
    n = min(len(xs), len(ys))
    a, b = Field(xs[:n]), Field(ys[:n])
    assert psnr(a, b) == pytest.approx(psnr(b, a))


def test_rmse_hand_values():
    assert rmse(Field([1.0, 2.0]), Field([1.0, 2.0])) == 0.0
    assert rmse(Field([0.0, 0.0]), Field([3.0, 4.0])) == pytest.approx(
        np.sqrt(12.5), rel=1e-15)


@settings(max_examples=30)
@given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8),
       st.floats(0.0, 4.0))
def test_rmse_scales_linearly(xs, c):
    a = Field(xs)
    b = Field(np.zeros(a.shape))
    assert rmse(Field(c * a.values), b) == pytest.approx(c * rmse(a, b),
                                                         abs=1e-12)


# ---------------------------------------------------------------------------
# Serialization


def test_field_bytes_round_trip():
    f = Field(np.arange(12.0), shape=(3, 4))
    g = field_from_bytes(field_to_bytes(f))
    assert g.shape == f.shape and np.array_equal(g.values, f.values)


def test_field_bytes_rejects_truncation():
    buf = field_to_bytes(Field([1.0, 2.0]))
    with pytest.raises(ValueError):
        field_from_bytes(buf[:-4])
    with pytest.raises(ValueError):
        field_from_bytes(b"\x01")


def _parse_or_value_error(buf: bytes) -> None:
    """A buffer parses to a field that writes back the same bytes, or it
    raises ValueError; nothing else may escape."""
    try:
        f = field_from_bytes(buf)
    except ValueError:
        return
    assert field_to_bytes(f) == buf


@settings(deadline=None, max_examples=300)
@given(st.binary(max_size=200))
def test_field_from_random_bytes(buf):
    _parse_or_value_error(buf)


_EXTENT = st.one_of(st.integers(0, 3), st.sampled_from([2 ** 32, 2 ** 63]),
                    st.integers(0, 2 ** 64 - 1))


@settings(deadline=None, max_examples=300)
@given(st.lists(_EXTENT, max_size=70),
       st.one_of(st.none(), st.integers(0, 2 ** 64 - 1)),
       st.one_of(st.none(), st.integers(0, 96)),
       st.binary(min_size=8, max_size=8))
def test_field_from_bytes_with_hostile_headers(shape, ndim, n_values, value):
    # extents that are huge, zero or more than numpy's 64 axes, a declared
    # rank that may disagree with them, and a payload of the declared size
    # (n_values None) or of any other length
    if n_values is None:
        count = math.prod(shape)
        n_values = count if count <= 96 else 1
    buf = (struct.pack("<Q", len(shape) if ndim is None else ndim)
           + struct.pack(f"<{len(shape)}Q", *shape) + value * n_values)
    _parse_or_value_error(buf)


def test_field_file_round_trip(tmp_path):
    f = Field([[0.5, -1.0], [2.0, 0.25]])
    write_field(f, tmp_path / "f.bin")
    g = read_field(tmp_path / "f.bin")
    assert g.shape == f.shape and np.array_equal(g.values, f.values)


def test_write_pgm(tmp_path):
    write_pgm(Field([[0.0, 1.0], [0.5, 0.25]]), tmp_path / "a.pgm")
    buf = (tmp_path / "a.pgm").read_bytes()
    assert buf.startswith(b"P5\n2 2\n255\n") and len(buf) == 11 + 4
    assert buf[11] == 0 and buf[12] == 255
    write_pgm(Field(np.full((2, 2), 0.7)), tmp_path / "c.pgm")
    assert (tmp_path / "c.pgm").read_bytes()[-4:] == bytes([127] * 4)
    with pytest.raises(ValueError):
        write_pgm(Field([1.0]), tmp_path / "d.pgm")
