import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basisdiff.bases import legendre_trig_basis, pixel_basis
from basisdiff.config import build_process, build_task, load_config
from basisdiff.denoisers import ConstantDenoiser, TinyNetwork
from basisdiff.fields import (PSNR_EXACT_MATCH, Field, Rng, field_from_bytes,
                              field_to_bytes, psnr, read_field, rmse,
                              write_field, write_pgm)
from basisdiff.process import DiffusionProcess
from basisdiff.samplers import make_time_grid, sample_reference
from basisdiff.schedules import make_vp_schedule
from basisdiff.tasks import (case3_discrete_demo, gen_residual_task,
                             run_restoration)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


# ---------------------------------------------------------------------------
# Field value semantics


def test_field_copies_and_is_read_only():
    src = np.array([1.0, 2.0])
    f = Field(src)
    src[0] = 99.0
    assert f.values[0] == 1.0
    with pytest.raises(ValueError):
        f.values[0] = 5.0


def test_field_reads_as_an_array():
    f = Field([[1.0, 2.0], [3.0, 4.0]])
    view = np.asarray(f)
    assert view is f.values and not view.flags.writeable
    copy = np.array(f)
    assert copy is not f.values and copy.flags.writeable
    np.testing.assert_array_equal(copy, f.values)
    assert np.asarray(f, dtype=np.float32).dtype == np.float32


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


def test_rng_integers_scalar_and_array():
    r = Rng(3)
    v = r.integers(0, 10)
    assert isinstance(v, int) and 0 <= v < 10
    arr = r.integers(0, 10, (5,))
    assert arr.shape == (5,) and np.all((arr >= 0) & (arr < 10))


def test_rng_one_value_range_draws_nothing():
    # integers(k, k + 1) is k, and leaves the stream where numpy's own
    # call leaves it: numpy draws nothing for a one-value range either
    r = Rng(11)
    gen = np.random.Generator(np.random.Philox(key=np.array([11, 0], np.uint64)))
    for k in (0, 5, -3):
        assert r.integers(k, k + 1) == k == gen.integers(k, k + 1)
        assert r.uniform() == gen.uniform()
    assert r.standard_normal() == gen.standard_normal()


def test_rng_uniform_scalar_matches_the_zero_d_draw():
    r = Rng(12, 3)
    gen = np.random.Generator(np.random.Philox(key=np.array([12, 3], np.uint64)))
    new = [r.uniform() for _ in range(100_000)]
    old = [gen.uniform(0.0, 1.0, ()) for _ in range(100_000)]
    assert type(new[0]) is float
    assert new == [float(v) for v in old]
    assert r.uniform(0.2, 0.8) == gen.uniform(0.2, 0.8, ())
    assert r.uniform(shape=(3,)).shape == (3,)


def test_rng_rejects_negative_key():
    with pytest.raises(ValueError):
        Rng(-1)


def test_rng_takes_an_integral_key_of_any_number_type():
    top = Rng(np.uint64(2 ** 64 - 1), np.int8(3))
    assert (top.seed, top.stream) == (2 ** 64 - 1, 3)
    assert type(top.seed) is int
    assert Rng(3.0).seed == 3
    assert Rng(3.0).uniform() == Rng(3).uniform()


def _no_draw(n, rng):
    raise AssertionError("drew before checking its arguments")


def _toy_process(eta=0.0):
    return DiffusionProcess(make_vp_schedule(), pixel_basis((2,)), eta)


def _restore_streaks(steps):
    """run_restoration on streaks.json's task with its clean image as the
    denoiser."""
    cfg = load_config(CONFIGS / "streaks.json")
    task, basis = build_task(cfg)
    return run_restoration(task, build_process(cfg, basis),
                           ConstantDenoiser(task.clean), steps)


# each library function reads a scalar argument through fields.cast with
# the row beside it, so a bad one is refused by name before any arithmetic
# (tier-1 makes numpy's RuntimeWarning an error, so the inf grid also
# catches a check that comes after the first product)
@pytest.mark.parametrize("call,message", [
    (lambda: Rng(1.5), "seed = 1.5 must be an integer"),
    (lambda: Rng(2 ** 64),
     f"seed = {2 ** 64} must be at most {2 ** 64 - 1}"),
    (lambda: Rng(True), "seed = True must be an integer"),
    (lambda: make_time_grid(math.nan, 5), "T = nan must be a finite number"),
    (lambda: make_time_grid(math.inf, 5), "T = inf must be a finite number"),
    (lambda: make_time_grid(100.0, 2.5), "steps = 2.5 must be an integer"),
    (lambda: _toy_process().simulate_sde(np.zeros(2), 2.5, 3, Rng(4)),
     "n_steps = 2.5 must be an integer"),
    (lambda: _toy_process().simulate_sde(np.zeros(2), 3, 2.5, Rng(4)),
     "n_paths = 2.5 must be an integer"),
    (lambda: sample_reference(_toy_process(), ConstantDenoiser(np.zeros(2)),
                              np.zeros((1, 2)), 4.5),
     "steps = 4.5 must be an integer"),
    (lambda: _toy_process(eta=True), "eta = True must be a finite number"),
    (lambda: legendre_trig_basis(1.5, 5, (4, 4)),
     "n1 = 1.5 must be an integer"),
    (lambda: case3_discrete_demo(_no_draw, [math.nan], 1500, Rng(1)),
     "eta_grid.0 = nan must be a finite number"),
    (lambda: TinyNetwork([3.7, 2], Rng(0)),
     "widths.0 = 3.7 must be an integer"),
    (lambda: TinyNetwork([3, True], Rng(0)),
     "widths.1 = True must be an integer"),
    (lambda: gen_residual_task((2.5, 2.5), "streaks", Rng(0)),
     "size = 2.5 must be an integer"),
    (lambda: gen_residual_task((0, 0), "streaks", Rng(0)),
     "size = 0 must be at least 1"),
    (lambda: _restore_streaks(-1), "steps = -1 must be at least 0"),
], ids=["rng-half", "rng-2^64", "rng-bool", "grid-nan-T", "grid-inf-T",
        "grid-half-steps", "sde-half-steps", "sde-half-paths",
        "reference-half-steps", "process-bool-eta", "legendre-half-n1",
        "case3-nan-eta", "network-fractional-width", "network-bool-width",
        "task-half-size", "task-zero-size", "restore-negative-steps"])
def test_library_refuses_a_bad_scalar_by_name(call, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call()


def test_library_casts_an_integral_value_of_any_form():
    # the casts that refuse 3.7 and True still take a tuple, numpy integers
    # and an integral float, and hand on plain ints
    assert TinyNetwork((3, 2), Rng(0)).widths == [3, 2]
    net = TinyNetwork([np.int64(3), np.int32(4), np.uint8(2)], Rng(0))
    assert net.widths == [3, 4, 2]
    assert {type(w) for w in net.widths} == {int}
    steps = _restore_streaks(0.0).steps
    assert steps == 0 and type(steps) is int


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


def test_metrics_and_residual_basis_take_an_array_as_a_field():
    from basisdiff.bases import residual_basis
    a, b = np.array([0.0, 1.0, 0.25]), np.array([1.0, 1.0, 0.5])
    for x, y in [(a, b), (a, Field(b)), (Field(a), b)]:
        assert psnr(x, y, 2.0) == psnr(Field(a), Field(b), 2.0)
        assert rmse(x, y) == rmse(Field(a), Field(b))
        np.testing.assert_array_equal(
            residual_basis(x, y).elements(),
            residual_basis(Field(a), Field(b)).elements())
    for bad in [(np.zeros(0), np.zeros(0)), (a, np.array([1.0, np.nan, 0.0])),
                (a, np.zeros(2))]:
        for call in (psnr, rmse, residual_basis):
            with pytest.raises(ValueError):
                call(*bad)


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
