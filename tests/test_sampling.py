"""Blocked Gaussian stream, packed Schur factors and their product, with NumPy only.

The stream is checked bit for bit against the unblocked formula, kept
here as the reference; a packed factor through its dense assembly,
dense_factor, against the Toeplitz matrix of its column,
symmetric_toeplitz, both of which tests/test_simulate.py also uses; the
product against the full matrix product.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from specpole import simulate
from specpole.model import builtin_filter, indicator_model
from specpole.simulate import coefficient_covariance, exact_coefficient_sample, gaussian_stream
from specpole.transform import ScaleSchedule, ScheduleLevel, geometric_schedule


def reference_mix64(z):
    z = np.asarray(z, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def reference_quantile(p):
    q = p - 0.5
    x = simulate._rational(simulate._PPND_CENTRAL, 0.180625 - q * q) * q
    tail = np.abs(q) > 0.425
    pt = p[tail]
    s = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
    t = simulate._rational(simulate._PPND_NEAR_TAIL, s - 1.6)
    far = s > 5.0
    t[far] = simulate._rational(simulate._PPND_FAR_TAIL, s[far] - 5.0)
    x[tail] = np.copysign(t, q[tail])
    return x


def reference_stream(seed, tag, indices):
    """Every step of the stream on the whole broadcast array at once."""
    seeds = np.asarray(seed, dtype=object)
    seeds = np.array([int(s) & 0xFFFF_FFFF_FFFF_FFFF for s in seeds.flat],
                     dtype=np.uint64).reshape(seeds.shape)
    idx = np.asarray(indices, dtype=np.int64).astype(np.uint64)
    golden = np.uint64(0x9E3779B97F4A7C15)
    with np.errstate(over="ignore"):
        base = reference_mix64(seeds ^ reference_mix64(np.uint64(tag) + golden))
        bits = reference_mix64(base + (idx + np.uint64(1)) * golden)
    u = (bits >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54
    u = np.minimum(u, 1.0 - 2.0**-53)
    return reference_quantile(u.ravel()).reshape(u.shape)


def assert_bits_equal(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


BLOCK = simulate._QUANTILE_BLOCK
STREAM_CASES = {
    "int seed, negative indices": (12345, 1, np.arange(-300, 300)),
    "seeds against a column": ((-1, 0, 2**63, 2**64 - 1, 17), 2, np.arange(-3, 400)[:, None]),
    "seed above 2^64": (2**70 + 5, 2, np.arange(-5, 50)),
    "1-d straddling one block": (3, 1, np.arange(BLOCK + 1)),
    # rows of 3 seeds: blocks of BLOCK // 3 rows, the last one short
    "rows straddling one block": ((4, 5, 6), 2, np.arange(BLOCK // 3 + 1)[:, None]),
    "several blocks": (99, 2, np.arange(5 * BLOCK + 17)),
    "exact-c6 draw": (tuple(range(100)), 2, np.arange(768)[:, None]),
}


class TestBlockedStream:
    @pytest.mark.parametrize("case", list(STREAM_CASES))
    def test_matches_the_unblocked_formula(self, case):
        seed, tag, idx = STREAM_CASES[case]
        assert_bits_equal(gaussian_stream(seed, tag, idx), reference_stream(seed, tag, idx))

    @pytest.mark.parametrize("case", ["seeds against a column", "exact-c6 draw"])
    def test_rows_wider_than_a_block(self, case, monkeypatch):
        # a row of more seeds than one block holds goes as one block
        seed, tag, idx = STREAM_CASES[case]
        want = reference_stream(seed, tag, idx)
        monkeypatch.setattr(simulate, "_QUANTILE_BLOCK", 3)
        assert_bits_equal(gaussian_stream(seed, tag, idx), want)

    def test_scalar_index_gives_a_0d_draw(self):
        z = gaussian_stream(3, 2, 5)
        assert z.shape == ()
        assert_bits_equal(z, gaussian_stream(3, 2, [5])[0, ...])

    def test_traced_peak_of_an_exact_c6_draw(self):
        # The (768, 100) output is 0.61 MB; the blocked pipeline measured
        # a traced peak of 1.32 MB, the unblocked one 3.95 MB.
        seeds = tuple(range(100))
        idx = np.arange(768)[:, None]
        gaussian_stream(seeds, 2, idx)
        tracemalloc.start()
        try:
            gaussian_stream(seeds, 2, idx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6e6


def exact_c6_schedule():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return geometric_schedule(4, 4.0, 2.0, 3.0, m_cap=768)


def one_level(m):
    return ScaleSchedule(levels=(ScheduleLevel(j=1, a_j=8.0, gamma_j=8.0, m_j=m),))


def symmetric_toeplitz(col):
    """The m x m matrix with entries col[|i - j|], whose first column
    coefficient_covariance returns.

    Row i of the reversed length-m windows of [c_m-1 .. c_1, c_0 .. c_m-1]
    is c_|i-j| over j, so the copy is the only m x m allocation.
    """
    ends = np.concatenate([col[:0:-1], col])
    return np.lib.stride_tricks.sliding_window_view(ends, col.size)[::-1].copy()


def dense_factor(blocks):
    """The m x m upper factor whose column blocks _schur packed."""
    m = blocks[-1].shape[0]
    dense = np.zeros((m, m))
    for block in blocks:
        c1, w = block.shape
        dense[:c1, c1 - w:c1] = block
    return dense


def packed(dense):
    """A dense upper triangular matrix as the column blocks _schur stores."""
    m, b = dense.shape[0], simulate._PRODUCT_BLOCK
    return tuple(np.ascontiguousarray(dense[:min(c0 + b, m), c0:c0 + b])
                 for c0 in range(0, m, b))


MODEL = indicator_model(1.2661, 0.1, 3.0)
FILT = builtin_filter("shannon-father")


def level_column(a, m):
    return coefficient_covariance(MODEL, FILT, a, a * np.arange(1, m + 1))


EXACT_C6_LEVELS = ((8.0, 512), (16.0, 768), (32.0, 768), (64.0, 768))


class TestPackedFactor:
    @pytest.mark.parametrize("m", [1, 300, 513, 768])
    def test_blocks_hold_the_upper_triangle_only(self, m):
        blocks, step = simulate._schur(level_column(8.0, m))
        assert step is None
        b = simulate._PRODUCT_BLOCK
        bounds = [(c0, min(c0 + b, m)) for c0 in range(0, m, b)]
        assert [block.shape for block in blocks] == [(c1, c1 - c0) for c0, c1 in bounds]
        assert all(block.flags.c_contiguous for block in blocks)
        base = blocks[0].base  # one allocation, all of it in the blocks
        assert base is not None and all(block.base is base for block in blocks)
        assert base.nbytes == 8 * sum(c1 * (c1 - c0) for c0, c1 in bounds)
        if m % b == 0:
            assert base.nbytes == 8 * (m * m + m * b) // 2
        np.testing.assert_array_equal(np.tril(dense_factor(blocks), -1), 0.0)

    @pytest.mark.parametrize("a, m", EXACT_C6_LEVELS + ((8.0, 1), (8.0, 300), (8.0, 513)))
    def test_dense_assembly_reconstructs_the_covariance(self, a, m):
        col = level_column(a, m)
        factor = dense_factor(simulate._schur_factor(col, a))
        toeplitz = symmetric_toeplitz(col)
        assert np.max(np.abs(factor.T @ factor - toeplitz)) <= 1e-13 * col[0]


class TestTriangularProduct:
    model = MODEL
    filt = FILT

    @pytest.mark.parametrize("schedule", [exact_c6_schedule(), one_level(1), one_level(300)],
                             ids=["exact-c6", "m=1", "m=300"])
    @pytest.mark.parametrize("seed", [tuple(range(40, 80)), 11], ids=["seeds", "int"])
    def test_panel_matches_the_full_product(self, schedule, seed):
        # an int seed's panel holds the product; a batch of seeds holds
        # the mean squares of the (R, m_j) product of all their normals
        panel = exact_coefficient_sample(self.model, self.filt, schedule, seed)
        factors = simulate._panel_factors(self.model, self.filt, schedule)
        idx = np.arange(max(lv.m_j for lv in schedule.levels))
        z = gaussian_stream(seed, simulate._PANEL_TAG,
                            idx[:, None] if isinstance(seed, tuple) else idx)
        for lv, sched_lv, factor in zip(panel.levels, schedule.levels, factors):
            got = simulate._upper_product(z[: sched_lv.m_j].T, factor)
            if isinstance(seed, tuple):
                np.testing.assert_array_equal(lv.mean_square, np.mean(got**2, axis=-1))
            else:
                np.testing.assert_array_equal(lv.coeffs, got)
            want = z[: sched_lv.m_j].T @ dense_factor(factor)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), lv.j

    # a single column, one whole block, a ragged last block, four blocks, nine
    @pytest.mark.parametrize("m", [1, simulate._PRODUCT_BLOCK, 2 * simulate._PRODUCT_BLOCK + 1,
                                   256, 513])
    def test_skips_only_zeros(self, m):
        rng = np.random.default_rng(m)
        factor = np.triu(rng.standard_normal((m, m)))
        z = rng.standard_normal((7, m))
        want = z @ factor
        got = simulate._upper_product(z, packed(factor))
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14 * np.abs(want).max())
