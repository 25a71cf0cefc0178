"""Grid, transform, moment and corpus tests against closed-form oracles."""

import itertools
import math
import re
import struct

import numpy as np
import pytest

from groupft.errors import AliasingError
from groupft.fields import _legendre
from groupft.fields import test_corpus as corpus
from groupft.fields import (
    Grid,
    SampledField,
    axis_band_fraction,
    boundary_decay,
    euclidean_ft,
    gaussian_packet,
    inverse_euclidean_ft,
    l2_norm_sq,
    load_field,
    make_grid,
    moment_boundary_fraction,
    save_field,
    tensor_dft,
    weighted_moment,
)

from .oracles import centred_fft_out_of_place, dense_box_transform, direct_transform

# closed-form Gaussian moments for f(x) = exp(-pi x^2):
#   int exp(-2 pi x^2) dx            = 2^(-1/2)
#   int x^2 exp(-2 pi x^2) dx        = (1/(4 pi)) 2^(-1/2)
#   int x^4 exp(-2 pi x^2) dx        = 3 / (16 pi^2 sqrt(2))
GAUSS_L2 = 2.0**-0.5
GAUSS_X2 = GAUSS_L2 / (4.0 * np.pi)
GAUSS_X4 = 3.0 / (16.0 * np.pi**2 * np.sqrt(2.0))


@pytest.fixture(scope="module")
def grid1d():
    return make_grid(1, [8.0], [1024])


@pytest.fixture(scope="module")
def gauss1d(grid1d):
    return gaussian_packet(grid1d)


class TestMakeGrid:
    def test_spacing(self):
        g = make_grid(1, [8.0], [1024])
        assert g.spacings == (16.0 / 1024,)

    def test_dual_spacing(self):
        g = make_grid(2, [6.0, 6.0], [128, 128])
        assert g.dual_spacings == (1.0 / 12.0, 1.0 / 12.0)
        assert g.dual_half_extents == (128 / 24.0, 128 / 24.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            make_grid(1, [0.0], [64])
        with pytest.raises(ValueError):
            make_grid(1, [8.0], [1])
        with pytest.raises(ValueError):
            make_grid(2, [8.0], [64, 64])

    def test_dual_of_dual_is_identity(self):
        g = make_grid(2, [6.0, 4.0], [128, 64])
        assert g.dual().dual() == g

    @pytest.mark.parametrize("extents, counts", [((5.0,), (8, 8)), ((5.0, 5.0), (8,)), ((), ())])
    def test_grid_rejects_mismatched_or_empty_axes(self, extents, counts):
        # a 1-D cell volume over 8 x 8 samples would read a ones field's norm as 80
        with pytest.raises(ValueError, match="one count per half extent"):
            Grid(extents, counts)


class TestNorms:
    def test_gaussian_l2(self, gauss1d):
        assert l2_norm_sq(gauss1d) == pytest.approx(GAUSS_L2, abs=1e-9)

    def test_zero_field(self, grid1d):
        z = SampledField(grid1d, np.zeros(grid1d.counts))
        assert l2_norm_sq(z) == 0.0

    def test_unit_box(self):
        g = make_grid(1, [4.0], [256])
        f = SampledField(g, (np.abs(g.axis(0)) <= 0.5).astype(complex))
        assert l2_norm_sq(f) == pytest.approx(1.0, abs=g.spacings[0])

    def test_moment_exponent_two(self, gauss1d):
        assert weighted_moment(gauss1d, 2.0) == pytest.approx(GAUSS_X2, abs=1e-7)

    def test_moment_exponent_four(self, gauss1d):
        assert weighted_moment(gauss1d, 4.0) == pytest.approx(GAUSS_X4, abs=1e-7)

    def test_moment_zero_field(self, grid1d):
        z = SampledField(grid1d, np.zeros(grid1d.counts))
        assert weighted_moment(z, 2.0) == 0.0

    def test_moment_rejects_negative_exponent(self, gauss1d):
        with pytest.raises(ValueError):
            weighted_moment(gauss1d, -1.0)

    def test_boundary_fraction_rejects_negative_exponent(self, gauss1d):
        # every even-count grid has a node at the origin, where |x|^-2 is infinite
        with pytest.raises(ValueError, match="exponent"):
            moment_boundary_fraction(gauss1d, -2.0)

    @pytest.mark.parametrize("moment", [weighted_moment, moment_boundary_fraction])
    def test_moment_rejects_nan_exponent(self, gauss1d, moment):
        with pytest.raises(ValueError, match="exponent"):
            moment(gauss1d, math.nan)

    def test_moment_exponent_zero_is_l2(self, gauss1d):
        assert weighted_moment(gauss1d, 0.0) == l2_norm_sq(gauss1d)


class TestEuclideanFT:
    def test_gaussian_self_dual(self, grid1d, gauss1d):
        fhat = euclidean_ft(gauss1d)
        xi = fhat.grid.axis(0)
        assert np.max(np.abs(fhat.values - np.exp(-np.pi * xi**2))) <= 1e-9

    def test_zero(self, grid1d):
        z = SampledField(grid1d, np.zeros(grid1d.counts))
        assert np.all(euclidean_ft(z).values == 0)

    def test_translation_modulation_law(self, grid1d):
        c = 0.75
        shifted = gaussian_packet(grid1d, centers=[c])
        fhat = euclidean_ft(shifted)
        xi = fhat.grid.axis(0)
        expected = np.exp(-2j * np.pi * c * xi) * np.exp(-np.pi * xi**2)
        assert np.max(np.abs(fhat.values - expected)) <= 1e-9

    def test_parseval_exact(self, gauss1d):
        fhat = euclidean_ft(gauss1d)
        assert abs(l2_norm_sq(fhat) - l2_norm_sq(gauss1d)) <= 1e-12

    def test_roundtrip(self, gauss1d):
        back = inverse_euclidean_ft(euclidean_ft(gauss1d))
        assert np.max(np.abs(back.values - gauss1d.values)) <= 1e-12

    def test_2d_gaussian(self):
        g = make_grid(2, [6.0, 6.0], [128, 128])
        f = gaussian_packet(g)
        fhat = euclidean_ft(f)
        xi = fhat.grid
        expected = np.exp(-np.pi * xi.radius_sq())
        assert np.max(np.abs(fhat.values - expected)) <= 1e-9


class TestTransformOracle:
    """Both transforms against the dense-matrix oracle.

    Counts 6 and 10 (N % 4 == 2) give the centring sign (-1)^(N/2) = -1;
    every other test in this module uses multiples of 4.
    """

    SHAPES = [
        ((6,), (3.0,)),
        ((10,), (2.5,)),
        ((6, 10), (2.0, 3.0)),
        ((10, 6, 10), (1.5, 2.0, 2.5)),
    ]

    @staticmethod
    def random_values(shape, seed=0):
        rng = np.random.default_rng(seed)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @pytest.mark.parametrize("counts, extents", SHAPES, ids=["6", "10", "6x10", "10x6x10"])
    def test_forward_and_inverse(self, counts, extents):
        grid = make_grid(len(counts), extents, counts)
        vals = self.random_values(counts)
        fhat = euclidean_ft(SampledField(grid, vals))
        want = dense_box_transform(vals, extents)
        assert np.max(np.abs(fhat.values - want)) <= 1e-13 * np.max(np.abs(want))
        back = inverse_euclidean_ft(SampledField(grid.dual(), vals))
        want = dense_box_transform(vals, grid.half_extents, inverse=True)
        assert np.max(np.abs(back.values - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("k", [4, 5])
    def test_group_axis_slices_keep_their_position(self, k):
        grid = make_grid(2, [2.0, 3.0], [6, 8])
        vals = self.random_values((6, 8, k), seed=1)
        weights = np.full(k, 1.0 / k)
        fhat = euclidean_ft(SampledField(grid, vals, weights))
        want = dense_box_transform(vals, grid.half_extents)
        assert np.max(np.abs(fhat.values - want)) <= 1e-13 * np.max(np.abs(want))
        back = inverse_euclidean_ft(SampledField(grid.dual(), vals, weights))
        want = dense_box_transform(vals, grid.half_extents, inverse=True)
        assert np.max(np.abs(back.values - want)) <= 1e-13 * np.max(np.abs(want))


class TestInPlaceTransform:
    """The centred FFT runs in place on its own rolled copy: the same bits as
    the out-of-place roll-transform-roll, and the input field untouched."""

    CASES = [
        ((1024,), (8.0,), None),
        ((64, 64), (4.0, 5.0), None),
        ((16, 16, 16), (2.0, 2.5, 3.0), None),
        ((6,), (3.0,), None),
        ((10,), (2.5,), None),
        ((16, 16), (3.0, 2.0), 5),
    ]

    @pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
    @pytest.mark.parametrize(
        "counts, extents, k", CASES, ids=["1024", "64x64", "16x16x16", "6", "10", "16x16x5"]
    )
    def test_bit_identical_and_input_untouched(self, counts, extents, k, inverse):
        grid = make_grid(len(counts), extents, counts)
        shape = counts + (() if k is None else (k,))
        rng = np.random.default_rng(7)
        vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        f = SampledField(grid, vals, None if k is None else np.full(k, 1.0 / k))
        saved = f.values.copy()
        if inverse:
            out = inverse_euclidean_ft(f)
            scale = np.prod(grid.counts) * grid.cell_volume
        else:
            out = euclidean_ft(f)
            scale = grid.cell_volume
        want = centred_fft_out_of_place(saved, grid.dim, scale, inverse)
        assert np.array_equal(out.values, want)
        assert np.array_equal(f.values, saved)
        assert not f.values.flags.writeable
        assert not np.shares_memory(out.values, f.values)


class TestOddCounts:
    def test_make_grid_rejects_odd_count(self):
        with pytest.raises(ValueError, match="even"):
            make_grid(2, [4.0, 4.0], [8, 7])

    @pytest.mark.parametrize(
        "counts", [[16.9], [16.0], [True], [np.float64(16.0)], [True, 4]], ids=str
    )
    def test_make_grid_rejects_non_integer_count(self, counts):
        """A count is not truncated or read from a bool."""
        with pytest.raises(ValueError, match="even integers"):
            make_grid(len(counts), [4.0] * len(counts), counts)

    @pytest.mark.parametrize("dim", [True, 1.0, 1.5, np.float64(2.0), "2", 0, -1], ids=repr)
    def test_make_grid_rejects_bad_dim(self, dim):
        """dim is not truncated or read from a bool, by the rule Grid applies to counts."""
        with pytest.raises(ValueError, match="dim must be an integer >= 1"):
            make_grid(dim, [4.0], [8])

    def test_grid_rejects_odd_count(self):
        with pytest.raises(ValueError, match="even"):
            Grid((4.0,), (9,))

    def test_load_field_rejects_odd_count(self, tmp_path):
        # a well-formed file written by hand: save_field cannot make one
        p = tmp_path / "odd.gfld"
        header = b"GFLD" + struct.pack("<III", 1, 1, 0) + struct.pack("<dQ", 4.0, 7)
        p.write_bytes(header + np.ones(7, dtype=np.complex128).tobytes())
        with pytest.raises(ValueError, match=re.escape(f"{p}: ") + ".*even"):
            load_field(p)

    @pytest.mark.parametrize("extent", [0.0, -4.0, math.nan])
    def test_load_field_rejects_nonpositive_extent(self, tmp_path, extent):
        p = tmp_path / "flat.gfld"
        header = b"GFLD" + struct.pack("<III", 1, 1, 0) + struct.pack("<dQ", extent, 8)
        p.write_bytes(header + np.ones(8, dtype=np.complex128).tobytes())
        with pytest.raises(ValueError, match=re.escape(f"{p}: ") + "half extents must be positive"):
            load_field(p)


def spectral_partial(f: SampledField, axis: int) -> SampledField:
    """d f / d x_axis as euclidean_ft, times 2 pi i xi_axis, then the inverse."""
    fhat = euclidean_ft(f)
    shape = [1] * fhat.values.ndim
    shape[axis] = fhat.grid.counts[axis]
    vals = fhat.values * (2j * np.pi * fhat.grid.axis(axis)).reshape(shape)
    return inverse_euclidean_ft(SampledField(fhat.grid, vals, fhat.group_weights))


class TestNudft:
    """tensor_dft, the direct transform at arbitrary (off-grid) dual nodes."""

    def test_gaussian_off_grid(self, gauss1d):
        val = tensor_dft(gauss1d, [[0.3]])[0]
        assert val == pytest.approx(np.exp(-np.pi * 0.09), abs=1e-9)

    def test_matches_fft_on_grid(self, gauss1d):
        fhat = euclidean_ft(gauss1d)
        xi = fhat.grid.axis(0)[::97]
        direct = tensor_dft(gauss1d, [xi])
        scale = np.max(np.abs(fhat.values))
        assert np.max(np.abs(direct - fhat.values[::97])) <= 1e-12 * scale

    def test_zero_field(self, grid1d):
        z = SampledField(grid1d, np.zeros(grid1d.counts))
        assert np.all(tensor_dft(z, [[0.1, 0.2]]) == 0)

    @pytest.mark.parametrize("lists", [1, 3])
    def test_tensor_dft_needs_one_node_list_per_axis(self, lists):
        f = gaussian_packet(make_grid(2, [4.0, 4.0], [16, 16]))
        with pytest.raises(ValueError, match=f"needs 2 node lists, got {lists}"):
            tensor_dft(f, [np.linspace(-1.0, 1.0, 5)] * lists)

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_tensor_dft_masks_beyond_dual_box(self, sign):
        """Exactly 0 at a node beyond either axis's dual half-extent (W = 2),
        the term-by-term sum everywhere else."""
        g = make_grid(2, [4.0, 4.0], [32, 32])
        rng = np.random.default_rng(2)
        f = SampledField(g, rng.standard_normal(g.counts) + 1j * rng.standard_normal(g.counts))
        nodes = [np.array([-0.4, 2.0 * (1 + 1e-9), 1.3]), np.array([0.1, -2.0, -2.5, 1.9])]
        block = tensor_dft(f, nodes, sign)
        for (j, a), (k, b) in itertools.product(enumerate(nodes[0]), enumerate(nodes[1])):
            if abs(a) > 2.0 or abs(b) > 2.0:
                assert block[j, k] == 0.0
            else:
                want = direct_transform(f.values, g.axes(), g.cell_volume, (a, b), sign)
                assert abs(block[j, k] - want) <= 1e-12 * np.abs(f.values).sum() * g.cell_volume
        assert np.count_nonzero(block) == 2 * 3


class TestSpectralPartial:
    def test_gaussian_derivative(self, grid1d, gauss1d):
        d = spectral_partial(gauss1d, 0)
        x = grid1d.axis(0)
        exact = -2.0 * np.pi * x * np.exp(-np.pi * x**2)
        rel = np.linalg.norm(d.values - exact) / np.linalg.norm(exact)
        assert rel <= 1e-6

    def test_windowed_sine(self):
        g = make_grid(1, [16.0], [2048])
        x = g.axis(0)
        f = SampledField(g, np.sin(x) * np.exp(-0.1 * x**2))
        d = spectral_partial(f, 0)
        exact = np.cos(x) * np.exp(-0.1 * x**2) - 0.2 * x * np.sin(x) * np.exp(-0.1 * x**2)
        rel = np.linalg.norm(d.values - exact) / np.linalg.norm(exact)
        assert rel <= 1e-5

    def test_constant_periodized(self, grid1d):
        f = SampledField(grid1d, np.ones(grid1d.counts))
        d = spectral_partial(f, 0)
        assert np.max(np.abs(d.values)) <= 1e-10

    def test_against_finite_differences(self, grid1d):
        # fourth-order central stencil as the independent derivative oracle;
        # band-limited members (every third) oscillate too fast for it
        h = grid1d.spacings[0]
        members = [f for i, f in enumerate(corpus(grid1d, 11, 6)) if i % 3 != 2]
        for f in members:
            d = spectral_partial(f, 0)
            v = f.values
            fd = (-np.roll(v, -2) + 8 * np.roll(v, -1) - 8 * np.roll(v, 1) + np.roll(v, 2)) / (
                12 * h
            )
            interior = slice(2, -2)
            rel = np.linalg.norm(d.values[interior] - fd[interior]) / np.linalg.norm(
                d.values[interior]
            )
            assert rel <= 1e-4


class TestCorpus:
    def test_members_nonzero(self, grid1d):
        fields = corpus(grid1d, 7, 3)
        assert len(fields) == 3
        assert all(l2_norm_sq(f) > 0 for f in fields)

    def test_deterministic(self, grid1d):
        a = corpus(grid1d, 7, 5)
        b = corpus(grid1d, 7, 5)
        assert all(np.array_equal(x.values, y.values) for x, y in zip(a, b))

    def test_boundary_decay(self, grid1d):
        assert all(boundary_decay(f) <= 1e-10 for f in corpus(grid1d, 13, 6))

    def test_band_limited_member_quarter_support(self, grid1d):
        f = corpus(grid1d, 7, 3)[2]
        fhat = euclidean_ft(f)
        xi = fhat.grid.axis(0)
        outside = np.abs(xi) > fhat.grid.half_extents[0] / 4.0
        leak = (np.abs(fhat.values[outside]) ** 2).sum() / (np.abs(fhat.values) ** 2).sum()
        assert leak <= 1e-12

    def test_plancherel_on_corpus(self, grid1d):
        for f in corpus(grid1d, 5, 6):
            n = l2_norm_sq(f)
            assert abs(l2_norm_sq(euclidean_ft(f)) - n) <= 1e-8 * n

    def test_2d_corpus(self):
        g = make_grid(2, [8.0, 8.0], [256, 256])
        for f in corpus(g, 2, 3):
            assert boundary_decay(f) <= 1e-10
            n = l2_norm_sq(f)
            assert abs(l2_norm_sq(euclidean_ft(f)) - n) <= 1e-8 * n


class TestDiagnostics:
    def test_boundary_fraction_flags_heavy_tails(self):
        g = make_grid(1, [8.0], [256])
        f = SampledField(g, 1.0 / (1.0 + g.axis(0) ** 2) + 0j)
        # x^4 /(1+x^2)^2 integrand grows toward the boundary
        assert moment_boundary_fraction(f, 4.0) > 1e-6
        assert moment_boundary_fraction(gaussian_packet(g), 2.0) < 1e-8

    def test_axis_band_fraction(self, grid1d):
        f = gaussian_packet(grid1d)  # dual density exp(-2 pi xi^2)
        got = axis_band_fraction(f, 0, 0.05)
        expected = math.erf(0.05 * np.sqrt(2 * np.pi))
        assert got == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("factor", [1.5, 3.0])
    def test_axis_band_fraction_rejects_cut_beyond_dual_box(self, factor):
        g = make_grid(1, [8.0], [64])  # dual half-extent W = 2
        f = gaussian_packet(g)
        assert axis_band_fraction(f, 0, 2.0) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(AliasingError):
            axis_band_fraction(f, 0, factor * 2.0)

    @pytest.mark.parametrize("cut", [-0.05, math.nan])
    def test_axis_band_fraction_rejects_negative_or_nan_cut(self, cut):
        f = gaussian_packet(make_grid(1, [8.0], [64]))
        assert axis_band_fraction(f, 0, 0.0) == 0.0
        with pytest.raises(ValueError, match="band cut"):
            axis_band_fraction(f, 0, cut)


def assert_compared_by_identity(obj, twin):
    """``obj`` equals and hashes as itself, and not as ``twin``, built from the same parts."""
    assert obj == obj and obj != twin
    assert hash(obj) == hash(obj) and {obj: 1}[obj] == 1
    assert len({obj, twin}) == 2


def test_sampled_field_compares_by_identity():
    f = gaussian_packet(make_grid(1, [4.0], [32]))
    assert_compared_by_identity(f, SampledField(f.grid, f.values, f.group_weights))


def test_cached_legendre_rule_is_read_only():
    x, w = _legendre(10)
    assert _legendre(10)[0] is x
    for arr in (x, w):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


class TestSerialization:
    def test_roundtrip(self, tmp_path, gauss1d):
        p = tmp_path / "f.gfld"
        save_field(gauss1d, p)
        back = load_field(p)
        assert back.grid == gauss1d.grid
        assert np.array_equal(back.values, gauss1d.values)

    def test_roundtrip_group_axis(self, tmp_path):
        g = make_grid(1, [4.0], [64])
        w = np.full(6, 1.0 / 6.0)
        vals = np.random.default_rng(0).standard_normal((64, 6)) * (1 + 0j)
        f = SampledField(g, vals, w)
        p = tmp_path / "fk.gfld"
        save_field(f, p)
        back = load_field(p)
        assert np.array_equal(back.values, f.values)
        assert np.array_equal(back.group_weights, w)

    def test_rejects_garbage(self, tmp_path):
        p = tmp_path / "bad.gfld"
        p.write_bytes(b"not a field")
        with pytest.raises(ValueError):
            load_field(p)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda b: b[:10], "file ends inside the header"),
            (lambda b: b[:20], "file ends inside the axis table"),
            (lambda b: b[:-8], "file ends inside the value block"),
            (lambda b: b + bytes(8), "8 bytes after the value block"),
        ],
        ids=["header", "axis-table", "value-block", "trailing"],
    )
    def test_rejects_cut_or_padded_file(self, tmp_path, edit, message):
        p = tmp_path / "f.gfld"
        save_field(gaussian_packet(make_grid(2, [4.0, 4.0], [8, 8])), p)
        assert p.stat().st_size == 1072
        p.write_bytes(edit(p.read_bytes()))
        with pytest.raises(ValueError, match=re.escape(f"{p}: ") + message):
            load_field(p)

    def test_rejects_cut_weight_block(self, tmp_path):
        p = tmp_path / "fk.gfld"
        g = make_grid(1, [4.0], [4])
        save_field(SampledField(g, np.ones((4, 3)), np.full(3, 1.0 / 3.0)), p)
        p.write_bytes(p.read_bytes()[:50])  # 16 header + 16 axis + 8 count + 10 of 24 weight bytes
        with pytest.raises(ValueError, match="ends inside the weight block"):
            load_field(p)
