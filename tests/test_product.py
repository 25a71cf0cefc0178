"""Transform, Plancherel and uncertainty on R^n x K."""

import numpy as np
import pytest

from groupft.compact import CircleDual, cyclic_group, symmetric_group_3
from groupft.errors import MomentDivergenceError, ZeroFieldError
from groupft.fields import MomentSpec, gaussian_packet, l2_norm_sq, make_grid
from groupft.product import (
    make_product_field,
    product_corpus,
    product_ft,
    product_plancherel_ratio,
    product_uncertainty,
)


@pytest.fixture(scope="module")
def grid1d():
    return make_grid(1, [8.0], [1024])


@pytest.fixture(scope="module")
def s3():
    return symmetric_group_3()


def constant_in_k(grid, group, g_vals):
    vals = np.repeat(g_vals[..., None], group.order, axis=-1)
    return make_product_field(grid, group, vals)


class TestProductFT:
    def test_constant_in_k_kills_nontrivial_irreps(self, grid1d, s3):
        g = gaussian_packet(grid1d)
        pf = constant_in_k(grid1d, s3, g.values)
        dual = product_ft(pf)
        scale = np.max(np.abs(dual.blocks[0]))
        # sum_k sigma(k^{-1}) = 0 for nontrivial sigma
        assert np.max(np.abs(dual.blocks[1])) <= 1e-12 * scale
        assert np.max(np.abs(dual.blocks[2])) <= 1e-12 * scale

    def test_identity_indicator_gives_scaled_identity(self, grid1d, s3):
        g = gaussian_packet(grid1d)
        vals = np.zeros((1024, 6), dtype=complex)
        vals[:, 0] = g.values
        pf = make_product_field(grid1d, s3, vals)
        dual = product_ft(pf)
        ghat = np.exp(-np.pi * dual.dual_grid.axis(0) ** 2)
        for blk, d in zip(dual.blocks, s3.irrep_dims):
            expected = (ghat / 6.0)[:, None, None] * np.eye(d)
            assert np.max(np.abs(blk - expected)) <= 1e-9

    def test_zero_field(self, grid1d, s3):
        pf = make_product_field(grid1d, s3, np.zeros((1024, 6)))
        dual = product_ft(pf)
        assert all(np.all(blk == 0) for blk in dual.blocks)

    def test_fubini_factorisation(self, grid1d, s3):
        # K-transform first, Euclidean second must agree with product_ft
        pf = product_corpus(grid1d, s3, 17, 1)[0]
        dual = product_ft(pf)
        from groupft.fields import SampledField, euclidean_ft

        w = pf.base.group_weights
        for blk, mats_inv in zip(dual.blocks, s3.irrep_matrices_inv()):
            k_first = np.tensordot(pf.base.values * w, mats_inv, axes=(-1, 0))
            d = k_first.shape[-1]
            other = np.empty_like(k_first)
            for i in range(d):
                for j in range(d):
                    other[:, i, j] = euclidean_ft(SampledField(grid1d, k_first[:, i, j])).values
            assert np.max(np.abs(other - blk)) <= 1e-12 * max(1.0, np.max(np.abs(blk)))


class TestProductPlancherel:
    def test_gaussian_times_random_on_s3(self, grid1d, s3):
        pf = product_corpus(grid1d, s3, 5, 1)[0]
        assert product_plancherel_ratio(pf) == pytest.approx(1.0, abs=1e-8)

    def test_single_character_on_circle(self, grid1d):
        K = CircleDual(5)
        g = gaussian_packet(grid1d)
        vals = g.values[:, None] * np.exp(3j * K.thetas)[None, :]
        pf = make_product_field(grid1d, K, vals)
        assert product_plancherel_ratio(pf) == pytest.approx(1.0, abs=1e-8)

    def test_corpus(self, grid1d, s3):
        for pf in product_corpus(grid1d, s3, 23, 10):
            assert abs(product_plancherel_ratio(pf) - 1.0) <= 1e-7

    def test_zero_rejected(self, grid1d, s3):
        pf = make_product_field(grid1d, s3, np.zeros((1024, 6)))
        with pytest.raises(ZeroFieldError):
            product_plancherel_ratio(pf)


class TestProductUncertainty:
    def test_gaussian_constant_on_z4_reduces_to_line(self, grid1d):
        K = cyclic_group(4)
        g = gaussian_packet(grid1d)
        pf = constant_in_k(grid1d, K, g.values)
        terms = product_uncertainty(pf, MomentSpec(1.0, 1.0))
        assert terms.ratio == pytest.approx(1.0, abs=1e-3)

    def test_corpus_inequality(self, grid1d, s3):
        for pf in product_corpus(grid1d, s3, 31, 8):
            for a in (1.0, 2.0):
                for b in (1.0, 2.0):
                    terms = product_uncertainty(pf, MomentSpec(a, b))
                    assert terms.ratio >= 1.0 - 1e-6

    def test_zero_rejected(self, grid1d, s3):
        pf = make_product_field(grid1d, s3, np.zeros((1024, 6)))
        with pytest.raises(ZeroFieldError):
            product_uncertainty(pf, MomentSpec(1.0, 1.0))

    def test_box_indicator_frequency_moment_rejected(self, grid1d, s3):
        # the jump's slowly decaying spectrum puts its moment mass on the dual boundary
        box = (np.abs(grid1d.axis(0)) < 1.0).astype(float)
        pf = make_product_field(grid1d, s3, box[:, None] * np.arange(1.0, 7.0))
        with pytest.raises(MomentDivergenceError, match="frequency"):
            product_uncertainty(pf, MomentSpec(1.0, 1.0))

    def test_holder_step_inequality(self, grid1d, s3):
        # int |y|^2 sum d ||fhat||^2 dy <= (int |y|^{2b} ...)^{1/b} (||f||^2)^{1-1/b}
        for pf in product_corpus(grid1d, s3, 41, 4):
            dual = product_ft(pf)
            dens = dual.hs_density()
            r2 = dual.dual_grid.radius_sq()
            vol = dual.dual_grid.cell_volume
            lhs = float((r2 * dens).sum()) * vol
            norm_sq = l2_norm_sq(pf.base)
            for b in (1.5, 2.0):
                rhs = (float((r2**b * dens).sum()) * vol) ** (1.0 / b) * norm_sq ** (
                    1.0 - 1.0 / b
                )
                assert lhs <= rhs * (1.0 + 1e-8)


class TestValidation:
    def test_wrong_axis_size(self, grid1d, s3):
        with pytest.raises(ValueError):
            make_product_field(grid1d, s3, np.zeros((1024, 5)))

    def test_weight_mismatch(self, grid1d, s3):
        from groupft.fields import SampledField
        from groupft.product import ProductField

        w = np.full(6, 1.0 / 6.0)
        w[0] += 1e-6
        w[1] -= 1e-6
        base = SampledField(grid1d, np.zeros((1024, 6)), w)
        with pytest.raises(ValueError):
            ProductField(base, s3)
