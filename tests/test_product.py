"""Transform, Plancherel and uncertainty on R^n x K."""

import numpy as np
import pytest

import groupft.euclidean as euc
import groupft.product as product
from groupft.compact import CircleDual, builtin_group
from groupft.errors import MomentDivergenceError, ZeroFieldError
from groupft.euclidean import rn_uncertainty
from groupft.fields import (
    MomentSpec,
    SampledField,
    _group_density,
    euclidean_ft,
    gaussian_packet,
    l2_norm_sq,
    make_grid,
)
from groupft.motion import motion_corpus
from groupft.product import (
    ProductField,
    make_product_field,
    product_corpus,
    product_ft,
    product_plancherel_ratio,
    product_uncertainty,
)

from .oracles import group_irreps, peter_weyl_blocks
from .test_fields import assert_compared_by_identity
from .test_motion import LATTICE, counting, sampled

GROUPS = {
    "s3": lambda: builtin_group("s3"),
    "z4": lambda: builtin_group("z4"),
    "circle5": lambda: CircleDual(5),
}


@pytest.fixture(scope="module")
def grid1d():
    return make_grid(1, [8.0], [1024])


@pytest.fixture(scope="module")
def s3():
    return builtin_group("s3")


def constant_in_k(grid, group, g_vals):
    vals = np.repeat(g_vals[..., None], group.order, axis=-1)
    return make_product_field(grid, group, vals)


def blocks(dual, dims):
    """Split product_ft's entries axis into one (..., d, d) block per irrep."""
    ends = np.cumsum([d * d for d in dims])
    parts = np.split(dual.values, ends[:-1], axis=-1)
    return [p.reshape(p.shape[:-1] + (d, d)) for p, d in zip(parts, dims)]


def hs_density(dual, dims):
    """sum_sigma d_sigma ||fhat(y, sigma)||_HS^2, read block by block."""
    return sum(d * np.sum(np.abs(b) ** 2, axis=(-2, -1)) for d, b in zip(dims, blocks(dual, dims)))


class TestProductFT:
    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_entries_match_per_irrep_loop(self, grid1d, name):
        group = GROUPS[name]()
        pf = product_corpus(grid1d, group, 11, 1)[0]
        dual = product_ft(pf)
        f1 = euclidean_ft(pf.base).values
        want = peter_weyl_blocks(f1, pf.base.group_weights, *group_irreps(group))
        assert [b.shape[-1] for b in want] == list(group.irrep_dims)
        scale = max(np.max(np.abs(b)) for b in want)
        for got, ref in zip(blocks(dual, group.irrep_dims), want):
            assert np.max(np.abs(got - ref)) <= 1e-14 * scale
        weights = np.concatenate([np.full(d * d, float(d)) for d in group.irrep_dims])
        assert dual.grid == grid1d.dual()
        assert np.array_equal(dual.group_weights, weights)

    def test_constant_in_k_kills_nontrivial_irreps(self, grid1d, s3):
        g = gaussian_packet(grid1d)
        pf = constant_in_k(grid1d, s3, g.values)
        trivial, sign, standard = blocks(product_ft(pf), s3.irrep_dims)
        scale = np.max(np.abs(trivial))
        # sum_k sigma(k^{-1}) = 0 for nontrivial sigma
        assert np.max(np.abs(sign)) <= 1e-12 * scale
        assert np.max(np.abs(standard)) <= 1e-12 * scale

    def test_identity_indicator_gives_scaled_identity(self, grid1d, s3):
        g = gaussian_packet(grid1d)
        vals = np.zeros((1024, 6), dtype=complex)
        vals[:, 0] = g.values
        pf = make_product_field(grid1d, s3, vals)
        dual = product_ft(pf)
        ghat = np.exp(-np.pi * dual.grid.axis(0) ** 2)
        for blk, d in zip(blocks(dual, s3.irrep_dims), s3.irrep_dims):
            expected = (ghat / 6.0)[:, None, None] * np.eye(d)
            assert np.max(np.abs(blk - expected)) <= 1e-9

    def test_zero_field(self, grid1d, s3):
        pf = make_product_field(grid1d, s3, np.zeros((1024, 6)))
        assert np.all(product_ft(pf).values == 0)

    def test_fubini_factorisation(self, grid1d, s3):
        # K-transform first, Euclidean second must agree with product_ft
        pf = product_corpus(grid1d, s3, 17, 1)[0]
        dual = blocks(product_ft(pf), s3.irrep_dims)
        k_blocks = peter_weyl_blocks(pf.base.values, pf.base.group_weights, *group_irreps(s3))
        for blk, k_first in zip(dual, k_blocks):
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
        K = builtin_group("z4")
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
            dens = hs_density(dual, s3.irrep_dims)
            r2 = dual.grid.radius_sq()
            vol = dual.grid.cell_volume
            lhs = float((r2 * dens).sum()) * vol
            norm_sq = l2_norm_sq(pf.base)
            for b in (1.5, 2.0):
                rhs = (float((r2**b * dens).sum()) * vol) ** (1.0 / b) * norm_sq ** (
                    1.0 - 1.0 / b
                )
                assert lhs <= rhs * (1.0 + 1e-8)


class TestFieldMemo:
    """||f||^2 and the position moment kept on pf.base, the momentum moment on pf."""

    def test_one_transform_per_distinct_b(self, grid1d, s3, monkeypatch):
        pf = product_corpus(grid1d, s3, 13, 1)[0]
        transforms = counting(monkeypatch, product, "product_ft")
        moments = counting(monkeypatch, euc, "checked_moment", "l2_norm_sq")
        for _ in range(2):
            for spec in LATTICE:
                product_uncertainty(pf, spec)
            assert transforms == {"product_ft": 2}
            assert moments == {"checked_moment": 4, "l2_norm_sq": 1}

    def test_terms_equal_a_fresh_field(self, grid1d, s3):
        pf = product_corpus(grid1d, s3, 13, 1)[0]
        for _ in range(2):
            for spec in LATTICE:
                fresh = make_product_field(grid1d, s3, pf.base.values.copy())
                assert product_uncertainty(pf, spec) == product_uncertainty(fresh, spec)

    def test_errors_raised_on_every_call(self, grid1d, s3):
        zero = make_product_field(grid1d, s3, np.zeros((1024, 6)))
        box = (np.abs(grid1d.axis(0)) < 1.0).astype(float)
        jump = make_product_field(grid1d, s3, box[:, None] * np.arange(1.0, 7.0))
        for _ in range(2):
            with pytest.raises(ZeroFieldError):
                product_uncertainty(zero, LATTICE[0])
            with pytest.raises(MomentDivergenceError, match="frequency"):
                product_uncertainty(jump, LATTICE[0])

    def test_compared_by_identity(self, grid1d, s3):
        pf = product_corpus(grid1d, s3, 13, 1)[0]
        assert_compared_by_identity(pf, ProductField(pf.base, pf.group))

    def test_base_and_product_keep_separate_momentum(self, grid1d, s3, monkeypatch):
        pf = product_corpus(grid1d, s3, 13, 1)[0]
        spec = MomentSpec(1.0, 2.0)
        fresh = make_product_field(grid1d, s3, pf.base.values.copy())
        transforms = counting(monkeypatch, product, "product_ft")
        base_transforms = counting(monkeypatch, euc, "euclidean_ft")
        on_pf = product_uncertainty(pf, spec)
        on_base = rn_uncertainty(pf.base, spec)
        # equal by Plancherel on K, so only the count shows that the base's own transform ran
        assert transforms == {"product_ft": 1} and base_transforms == {"euclidean_ft": 1}
        assert on_pf == product_uncertainty(fresh, spec)
        assert on_base == rn_uncertainty(fresh.base, spec)
        assert on_base.position_term == on_pf.position_term


def test_group_density_matches_tensordot():
    # the group axis is summed by a matrix-vector product; pin its bits
    pf = product_corpus(make_grid(2, [8.0, 8.0], [128, 128]), builtin_group("s3"), 0, 1)[0]
    member = sampled(motion_corpus(make_grid(2, [6.0, 6.0], [64, 64]), 128, 0, 1)[0])
    for f in (member, pf.base, product_ft(pf)):
        dens = np.abs(f.values) ** 2
        assert np.array_equal(_group_density(f), np.tensordot(dens, f.group_weights, axes=(-1, 0)))


class TestValidation:
    def test_wrong_axis_size(self, grid1d, s3):
        with pytest.raises(ValueError):
            make_product_field(grid1d, s3, np.zeros((1024, 5)))

    def test_weight_mismatch(self, grid1d, s3):
        w = np.full(6, 1.0 / 6.0)
        w[0] += 1e-6
        w[1] -= 1e-6
        base = SampledField(grid1d, np.zeros((1024, 6)), w)
        with pytest.raises(ValueError):
            ProductField(base, s3)
