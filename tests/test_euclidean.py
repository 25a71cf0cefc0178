"""Uncertainty product on R^n: sharpness, inequality, invariances."""

import numpy as np
import pytest

import groupft.euclidean as euc
from groupft.errors import DecayError, MomentDivergenceError, ZeroFieldError
from groupft.euclidean import dilation_sweep, rn_uncertainty
from groupft.fields import (
    MomentSpec,
    SampledField,
    euclidean_ft,
    gaussian_packet,
    l2_norm_sq,
    make_grid,
    moment_boundary_fraction,
)
from groupft.fields import test_corpus as corpus

from .oracles import gaussian_edge_moment_fraction, solve_decreasing
from .test_motion import LATTICE, counting


@pytest.fixture(scope="module")
def grid1d():
    return make_grid(1, [8.0], [1024])


@pytest.fixture(scope="module")
def gauss1d(grid1d):
    return gaussian_packet(grid1d)


def test_gaussian_sharpness(gauss1d):
    terms = rn_uncertainty(gauss1d, MomentSpec(1.0, 1.0))
    assert terms.ratio == pytest.approx(1.0, abs=1e-3)
    # lhs = ||f||_2^2/(4 pi) = 2^(-1/2)/(4 pi); both factors are its sqrt
    assert terms.lhs == pytest.approx(2**-0.5 / (4 * np.pi), abs=1e-9)
    assert terms.position_term == pytest.approx(np.sqrt(terms.lhs), abs=1e-6)
    assert terms.momentum_term == pytest.approx(np.sqrt(terms.lhs), abs=1e-6)


def test_gaussian_sharpness_2d():
    g = make_grid(2, [6.0, 6.0], [128, 128])
    terms = rn_uncertainty(gaussian_packet(g), MomentSpec(1.0, 1.0))
    assert terms.ratio == pytest.approx(1.0, abs=1e-3)


def test_zero_field_rejected(grid1d):
    z = SampledField(grid1d, np.zeros(grid1d.counts))
    with pytest.raises(ZeroFieldError):
        rn_uncertainty(z, MomentSpec(1.0, 1.0))


def test_exponents_below_one_rejected():
    with pytest.raises(ValueError):
        MomentSpec(0.5, 1.0)
    with pytest.raises(ValueError):
        MomentSpec(1.0, 0.99)


def test_inequality_on_corpus(grid1d):
    lattice = [1.0, 1.5, 2.0]
    for f in corpus(grid1d, 29, 12):
        for a in lattice:
            for b in lattice:
                terms = rn_uncertainty(f, MomentSpec(a, b))
                assert terms.ratio >= 1.0 - 1e-6, (a, b, terms)


def test_norm_invariance(grid1d):
    f = corpus(grid1d, 5, 1)[0]
    spec = MomentSpec(1.5, 2.0)
    t1 = rn_uncertainty(f, spec)
    t2 = rn_uncertainty(SampledField(grid1d, 3.7j * f.values), spec)
    assert t2.ratio == pytest.approx(t1.ratio, rel=1e-10)


def test_moment_divergence_flagged():
    g = make_grid(1, [8.0], [256])
    slow = SampledField(g, 1.0 / (1.0 + g.axis(0) ** 2) + 0j)
    with pytest.raises(MomentDivergenceError):
        rn_uncertainty(slow, MomentSpec(2.0, 1.0))


class TestBoundaryBudget:
    """The moment guard passes a field whose end samples carry less than 1e-6
    of the integrand (BOUNDARY_MASS_BUDGET, written out so that a changed
    budget fails) and rejects one that carries more."""

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_wide_gaussian_at_the_budget(self, factor):
        # exp(-pi x^2 / w^2) on [-4, 4): the width that puts factor x 1e-6 of
        # x^2 |f|^2 on the two end samples
        half_extent, count, share = 4.0, 128, factor * 1e-6
        width = solve_decreasing(
            lambda w: -gaussian_edge_moment_fraction(w, half_extent, count, 2.0), 0.5, 4.0, -share
        )
        f = gaussian_packet(make_grid(1, [half_extent], [count]), widths=width)
        assert moment_boundary_fraction(f, 2.0) == pytest.approx(share, rel=1e-4)
        if factor < 1.0:  # a Gaussian is extremal at (1, 1): the box cut costs ~1e-6
            assert rn_uncertainty(f, MomentSpec(1.0, 1.0)).ratio == pytest.approx(1.0, abs=1e-5)
        else:
            with pytest.raises(MomentDivergenceError, match="position moment untrusted"):
                rn_uncertainty(f, MomentSpec(1.0, 1.0))


class TestDilationSweep:
    def test_gaussian_equality_is_scale_invariant(self, gauss1d):
        for terms in dilation_sweep(gauss1d, MomentSpec(1.0, 1.0), [0.5, 1.0, 2.0]):
            assert terms.ratio == pytest.approx(1.0, abs=1e-3)

    def test_higher_exponents_lose_sharpness(self, gauss1d):
        (terms,) = dilation_sweep(gauss1d, MomentSpec(2.0, 2.0), [1.0])
        assert terms.ratio > 1.0 + 1e-3

    def test_unit_scale_matches_rn_uncertainty(self, gauss1d):
        spec = MomentSpec(1.0, 2.0)
        (swept,) = dilation_sweep(gauss1d, spec, [1.0])
        direct = rn_uncertainty(gauss1d, spec)
        assert swept == direct

    def test_norm_preserved_across_scales(self, grid1d, gauss1d):
        from groupft.fields import l2_norm_sq

        base = l2_norm_sq(gauss1d)
        for t in (0.5, 2.0):
            terms = dilation_sweep(gauss1d, MomentSpec(1.0, 1.0), [t])
            assert terms  # norm check happens inside; reaching here is the assertion

    def test_zero_field_rejected(self, grid1d):
        z = SampledField(grid1d, np.zeros(grid1d.counts))
        with pytest.raises(ZeroFieldError):
            dilation_sweep(z, MomentSpec(1.0, 1.0), [1.0])

    def test_each_norm_taken_once(self, monkeypatch):
        # the field's norm plus one per scale; the norm check and the terms share it
        g = make_grid(2, [6.0, 6.0], [128, 128])
        f = corpus(g, 3, 1)[0]
        scales = (0.8, 0.9, 1.1, 1.25)
        spec = MomentSpec(1.0, 2.0)
        direct = [rn_uncertainty(euc._dilate(f, euclidean_ft(f), t), spec) for t in scales]
        calls = []

        def counting(field):
            calls.append(field)
            return l2_norm_sq(field)

        monkeypatch.setattr(euc, "l2_norm_sq", counting)
        assert dilation_sweep(f, spec, scales) == direct
        assert len(calls) == 5

    def test_field_transformed_once(self, monkeypatch):
        # f once for every scale, then each dilate once for its momentum moment
        g = make_grid(2, [6.0, 6.0], [128, 128])
        f = corpus(g, 3, 1)[0]
        scales = (0.8, 0.9, 1.1, 1.25)
        spec = MomentSpec(1.0, 2.0)
        direct = [rn_uncertainty(euc._dilate(f, euclidean_ft(f), t), spec) for t in scales]
        calls = counting(monkeypatch, euc, "euclidean_ft")
        assert dilation_sweep(f, spec, scales) == direct
        assert calls == {"euclidean_ft": 1 + len(scales)}

    def test_bad_scale_rejected(self, gauss1d):
        with pytest.raises(ValueError):
            dilation_sweep(gauss1d, MomentSpec(1.0, 1.0), [-1.0])

    def test_boundary_decay_guard(self):
        # t = 0.3 stretches R^2 member 0 by 1/0.3 until it reaches the box edge
        f = corpus(make_grid(2, [8.0, 8.0], [256, 256]), 0, 1)[0]
        with pytest.raises(DecayError, match="t=0.3 pushes mass onto the box boundary"):
            dilation_sweep(f, MomentSpec(1.0, 1.0), [0.3])


class TestFieldMemo:
    """||f||^2, the position moment per a and the momentum moment per b, once per field."""

    def test_one_transform_per_distinct_b(self, grid1d, monkeypatch):
        f = corpus(grid1d, 7, 1)[0]
        calls = counting(monkeypatch, euc, "euclidean_ft", "checked_moment", "l2_norm_sq")
        for spec in LATTICE:
            rn_uncertainty(f, spec)
        assert calls == {"euclidean_ft": 2, "checked_moment": 4, "l2_norm_sq": 1}
        for spec in LATTICE:
            rn_uncertainty(f, spec)
        assert calls == {"euclidean_ft": 2, "checked_moment": 4, "l2_norm_sq": 1}

    def test_terms_equal_a_fresh_field(self, grid1d):
        f = corpus(grid1d, 7, 1)[0]
        for _ in range(2):
            for spec in LATTICE:
                fresh = SampledField(grid1d, f.values.copy())
                assert rn_uncertainty(f, spec) == rn_uncertainty(fresh, spec)

    def test_errors_raised_on_every_call(self, grid1d, monkeypatch):
        zero = SampledField(grid1d, np.zeros(grid1d.counts))
        g = make_grid(1, [8.0], [256])
        slow = SampledField(g, 1.0 / (1.0 + g.axis(0) ** 2) + 0j)
        calls = counting(monkeypatch, euc, "l2_norm_sq", "checked_moment")
        for _ in range(2):
            with pytest.raises(ZeroFieldError):
                rn_uncertainty(zero, LATTICE[0])
        assert calls["l2_norm_sq"] == 2
        for _ in range(2):
            with pytest.raises(MomentDivergenceError, match="position"):
                rn_uncertainty(slow, MomentSpec(2.0, 1.0))
        # the converged momentum moment is kept; the diverging position moment is not
        assert calls["checked_moment"] == 3

    def test_frequency_reported_before_position(self, monkeypatch):
        # the jump at 0 spreads the spectrum and 1/(1 + x^2) the samples: both moments diverge
        g = make_grid(1, [8.0], [256])
        x = g.axis(0)
        both = SampledField(g, (x > 0) / (1.0 + x**2) + 0j)
        calls = counting(monkeypatch, euc, "euclidean_ft")
        for _ in range(2):
            with pytest.raises(MomentDivergenceError, match="frequency"):
                rn_uncertainty(both, MomentSpec(2.0, 1.0))
        assert calls == {"euclidean_ft": 2}
