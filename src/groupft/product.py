"""Fourier analysis on G = R^n x K for compact/finite K.

The transform factorises through the Euclidean transform in x and the
K-side Peter-Weyl transform in k:

    fhat(y, sigma) = sum_k w_k sigma(k^{-1}) (F_1 f)(y, k),

a d_sigma x d_sigma matrix per dual point y and irrep sigma.  The dual is
one SampledField whose trailing axis lists the entries of fhat(y, sigma),
irrep by irrep, each block row-major, with weight d_sigma on every entry:
the Plancherel measure.  So the R^n norm and moment code reads the
Plancherel ratio (exactly 1 for valid group data, up to the Euclidean
quadrature) and the frequency moment off that field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compact import CircleDual, FiniteGroupData, _entry_weights
from .euclidean import UncertaintyTerms, _nonzero_norm_sq, _rn_terms
from .fields import Grid, SampledField, euclidean_ft, l2_norm_sq
from .fields import test_corpus as _spatial_corpus

__all__ = [
    "ProductField",
    "make_product_field",
    "product_corpus",
    "product_ft",
    "product_plancherel_ratio",
    "product_uncertainty",
]


@dataclass(frozen=True)
class ProductField:
    """f(x, k) as a SampledField with group axis matching ``group``."""

    base: SampledField
    group: FiniteGroupData | CircleDual

    def __post_init__(self):
        if not self.base.has_group_axis:
            raise ValueError("product field needs a field with a group axis")
        if self.base.values.shape[-1] != self.group.order:
            raise ValueError(
                f"group axis size {self.base.values.shape[-1]} != |K| = {self.group.order}"
            )
        if np.max(np.abs(self.base.group_weights - self.group.haar_weights)) > 1e-12:
            raise ValueError("field weights disagree with the group's Haar weights")


def make_product_field(grid: Grid, group, values) -> ProductField:
    base = SampledField(grid, values, group.haar_weights)
    return ProductField(base, group)


def product_corpus(grid: Grid, group, seed: int, count: int) -> list[ProductField]:
    """Seeded corpus: sums of two (spatial corpus member) x (function on K).

    On the circle the K-side factors are trigonometric polynomials of
    degree <= truncation/2, so the dual truncation is exact.
    """
    rng = np.random.default_rng(seed)
    spatial = _spatial_corpus(grid, seed, 2 * count)
    out = []
    for i in range(count):
        vals = np.zeros(tuple(grid.counts) + (group.order,), dtype=np.complex128)
        for j in range(2):
            if isinstance(group, CircleDual):
                deg = group.truncation // 2
                modes = np.arange(-deg, deg + 1)
                coef = rng.standard_normal(modes.size) + 1j * rng.standard_normal(modes.size)
                v = np.exp(1j * np.outer(group.thetas, modes)) @ coef
            else:
                v = rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
            vals += spatial[2 * i + j].values[..., None] * v
        pf = make_product_field(grid, group, vals)
        scale = 1.0 / np.sqrt(l2_norm_sq(pf.base))
        out.append(make_product_field(grid, group, vals * scale))
    return out


def product_ft(pf: ProductField) -> SampledField:
    """Operator-valued transform, computed as F_2 F_1 (Euclidean, then K).

    Values have shape (dual grid..., sum d_sigma^2): the entries of
    fhat(y, sigma), irrep by irrep, each d x d block row-major; the group
    weights are the Plancherel weights d_sigma, one per entry.
    """
    f1 = euclidean_ft(pf.base)  # group axis untouched
    vals = (f1.values * pf.base.group_weights) @ pf.group.entry_kernel()
    return SampledField(f1.grid, vals, _entry_weights(pf.group))


def product_plancherel_ratio(pf: ProductField) -> float:
    """(int sum_sigma d_sigma ||fhat(y, sigma)||_HS^2 dy) / ||f||_2^2."""
    return l2_norm_sq(product_ft(pf)) / _nonzero_norm_sq(pf.base)


def product_uncertainty(pf: ProductField, spec) -> UncertaintyTerms:
    """Uncertainty product on R^n x K, assembled as on R^n from the dual field:
    momentum moment int |y|^{2b} sum_sigma d_sigma ||fhat(y, sigma)||_HS^2 dy,
    lhs divisor 4 pi / n."""
    return _rn_terms(pf.base, spec, _nonzero_norm_sq(pf.base), product_ft(pf))
