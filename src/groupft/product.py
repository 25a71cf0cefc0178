"""Fourier analysis on G = R^n x K for compact/finite K.

The transform factorises through the Euclidean transform in x and the
K-side Peter-Weyl transform in k:

    fhat(y, sigma) = sum_k w_k sigma(k^{-1}) (F_1 f)(y, k),

an operator (d_sigma x d_sigma matrix) per dual point y and irrep sigma.
The dual of K carries counting measure weighted by d_sigma, which makes
the Plancherel ratio exactly 1 for valid group data; deviations measure
the Euclidean quadrature alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compact import CircleDual, FiniteGroupData
from .euclidean import UncertaintyTerms, _nonzero_norm_sq, _uncertainty_terms, checked_moment
from .fields import Grid, SampledField, euclidean_ft, l2_norm_sq
from .fields import test_corpus as _spatial_corpus

__all__ = [
    "ProductField",
    "ProductDualField",
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
        if abs(self.base.group_weights.sum() - 1.0) > 1e-12:
            raise ValueError("Haar weights must sum to 1")
        if np.max(np.abs(self.base.group_weights - self.group.haar_weights)) > 1e-12:
            raise ValueError("field weights disagree with the group's Haar weights")


@dataclass(frozen=True)
class ProductDualField:
    """fhat(y, sigma): one (grid..., d, d) block per irrep on the dual grid."""

    dual_grid: Grid
    group: FiniteGroupData | CircleDual
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        dims = self.group.irrep_dims
        if len(self.blocks) != len(dims):
            raise ValueError("one block per irrep required")
        for blk, d in zip(self.blocks, dims):
            if blk.shape != tuple(self.dual_grid.counts) + (d, d):
                raise ValueError(f"block shape {blk.shape} does not match grid x (d, d)")
            if not np.all(np.isfinite(blk.view(np.float64))):
                raise ValueError("dual block contains NaN or Inf")

    def hs_density(self) -> np.ndarray:
        """sum_sigma d_sigma ||fhat(y, sigma)||_HS^2 on the dual grid."""
        out = np.zeros(self.dual_grid.counts)
        for d, blk in zip(self.group.irrep_dims, self.blocks):
            out += d * np.sum(np.abs(blk) ** 2, axis=(-2, -1))
        return out


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


def product_ft(pf: ProductField) -> ProductDualField:
    """Operator-valued transform, computed as F_2 F_1 (Euclidean, then K)."""
    f1 = euclidean_ft(pf.base)  # group axis untouched
    w = pf.base.group_weights
    blocks = []
    for mats_inv in pf.group.irrep_matrices_inv():
        blocks.append(np.tensordot(f1.values * w, mats_inv, axes=(-1, 0)))
    return ProductDualField(f1.grid, pf.group, tuple(blocks))


def product_plancherel_ratio(pf: ProductField) -> float:
    """(int sum_sigma d_sigma ||fhat(y, sigma)||_HS^2 dy) / ||f||_2^2."""
    norm_sq = _nonzero_norm_sq(pf.base)
    dual = product_ft(pf)
    return float(dual.hs_density().sum()) * dual.dual_grid.cell_volume / norm_sq


def product_uncertainty(pf: ProductField, spec) -> UncertaintyTerms:
    """Uncertainty product on R^n x K; d_sigma enters the dual measure: momentum
    moment int |y|^{2b} sum_sigma d_sigma ||fhat(y, sigma)||_HS^2 dy, lhs divisor 4 pi / n."""
    norm_sq, n = _nonzero_norm_sq(pf.base), pf.base.grid.dim
    dual = product_ft(pf)
    # a field on the dual grid whose |.|^2 is the HS density carries the frequency moment
    amplitude = SampledField(dual.dual_grid, np.sqrt(dual.hs_density()))
    momentum = checked_moment(amplitude, 2.0 * spec.b, "frequency")
    return _uncertainty_terms(pf.base, spec, norm_sq, momentum, 4.0 * np.pi / n)
