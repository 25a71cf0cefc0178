"""Uncertainty products on R^n.

For exponents a, b >= 1 the inequality under test is

    n * ||f||_2^(1/a + 1/b) / (4 pi)
        <= (int |x|^{2a} |f|^2 dx)^{1/2a} * (int |xi|^{2b} |fhat|^2 dxi)^{1/2b}

with equality at a = b = 1 exactly for Gaussians.  ``_uncertainty_terms``
is the one assembly of lhs / position term / momentum term for every group
family, which passes only its momentum moment (its dual integral of
|xi|^{2b}) and the divisor of its lhs (4 pi / n above); ``_nonzero_norm_sq``
is the one zero-field rejection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DecayError, MomentDivergenceError, ZeroFieldError
from .fields import (
    MomentSpec,
    SampledField,
    _require_decay,
    euclidean_ft,
    l2_norm_sq,
    moment_boundary_fraction,
    tensor_dft,
    weighted_moment,
)

__all__ = ["UncertaintyTerms", "rn_uncertainty", "dilation_sweep"]

# budget above which a moment integrand is dominated by boundary cells and
# the corresponding integral is treated as (possibly) divergent
BOUNDARY_MASS_BUDGET = 1e-6


@dataclass(frozen=True)
class UncertaintyTerms:
    """One evaluated uncertainty product: ratio = position*momentum/lhs >= 1."""

    lhs: float
    position_term: float
    momentum_term: float
    ratio: float


def checked_moment(f: SampledField, exponent: float, label: str) -> float:
    """weighted_moment plus the boundary-mass divergence guard."""
    frac = moment_boundary_fraction(f, exponent)
    if frac > BOUNDARY_MASS_BUDGET:
        raise MomentDivergenceError(
            f"{label} moment untrusted: boundary cells carry {frac:.2e} of the integrand"
        )
    return weighted_moment(f, exponent)


def _nonzero_norm_sq(f: SampledField) -> float:
    """l2_norm_sq(f); raises ZeroFieldError when it is zero, where no ratio is defined."""
    norm_sq = l2_norm_sq(f)
    if norm_sq <= 0.0:
        raise ZeroFieldError("ratio undefined for the zero field")
    return norm_sq


def _uncertainty_terms(
    f: SampledField, spec: MomentSpec, norm_sq: float, momentum_moment: float, lhs_divisor: float
) -> UncertaintyTerms:
    """position = checked_moment(f, 2a)^(1/2a), momentum = momentum_moment^(1/2b),
    lhs = norm_sq^((1/a + 1/b)/2) / lhs_divisor.  A divisor such as 4 pi / n is
    exact in floating point for n = 1, 2, 4, so lhs rounds once there.  Callers evaluate
    the momentum moment first, so where both moments diverge the momentum one is reported."""
    position = checked_moment(f, 2.0 * spec.a, "position") ** (1.0 / (2.0 * spec.a))
    momentum = momentum_moment ** (1.0 / (2.0 * spec.b))
    lhs = norm_sq ** (0.5 * (1.0 / spec.a + 1.0 / spec.b)) / lhs_divisor
    return UncertaintyTerms(lhs, position, momentum, position * momentum / lhs)


def rn_uncertainty(f: SampledField, spec: MomentSpec) -> UncertaintyTerms:
    """Evaluate both sides of the R^n inequality for one field.

    At a = b = 1 this is the plain Heisenberg product (same code path).
    Momentum moment int |xi|^{2b} |fhat|^2 dxi, lhs divisor 4 pi / n.
    Raises ZeroFieldError for ||f|| = 0 and MomentDivergenceError when a
    moment integrand has not decayed inside the box.
    """
    return _rn_terms(f, spec, _nonzero_norm_sq(f), euclidean_ft(f))


def _rn_terms(
    f: SampledField, spec: MomentSpec, norm_sq: float, fhat: SampledField
) -> UncertaintyTerms:
    """rn_uncertainty for a field whose nonzero ||f||^2 and dual field fhat the
    caller has taken; fhat's group axis, if any, is summed with its weights."""
    momentum = checked_moment(fhat, 2.0 * spec.b, "frequency")
    return _uncertainty_terms(f, spec, norm_sq, momentum, 4.0 * np.pi / f.grid.dim)


def _dilate(f: SampledField, t: float) -> SampledField:
    """f_t(x) = t^{n/2} f(t x) by direct dual-space resampling.

    The band-limited interpolant of f is evaluated at the scaled nodes
    t*x_j (no interpolation; exact for fields whose dual support lies in
    the dual box).  The dual of the dual grid is the original box, so
    tensor_dft gives the nodes that land outside it the value 0, which is
    where the decay requirement enters.
    """
    if t <= 0.0 or not np.isfinite(t):
        raise ValueError(f"scale must be positive, got {t}")
    if t == 1.0:
        return f
    g = f.grid
    vals = tensor_dft(euclidean_ft(f), [t * g.axis(i) for i in range(g.dim)], sign=+1.0)
    out = SampledField(g, vals * t ** (g.dim / 2.0))
    _require_decay(out, f"scale t={t} pushes mass onto the box boundary")
    return out


def dilation_sweep(f: SampledField, spec: MomentSpec, scales) -> list[UncertaintyTerms]:
    """Uncertainty terms for the L2-normalised dilates f_t, t in scales.

    ||f_t||_2 is scale invariant; the ratio equals 1 for Gaussians exactly
    when a = b = 1 and exceeds 1 otherwise, which makes the sweep a cheap
    sharpness probe.
    """
    norm_sq = _nonzero_norm_sq(f)
    out = []
    for t in scales:
        ft = _dilate(f, float(t))
        ft_norm_sq = l2_norm_sq(ft)
        if abs(ft_norm_sq - norm_sq) > 1e-8 * norm_sq:
            raise DecayError(f"scale t={t} does not preserve the L2 norm on this grid")
        out.append(_rn_terms(ft, spec, ft_norm_sq, euclidean_ft(ft)))
    return out
