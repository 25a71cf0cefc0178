"""Uncertainty products on R^n.

For exponents a, b >= 1 the inequality under test is

    n * ||f||_2^(1/a + 1/b) / (4 pi)
        <= (int |x|^{2a} |f|^2 dx)^{1/2a} * (int |xi|^{2b} |fhat|^2 dxi)^{1/2b}

with equality at a = b = 1 exactly for Gaussians.  ``_uncertainty_terms``
is the one assembly of lhs / position term / momentum term for every group
family, which passes ||f||^2, its position moment, its momentum moment
(its dual integral of |xi|^{2b}) and the divisor of its lhs (4 pi / n
above); ``_nonzero_norm_sq`` is the one zero-field rejection.  R^n and
R^n x K keep each field's norm and moments on the field (``fields._memo``),
so a lattice over (a, b) takes one transform per distinct b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DecayError, MomentDivergenceError, ZeroFieldError
from .fields import (
    MomentSpec,
    SampledField,
    _memo,
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
    spec: MomentSpec,
    norm_sq: float,
    position_moment: float,
    momentum_moment: float,
    lhs_divisor: float,
) -> UncertaintyTerms:
    """position = position_moment^(1/2a), momentum = momentum_moment^(1/2b),
    lhs = norm_sq^((1/a + 1/b)/2) / lhs_divisor.  A divisor such as 4 pi / n is
    exact in floating point for n = 1, 2, 4, so lhs rounds once there.  Callers take
    the norm, then the momentum moment, then the position moment, so a zero field is
    reported first and, where both moments diverge, the momentum one."""
    position = position_moment ** (1.0 / (2.0 * spec.a))
    momentum = momentum_moment ** (1.0 / (2.0 * spec.b))
    lhs = norm_sq ** (0.5 * (1.0 / spec.a + 1.0 / spec.b)) / lhs_divisor
    return UncertaintyTerms(lhs, position, momentum, position * momentum / lhs)


def _position_moment(f: SampledField, a: float) -> float:
    """checked_moment(f, 2a), kept on f under ("position", a)."""
    return _memo(f, ("position", a), lambda: checked_moment(f, 2.0 * a, "position"))


def rn_uncertainty(f: SampledField, spec: MomentSpec) -> UncertaintyTerms:
    """Evaluate both sides of the R^n inequality for one field.

    At a = b = 1 this is the plain Heisenberg product (same code path).
    Momentum moment int |xi|^{2b} |fhat|^2 dxi, lhs divisor 4 pi / n.
    Raises ZeroFieldError for ||f|| = 0 and MomentDivergenceError when a
    moment integrand has not decayed inside the box.  ||f||^2, the position
    moment per a and the momentum moment per b are kept on f, so later
    calls on the same field reuse them and fhat is computed once per
    distinct b; an error is raised again on every call.
    """
    return _rn_terms(f, spec, f, euclidean_ft)


def _rn_terms(f: SampledField, spec: MomentSpec, owner, transform) -> UncertaintyTerms:
    """The R^n assembly for the primal field f and the object ``owner`` whose
    dual field is ``transform(owner)`` (f itself on R^n, the ProductField on
    R^n x K); the dual's group axis, if any, is summed with its weights.

    Each value goes through ``fields._memo``: the nonzero ||f||^2 and
    ("position", a) on f, ("momentum", b) on owner.  The transform runs
    inside the momentum entry's compute, so only on a miss.
    """
    norm_sq = _memo(f, "norm_sq", lambda: _nonzero_norm_sq(f))
    momentum = _memo(
        owner,
        ("momentum", spec.b),
        lambda: checked_moment(transform(owner), 2.0 * spec.b, "frequency"),
    )
    position = _position_moment(f, spec.a)
    return _uncertainty_terms(spec, norm_sq, position, momentum, 4.0 * np.pi / f.grid.dim)


def _dilate(f: SampledField, fhat: SampledField, t: float) -> SampledField:
    """f_t(x) = t^{n/2} f(t x) by direct dual-space resampling of fhat = euclidean_ft(f).

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
    vals = tensor_dft(fhat, [t * g.axis(i) for i in range(g.dim)], sign=+1.0)
    out = SampledField(g, vals * t ** (g.dim / 2.0))
    _require_decay(out, f"scale t={t} pushes mass onto the box boundary")
    return out


def dilation_sweep(f: SampledField, spec: MomentSpec, scales) -> list[UncertaintyTerms]:
    """Uncertainty terms for the L2-normalised dilates f_t, t in scales.

    ||f_t||_2 is scale invariant; the ratio equals 1 for Gaussians exactly
    when a = b = 1 and exceeds 1 otherwise, which makes the sweep a cheap
    sharpness probe.  f is transformed once for every scale.
    """
    norm_sq = _memo(f, "norm_sq", lambda: _nonzero_norm_sq(f))
    fhat = euclidean_ft(f)
    out = []
    for t in scales:
        ft = _dilate(f, fhat, float(t))
        ft_norm_sq = l2_norm_sq(ft)
        if abs(ft_norm_sq - norm_sq) > 1e-8 * norm_sq:
            raise DecayError(f"scale t={t} does not preserve the L2 norm on this grid")
        # close to ||f||^2 > 0, so it is the nonzero norm the terms read off ft
        _memo(ft, "norm_sq", lambda: ft_norm_sq)
        out.append(_rn_terms(ft, spec, ft, euclidean_ft))
    return out
