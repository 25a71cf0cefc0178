"""Uncertainty products on R^n.

For exponents a, b >= 1 the inequality under test is

    n * ||f||_2^(1/a + 1/b) / (4 pi)
        <= (int |x|^{2a} |f|^2 dx)^{1/2a} * (int |xi|^{2b} |fhat|^2 dxi)^{1/2b}

with equality at a = b = 1 exactly for Gaussians.  The decomposition into
lhs / position term / momentum term produced here is reused verbatim by
the product-group, motion-group and nilpotent modules (only the momentum
side changes group by group).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DecayError, MomentDivergenceError, ZeroFieldError
from .fields import (
    _BOUNDARY_DECAY_LIMIT,
    MomentSpec,
    SampledField,
    boundary_decay,
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


def _terms(lhs: float, position: float, momentum: float) -> UncertaintyTerms:
    return UncertaintyTerms(lhs, position, momentum, position * momentum / lhs)


def checked_moment(f: SampledField, exponent: float, label: str) -> float:
    """weighted_moment plus the boundary-mass divergence guard."""
    frac = moment_boundary_fraction(f, exponent)
    if frac > BOUNDARY_MASS_BUDGET:
        raise MomentDivergenceError(
            f"{label} moment untrusted: boundary cells carry {frac:.2e} of the integrand"
        )
    return weighted_moment(f, exponent)


def rn_uncertainty(f: SampledField, spec: MomentSpec) -> UncertaintyTerms:
    """Evaluate both sides of the R^n inequality for one field.

    At a = b = 1 this is the plain Heisenberg product (same code path).
    Raises ZeroFieldError for ||f|| = 0 and MomentDivergenceError when a
    moment integrand has not decayed inside the box.
    """
    norm_sq = l2_norm_sq(f)
    if norm_sq <= 0.0:
        raise ZeroFieldError("uncertainty ratio undefined for the zero field")
    n = f.grid.dim
    position = checked_moment(f, 2.0 * spec.a, "position") ** (1.0 / (2.0 * spec.a))
    fhat = euclidean_ft(f)
    momentum = checked_moment(fhat, 2.0 * spec.b, "frequency") ** (1.0 / (2.0 * spec.b))
    lhs = n * norm_sq ** (0.5 * (1.0 / spec.a + 1.0 / spec.b)) / (4.0 * np.pi)
    return _terms(lhs, position, momentum)


def _dilate(f: SampledField, t: float) -> SampledField:
    """f_t(x) = t^{n/2} f(t x) by direct dual-space resampling.

    The band-limited interpolant of f is evaluated at the scaled nodes
    t*x_j (no interpolation; exact for fields whose dual support lies in
    the dual box).  Nodes that land outside the original box take the
    value 0, which is where the decay requirement enters.
    """
    if t <= 0.0 or not np.isfinite(t):
        raise ValueError(f"scale must be positive, got {t}")
    if t == 1.0:
        return f
    g = f.grid
    fhat = euclidean_ft(f)
    nodes = []
    for i in range(g.dim):
        x = t * g.axis(i)
        x[np.abs(x) > g.half_extents[i]] = np.nan  # marked, zeroed below
        nodes.append(x)
    # zero rows of the phase matrices at masked nodes via nan -> 0 trick
    clean = [np.nan_to_num(x) for x in nodes]
    vals = tensor_dft(fhat, clean, sign=+1.0)
    for i, x in enumerate(nodes):
        idx = [slice(None)] * g.dim
        idx[i] = np.isnan(x)
        vals[tuple(idx)] = 0.0
    out = SampledField(g, vals * t ** (g.dim / 2.0))
    if boundary_decay(out) > _BOUNDARY_DECAY_LIMIT:
        raise DecayError(f"scale t={t} pushes mass onto the box boundary")
    return out


def dilation_sweep(f: SampledField, spec: MomentSpec, scales) -> list[UncertaintyTerms]:
    """Uncertainty terms for the L2-normalised dilates f_t, t in scales.

    ||f_t||_2 is scale invariant; the ratio equals 1 for Gaussians exactly
    when a = b = 1 and exceeds 1 otherwise, which makes the sweep a cheap
    sharpness probe.
    """
    norm_sq = l2_norm_sq(f)
    if norm_sq <= 0.0:
        raise ZeroFieldError("dilation sweep undefined for the zero field")
    out = []
    for t in scales:
        ft = _dilate(f, float(t))
        if abs(l2_norm_sq(ft) - norm_sq) > 1e-8 * norm_sq:
            raise DecayError(f"scale t={t} does not preserve the L2 norm on this grid")
        out.append(rn_uncertainty(ft, spec))
    return out
