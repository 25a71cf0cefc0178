"""Grids, sampled fields and the Euclidean Fourier transform.

Everything downstream (product groups, the motion group, nilpotent groups)
is built on complex fields sampled on a uniform box grid.  The transform
convention is

    fhat(xi) = int f(x) exp(-2*pi*i*<x, xi>) dx

throughout.  A grid over [-L, L)^n with N points per axis, N even, induces
a dual grid over [-N/(4L), N/(4L)) with spacing 1/(2L); with that pairing
x_j * xi_k = (j - N/2)(k - N/2)/N exactly, and the discrete transform (an
FFT between two half-length rolls) is an exactly unitary approximation of
the integral (Parseval holds to machine precision), so Plancherel defects
measured later are genuine quadrature/truncation effects, not bookkeeping.
The FFT runs in place on the copy the first roll makes, because touching
freshly allocated per-axis output arrays costs more than the transform.

A field may carry one trailing discrete axis with positive weights, which
norms and moments sum against and the Fourier transform leaves alone: Haar
weights summing to 1 over the samples of a compact group K, or Plancherel
weights d_sigma over the entries fhat(y, sigma) of an R^n x K dual.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import AliasingError, DecayError

__all__ = [
    "Grid",
    "SampledField",
    "MomentSpec",
    "make_grid",
    "gaussian_packet",
    "l2_norm_sq",
    "weighted_moment",
    "moment_boundary_fraction",
    "euclidean_ft",
    "inverse_euclidean_ft",
    "test_corpus",
    "boundary_decay",
    "axis_band_fraction",
    "save_field",
    "load_field",
]


@dataclass(frozen=True)
class Grid:
    """Uniform lattice over the box prod_i [-L_i, L_i), left-closed.

    Attributes:
        half_extents: per-axis half width L_i.
        counts: per-axis sample count N_i, even and >= 2 (powers of two
            recommended), so that x_j * xi_k = (j - N/2)(k - N/2)/N_i.
    """

    half_extents: tuple[float, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        if not self.half_extents or len(self.half_extents) != len(self.counts):
            raise ValueError(f"need one count per half extent, got {self}")
        for L, N in zip(self.half_extents, self.counts):
            if not np.isfinite(L) or L <= 0.0:
                raise ValueError(f"half extents must be positive, got {L}")
            if not isinstance(N, numbers.Integral) or isinstance(N, bool) or N < 2 or N % 2:
                raise ValueError(f"sample counts must be even integers >= 2, got {N!r}")

    @property
    def dim(self) -> int:
        return len(self.half_extents)

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(2.0 * L / N for L, N in zip(self.half_extents, self.counts))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacings))

    @property
    def dual_spacings(self) -> tuple[float, ...]:
        return tuple(1.0 / (2.0 * L) for L in self.half_extents)

    @property
    def dual_half_extents(self) -> tuple[float, ...]:
        return tuple(N / (4.0 * L) for L, N in zip(self.half_extents, self.counts))

    def axis(self, i: int) -> np.ndarray:
        """Sample coordinates x_j = -L_i + j*h_i along axis i."""
        L = self.half_extents[i]
        N = self.counts[i]
        return -L + (2.0 * L / N) * np.arange(N)

    def axes(self) -> list[np.ndarray]:
        return [self.axis(i) for i in range(self.dim)]

    def dual(self) -> "Grid":
        """Grid of dual sample points induced by the discrete transform."""
        return Grid(self.dual_half_extents, self.counts)

    def radius_sq(self) -> np.ndarray:
        """|x|^2 on the full lattice, shape == counts."""
        r2 = np.zeros(self.counts)
        for i in range(self.dim):
            shape = [1] * self.dim
            shape[i] = self.counts[i]
            r2 = r2 + (self.axis(i) ** 2).reshape(shape)
        return r2


def make_grid(dim, half_extents, counts) -> Grid:
    """Validated Grid constructor.

    Raises ValueError for a dim that is not an integer >= 1 (a bool is
    none), nonpositive extents, odd counts or counts < 2, or a dimension
    mismatch between the argument lists.
    """
    if not isinstance(dim, numbers.Integral) or isinstance(dim, bool) or dim < 1:
        raise ValueError(f"dim must be an integer >= 1, got {dim!r}")
    half_extents = tuple(float(L) for L in np.atleast_1d(half_extents))
    counts = tuple(np.atleast_1d(np.asarray(counts, dtype=object)))
    if len(half_extents) != dim or len(counts) != dim:
        raise ValueError(
            f"expected {dim} extents and counts, got {len(half_extents)} and {len(counts)}"
        )
    return Grid(half_extents, counts)


@dataclass(frozen=True)
class SampledField:
    """Complex samples on a Grid, optionally crossed with a discrete group axis.

    ``values`` has shape ``grid.counts`` (plus one trailing axis of size
    ``len(group_weights)`` when a group coordinate is present; its positive
    weights are Haar weights summing to 1 on K, or the Plancherel weights
    d_sigma on the entries of an R^n x K dual).  Instances are immutable;
    the value array is marked read-only.
    """

    grid: Grid
    values: np.ndarray
    group_weights: np.ndarray | None = None

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.complex128)
        expected = tuple(self.grid.counts)
        if self.group_weights is not None:
            w = np.ascontiguousarray(self.group_weights, dtype=np.float64)
            if w.ndim != 1 or w.size < 1:
                raise ValueError("group_weights must be a 1-D array")
            if not np.all(np.isfinite(w)) or np.any(w <= 0):
                raise ValueError("group weights must be positive and finite")
            expected = expected + (w.size,)
            w.setflags(write=False)
            object.__setattr__(self, "group_weights", w)
        if vals.shape != expected:
            raise ValueError(f"values shape {vals.shape} does not match grid {expected}")
        if not np.all(np.isfinite(vals.view(np.float64))):
            raise ValueError("field contains NaN or Inf entries")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def has_group_axis(self) -> bool:
        return self.group_weights is not None


@dataclass(frozen=True)
class MomentSpec:
    """Exponent pair (a, b) for the position/frequency moments; both >= 1."""

    a: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and self.a >= 1.0):
            raise ValueError(f"a must be >= 1, got {self.a}")
        if not (np.isfinite(self.b) and self.b >= 1.0):
            raise ValueError(f"b must be >= 1, got {self.b}")


def _memo(field, key, compute):
    """``compute()`` once per field object and ``key``, kept in the field's own
    ``__dict__``.

    Fields are frozen and their value arrays read-only, so a stored result
    cannot go stale, and it lives exactly as long as the field.  An
    exception is not stored: the next call computes (and raises) again.

    Kept this way: motion's quadrature guard per lam_max, and the default
    HS-profile of motion and nilpotent fields.  On R^n and R^n x K, floats
    only: the nonzero ||f||^2 and the position moment per a on the field,
    and the momentum moment per b on the object transformed (the field, or
    the ProductField).  A motion field's position moment per a is kept on
    its planes.
    """
    memo = field.__dict__.setdefault("_memo", {})
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def gaussian_packet(
    grid: Grid,
    centers=None,
    widths=None,
    modulations=None,
    hermite_axis: int | None = None,
    hermite_degree: int = 0,
) -> SampledField:
    """Product Gaussian wave packet, optionally times a Hermite-type factor.

    f(x) = H_d(sqrt(2*pi) u_k) * prod_i exp(-pi ((x_i-c_i)/w_i)^2 + 2*pi*i a_i x_i)

    with u_k = (x_k - c_k)/w_k on the designated axis.  This is the basic
    smooth, rapidly decaying test function; centers/widths/modulations
    default to 0 / 1 / 0 on every axis.
    """
    d = grid.dim
    centers = np.broadcast_to(0.0 if centers is None else centers, (d,)).astype(float)
    widths = np.broadcast_to(1.0 if widths is None else widths, (d,)).astype(float)
    modulations = np.broadcast_to(0.0 if modulations is None else modulations, (d,)).astype(float)
    vals = np.ones(grid.counts, dtype=np.complex128)
    for i in range(d):
        x = grid.axis(i)
        u = (x - centers[i]) / widths[i]
        fac = np.exp(-np.pi * u**2 + 2j * np.pi * modulations[i] * x)
        if hermite_axis == i and hermite_degree > 0:
            coeffs = [0.0] * hermite_degree + [1.0]
            fac = fac * np.polynomial.hermite.hermval(np.sqrt(2 * np.pi) * u, coeffs)
        shape = [1] * d
        shape[i] = grid.counts[i]
        vals *= fac.reshape(shape)
    return SampledField(grid, vals)


def _group_density(f: SampledField) -> np.ndarray:
    """|f|^2 with the group axis (if any) summed out against its weights."""
    dens = np.abs(f.values) ** 2
    if f.has_group_axis:
        dens = dens @ f.group_weights  # tensordot would run a one-column GEMM
    return dens


def l2_norm_sq(f: SampledField) -> float:
    """Riemann-sum approximation of the squared L2 norm."""
    return float(_group_density(f).sum() * f.grid.cell_volume)


def weighted_moment(f: SampledField, exponent: float) -> float:
    """Quadrature of int |x|^exponent |f(x)|^2 dx (group axis summed).

    ``exponent`` must be nonnegative (a NaN raises ValueError too); exponent
    0 reproduces l2_norm_sq exactly (0^0 is taken as 1).
    """
    if not exponent >= 0:
        raise ValueError(f"moment exponent must be >= 0, got {exponent}")
    dens = _group_density(f)
    r2 = f.grid.radius_sq()
    return float((r2 ** (exponent / 2.0) * dens).sum() * f.grid.cell_volume)


def moment_boundary_fraction(f: SampledField, exponent: float) -> float:
    """Fraction of the moment integrand mass carried by boundary cells.

    Large values mean the moment is dominated by the box edge and cannot
    be trusted (the underlying integral may diverge).  A negative or NaN
    ``exponent`` raises ValueError.
    """
    if not exponent >= 0:
        raise ValueError(f"moment exponent must be >= 0, got {exponent}")
    dens = _group_density(f) * f.grid.radius_sq() ** (exponent / 2.0)
    total = float(dens.sum())
    if total <= 0.0:
        return 0.0
    interior = dens[tuple(slice(1, -1) for _ in range(f.grid.dim))]
    return 1.0 - float(interior.sum()) / total


def _centred_fft(f: SampledField, transform, scale: float) -> SampledField:
    """``transform`` (np.fft.fftn or ifftn) of the spatial axes between two
    half-length rolls, scaled in place; a group axis keeps its order.

    The transform runs in place (``out=``, numpy >= 2.0) on the rolled
    copy of the input, which this function owns; the field's own values are
    never written.  Without ``out=`` numpy allocates a fresh full-size
    output for each axis, and first-touching those pages costs more than
    the transform itself.  The arithmetic is the same, so the values are
    the same bits."""
    axes = tuple(range(f.grid.dim))
    rolled = np.fft.fftshift(f.values, axes)
    vals = np.fft.fftshift(transform(rolled, axes=axes, out=rolled), axes)
    vals *= scale
    return SampledField(f.grid.dual(), vals, f.group_weights)


def euclidean_ft(f: SampledField) -> SampledField:
    """Forward transform onto the dual grid.

    Approximates fhat(xi) = int f(x) exp(-2*pi*i<x,xi>) dx at the dual grid
    points; exact Parseval partner of inverse_euclidean_ft.  Counts are even,
    so x_j * xi_k = (j - N/2)(k - N/2)/N and the sum is fftn between two
    half-length rolls of the spatial axes; a group axis passes untouched.
    The FFT runs in place on the copy the first roll makes (see
    ``_centred_fft``); ``f`` itself is never written.
    """
    return _centred_fft(f, np.fft.fftn, f.grid.cell_volume)


def inverse_euclidean_ft(fhat: SampledField) -> SampledField:
    """Inverse of euclidean_ft; maps a dual-grid field back to the primal grid."""
    return _centred_fft(fhat, np.fft.ifftn, np.prod(fhat.grid.counts) * fhat.grid.cell_volume)


def _axis_phase(grid: Grid, axis: int, nodes, sign: float) -> np.ndarray:
    """exp(sign*2*pi*i*xi*x) between ``nodes`` xi (any shape) and the samples x
    of one grid axis, shape nodes.shape + (N,): the one phase builder of every
    direct (non-FFT) transform, motion's plane waves included.  Rows of nodes
    beyond the axis's dual half-extent are zero, because there the sum aliases."""
    nodes = np.asarray(nodes, dtype=float)
    phase = np.exp(sign * 2j * np.pi * np.multiply.outer(nodes, grid.axis(axis)))
    phase[np.abs(nodes) > grid.dual_half_extents[axis]] = 0.0
    return phase


def tensor_dft(f: SampledField, axis_nodes, sign: float = -1.0) -> np.ndarray:
    """Direct transform on a tensor product of per-axis node lists.

    Returns sum_x f(x) exp(sign*2*pi*i<x, xi>) * cell_volume on the grid
    {xi} = axis_nodes[0] x ... x axis_nodes[d-1], evaluated by sequential
    axis contractions (no FFT, no interpolation).  Cost is one pass over
    the sample array per leading node axis.  A node beyond its axis's dual
    half-extent contributes exactly 0 (``_axis_phase``'s mask): the grid
    cannot tell that frequency from its aliases.  ValueError unless there
    is exactly one node list per grid axis.
    """
    if f.has_group_axis:
        raise ValueError("tensor_dft applies to spatial-only fields")
    if len(axis_nodes) != f.grid.dim:
        raise ValueError(f"tensor_dft needs {f.grid.dim} node lists, got {len(axis_nodes)}")
    T = f.values
    for i in range(f.grid.dim):
        # contract the current leading spatial axis; node axis lands at the end
        T = np.tensordot(T, _axis_phase(f.grid, i, axis_nodes[i], sign), axes=(0, 1))
    return T * f.grid.cell_volume


# largest boundary_decay at which a field counts as decayed inside its box
_BOUNDARY_DECAY_LIMIT = 1e-10


def boundary_decay(f: SampledField) -> float:
    """max |f| over boundary faces divided by max |f| overall (0 for f == 0)."""
    mag = np.abs(f.values)
    peak = float(mag.max())
    if peak == 0.0:
        return 0.0
    worst = 0.0
    for i in range(f.grid.dim):
        for edge in (0, -1):
            idx = [slice(None)] * mag.ndim
            idx[i] = edge
            worst = max(worst, float(mag[tuple(idx)].max()))
    return worst / peak


def _require_decay(f: SampledField, message: str) -> None:
    """Raise DecayError(message) when f has not decayed at its box boundary."""
    if boundary_decay(f) > _BOUNDARY_DECAY_LIMIT:
        raise DecayError(message)


@functools.cache
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss_rule(pieces, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite n-point Gauss-Legendre (nodes, weights) over (lo, hi) pieces."""
    x, w = _legendre(n)
    nodes, weights = [], []
    for lo, hi in pieces:
        half = 0.5 * (hi - lo)
        nodes.append(half * x + 0.5 * (hi + lo))
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


def axis_band_fraction(f: SampledField, axis: int, cut: float) -> float:
    """Fraction of spectral energy with |xi_axis| < cut.

    Uses the marginal dual density g(xi) = int |F_axis f(xi, x_rest)|^2 dx_rest
    evaluated by a direct 1-D transform on 64 Gauss-Legendre nodes over
    [-cut, cut], so bands much narrower than the dual grid spacing are
    still resolved.  A cut beyond the dual half-extent raises
    AliasingError: the grid cannot tell those frequencies from aliases.
    A negative or NaN cut raises ValueError.
    """
    if f.has_group_axis:
        raise ValueError("axis_band_fraction applies to spatial-only fields")
    if not cut >= 0.0:
        raise ValueError(f"band cut must be >= 0, got {cut}")
    if cut > f.grid.dual_half_extents[axis] * (1.0 + 1e-12):
        raise AliasingError(f"band cut {cut} beyond the dual half-extent of axis {axis}")
    xi, w = _gauss_rule([(-cut, cut)], 64)
    ph = _axis_phase(f.grid, axis, xi, -1.0) * f.grid.spacings[axis]
    vals = np.moveaxis(f.values, axis, 0)
    slab = np.tensordot(ph, vals, axes=(1, 0))  # (nodes, rest...)
    rest_vol = f.grid.cell_volume / f.grid.spacings[axis]
    dens = (np.abs(slab) ** 2).reshape(len(xi), -1).sum(axis=1) * rest_vol
    band = float(np.dot(w, dens))
    total = l2_norm_sq(f)  # Parseval: total spectral energy
    return band / total if total > 0 else 0.0


# ---------------------------------------------------------------------------
# test corpus
# ---------------------------------------------------------------------------

# boundary / dual decay targets used when drawing corpus parameters;
# exp(-pi*delta^2) <= 1e-11 for delta = 2.84
_DECAY_DELTA = 2.84


def _corpus_bounds(grid: Grid):
    """Feasible (width_lo, width_hi, c_max, a_max) per axis, or None."""
    out = []
    for L, W in zip(grid.half_extents, grid.dual_half_extents):
        c_max = L / 12.0
        a_max = min(W / 10.0, 0.75)
        w_lo = _DECAY_DELTA / (W - a_max)
        w_hi = (L - c_max) / _DECAY_DELTA
        if w_lo > w_hi:
            return None
        out.append((w_lo, w_hi, c_max, a_max))
    return out


def _draw_packet(grid: Grid, rng, hermite: bool) -> SampledField:
    bounds = _corpus_bounds(grid)
    if bounds is None:
        raise DecayError(
            "grid too coarse for the corpus decay margins "
            f"(counts {grid.counts}, extents {grid.half_extents})"
        )
    widths, centers, mods = [], [], []
    for w_lo, w_hi, c_max, a_max in bounds:
        lo = max(w_lo, min(0.7, w_hi))
        hi = min(w_hi, max(1.6, w_lo))
        widths.append(rng.uniform(lo, hi))
        centers.append(rng.uniform(-c_max, c_max))
        mods.append(rng.uniform(-a_max, a_max))
    if hermite:
        axis = int(rng.integers(grid.dim))
        deg = int(rng.integers(1, 3))
        # polynomial growth eats margin; shrink the width on that axis
        widths[axis] *= 0.85
        f = gaussian_packet(grid, centers, widths, mods, hermite_axis=axis, hermite_degree=deg)
    else:
        f = gaussian_packet(grid, centers, widths, mods)
    return f


def _draw_band_limited(grid: Grid, rng) -> SampledField | None:
    """Random dual coefficients on the inner quarter of the dual box, windowed.

    The window width and the mode-support margin are chosen so the spatial
    boundary decay stays below 1e-10 while the dual leakage outside the
    inner quarter stays below 1e-12 of the total energy; returns None when
    the grid's time-bandwidth product cannot support both.
    """
    d = grid.dim
    windows, supports = [], []
    for L, W, dxi in zip(grid.half_extents, grid.dual_half_extents, grid.dual_spacings):
        w_win = L / _DECAY_DELTA
        margin = 3.0 / w_win
        s_max = W / 4.0 - margin
        if s_max < 2.0 * dxi:
            return None
        windows.append(w_win)
        supports.append(s_max)
    coef = np.zeros(grid.counts, dtype=np.complex128)
    dual = grid.dual()
    mask = np.ones(grid.counts, dtype=bool)
    for i in range(d):
        shape = [1] * d
        shape[i] = grid.counts[i]
        mask &= (np.abs(dual.axis(i)) <= supports[i]).reshape(shape)
    n_modes = int(mask.sum())
    coef[mask] = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
    field = inverse_euclidean_ft(SampledField(dual, coef))
    window = gaussian_packet(grid, widths=windows)
    return SampledField(grid, field.values * window.values)


def _unit_norm(f: SampledField) -> SampledField:
    """f / ||f||_2, the one normalisation of every corpus member."""
    return SampledField(f.grid, f.values * (1.0 / np.sqrt(l2_norm_sq(f))), f.group_weights)


def test_corpus(grid: Grid, seed: int, count: int) -> list[SampledField]:
    """Deterministic-by-seed corpus of nonzero smooth decaying fields.

    Cycles through shifted/modulated Gaussians, Hermite-type polynomials
    times Gaussians, and windowed random band-limited fields (the latter
    replaced by another Gaussian packet on grids whose time-bandwidth
    product cannot meet the decay margins).  Every member is normalised to
    unit L2 norm.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    members = []
    for i in range(count):
        f = _draw_band_limited(grid, rng) if i % 3 == 2 else None
        if f is None:
            f = _draw_packet(grid, rng, hermite=i % 3 == 1)
        members.append(_unit_norm(f))
    return members


# ---------------------------------------------------------------------------
# serialization: flat row-major complex pairs behind a small header
# ---------------------------------------------------------------------------

_MAGIC = b"GFLD"
_VERSION = 1


def save_field(f: SampledField, path) -> None:
    """Write a field as header + row-major float64 (re, im) pairs."""
    with open(path, "wb") as fh:
        flags = 1 if f.has_group_axis else 0
        fh.write(_MAGIC)
        fh.write(struct.pack("<III", _VERSION, f.grid.dim, flags))
        for L, N in zip(f.grid.half_extents, f.grid.counts):
            fh.write(struct.pack("<dQ", L, N))
        if f.has_group_axis:
            fh.write(struct.pack("<Q", f.group_weights.size))
            fh.write(np.ascontiguousarray(f.group_weights).tobytes())
        fh.write(np.ascontiguousarray(f.values).tobytes())


def load_field(path) -> SampledField:
    """Read a field written by save_field.

    Raises ValueError naming the file when it is not a field file, when
    its header, axis table, weight block or value block is cut short, when
    bytes follow the value block, or when the axis table holds an odd count
    or a non-positive extent; sizes are checked against the file
    length before anything is read or allocated.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read(n_bytes: int, part: str) -> bytes:
            if n_bytes > size - fh.tell():
                raise ValueError(f"{path}: file ends inside the {part}")
            return fh.read(n_bytes)

        if fh.read(4) != _MAGIC:
            raise ValueError(f"{path}: not a groupft field file")
        version, dim, flags = struct.unpack("<III", read(12, "header"))
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported field file version {version}")
        extents, counts = [], []
        for L, N in struct.iter_unpack("<dQ", read(16 * dim, "axis table")):
            extents.append(L)
            counts.append(int(N))
        try:
            grid = make_grid(dim, extents, counts)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        weights = None
        shape = tuple(counts)
        if flags & 1:
            (k,) = struct.unpack("<Q", read(8, "weight block"))
            weights = np.frombuffer(read(8 * k, "weight block"), dtype=np.float64)
            shape = shape + (k,)
        n_bytes = 16 * math.prod(shape)
        if size - fh.tell() > n_bytes:
            raise ValueError(f"{path}: {size - fh.tell() - n_bytes} bytes after the value block")
        vals = np.frombuffer(read(n_bytes, "value block"), dtype=np.complex128).reshape(shape)
        return SampledField(grid, vals.copy(), weights)
