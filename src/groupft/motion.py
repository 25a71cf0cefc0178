"""Operator-valued Fourier analysis on the Euclidean motion group of the plane.

A field lives on (z, theta) with z in a 2-D box and theta on a uniform
circle grid (normalised Haar).  For lambda > 0 the transform is the
operator

    F(lambda)_{m,m'} = int f(z, theta) <pi_lambda(z, theta)^* e_{m'}, e_m>
                       dz dtheta/(2 pi)

in the circle-character basis e_m, truncated to |m|, |m'| <= M, with

    pi_lambda(z, k) phi(u) = exp(i lambda <u^{-1} e_1, z>) phi(u k).

The u-integral in the matrix element is evaluated on the circle grid (a
plain DFT of the sampled plane wave), never through closed-form Bessel
functions.  The plane wave factorises as exp(-i lambda z1 cos g) *
exp(i lambda z2 sin g), the ``fields._axis_phase`` rows at lambda cos g / 2 pi
and lambda sin g / 2 pi, which are 0 beyond the dual box (where they alias)
as in every direct transform.  So ``mn_ft`` and the HS-profiles share one
path that, per lambda, builds only those two small factors and contracts
the theta-coefficient rows against them: one matmul over z2, a reduction
over z1 and one FFT over the circle grid; profiles stack the active rows of
all their fields so the factors are built once per lambda.

The checks read a field through its circle modes c_m(z), one FFT over the
uniform circle grid per field (``_circle_modes``, kept on the field by
``fields._memo``).  It keeps the modes that carry mass by one rule
(``_carrying_modes``: norm below 1e-14 of the peak over all circle modes is
dropped), as one small field of planes c_m(z) with unit weights.  Parseval
over the circle grid, sum_k |f(z, theta_k)|^2 / n_theta = sum_m |c_m(z)|^2,
gives that field f's norm and spatial moments, so the guard's norm and the
position moments are read off it; the spectral tail transforms only its
planes instead of every circle slice; the HS-profiles take its rows with
|m| <= M.  Only the boundary-decay guard, and ``mn_ft``, which keeps every
row |m| <= M, read the full samples.  The guards (norm, boundary decay,
spectral tail) run once per field and lam_max, and are kept on the field for
its Plancherel ratio and every lattice point.

The formulas keep the general-n shape (weights lambda^{n-1}, constant
c_n = 2/(2^{n/2} Gamma(n/2))) specialised to n = 2, where the small
subgroup is trivial and the sigma-sum collapses: PLANCHEREL_C2 = 1.
Because the representation carries no 2*pi in its exponent while the
Euclidean transform elsewhere does, the raw Plancherel ratio is a
function-independent constant kappa (2*pi in this convention) rather
than 1; inequality checks rescale the dual integrals by the measured
kappa.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import AliasingError, SpectralTailError, ZeroFieldError
from .euclidean import UncertaintyTerms, _nonzero_norm_sq, _position_moment, _uncertainty_terms
from .fields import (
    Grid,
    SampledField,
    _axis_phase,
    _gauss_rule,
    _memo,
    _require_decay,
    _unit_norm,
    euclidean_ft,
    gaussian_packet,
)

__all__ = [
    "PLANCHEREL_C2",
    "MotionField",
    "OperatorMatrix",
    "LambdaGrid",
    "make_lambda_grid",
    "motion_field",
    "motion_corpus",
    "mn_ft",
    "mn_hs_norm_sq",
    "mn_hs_profile",
    "mn_hs_profiles",
    "mn_plancherel_ratio",
    "mn_spectral_tail_fraction",
    "mn_uncertainty",
]

# c_n = 2 / (2^{n/2} Gamma(n/2)) at n = 2
PLANCHEREL_C2 = 1.0

SPECTRAL_TAIL_BUDGET = 0.01


@dataclass(frozen=True)
class MotionField:
    """Samples f(z, theta_j) on a 2-D spatial grid times a uniform circle grid."""

    sampled: SampledField

    def __post_init__(self):
        if self.sampled.grid.dim != 2:
            raise ValueError("motion-group fields need a 2-D spatial grid")
        if not self.sampled.has_group_axis:
            raise ValueError("motion-group fields need a circle axis")
        w = self.sampled.group_weights
        # the circle-mode transforms below are exact only for uniform weights
        if np.any(np.abs(w * w.size - 1.0) > 1e-15):
            raise ValueError("motion-group fields need uniform circle weights 1/n_theta")

    @property
    def grid(self) -> Grid:
        return self.sampled.grid

    @property
    def theta_count(self) -> int:
        return self.sampled.values.shape[-1]

    @property
    def values(self) -> np.ndarray:
        return self.sampled.values


def motion_field(grid: Grid, values) -> MotionField:
    values = np.asarray(values)
    n_theta = values.shape[-1]
    if n_theta < 2:
        raise ValueError("need at least 2 circle samples")
    weights = np.full(n_theta, 1.0 / n_theta)
    return MotionField(SampledField(grid, values, weights))


def motion_corpus(grid: Grid, n_theta: int, seed: int, count: int) -> list[MotionField]:
    """Seeded corpus: sums of Gaussian packets times single circle modes.

    Circle degree stays <= 4 and spatial modulation small, so operator
    truncations M >= 16 capture the Hilbert-Schmidt mass to well below
    the test tolerances.
    """
    rng = np.random.default_rng(seed)
    out = []
    thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta
    for _ in range(count):
        vals = np.zeros(tuple(grid.counts) + (n_theta,), dtype=np.complex128)
        for _ in range(2):
            widths = rng.uniform(0.8, 1.1, size=2)
            centers = rng.uniform(-0.6, 0.6, size=2)
            mods = rng.uniform(-0.35, 0.35, size=2)
            mode = int(rng.integers(-4, 5))
            g = gaussian_packet(grid, centers, widths, mods)
            vals += g.values[..., None] * np.exp(1j * mode * thetas)
        out.append(MotionField(_unit_norm(motion_field(grid, vals).sampled)))
    return out


@dataclass(frozen=True)
class OperatorMatrix:
    """Truncated matrix of the transform at one lambda, modes m in [-M, M]."""

    lam: float
    m_max: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.ascontiguousarray(self.matrix, dtype=np.complex128)
        side = 2 * self.m_max + 1
        if mat.shape != (side, side):
            raise ValueError(f"matrix shape {mat.shape}, expected ({side}, {side})")
        if not np.all(np.isfinite(mat.view(np.float64))):
            raise ValueError("operator matrix contains NaN or Inf")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class LambdaGrid:
    """Quadrature nodes/weights for int_0^infty ... lambda^{n-1} dlambda, n = 2."""

    nodes: np.ndarray
    weights: np.ndarray
    lam_max: float

    def __post_init__(self):
        nodes, weights = np.shape(self.nodes), np.shape(self.weights)
        if len(nodes) != 1 or nodes[0] == 0 or weights != nodes:
            raise ValueError(
                f"lambda nodes have shape {nodes} and weights {weights}; "
                "they need one shape (P,) with P >= 1"
            )
        for a in (self.nodes, self.weights, self.lam_max):
            if not np.all((a > 0) & np.isfinite(a)):
                raise ValueError("lambda nodes, weights and lam_max must be positive and finite")


def make_lambda_grid(lam_max: float, panels: int = 8, nodes_per_panel: int = 12) -> LambdaGrid:
    """Composite Gauss-Legendre rule on (0, lam_max].

    Raises ValueError unless lam_max is finite and > 0 and panels and
    nodes_per_panel are integers >= 1 (a bool is none).
    """
    if not (lam_max > 0 and np.isfinite(lam_max)):
        raise ValueError(f"lam_max must be finite and > 0, got {lam_max!r}")
    for name, count in (("panels", panels), ("nodes_per_panel", nodes_per_panel)):
        if not isinstance(count, numbers.Integral) or isinstance(count, bool) or count < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {count!r}")
    edges = np.linspace(0.0, lam_max, panels + 1)
    return LambdaGrid(*_gauss_rule(zip(edges[:-1], edges[1:]), nodes_per_panel), lam_max)


def _circle_dft(f: MotionField) -> np.ndarray:
    """n_theta c_m(z) = sum_k f(z, theta_k) e^{-i m theta_k} for every m, in FFT order."""
    return np.fft.fft(f.values, axis=-1)


def _mode_rows(dft: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """Circle modes c_m(z), m in ``modes``, stacked first, from a ``_circle_dft``."""
    n_theta = dft.shape[-1]
    return np.moveaxis(np.take(dft, modes % n_theta, axis=-1) / n_theta, -1, 0)


def _carrying_modes(coef: np.ndarray) -> np.ndarray:
    """Mask over the last axis of the circle modes whose coefficient carries mass.

    Modes below 1e-14 of the peak norm contribute < 1e-28 relative mass and
    are dropped by ``_circle_modes``, which passes every circle mode, so
    round-off is judged against the field's own peak.
    """
    parts = coef.reshape(-1, coef.shape[-1]).view(np.float64)  # (re, im) of each mode
    sq = np.einsum("ik,ik->k", parts, parts)
    norms = np.sqrt(sq[0::2] + sq[1::2])
    return norms > 1e-14 * max(norms.max(), 1e-300)


def _circle_modes(f: MotionField) -> tuple[np.ndarray, SampledField | None]:
    """(m, planes): the signed circle modes m that carry mass, ascending, and
    their planes c_m(z) as one field with unit weights (None when no mode
    carries mass, which is the zero field).

    One circle DFT per field, kept on it (``fields._memo``).  The modes
    dropped by ``_carrying_modes`` hold < n_theta 1e-28 of the relative mass,
    so by Parseval the planes have f's norm and spatial moments.  They take
    64 KB per mode at 64^2 samples.
    """

    def compute():
        dft = _circle_dft(f)
        n_theta = dft.shape[-1]
        modes = np.arange(-(n_theta // 2), n_theta - n_theta // 2)
        modes = modes[_carrying_modes(dft)[modes % n_theta]]
        if modes.size == 0:
            return modes, None
        planes = np.take(dft, modes % n_theta, axis=-1) / n_theta
        return modes, SampledField(f.grid, planes, np.ones(modes.size))

    return _memo(f, "circle_modes", compute)


def _check_truncation(f: MotionField, lam: float, m_max: int) -> None:
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    if 2 * m_max + 2 > f.theta_count:
        raise AliasingError(
            f"truncation M={m_max} needs at least {2 * m_max + 2} circle samples, "
            f"got {f.theta_count}"
        )


def _operator_rows(
    grid: Grid, n_theta: int, coef: np.ndarray, rows: np.ndarray, lambdas, m_max: int
) -> np.ndarray:
    """Matrix rows F[m, :] at every lambda for a stack of (field, m) rows.

    ``coef`` holds the theta coefficient c_m(z) of each stacked row, shape
    (R, N1, N2), and ``rows`` its value of m.  Returns out[l, r, m'] =
    D_r(lambda_l)[m - m'] with

        D_r[q] = h^2/n_theta sum_j exp(-i q g_j) sum_z c_m(z)
                 exp(-i lambda z1 cos g_j) exp(i lambda z2 sin g_j),

    the circle-grid DFT of the sampled plane wave exp(-i lambda <u^{-1} e_1, z>)
    against c_m; modes |q| >= n_theta alias onto their residue, which is the
    honest output of circle-grid quadrature.  Per lambda the plane wave
    enters through its two small factors, the ``_axis_phase`` rows (0 beyond
    the dual box) at lambda cos g_j / 2 pi and lambda sin g_j / 2 pi: one
    matmul over z2, a reduction over z1, one FFT over the circle grid.
    """
    gam = 2.0 * np.pi * np.arange(n_theta) / n_theta
    cos, sin = np.cos(gam), np.sin(gam)
    n1, n2 = grid.counts
    flat = coef.reshape(-1, n2)  # (R * N1, N2)
    cols = np.arange(-m_max, m_max + 1)
    q = (rows[:, None] - cols[None, :]) % n_theta  # F[m, m'] = D[m - m']
    out = np.empty((len(lambdas), rows.size, cols.size), dtype=np.complex128)
    for i, lam in enumerate(lambdas):
        wave1 = _axis_phase(grid, 0, lam * cos / (2.0 * np.pi), -1.0).T
        wave2 = _axis_phase(grid, 1, lam * sin / (2.0 * np.pi), +1.0).T
        partial = (flat @ wave2).reshape(rows.size, n1, n_theta)
        d = np.fft.fft(np.einsum("rag,ag->rg", partial, wave1), axis=-1)
        out[i] = np.take_along_axis(d, q, axis=1)
    return out * (grid.cell_volume / n_theta)


def mn_ft(f: MotionField, lam: float, m_max: int) -> OperatorMatrix:
    """Transform operator at one lambda, truncated to modes |m| <= m_max."""
    _check_truncation(f, lam, m_max)
    rows = np.arange(-m_max, m_max + 1)
    coef = _mode_rows(_circle_dft(f), rows)
    mat = _operator_rows(f.grid, f.theta_count, coef, rows, [lam], m_max)
    return OperatorMatrix(lam, m_max, mat[0])


def mn_hs_norm_sq(op: OperatorMatrix) -> float:
    """Squared Hilbert-Schmidt norm, sum of |entries|^2 (= tr F F^*)."""
    return float(np.sum(np.abs(op.matrix) ** 2))


def _hs_profiles(fields: list, lambdas, m_max: int) -> np.ndarray:
    """HS-norm profiles, shape (fields, lambdas), through one stacked row set.

    The rows |m| <= m_max of all fields' ``_circle_modes`` are stacked, so
    each lambda's plane-wave factors are built once and shared across fields.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.ndim != 1 or lambdas.size == 0:
        raise ValueError(
            f"lambdas have shape {lambdas.shape}; they need one shape (P,) with P >= 1"
        )
    if not np.all((lambdas > 0) & np.isfinite(lambdas)):
        raise ValueError("lambdas must be positive and finite")
    grid, n_theta = fields[0].grid, fields[0].theta_count
    coefs, rowsets = [], []
    for j, f in enumerate(fields):
        if f.grid != grid or f.theta_count != n_theta:
            raise ValueError(
                f"fields[{j}] lives on {f.grid} x {f.theta_count} circle samples, "
                f"fields[0] on {grid} x {n_theta}"
            )
        _check_truncation(f, float(lambdas.min()), m_max)
        modes, planes = _circle_modes(f)
        kept = np.abs(modes) <= m_max
        rowsets.append(modes[kept])
        if planes is not None:
            coefs.append(np.moveaxis(planes.values[..., kept], -1, 0))
    rows = np.concatenate(rowsets)
    if rows.size == 0:
        return np.zeros((len(fields), lambdas.size))
    mats = _operator_rows(grid, n_theta, np.concatenate(coefs), rows, lambdas, m_max)
    hs = np.sum(np.abs(mats) ** 2, axis=2)  # (lambdas, stacked rows)
    owner = np.repeat(np.arange(len(fields)), [r.size for r in rowsets])
    return (owner == np.arange(len(fields))[:, None]) @ hs.T


def mn_hs_profile(f: MotionField, lambdas, m_max: int) -> np.ndarray:
    """||fhat(lambda)||_HS^2 over a list of lambda values.

    Raises ValueError unless ``lambdas`` is 1-D, non-empty, finite and > 0.
    """
    return _hs_profiles([f], lambdas, m_max)[0]


def mn_hs_profiles(fields, lambdas, m_max: int) -> np.ndarray:
    """HS-norm profiles for several fields sharing one grid and lambda list.

    The plane-wave factors per lambda are built once and shared across
    fields, which is the dominant saving in corpus sweeps.  Raises
    ValueError for an empty field list, for fields whose spatial grid or
    circle sample count differs from the first field's, and unless
    ``lambdas`` is 1-D, non-empty, finite and > 0.
    """
    fields = list(fields)
    if not fields:
        raise ValueError("mn_hs_profiles needs at least one field")
    return _hs_profiles(fields, lambdas, m_max)


def mn_spectral_tail_fraction(f: MotionField, lam_max: float) -> float:
    """Euclidean spectral mass of f at radii |xi| > lam_max / (2 pi).

    The density sum_k |fhat(xi, theta_k)|^2 / n_theta is taken, by Parseval
    over the uniform circle grid, as sum_m |C_m(xi)|^2 with C_m the
    Euclidean transform of the circle mode c_m(z).  Only the planes of
    ``_circle_modes`` (the modes that carry mass, computed once per field
    and shared with the norm, the position moments and the HS-profiles) are
    transformed, so a field with a few circle modes costs a few planar
    FFTs.  The zero field gives 0.
    """
    planes = _circle_modes(f)[1]
    if planes is None:
        return 0.0
    fhat = euclidean_ft(planes)
    parts = fhat.values.view(np.float64)
    dens = np.einsum("...k,...k->...", parts, parts)
    total = float(dens.sum())
    r2 = fhat.grid.radius_sq()
    cut = (lam_max / (2.0 * np.pi)) ** 2
    return float(dens[r2 > cut].sum()) / total


def _quadrature_guard(f: MotionField, lgrid: LambdaGrid) -> float:
    planes = _circle_modes(f)[1]
    if planes is None:  # no circle mode carries mass
        raise ZeroFieldError("ratio undefined for the zero field")
    norm_sq = _nonzero_norm_sq(planes)
    _require_decay(f.sampled, "field has not decayed at the spatial box boundary")
    tail = mn_spectral_tail_fraction(f, lgrid.lam_max)
    if tail > SPECTRAL_TAIL_BUDGET:
        raise SpectralTailError(
            f"spectral mass {tail:.2e} beyond lambda={lgrid.lam_max} exceeds "
            f"{SPECTRAL_TAIL_BUDGET:.0e}"
        )
    return norm_sq


def _lambda_moment(lgrid: LambdaGrid, profile: np.ndarray, power: float) -> float:
    """c_2 int lambda^power ||fhat(lambda)||_HS^2 lambda dlambda on the lambda rule."""
    return PLANCHEREL_C2 * float(np.sum(lgrid.weights * lgrid.nodes ** (power + 1.0) * profile))


def _kappa(
    f: MotionField, lgrid: LambdaGrid, m_max: int, profile
) -> tuple[float, float, np.ndarray]:
    """(kappa, ||f||^2, profile) after the guards: the raw Plancherel ratio, which
    raises ZeroFieldError when the kept modes carry no spectral mass.

    The guards run once per field and lam_max (a field that fails raises
    again on every call), and ``profile=None`` takes the HS-profile
    computed once per field, lambda nodes and m_max; a given profile must
    hold one value per lambda node.
    """
    norm_sq = _memo(f, ("guard", lgrid.lam_max), lambda: _quadrature_guard(f, lgrid))
    if profile is None:
        nodes = np.asarray(lgrid.nodes, dtype=float)
        key = ("profile", nodes.tobytes(), m_max)
        profile = _memo(f, key, lambda: mn_hs_profile(f, nodes, m_max))
    elif np.shape(profile) != np.shape(lgrid.nodes):
        raise ValueError(
            f"profile has shape {np.shape(profile)}, the lambda nodes {np.shape(lgrid.nodes)}"
        )
    kappa = _lambda_moment(lgrid, profile, 0.0) / norm_sq
    if kappa <= 0.0:
        raise ZeroFieldError("empty spectral profile")
    return kappa, norm_sq, profile


def mn_plancherel_ratio(
    f: MotionField, lgrid: LambdaGrid, m_max: int, profile: np.ndarray | None = None
) -> float:
    """c_2 int ||fhat(lambda)||_HS^2 lambda dlambda / ||f||_2^2.

    Function-independent by the Plancherel theorem; the value measures the
    transform-convention constant kappa and is reported raw.  With
    ``profile=None`` the HS-profile is computed once per field, lambda
    nodes and m_max, and later calls reuse it; sweeps over many fields
    should compute theirs together (``mn_hs_profiles``) and pass
    ``profile=``, one value per lambda node (ValueError otherwise).
    Raises ZeroFieldError when no mode |m| <= m_max carries mass.
    """
    return _kappa(f, lgrid, m_max, profile)[0]


def mn_uncertainty(
    f: MotionField,
    spec,
    lgrid: LambdaGrid,
    m_max: int,
    profile: np.ndarray | None = None,
) -> UncertaintyTerms:
    """Uncertainty product on the motion group, kappa-normalised.

    position = (int |z|^{2a} |f|^2 dz dk)^{1/2a},
    momentum = (c_2 int lambda^{2b} ||fhat||_HS^2 lambda dlambda / kappa)^{1/2b},
    lhs      = ||f||_2^{1/a + 1/b} / (2 sqrt(c_2)),

    with kappa the measured Plancherel ratio of the same field, so the
    inequality is tested in the normalisation where Plancherel holds
    exactly.  The momentum moment passed on is the lambda integral over
    kappa, and the lhs divisor 2 sqrt(c_2).  ``profile`` works as in
    ``mn_plancherel_ratio``: with None the HS-profile is computed once per
    field, lambda nodes and m_max, and shared by the Plancherel ratio and
    every (a, b).  The position moment per a is read off, and kept on, the
    field's circle-mode planes (``_circle_modes``), which have its moments.
    """
    kappa, norm_sq, profile = _kappa(f, lgrid, m_max, profile)
    momentum = _lambda_moment(lgrid, profile, 2.0 * spec.b) / kappa
    position = _position_moment(_circle_modes(f)[1], spec.a)
    return _uncertainty_terms(spec, norm_sq, position, momentum, 2.0 * np.sqrt(PLANCHEREL_C2))
