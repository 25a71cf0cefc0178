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
all their fields so the factors are built once per lambda.  The circle grid
is closed under g -> -g, and for even n_theta under g -> pi - g; the first
negates sin and the second cos, and a negated node gives the conjugate
phase.  So the factors are built at the angles in [0, pi/2] only (in
[0, pi) for odd n_theta), and every other angle gathers them, conjugated
where its node is negated: (n_theta // 4 + 1)(N1 + N2) complex exponentials
per lambda for even n_theta rather than n_theta (N1 + N2).  The mirrored nodes come from the
representative's cos and sin, which can differ from the angle's own by one
ulp; against building every angle, the benchmark's 126 motion check numbers
at seeds 0, 1 and 7 moved by at most 3.4e-16 relative (x86-64, numpy 2.4.6),
and 97 of them not at all.

A ``MotionField`` holds the circle modes of f(z, theta_k) = sum_m c_m(z)
e^{i m theta_k}: the signed m that carry mass and their planes c_m(z), one
small field with unit weights, which ``motion_field`` takes from samples by
one circle DFT and ``motion_corpus`` builds directly.  By Parseval over the
circle grid the planes have f's norm and spatial moments; the spectral tail
transforms them, the HS-profiles and ``mn_ft`` take their rows |m| <= M,
and the decay guard bounds |f| on the box faces by sum_m |c_m(z)|: no check
builds the samples.  The guards (norm, boundary decay, spectral tail) run
once per field and lam_max, and are kept for its Plancherel ratio and lattice.

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

from .errors import AliasingError, DecayError, SpectralTailError, ZeroFieldError
from .euclidean import UncertaintyTerms, _nonzero_norm_sq, _position_moment, _uncertainty_terms
from .fields import (
    _BOUNDARY_DECAY_LIMIT,
    Grid,
    SampledField,
    _axis_phase,
    _gauss_rule,
    _memo,
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


def _require_int(name: str, value, low: int) -> None:
    """Raise ValueError unless ``value`` is an integer >= low (a bool is none)."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _require_positive(name: str, value) -> None:
    """Raise ValueError unless ``value`` is finite and > 0 (a bool is not)."""
    if isinstance(value, bool) or not (value > 0 and np.isfinite(value)):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


@dataclass(frozen=True, eq=False)
class MotionField:
    """f(z, theta_k) = sum_m c_m(z) e^{i m theta_k}, theta_k = 2 pi k / theta_count,
    on a 2-D spatial grid: the signed modes m, ascending residues in
    [-(theta_count // 2), theta_count - theta_count // 2), and their planes
    c_m(z), one trailing entry per mode with unit weights (None for no mode).
    """

    grid: Grid
    theta_count: int
    modes: np.ndarray
    planes: SampledField | None

    def __post_init__(self):
        n, modes, planes = self.theta_count, np.array(self.modes), self.planes
        _require_int("theta_count", n, 2)
        lo, hi = -(n // 2), n - n // 2
        if (
            self.grid.dim != 2
            or modes.dtype.kind != "i"
            # ascending distinct residues are their own sorted, deduplicated in-range part
            or not np.array_equal(modes, np.unique(modes[(lo <= modes) & (modes < hi)]))
            or (planes is None) != (modes.size == 0)
            or planes is not None and planes.grid != self.grid
            or planes is not None and not np.array_equal(planes.group_weights, np.ones(modes.size))
        ):
            raise ValueError(
                "a motion field needs a 2-D grid, ascending residues mod theta_count as "
                f"modes (got {self.modes!r}), and their planes on that grid with unit weights"
            )
        modes.setflags(write=False)
        object.__setattr__(self, "modes", modes)


def _carrying_modes(coef: np.ndarray) -> np.ndarray:
    """Mask over the last axis of the circle modes whose plane carries mass.

    Modes below 1e-14 of the peak norm contribute < 1e-28 relative mass, so
    dropping them leaves f's norm and spatial moments; round-off is judged
    against the field's own peak.
    """
    parts = coef.reshape(-1, coef.shape[-1]).view(np.float64)  # (re, im) of each mode
    sq = np.einsum("ik,ik->k", parts, parts)
    norms = np.sqrt(sq[0::2] + sq[1::2])
    return norms > 1e-14 * max(norms.max(), 1e-300)


def motion_field(grid: Grid, values) -> MotionField:
    """The field with finite samples values[..., k] = f(z, 2 pi k / n_theta), shape
    grid.counts + (n_theta,), n_theta >= 2 (ValueError otherwise): one circle
    DFT, c_m(z) = sum_k f(z, theta_k) e^{-i m theta_k} / n_theta at the signed
    residues m, of which the modes that carry mass are held."""
    n_theta = np.shape(values)[-1]
    samples = SampledField(grid, values, np.full(n_theta, 1.0 / n_theta))  # shape, finiteness
    modes = np.arange(-(n_theta // 2), n_theta - n_theta // 2)
    coef = np.take(np.fft.fft(samples.values, axis=-1), modes % n_theta, axis=-1) / n_theta
    kept = _carrying_modes(coef)
    planes = SampledField(grid, coef[..., kept], np.ones(kept.sum())) if kept.any() else None
    return MotionField(grid, n_theta, modes[kept], planes)


def motion_corpus(grid: Grid, n_theta: int, seed: int, count: int) -> list[MotionField]:
    """Seeded corpus: sums of Gaussian packets times single circle modes.

    Circle degree stays <= 4 and spatial modulation small, so operator
    truncations M >= 16 capture the Hilbert-Schmidt mass to well below
    the test tolerances.  The planes are built directly, each drawn mode folded
    to its signed residue mod n_theta and packets on one mode summed.  Raises
    ValueError unless n_theta is an integer >= 2 and count one >= 0.
    """
    _require_int("n_theta", n_theta, 2)
    _require_int("count", count, 0)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        planes = {}
        for _ in range(2):
            widths = rng.uniform(0.8, 1.1, size=2)
            centers = rng.uniform(-0.6, 0.6, size=2)
            mods = rng.uniform(-0.35, 0.35, size=2)
            mode = (int(rng.integers(-4, 5)) + n_theta // 2) % n_theta - n_theta // 2
            g = gaussian_packet(grid, centers, widths, mods).values
            planes[mode] = planes[mode] + g if mode in planes else g
        modes = np.array(sorted(planes))
        coef = np.stack([planes[m] for m in modes], axis=-1)
        unit = _unit_norm(SampledField(grid, coef, np.ones(modes.size)))
        out.append(MotionField(grid, n_theta, modes, unit))
    return out


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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
    _require_positive("lam_max", lam_max)
    _require_int("panels", panels, 1)
    _require_int("nodes_per_panel", nodes_per_panel, 1)
    edges = np.linspace(0.0, lam_max, panels + 1)
    return LambdaGrid(*_gauss_rule(zip(edges[:-1], edges[1:]), nodes_per_panel), lam_max)


def _check_truncation(f: MotionField, m_max: int) -> None:
    """Raise ValueError unless m_max is an integer >= 1, and AliasingError when
    the circle grid of f has fewer than 2 m_max + 2 samples."""
    _require_int("m_max", m_max, 1)
    if 2 * m_max + 2 > f.theta_count:
        raise AliasingError(
            f"truncation M={m_max} needs at least {2 * m_max + 2} circle samples, "
            f"got {f.theta_count}"
        )


def _circle_reflections(n_theta: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rep, conj1, conj2) over the circle angles g_k = 2 pi k / n_theta:
    cos g_k = -cos g_rep[k] where conj1, else cos g_rep[k], and sin g_k the
    same with conj2.

    The grid is closed under g -> -g, which keeps cos and negates sin, and
    for even n_theta under g -> pi - g, which negates cos and keeps sin.
    So the representatives are 0..n_theta // 4, in [0, pi/2], for even
    n_theta, and 0..n_theta // 2, in [0, pi), for odd, where conj1 is all
    False.
    """
    k = np.arange(n_theta)
    half = np.minimum(k, n_theta - k)  # g folded onto [0, pi]
    conj1 = (n_theta % 2 == 0) & (4 * half > n_theta)
    return np.where(conj1, n_theta // 2 - half, half), conj1, 2 * k > n_theta


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

    The factors are built at the representative angles of
    ``_circle_reflections`` only, 0..n_theta // 4 for even n_theta and
    0..n_theta // 2 for odd: (n_theta // 4 + 1)(N1 + N2) complex
    exponentials per lambda for even n_theta, against n_theta (N1 + N2) when
    every angle is built.  Each angle gathers its representative's rows from
    one index table, conjugated by a flag per factor: g -> -g negates sin and
    so conjugates the z2 factor, g -> pi - g negates cos and so conjugates
    the z1 factor.  A negated node gives exactly the conjugate phase, and the
    dual-box mask is symmetric in the node.
    """
    rep, conj1, conj2 = _circle_reflections(n_theta)
    reps = int(rep.max()) + 1
    gam = 2.0 * np.pi * np.arange(reps) / n_theta
    cos, sin = np.cos(gam), np.sin(gam)
    take1, take2 = rep + reps * conj1, rep + reps * conj2  # rows of (phase, conj phase)
    n1, n2 = grid.counts
    flat = coef.reshape(-1, n2)  # (R * N1, N2)
    cols = np.arange(-m_max, m_max + 1)
    q = (rows[:, None] - cols[None, :]) % n_theta  # F[m, m'] = D[m - m']
    out = np.empty((len(lambdas), rows.size, cols.size), dtype=np.complex128)
    for i, lam in enumerate(lambdas):
        w1 = _axis_phase(grid, 0, lam * cos / (2.0 * np.pi), -1.0)
        w2 = _axis_phase(grid, 1, lam * sin / (2.0 * np.pi), +1.0)
        wave1 = np.concatenate((w1, w1.conj()))[take1].T
        wave2 = np.concatenate((w2, w2.conj()))[take2].T
        partial = (flat @ wave2).reshape(rows.size, n1, n_theta)
        d = np.fft.fft(np.einsum("rag,ag->rg", partial, wave1), axis=-1)
        out[i] = np.take_along_axis(d, q, axis=1)
    return out * (grid.cell_volume / n_theta)


def _rows(f: MotionField, m_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(m, c_m(z) stacked first) for the held modes |m| <= m_max."""
    if f.planes is None:
        return f.modes, np.zeros((0,) + f.grid.counts, dtype=np.complex128)
    kept = np.abs(f.modes) <= m_max
    return f.modes[kept], np.moveaxis(f.planes.values[..., kept], -1, 0)


def mn_ft(f: MotionField, lam: float, m_max: int) -> OperatorMatrix:
    """Transform operator at one lambda, |m|, |m'| <= m_max; rows of modes not held are 0."""
    _require_positive("lambda", lam)
    _check_truncation(f, m_max)
    rows, coef = _rows(f, m_max)
    mat = np.zeros((2 * m_max + 1, 2 * m_max + 1), dtype=np.complex128)
    mat[rows + m_max] = _operator_rows(f.grid, f.theta_count, coef, rows, [lam], m_max)[0]
    return OperatorMatrix(lam, m_max, mat)


def mn_hs_norm_sq(op: OperatorMatrix) -> float:
    """Squared Hilbert-Schmidt norm, sum of |entries|^2 (= tr F F^*)."""
    return float(np.sum(np.abs(op.matrix) ** 2))


def _hs_profiles(fields: list, lambdas, m_max: int) -> np.ndarray:
    """HS-norm profiles, shape (fields, lambdas), through one stacked row set.

    The planes |m| <= m_max of all fields are stacked, so each lambda's
    plane-wave factors are built once and shared across fields.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.ndim != 1 or lambdas.size == 0:
        raise ValueError(
            f"lambdas have shape {lambdas.shape}; they need one shape (P,) with P >= 1"
        )
    if not np.all((lambdas > 0) & np.isfinite(lambdas)):
        raise ValueError("lambdas must be positive and finite")
    grid, n_theta = fields[0].grid, fields[0].theta_count
    for j, f in enumerate(fields):
        if f.grid != grid or f.theta_count != n_theta:
            raise ValueError(
                f"fields[{j}] lives on {f.grid} x {f.theta_count} circle samples, "
                f"fields[0] on {grid} x {n_theta}"
            )
        _check_truncation(f, m_max)
    rowsets, coefs = zip(*(_rows(f, m_max) for f in fields))
    rows = np.concatenate(rowsets)
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
    Euclidean transform of the circle mode c_m(z).  Only the field's planes
    (the modes that carry mass) are transformed, so a field with a few
    circle modes costs a few planar FFTs.  The zero field gives 0.  Raises
    ValueError unless lam_max is finite and > 0.
    """
    _require_positive("lam_max", lam_max)
    if f.planes is None:
        return 0.0
    fhat = euclidean_ft(f.planes)
    parts = fhat.values.view(np.float64)
    dens = np.einsum("...k,...k->...", parts, parts)
    total = float(dens.sum())
    r2 = fhat.grid.radius_sq()
    cut = (lam_max / (2.0 * np.pi)) ** 2
    return float(dens[r2 > cut].sum()) / total


def _boundary_decay_bound(planes: SampledField) -> float:
    """An upper bound on ``fields.boundary_decay`` of the samples, from the planes.

    On the box faces |f(z, theta)| <= sum_m |c_m(z)| for every theta, and
    max_z (sum_m |c_m(z)|^2)^(1/2), the RMS of |f(z, .)| over the circle grid,
    is at most max |f|: so a field that passes the guard passes the sample one.
    """
    mag = np.abs(planes.values)
    face = mag.sum(axis=-1)
    worst = max(face[0].max(), face[-1].max(), face[:, 0].max(), face[:, -1].max())
    return float(worst / np.sqrt(np.max(np.sum(mag * mag, axis=-1))))


def _quadrature_guard(f: MotionField, lgrid: LambdaGrid) -> float:
    if f.planes is None:  # no circle mode carries mass
        raise ZeroFieldError("ratio undefined for the zero field")
    norm_sq = _nonzero_norm_sq(f.planes)
    if _boundary_decay_bound(f.planes) > _BOUNDARY_DECAY_LIMIT:
        raise DecayError("field has not decayed at the spatial box boundary")
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
    again on every call).  Then m_max is checked, also when a profile is
    given.  ``profile=None`` takes the HS-profile computed once per field,
    lambda nodes and m_max; a given profile must hold one value per lambda
    node.
    """
    norm_sq = _memo(f, ("guard", lgrid.lam_max), lambda: _quadrature_guard(f, lgrid))
    _check_truncation(f, m_max)
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
    field's planes, which have its moments.
    """
    kappa, norm_sq, profile = _kappa(f, lgrid, m_max, profile)
    momentum = _lambda_moment(lgrid, profile, 2.0 * spec.b) / kappa
    position = _position_moment(f.planes, spec.a)
    return _uncertainty_terms(spec, norm_sq, position, momentum, 2.0 * np.sqrt(PLANCHEREL_C2))
