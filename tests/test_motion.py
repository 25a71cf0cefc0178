"""Motion-group transform: kernel probes, Plancherel constancy, inequality."""

import numpy as np
import pytest

from groupft import euclidean, motion
from groupft.errors import AliasingError, DecayError, SpectralTailError, ZeroFieldError
from groupft.fields import (
    _BOUNDARY_DECAY_LIMIT,
    MomentSpec,
    SampledField,
    boundary_decay,
    euclidean_ft,
    gaussian_packet,
    l2_norm_sq,
    make_grid,
)
from groupft.motion import (
    PLANCHEREL_C2,
    LambdaGrid,
    MotionField,
    OperatorMatrix,
    make_lambda_grid,
    mn_ft,
    mn_hs_norm_sq,
    mn_hs_profile,
    mn_hs_profiles,
    mn_plancherel_ratio,
    mn_spectral_tail_fraction,
    mn_uncertainty,
    motion_corpus,
    motion_field,
)

from .oracles import (
    bessel_j,
    brute_force_motion_ft,
    brute_force_tail_fraction,
    circle_average_transform_sq,
    circle_samples,
    plane_wave,
)
from .test_fields import assert_compared_by_identity, spectral_partial


@pytest.fixture(scope="module")
def grid():
    return make_grid(2, [6.0, 6.0], [64, 64])


@pytest.fixture(scope="module")
def corpus(grid):
    return motion_corpus(grid, 128, 5, 4)


@pytest.fixture(scope="module")
def lgrid():
    return make_lambda_grid(16.0, panels=6, nodes_per_panel=10)


def samples(f: MotionField) -> np.ndarray:
    """f(z, theta_k) on the whole grid, synthesised from the held circle modes."""
    return circle_samples(f.modes, f.planes.values, f.theta_count)


def sampled(f: MotionField) -> SampledField:
    """The samples as a field with the circle's Haar weights 1/n_theta."""
    return SampledField(f.grid, samples(f), np.full(f.theta_count, 1.0 / f.theta_count))


def radial_field(grid, n_theta=64, **packet):
    g = gaussian_packet(grid, **packet)
    return motion_field(grid, np.repeat(g.values[..., None], n_theta, axis=-1))


def single_mode_field(grid, mode, n_theta=64):
    """Gaussian packet times e^{i mode theta}: circle mode ``mode`` carries all the mass."""
    th = 2.0 * np.pi * np.arange(n_theta) / n_theta
    return motion_field(grid, gaussian_packet(grid).values[..., None] * np.exp(1j * mode * th))


PLANE_WAVE_CASES = [(lam, n) for lam in (0.7, 2.3, 10.0) for n in (16, 15, 18)]


class TestKernel:
    def test_single_point_probe_vs_bessel(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            lam = rng.uniform(0.3, 3.0)
            r = rng.uniform(0.05, 10.0 / lam)
            phi = rng.uniform(0.0, 2 * np.pi)
            z = (r * np.cos(phi), r * np.sin(phi))
            m, n = int(rng.integers(-8, 9)), int(rng.integers(-8, 9))
            gam = 2.0 * np.pi * np.arange(128) / 128
            got = abs(np.mean(plane_wave(lam, *z, gam) * np.exp(-1j * (m - n) * gam)))
            want = abs(float(bessel_j(n - m, lam * r)))
            assert got == pytest.approx(want, abs=1e-6)

    def test_zero_field(self, grid):
        f = motion_field(grid, np.zeros(grid.counts + (16,)))
        assert np.all(mn_ft(f, 1.0, 4).matrix == 0)

    def test_radial_field_is_diagonal(self, grid):
        op = mn_ft(radial_field(grid), 1.3, 8)
        off = np.array(op.matrix)
        np.fill_diagonal(off, 0.0)
        assert np.max(np.abs(off)) <= 1e-8

    def test_linearity(self, grid, corpus):
        f, g = corpus[0], corpus[1]
        comb = motion_field(grid, 1.5 * samples(f) - 0.5j * samples(g))
        lhs = mn_ft(comb, 1.0, 8).matrix
        rhs = 1.5 * mn_ft(f, 1.0, 8).matrix - 0.5j * mn_ft(g, 1.0, 8).matrix
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    @pytest.mark.parametrize(
        "lam, n_theta",
        PLANE_WAVE_CASES,
        ids=[f"{lam}" if n == 16 else f"{lam}-n{n}" for lam, n in PLANE_WAVE_CASES],
    )
    def test_matrix_vs_explicit_plane_waves(self, lam, n_theta):
        # one n_theta per case of the reflection table (4 | 16, odd 15, 18 = 2 mod 4);
        # at lambda = 10 the dual-box mask zeroes the plane waves of some angles, not all
        small = make_grid(2, [3.0, 3.0], [16, 16])
        gam = 2.0 * np.pi * np.arange(n_theta) / n_theta
        beyond = np.maximum(abs(np.cos(gam)), abs(np.sin(gam))) * lam / (2.0 * np.pi)
        masked = np.count_nonzero(beyond > small.dual_half_extents[0])
        assert masked == 0 if lam < 10.0 else 0 < masked < n_theta
        rng = np.random.default_rng(1)
        shape = small.counts + (n_theta,)
        vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = mn_ft(motion_field(small, vals), lam, 3).matrix
        want = brute_force_motion_ft(vals, small.axis(0), small.axis(1), lam, 3)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_a_faint_mode_is_kept_and_transformed(self, grid):
        # a plane at 1e-10 of the peak norm carries mass, far above the round-off cut
        th = 2.0 * np.pi * np.arange(16) / 16
        packet = gaussian_packet(grid).values[..., None]
        f = motion_field(grid, packet * (np.exp(1j * th) + 1e-10 * np.exp(3j * th)))
        assert list(f.modes) == [1, 3]
        faint = mn_ft(f, 1.0, 4).matrix[4 + 3]
        want = 1e-10 * mn_ft(motion_field(grid, packet * np.exp(3j * th)), 1.0, 4).matrix[4 + 3]
        assert np.abs(want).max() > 0.0
        np.testing.assert_allclose(faint, want, rtol=0, atol=1e-5 * np.abs(want).max())

    def test_plane_waves_beyond_the_dual_box_are_zero(self):
        # every gamma puts cos or sin beyond the dual half-extent 4/3, where the
        # grid cannot tell the frequency from its aliases
        small = make_grid(2, [3.0, 3.0], [16, 16])
        lam = 12.0
        assert lam / (2.0 * np.pi) > np.sqrt(2.0) * small.dual_half_extents[0]
        rng = np.random.default_rng(1)
        shape = small.counts + (16,)
        vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert np.all(mn_ft(motion_field(small, vals), lam, 3).matrix == 0)

    def test_rejects_bad_lambda_and_truncation(self, grid):
        f = radial_field(grid, n_theta=16)
        with pytest.raises(ValueError):
            mn_ft(f, -1.0, 4)
        with pytest.raises(AliasingError):
            mn_ft(f, 1.0, 8)  # needs 2M+2 = 18 > 16 samples


class TestHSNorm:
    def test_zero(self):
        op = OperatorMatrix(1.0, 2, np.zeros((5, 5)))
        assert mn_hs_norm_sq(op) == 0.0

    def test_identity(self):
        op = OperatorMatrix(1.0, 3, np.eye(7))
        assert mn_hs_norm_sq(op) == 7.0

    def test_trace_identity(self, grid, corpus):
        op = mn_ft(corpus[0], 1.0, 8)
        trace = float(np.trace(op.matrix @ op.matrix.conj().T).real)
        assert mn_hs_norm_sq(op) == pytest.approx(trace, rel=1e-12)

    def test_profiles_match_matrix_entries(self, corpus):
        lams = [0.4, 6.0]
        batched = mn_hs_profiles(corpus, lams, 16)
        for f, row in zip(corpus, batched):
            entries = [mn_hs_norm_sq(mn_ft(f, lam, 16)) for lam in lams]
            np.testing.assert_allclose(mn_hs_profile(f, lams, 16), entries, rtol=1e-12)
            np.testing.assert_allclose(row, entries, rtol=1e-12)

    def test_profiles_reject_empty_list(self):
        with pytest.raises(ValueError):
            mn_hs_profiles([], [1.0], 4)

    def test_profiles_reject_mixed_grids(self, grid, corpus):
        wider = make_grid(2, [7.0, 7.0], grid.counts)
        other = motion_field(wider, samples(corpus[1]))
        with pytest.raises(ValueError, match="fields\\[1\\]"):
            mn_hs_profiles([corpus[0], other], [1.0], 4)
        coarser = motion_field(grid, samples(corpus[1])[..., ::2])
        with pytest.raises(ValueError, match="fields\\[1\\]"):
            mn_hs_profiles([corpus[0], coarser], [1.0], 4)

    @pytest.mark.parametrize(
        "lambdas, match",
        [
            ([np.nan], "positive and finite"),
            ([np.inf], "positive and finite"),
            ([1.0, np.nan], "positive and finite"),
            ([-1.0], "positive and finite"),
            ([], r"shape \(0,\)"),
            ([[1.0, 2.0]], r"shape \(1, 2\)"),
        ],
        ids=["nan", "inf", "trailing-nan", "negative", "empty", "2-d"],
    )
    def test_profiles_reject_a_bad_lambda_list(self, corpus, lambdas, match):
        # [nan] read a NaN profile, [] and [[1, 2]] raised numpy's own errors
        with pytest.raises(ValueError, match=match):
            mn_hs_profile(corpus[0], lambdas, 16)
        with pytest.raises(ValueError, match=match):
            mn_hs_profiles(corpus[:2], lambdas, 16)

    def test_truncation_monotone_and_cauchy(self, corpus):
        f = corpus[0]
        vals = [mn_hs_profile(f, [3.0], m)[0] for m in (4, 8, 16, 32)]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
        assert abs(vals[-1] - vals[-2]) <= 1e-6 * vals[-1]


class TestPlancherel:
    def test_constancy_across_corpus(self, corpus, lgrid):
        ratios = [mn_plancherel_ratio(f, lgrid, 16) for f in corpus]
        mean = np.mean(ratios)
        assert all(abs(r - mean) <= 0.02 * mean for r in ratios)

    def test_dilated_pair_same_ratio(self, grid, lgrid):
        thetas = 2 * np.pi * np.arange(64) / 64
        mode = np.exp(1j * thetas)
        g1 = gaussian_packet(grid).values[..., None] * mode
        g2 = gaussian_packet(grid, widths=[0.5, 0.5]).values[..., None] * mode
        r1 = mn_plancherel_ratio(motion_field(grid, g1), lgrid, 16)
        r2 = mn_plancherel_ratio(motion_field(grid, g2), lgrid, 16)
        assert abs(r1 - r2) <= 0.02 * r1

    def test_kappa_is_two_pi_for_this_convention(self, corpus, lgrid):
        # e^{i lambda <.,.>} against e^{-2 pi i <.,.>} costs exactly 2 pi
        r = mn_plancherel_ratio(corpus[0], lgrid, 16)
        assert r == pytest.approx(2.0 * np.pi, rel=1e-6)

    def test_zero_rejected(self, grid, lgrid):
        f = motion_field(grid, np.zeros(grid.counts + (16,)))
        with pytest.raises(ZeroFieldError):
            mn_plancherel_ratio(f, lgrid, 8)

    def test_lambda_grid_is_the_composite_gauss_rule(self):
        lg = make_lambda_grid(16, 6, 10)
        x, w = np.polynomial.legendre.leggauss(10)
        edges = np.linspace(0.0, 16.0, 7)
        halves, mids = (edges[1:] - edges[:-1]) / 2, (edges[1:] + edges[:-1]) / 2
        assert np.array_equal(lg.nodes, np.concatenate([h * x + m for h, m in zip(halves, mids)]))
        assert np.array_equal(lg.weights, np.concatenate([h * w for h in halves]))

    @pytest.mark.parametrize(
        "args",
        [(np.nan, 6, 10), (np.inf, 6, 10), (-np.inf, 6, 10), (0.0, 6, 10)]
        + [(16.0, True, 10), (16.0, 6, True), (16.0, 6.0, 10), (16.0, 6, 2.5), (16.0, 0, 10)],
        ids=str,
    )
    def test_lambda_grid_rejects_bad_input(self, args):
        with pytest.raises(ValueError, match="lam_max|panels|nodes_per_panel"):
            make_lambda_grid(*args)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0], ids=str)
    @pytest.mark.parametrize("part", ["nodes", "weights", "lam_max"])
    def test_lambda_grid_rejects_non_finite_rule(self, bad, part):
        lg = make_lambda_grid(16, 6, 10)
        parts = {"nodes": lg.nodes.copy(), "weights": lg.weights.copy(), "lam_max": bad}
        if part != "lam_max":
            parts["lam_max"] = lg.lam_max
            parts[part][3] = bad
        with pytest.raises(ValueError, match="positive and finite"):
            LambdaGrid(**parts)

    @pytest.mark.parametrize(
        "nodes, weights, shapes",
        [(np.s_[:], np.s_[:1], r"\(20,\) and weights \(1,\)")]
        + [(np.s_[:], np.s_[:-1], r"\(20,\) and weights \(19,\)")]
        + [(np.s_[None, :], np.s_[None, :], r"\(1, 20\) and weights \(1, 20\)")]
        + [(np.s_[:0], np.s_[:0], r"\(0,\) and weights \(0,\)")],
        ids=["one-weight", "short-weights", "2-D", "empty"],
    )
    def test_lambda_grid_rejects_mismatched_shapes(self, nodes, weights, shapes):
        # one weight used to broadcast over every node: kappa 1.957, not 2 pi, and no error
        lg = make_lambda_grid(8, 2, 10)
        with pytest.raises(ValueError, match="lambda nodes have shape " + shapes):
            LambdaGrid(lg.nodes[nodes], lg.weights[weights], lg.lam_max)

    def test_tail_diagnostic(self, corpus):
        tiny = make_lambda_grid(0.5, panels=2, nodes_per_panel=4)
        with pytest.raises(SpectralTailError):
            mn_plancherel_ratio(corpus[0], tiny, 8)


def d_z1(f: MotionField) -> MotionField:
    """d f / d z1, taken plane by plane: the derivative commutes with the circle modes."""
    return MotionField(f.grid, f.theta_count, f.modes, spectral_partial(f.planes, 0))


def mn_derivative_identity_residual(f: MotionField, lam: float, m_max: int) -> float:
    """Relative HS residual of (d f / d z1)^ = i lambda cos(theta) o fhat; 0 for f = 0.

    Multiplication by cos(theta) is the tridiagonal C with C_{m, m+-1} = 1/2
    on the input-character side, which shifts the column index; the matrix
    at truncation m_max + 1 provides the one-band margin.
    """
    ext = mn_ft(f, lam, m_max + 1).matrix
    scale = lam * np.sqrt(np.sum(np.abs(ext[1:-1, 1:-1]) ** 2))
    if scale == 0.0:
        return 0.0
    lhs = mn_ft(d_z1(f), lam, m_max).matrix
    rhs = 1j * lam * 0.5 * (ext[1:-1, :-2] + ext[1:-1, 2:])
    return float(np.sqrt(np.sum(np.abs(lhs - rhs) ** 2)) / scale)


def mn_derivative_bound_slack(f: MotionField, lam: float, m_max: int) -> float:
    """(lambda ||fhat||_HS - ||(d1 f)^||_HS) / (lambda ||fhat||_HS); >= 0 in theory."""
    denom = lam * np.sqrt(mn_hs_norm_sq(mn_ft(f, lam, m_max)))
    if denom == 0.0:
        return 0.0
    return float((denom - np.sqrt(mn_hs_norm_sq(mn_ft(d_z1(f), lam, m_max)))) / denom)


class TestDerivativeIdentity:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_residual_small(self, corpus, lam):
        assert mn_derivative_identity_residual(corpus[0], lam, 16) <= 1e-3

    def test_gaussian_times_mode(self, grid):
        thetas = 2 * np.pi * np.arange(64) / 64
        vals = gaussian_packet(grid).values[..., None] * np.exp(1j * thetas)
        f = motion_field(grid, vals)
        assert mn_derivative_identity_residual(f, 1.0, 16) <= 1e-3

    def test_zero_field_residual_zero(self, grid):
        f = motion_field(grid, np.zeros(grid.counts + (16,)))
        assert mn_derivative_identity_residual(f, 1.0, 4) == 0.0

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_proof_bound(self, corpus, lam):
        for f in corpus[:2]:
            assert mn_derivative_bound_slack(f, lam, 16) >= -1e-6


class TestUncertainty:
    def test_gaussian_bump(self, grid, lgrid):
        vals = np.repeat(gaussian_packet(grid).values[..., None], 64, axis=-1)
        f = motion_field(grid, vals)
        terms = mn_uncertainty(f, MomentSpec(1.0, 1.0), lgrid, 16)
        assert terms.ratio >= 1.0

    def test_corpus_lattice(self, corpus, lgrid):
        from groupft.motion import mn_hs_profile

        for f in corpus[:3]:
            profile = mn_hs_profile(f, lgrid.nodes, 16)
            for a in (1.0, 2.0):
                for b in (1.0, 2.0):
                    terms = mn_uncertainty(f, MomentSpec(a, b), lgrid, 16, profile=profile)
                    assert terms.ratio >= 1.0 - 1e-4

    def test_zero_rejected(self, grid, lgrid):
        f = motion_field(grid, np.zeros(grid.counts + (16,)))
        with pytest.raises(ZeroFieldError):
            mn_uncertainty(f, MomentSpec(1.0, 1.0), lgrid, 8)


GUARDED_CALLS = [
    lambda f, lgrid, m: mn_plancherel_ratio(f, lgrid, m),
    lambda f, lgrid, m: mn_uncertainty(f, MomentSpec(1.0, 1.0), lgrid, m),
]


@pytest.mark.parametrize("call", GUARDED_CALLS, ids=["plancherel", "uncertainty"])
class TestGuards:
    def test_undecayed_field_rejected(self, grid, lgrid, call):
        f = radial_field(grid, n_theta=16, widths=4.0)
        with pytest.raises(DecayError, match="spatial box boundary"):
            call(f, lgrid, 4)

    def test_mass_only_beyond_truncation_is_an_empty_profile(self, grid, lgrid, call):
        # the kept modes |m| <= 16 hold only FFT round-off of the m = 20 mode
        f = single_mode_field(grid, 20)
        assert np.all(mn_hs_profile(f, lgrid.nodes, 16) == 0)
        with pytest.raises(ZeroFieldError, match="empty spectral profile"):
            call(f, lgrid, 16)


def packet_at_decay(grid, bound, n_theta=64):
    """Centred Gaussian times e^{i theta} + e^{-2 i theta} / 2, its width set so
    that the plane bound of its boundary decay reads ``bound``.

    The bound takes sum_m |c_m| = 3/2 times the packet at the face point
    nearest the centre, (L - h, 0), over the RMS peak (5/4)^(1/2) at 0; the
    samples reach 3/2 at both points (theta = 0), so their boundary decay is
    the bound over 1.342.
    """
    rms_over_sum = np.sqrt(1.25) / 1.5
    nearest = grid.half_extents[0] - grid.spacings[0]
    width = nearest / np.sqrt(-np.log(bound * rms_over_sum) / np.pi)
    th = 2.0 * np.pi * np.arange(n_theta) / n_theta
    circle = np.exp(1j * th) + 0.5 * np.exp(-2j * th)
    return motion_field(grid, gaussian_packet(grid, widths=width).values[..., None] * circle)


class TestDecayBound:
    """The guard bounds the samples' boundary decay from the planes alone."""

    @pytest.mark.parametrize("factor", [0.99, 1.01])
    def test_at_the_limit(self, grid, lgrid, factor):
        f = packet_at_decay(grid, factor * _BOUNDARY_DECAY_LIMIT)
        bound = motion._boundary_decay_bound(f.planes)
        assert bound == pytest.approx(factor * _BOUNDARY_DECAY_LIMIT, rel=1e-9)
        decay = boundary_decay(sampled(f))
        assert decay == pytest.approx(bound * np.sqrt(1.25) / 1.5, rel=1e-9)
        if factor < 1.0:  # passes the plane guard, so passes the sample guard
            assert decay <= bound <= _BOUNDARY_DECAY_LIMIT
            assert mn_plancherel_ratio(f, lgrid, 16) == pytest.approx(2.0 * np.pi, rel=1e-6)
        else:  # the sample guard would pass it: the plane guard is the stricter
            assert decay <= _BOUNDARY_DECAY_LIMIT < bound
            with pytest.raises(DecayError, match="spatial box boundary"):
                mn_plancherel_ratio(f, lgrid, 16)

    def test_bounds_the_sample_decay(self, grid, corpus):
        undecayed = radial_field(grid, n_theta=16, widths=4.0)
        for f in corpus + [undecayed, all_modes_field(grid), two_mode_field(grid)]:
            bound = motion._boundary_decay_bound(f.planes)
            assert boundary_decay(sampled(f)) <= bound * (1.0 + 1e-12)


class TestTailBudget:
    """The spectral-tail guard passes a field whose tail is under the budget."""

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_radial_gaussian_at_the_budget(self, grid, factor):
        # exp(-pi |z|^2 / w^2) has exp(-2 pi w^2 rho^2) of its spectral mass beyond
        # rho = lam_max / 2 pi; the dual lattice counts that ring within 15%
        lam_max, tail = 6.0, factor * motion.SPECTRAL_TAIL_BUDGET
        rho = lam_max / (2.0 * np.pi)
        f = radial_field(grid, n_theta=16, widths=np.sqrt(-np.log(tail) / (2.0 * np.pi)) / rho)
        assert mn_spectral_tail_fraction(f, lam_max) == pytest.approx(tail, rel=0.15)
        lg = make_lambda_grid(lam_max, panels=6, nodes_per_panel=10)
        if factor < 1.0:  # the lambda rule misses exactly the tail
            kappa = mn_plancherel_ratio(f, lg, 4)
            assert kappa == pytest.approx(2.0 * np.pi * (1.0 - tail), rel=1e-9)
        else:
            with pytest.raises(SpectralTailError, match="exceeds 1e-02"):
                mn_plancherel_ratio(f, lg, 4)


class TestCircleWeights:
    @pytest.mark.parametrize("n_theta", [3, 7, 99, 128])
    def test_accepts_rounded_uniform_weights(self, n_theta):
        # the uniform weights 1/n_theta are the circle DFT's own, so a count whose
        # 1/n_theta does not round exactly is held like any other
        small = make_grid(2, [3.0, 3.0], [8, 8])
        f = motion_field(small, np.ones(small.counts + (n_theta,)))
        assert f.theta_count == n_theta and list(f.modes) == [0]
        np.testing.assert_allclose(f.planes.values, 1.0, rtol=1e-15, atol=0.0)


BAD_INPUTS = [
    ("plancherel-m_max-2.5", lambda f, g, lg: mn_plancherel_ratio(f, lg, 2.5), "m_max"),
    ("profile-m_max-2.5", lambda f, g, lg: mn_hs_profile(f, lg.nodes, 2.5), "m_max"),
    ("ft-m_max-2.5", lambda f, g, lg: mn_ft(f, 1.0, 2.5), "m_max"),
    ("ft-m_max-True", lambda f, g, lg: mn_ft(f, 1.0, True), "m_max"),
    ("profiles-m_max-True", lambda f, g, lg: mn_hs_profiles([f], lg.nodes, True), "m_max"),
    ("ft-lambda-nan", lambda f, g, lg: mn_ft(f, np.nan, 2), "lambda"),
    ("ft-lambda-inf", lambda f, g, lg: mn_ft(f, np.inf, 2), "lambda"),
    ("corpus-n_theta-2.5", lambda f, g, lg: motion_corpus(g, 2.5, 0, 1), "n_theta"),
    ("corpus-n_theta-True", lambda f, g, lg: motion_corpus(g, True, 0, 1), "n_theta"),
    ("corpus-n_theta-1", lambda f, g, lg: motion_corpus(g, 1, 0, 1), "n_theta"),
    ("corpus-count-2.0", lambda f, g, lg: motion_corpus(g, 128, 0, 2.0), "count"),
    ("corpus-count-True", lambda f, g, lg: motion_corpus(g, 128, 0, True), "count"),
    ("corpus-count--1", lambda f, g, lg: motion_corpus(g, 128, 0, -1), "count"),
]
# a given profile leaves m_max unused, and it is checked all the same
GIVEN_PROFILE = {
    "plancherel": lambda f, lg, m: mn_plancherel_ratio(f, lg, m, profile=np.ones(lg.nodes.shape)),
    "uncertainty": lambda f, lg, m: mn_uncertainty(
        f, MomentSpec(1.0, 1.0), lg, m, profile=np.ones(lg.nodes.shape)
    ),
}
BAD_INPUTS += [
    (f"{name}-profile-m_max-{m}", lambda f, g, lg, c=call, m=m: c(f, lg, m), kind)
    for name, call in GIVEN_PROFILE.items()
    for m, kind in [(2.5, "m_max"), (True, "m_max"), (-3, "m_max"), (100, "aliasing")]
]
WORDING = {
    "m_max": (ValueError, "m_max must be an integer >= 1"),
    "aliasing": (AliasingError, "M=100 needs at least 202 circle samples"),
    "lambda": (ValueError, "lambda must be finite and > 0"),
    "n_theta": (ValueError, "n_theta must be an integer >= 2"),
    "count": (ValueError, "count must be an integer >= 0"),
}


class TestInputs:
    @pytest.mark.parametrize("call, name", [c[1:] for c in BAD_INPUTS], ids=[c[0] for c in BAD_INPUTS])
    def test_rejects_bad_input(self, grid, corpus, lgrid, call, name):
        # 2.5 raised IndexError or TypeError, True read as 1, nan warned and then
        # failed the matrix check, and the corpus raised numpy's TypeErrors
        error, match = WORDING[name]
        with pytest.raises(error, match=match):
            call(corpus[0], grid, lgrid)

    @pytest.mark.parametrize(
        "shape, bad, match",
        [((64, 64, 16), np.nan, "NaN or Inf"), ((64, 64, 16), np.inf, "NaN or Inf")]
        + [((32, 32, 16), 0.0, "does not match grid"), ((64, 64, 1), 0.0, "theta_count")],
        ids=["nan", "inf", "other-grid", "one-sample"],
    )
    def test_samples_rejected(self, grid, shape, bad, match):
        values = np.ones(shape, dtype=complex)
        values[3, 4, 0] = bad
        with pytest.raises(ValueError, match=match):
            motion_field(grid, values)

    def test_empty_corpus(self, grid):
        assert motion_corpus(grid, 128, 0, 0) == []

    @pytest.mark.parametrize(
        "change",
        ["descending", "beyond-the-residues", "float-modes", "one-dim-grid"]
        + ["no-planes", "planes-for-no-mode", "other-grid", "haar-weights"],
    )
    def test_field_rejects_malformed_parts(self, corpus, change):
        f = corpus[0]  # modes -1 and 1
        MotionField(f.grid, f.theta_count, f.modes, f.planes)  # the parts as given are a field
        grid, n, modes, planes = f.grid, f.theta_count, f.modes, f.planes
        if change == "descending":
            modes = modes[::-1]
        elif change == "beyond-the-residues":
            modes = np.array([-1, 64])  # 64 is -64 mod 128
        elif change == "float-modes":
            modes = modes.astype(float)
        elif change == "one-dim-grid":
            grid = make_grid(1, [6.0], [64])
        elif change == "no-planes":
            planes = None
        elif change == "planes-for-no-mode":
            modes = modes[:0]
        elif change == "other-grid":
            planes = SampledField(make_grid(2, [7.0, 7.0], grid.counts), planes.values, np.ones(2))
        elif change == "haar-weights":
            planes = SampledField(grid, planes.values, np.full(2, 0.5))
        with pytest.raises(ValueError, match="a motion field needs"):
            MotionField(grid, n, modes, planes)
        with pytest.raises(ValueError, match="theta_count must be an integer >= 2"):
            MotionField(f.grid, True, f.modes, f.planes)


def slice_tail_fraction(f, lam_max):
    """The tail by one Euclidean transform per circle slice, weighted by the circle rule."""
    fhat = euclidean_ft(sampled(f))
    dens = np.tensordot(np.abs(fhat.values) ** 2, fhat.group_weights, axes=(-1, 0))
    outside = fhat.grid.radius_sq() > (lam_max / (2.0 * np.pi)) ** 2
    return float(dens[outside].sum() / dens.sum())


def two_mode_field(grid, n_theta=64):
    """Gaussian packet times e^{i theta} + e^{20 i theta}: half the mass lies beyond M = 16."""
    th = 2.0 * np.pi * np.arange(n_theta) / n_theta
    profile = np.exp(1j * th) + np.exp(20j * th)
    return motion_field(grid, gaussian_packet(grid).values[..., None] * profile)


def all_modes_field(grid, n_theta=128):
    """Gaussian envelope times a random circle profile: every circle mode carries mass."""
    rng = np.random.default_rng(3)
    profile = rng.standard_normal(n_theta) + 1j * rng.standard_normal(n_theta)
    return motion_field(grid, gaussian_packet(grid).values[..., None] * profile)


def assert_tail_close(got, want):
    if want < 1e-8:
        assert abs(got - want) <= 1e-20
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


class TestSpectralTail:
    @pytest.mark.parametrize("lam_max", [2.0, 5.0])
    @pytest.mark.parametrize("kind", ["random", "two_modes"])
    def test_matches_explicit_per_slice_dft(self, kind, lam_max):
        small = make_grid(2, [3.0, 3.0], [16, 16])
        rng = np.random.default_rng(7)
        shape = small.counts + (16,)
        if kind == "random":
            vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        else:
            th = 2 * np.pi * np.arange(16) / 16
            g = gaussian_packet(small, widths=[0.6, 0.6], modulations=[0.4, -0.2]).values
            vals = g[..., None] * (np.exp(2j * th) - 0.5 * np.exp(-3j * th))
        f = motion_field(small, vals)
        want = brute_force_tail_fraction(vals, small.half_extents, np.full(16, 1 / 16), lam_max)
        assert want > 1e-3
        assert mn_spectral_tail_fraction(f, lam_max) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("lam_max", [2.0, 6.0, 10.0, 16.0])
    def test_matches_per_slice_transform(self, grid, corpus, lam_max):
        theta_constant = radial_field(grid, n_theta=128)
        for f in corpus + [theta_constant, all_modes_field(grid)]:
            assert_tail_close(mn_spectral_tail_fraction(f, lam_max), slice_tail_fraction(f, lam_max))

    def test_zero_field(self, grid):
        f = motion_field(grid, np.zeros(grid.counts + (128,)))
        assert mn_spectral_tail_fraction(f, 16.0) == 0.0

    @pytest.mark.parametrize("lam_max", [np.nan, -1.0, 0.0, np.inf], ids=str)
    def test_rejects_a_bad_lam_max(self, corpus, lam_max):
        # nan read 0.0 ("no tail") and -1 read 0.954
        with pytest.raises(ValueError, match="lam_max must be finite and > 0"):
            mn_spectral_tail_fraction(corpus[0], lam_max)

    @pytest.mark.parametrize("kind, n_modes", [("corpus", 2), ("all_modes", 128)])
    def test_transforms_only_carrying_modes(self, grid, corpus, monkeypatch, kind, n_modes):
        # cost shape: a two-mode field costs two planar transforms, not one per circle slice
        f = corpus[0] if kind == "corpus" else all_modes_field(grid)
        mode_mass = np.sum(np.abs(np.fft.fft(samples(f), axis=-1)) ** 2, axis=(0, 1))
        assert np.sum(mode_mass > 1e-20 * mode_mass.max()) == n_modes
        planes = []

        def recording_ft(field):
            planes.append(field.values.shape[-1])
            return euclidean_ft(field)

        monkeypatch.setattr(motion, "euclidean_ft", recording_ft)
        mn_spectral_tail_fraction(f, 16.0)
        assert planes == [n_modes]


LATTICE = [MomentSpec(a, b) for a in (1.0, 2.0) for b in (1.0, 2.0)]


def counting(monkeypatch, module, *names):
    """Replace each named module attribute by a wrapper that counts its calls."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    return calls


class TestPolarIdentity:
    """Motion is R^2 x S^1 in polar coordinates (ROADMAP item 16): with the same
    norm and position moment, the motion momentum moment is the R^2 x S^1 one
    up to the convention, so the motion ratio is a fixed multiple of the
    ratio of the field's planes on R^2 x S^1."""

    @pytest.mark.parametrize("seed, count", [(5, 4), (0, 8)], ids=["test-corpus", "bench-set"])
    def test_motion_ratio_is_twice_the_r2_x_circle_ratio(self, grid, lgrid, seed, count):
        members = motion_corpus(grid, 128, seed, count)
        for f, profile in zip(members, mn_hs_profiles(members, lgrid.nodes, 16)):
            for spec in LATTICE:
                got = mn_uncertainty(f, spec, lgrid, 16, profile=profile).ratio
                want = euclidean.rn_uncertainty(f.planes, spec).ratio
                assert got / want == pytest.approx(2.0, rel=1e-6, abs=0.0)


class TestProfileOracle:
    """The HS-profile is the circle average of the planes' plane transforms: by
    Parseval over the circle grid, sum_q |D_m[q]|^2 over all n_theta circle
    modes q is mean_j |C_m(lambda (cos g_j, -sin g_j) / 2 pi)|^2, so the
    profile equals that sum up to the mass of the modes q = m - m' that its
    cut |m'| <= M drops."""

    @pytest.mark.parametrize("n_theta", [128, 45], ids=["bench-shaped", "odd"])
    def test_profile_is_the_circle_average_of_direct_transforms(self, grid, n_theta):
        f = motion_corpus(grid, n_theta, 0, 1)[0]
        axes = [grid.axis(0), grid.axis(1)]
        lams = [0.5, 2.0, 4.0, 8.0]
        got = mn_hs_profile(f, lams, 16)
        want = [
            circle_average_transform_sq(f.planes.values, axes, grid.cell_volume, lam, n_theta)
            for lam in lams
        ]
        np.testing.assert_allclose(got[:3], want[:3], rtol=1e-12, atol=0.0)
        # at lambda = 8 the M = 16 cut drops about 1e-9 of the mass, never adds
        assert want[3] * (1.0 - 1e-8) <= got[3] <= want[3] * (1.0 + 1e-12)


class TestIdentity:
    """Motion objects hold arrays, so == and hash() are those of the object."""

    def test_motion_field(self, corpus):
        f = corpus[0]
        assert_compared_by_identity(f, MotionField(f.grid, f.theta_count, f.modes, f.planes))

    def test_operator_matrix(self, corpus):
        op = mn_ft(corpus[0], 1.0, 4)
        assert_compared_by_identity(op, OperatorMatrix(op.lam, op.m_max, op.matrix))

    def test_lambda_grid(self, lgrid):
        assert_compared_by_identity(lgrid, LambdaGrid(lgrid.nodes, lgrid.weights, lgrid.lam_max))


class TestFieldMemo:
    """The guards and the default-path profile run once per field and key."""

    SMALL = make_grid(2, [6.0, 6.0], [32, 32])  # tail 9e-4 beyond lam_max 8 at M = 8
    SMALL_LGRID = make_lambda_grid(8.0, panels=2, nodes_per_panel=10)

    def small_member(self):
        return motion_corpus(self.SMALL, 32, 5, 1)[0]  # a new object: nothing stored yet

    def test_default_path_bits_match_given_profile(self, grid, lgrid):
        fresh, unstored = motion_corpus(grid, 128, 5, 1)[0], motion_corpus(grid, 128, 5, 1)[0]
        given = mn_hs_profile(fresh, lgrid.nodes, 16)
        kappa = mn_plancherel_ratio(fresh, lgrid, 16)
        assert kappa == mn_plancherel_ratio(fresh, lgrid, 16, profile=given)
        assert kappa == mn_plancherel_ratio(unstored, lgrid, 16, profile=given)
        for spec in LATTICE:
            terms = mn_uncertainty(fresh, spec, lgrid, 16)
            assert terms == mn_uncertainty(fresh, spec, lgrid, 16, profile=given)
            assert terms == mn_uncertainty(unstored, spec, lgrid, 16, profile=given)

    def test_one_tail_and_one_profile_per_field(self, monkeypatch):
        f, lg = self.small_member(), self.SMALL_LGRID
        calls = counting(monkeypatch, motion, "mn_spectral_tail_fraction", "mn_hs_profile")
        mn_plancherel_ratio(f, lg, 8)
        for spec in LATTICE:
            mn_uncertainty(f, spec, lg, 8)
        assert calls == {"mn_spectral_tail_fraction": 1, "mn_hs_profile": 1}

    def test_one_position_moment_per_a(self, monkeypatch):
        f, lg = self.small_member(), self.SMALL_LGRID
        fresh = self.small_member()
        calls = counting(monkeypatch, euclidean, "checked_moment")
        terms = [mn_uncertainty(f, spec, lg, 8) for spec in LATTICE + LATTICE]
        assert calls == {"checked_moment": 2}
        assert terms[:4] == terms[4:] == [mn_uncertainty(fresh, s, lg, 8) for s in LATTICE]

    @pytest.mark.parametrize(
        "change, tails, profiles",
        [("same", 0, 0), ("fresh-field", 1, 1), ("m_max", 0, 1), ("lambda-grid", 0, 1)]
        + [("lam_max", 1, 1), ("lam_max-only", 1, 0)],
    )
    def test_recomputes_on_another_key(self, monkeypatch, change, tails, profiles):
        f, lg, m = self.small_member(), self.SMALL_LGRID, 8
        mn_plancherel_ratio(f, lg, m)
        if change == "fresh-field":
            f = self.small_member()
        elif change == "m_max":
            m = 6
        elif change == "lambda-grid":
            lg = make_lambda_grid(8.0, panels=3, nodes_per_panel=10)
        elif change == "lam_max":
            lg = make_lambda_grid(9.0, panels=2, nodes_per_panel=10)
        elif change == "lam_max-only":
            lg = LambdaGrid(lg.nodes, lg.weights, 8.5)
        calls = counting(monkeypatch, motion, "mn_spectral_tail_fraction", "mn_hs_profile")
        mn_uncertainty(f, LATTICE[0], lg, m)
        assert calls == {"mn_spectral_tail_fraction": tails, "mn_hs_profile": profiles}

    def test_no_check_does_a_circle_dft(self, monkeypatch):
        # the corpus is built as planes and every check reads them: the only 1-D
        # FFTs are the per-lambda ones over plane-wave rows, shape (rows, n_theta)
        lg, fft, shapes = self.SMALL_LGRID, np.fft.fft, []

        def recording_fft(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return fft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", recording_fft)
        shared = [self.small_member(), motion_corpus(self.SMALL, 32, 6, 1)[0]]
        for f, profile in zip(shared, mn_hs_profiles(shared, lg.nodes, 8)):
            mn_plancherel_ratio(f, lg, 8, profile=profile)
            for spec in LATTICE:
                mn_uncertainty(f, spec, lg, 8, profile=profile)
        f = self.small_member()  # the default path: guard and profile
        mn_plancherel_ratio(f, lg, 8)
        for spec in LATTICE:
            mn_uncertainty(f, spec, lg, 8)
        assert shapes and all(len(shape) == 2 and shape[1] == 32 for shape in shapes)

    @pytest.mark.parametrize("member", [0, 1, 2, 3, "beyond-M"])
    def test_circle_modes_have_the_norm_and_position_moments(self, grid, corpus, member):
        f = two_mode_field(grid) if member == "beyond-M" else corpus[member]
        full = sampled(f)
        norm_sq = l2_norm_sq(full)
        assert euclidean._nonzero_norm_sq(f.planes) == pytest.approx(norm_sq, rel=1e-14, abs=0.0)
        for a in (1.0, 2.0):
            want = euclidean.checked_moment(full, 2.0 * a, "position")
            got = euclidean._position_moment(f.planes, a)
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_a_mode_beyond_the_truncation_counts_in_the_norm(self, grid, lgrid):
        # the m = 20 plane holds half the mass, which the M = 16 profile cannot see
        f = two_mode_field(grid)
        assert list(f.modes) == [1, 20]
        kappa = mn_plancherel_ratio(f, lgrid, 16)
        assert kappa / (2.0 * np.pi) == pytest.approx(0.5, rel=1e-6)

    def test_a_zero_field_raises_on_every_call(self, grid, lgrid):
        f = motion_field(grid, np.zeros(grid.counts + (16,)))
        for call in GUARDED_CALLS + GUARDED_CALLS:
            with pytest.raises(ZeroFieldError, match="zero field"):
                call(f, lgrid, 4)
        assert np.all(mn_hs_profile(f, lgrid.nodes, 4) == 0)
        assert mn_spectral_tail_fraction(f, lgrid.lam_max) == 0.0

    def test_a_failed_guard_raises_on_every_call(self, grid, lgrid, monkeypatch):
        f = radial_field(grid, n_theta=16, widths=4.0)
        calls = counting(monkeypatch, motion, "_boundary_decay_bound")
        for _ in range(2):
            with pytest.raises(DecayError, match="spatial box boundary"):
                mn_plancherel_ratio(f, lgrid, 4)
        assert calls == {"_boundary_decay_bound": 2}

    @pytest.mark.parametrize("cut", [np.s_[:1], np.s_[:7], np.s_[None, :]], ids=["one", "seven", "row"])
    def test_rejects_a_profile_of_the_wrong_shape(self, corpus, lgrid, cut):
        # one value would broadcast over every lambda weight: kappa 93.9, not 2 pi
        prof = mn_hs_profile(corpus[0], lgrid.nodes, 16)[cut]
        with pytest.raises(ValueError, match=r"profile has shape \(.*\), the lambda nodes \(60,\)"):
            mn_plancherel_ratio(corpus[0], lgrid, 16, profile=prof)
        with pytest.raises(ValueError, match="profile has shape"):
            mn_uncertainty(corpus[0], LATTICE[0], lgrid, 16, profile=prof)
