"""Thread-like nilpotent groups: HS integrand against a brute-force oracle,
shipped descriptor files against the reference algebra, loader checks."""

import dataclasses
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from groupft import nilpotent as nil
from groupft.errors import DecayError, IllConditionedError, SingularBandError, ZeroFieldError
from groupft.fields import MomentSpec, SampledField, gaussian_packet, l2_norm_sq, make_grid

from .json_kinds import NOT_OBJECT_IDS, NOT_OBJECTS, check_every_kind
from .oracles import (
    brute_force_hs_norm_sq,
    gaussian_band_fraction,
    solve_decreasing,
    threadlike_brackets,
)

DATA = Path(nil.__file__).resolve().parent / "data"
ROOT = Path(__file__).resolve().parents[1]
T_NODES = 8


def shipped(n: int) -> dict:
    return json.loads((DATA / f"threadlike{n}.json").read_text())


def threadlike_algebra(n: int) -> nil.LieAlgebraData:
    return nil.LieAlgebraData(n, threadlike_brackets(n))


def hs_norm_sq(f, desc, xi_cross, t_nodes=T_NODES) -> float:
    """hs2 at one cross-section point: |h(xi)| times the t-integral that
    the profile evaluates, through the same evaluator."""
    points = np.atleast_2d(np.asarray(xi_cross, dtype=float))
    h = abs(float(desc.h(desc.embed(xi_cross))))
    return h * float(nil._HsEvaluator(f, desc, t_nodes).t_integrals(points)[0])


def threadlike_point(xi, t1, t2):
    """Substituted coordinates: t1 at slot 2, t2 at slot n, slot j shifted by
    Q_j = sum_{k>=1} t1^k xi_{j-k} / (k! xi_1^k), with xi_2 = 0."""
    n = len(xi)
    out = np.array(xi, dtype=float)
    out[1], out[n - 1] = t1, t2
    for j in range(3, n):
        out[j - 1] += sum(
            t1**k * xi[j - k - 1] / (math.factorial(k) * xi[0] ** k) for k in range(1, j)
        )
    return out


@pytest.fixture(
    scope="module", params=[(3, 4.0, 16), (4, 3.0, 12), (5, 2.0, 8)], ids=["n3", "n4", "n5"]
)
def random_field(request):
    """Seeded complex noise on a small grid whose dual box is [-1, 1]^n."""
    n, extent, count = request.param
    grid = make_grid(n, [extent] * n, [count] * n)
    rng = np.random.default_rng(n)
    shape = grid.counts
    return SampledField(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


POINTS = {
    3: [(0.4,), (-0.7,)],
    4: [(-0.8, -0.2), (0.3, 0.5)],
    5: [(-0.8, -0.2, 0.1), (0.5, 0.3, -0.2)],
}


def oracle_targets(f, xi_cross, t_nodes=T_NODES):
    """(targets, weights, in-box mask) on the tensor Gauss-Legendre t grid."""
    desc = nil.threadlike_descriptor(f.grid.dim)
    xi = desc.embed(xi_cross)
    W = np.asarray(f.grid.dual_half_extents)
    x, w = np.polynomial.legendre.leggauss(t_nodes)
    T1, T2 = (W[slot - 1] * (1.0 - 1e-12) for slot in desc.vanishing)
    targets, weights = [], []
    for a in range(t_nodes):
        for b in range(t_nodes):
            targets.append(threadlike_point(xi, T1 * x[a], T2 * x[b]))
            weights.append(T1 * w[a] * T2 * w[b])
    targets = np.array(targets)
    return targets, np.array(weights), np.all(np.abs(targets) <= W, axis=1)


def oracle(f, targets, h_abs, weights):
    return brute_force_hs_norm_sq(
        f.values, f.grid.axes(), f.grid.cell_volume, h_abs, targets, weights
    )


@pytest.mark.parametrize("which", [0, 1])
def test_integrand_matches_brute_force(random_field, which):
    f = random_field
    xi_cross = POINTS[f.grid.dim][which]
    targets, _, inside = oracle_targets(f, xi_cross)
    evaluator = nil._HsEvaluator(f, nil.threadlike_descriptor(f.grid.dim), T_NODES)
    got = evaluator.integrand(np.array(POINTS[f.grid.dim]))[which]
    want = np.array([oracle(f, [p], 1.0, [1.0]) if ok else 0.0 for p, ok in zip(targets, inside)])
    assert want.max() > 0.0
    np.testing.assert_allclose(got.ravel(), want, rtol=0, atol=1e-12 * want.max())


def test_w_profile_matches_brute_force(random_field):
    f = random_field
    desc = nil.threadlike_descriptor(f.grid.dim)
    points, _, values = nil.nilpotent_w_profile(f, desc, 2, T_NODES)
    want = []
    for p in points:
        targets, weights, inside = oracle_targets(f, p)
        want.append(oracle(f, targets[inside], 1.0 / abs(p[0]), weights[inside]))
    assert len(points) == 2 ** (f.grid.dim - 1)  # slot 1 has two pieces, no node dropped
    np.testing.assert_allclose(values, want, rtol=1e-12)


def test_w_profile_blocks_match_one_contraction(random_field, monkeypatch):
    """A one-byte budget folds the base one grid slice at a time and takes
    the profile one point at a time."""
    f = random_field
    desc = nil.threadlike_descriptor(f.grid.dim)
    points, _, values = nil.nilpotent_w_profile(f, desc, 3, T_NODES)
    evaluator = nil._HsEvaluator(f, desc, T_NODES)
    whole = np.sum(evaluator.integrand(points) * evaluator.t_weights, axis=(1, 2))
    monkeypatch.setattr(nil, "_BLOCK_BYTES", 1)
    blocked = nil._HsEvaluator(f, desc, T_NODES)
    assert blocked._block_size(points) == 1 and blocked.base is not f.values
    scale = np.abs(evaluator.base).max()
    np.testing.assert_allclose(blocked.base, evaluator.base, rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(blocked.t_integrals(points), whole, rtol=1e-12)
    np.testing.assert_allclose(nil.nilpotent_w_profile(f, desc, 3, T_NODES)[2], values, rtol=1e-12)


def test_w_profile_memory_stays_within_budget(monkeypatch):
    """n = 4 at the default nodes (800 points): the traced peak stays within
    the block budget plus small per-point arrays.  One contraction over all
    points holds about 33 MB here; the budget is lowered to 4 MB so that
    the test runs fast and the two differ clearly."""
    monkeypatch.setattr(nil, "_BLOCK_BYTES", 4 * 2**20)
    grid = make_grid(4, [5.0] * 4, [24] * 4)
    rng = np.random.default_rng(4)
    f = SampledField(grid, rng.standard_normal(grid.counts) + 1j * rng.standard_normal(grid.counts))
    tracemalloc.start()
    try:
        points, _, values = nil.nilpotent_w_profile(f, nil.threadlike_descriptor(4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(points) == 800 and values.max() > 0.0
    assert peak < nil._BLOCK_BYTES + 2 * 2**20


def test_unfolded_phases_match_brute_force(random_field):
    """With more t nodes than grid points the xi-free phases stay out of the base."""
    f = random_field
    n, t_nodes = f.grid.dim, f.grid.counts[0] + 2
    evaluator = nil._HsEvaluator(f, nil.threadlike_descriptor(n), t_nodes)
    assert sorted(evaluator.unfolded) == [1, n - 1] and evaluator.base is f.values
    got = evaluator.integrand(np.array(POINTS[n]))
    for p, row in zip(POINTS[n], got):
        targets, _, inside = oracle_targets(f, p, t_nodes)
        want = [oracle(f, [q], 1.0, [1.0]) if ok else 0.0 for q, ok in zip(targets, inside)]
        np.testing.assert_allclose(row.ravel(), want, rtol=0, atol=1e-12 * max(want))


def test_substitute_without_xi():
    """When no substitute reads xi, hs2 / h(xi) is one t-integral at every point."""
    desc, _ = nil.descriptor_from_json(
        {"schema": 1, "n": 3, "vanishing": [2, 3], "pfaffian": "xi1", "h": "1/xi1",
         "substitute": {"1": "0.5"}, "bounds": {"1": [[0.1, 0.9]]}}
    )
    grid = make_grid(3, [4.0] * 3, [16] * 3)
    rng = np.random.default_rng(3)
    f = SampledField(grid, rng.standard_normal(grid.counts) + 1j * rng.standard_normal(grid.counts))
    points, _, values = nil.nilpotent_w_profile(f, desc, 3, T_NODES)
    one = hs_norm_sq(f, desc, [0.5]) * 0.5
    np.testing.assert_allclose(values * points[:, 0], one, rtol=1e-12)


def test_oracle_point_leaves_dual_box():
    """The second n=4 point substitutes slot-3 coordinates outside the dual box."""
    grid = make_grid(4, [3.0] * 4, [12] * 4)
    f = SampledField(grid, np.ones(grid.counts))
    _, _, inside = oracle_targets(f, POINTS[4][1])
    assert 0 < inside.sum() < inside.size
    _, _, inside = oracle_targets(f, POINTS[4][0])
    assert inside.all()


@pytest.mark.parametrize("which", [0, 1])
def test_hs_norm_sq_matches_brute_force(random_field, which):
    f = random_field
    xi_cross = POINTS[f.grid.dim][which]
    targets, weights, inside = oracle_targets(f, xi_cross)
    want = oracle(f, targets[inside], 1.0 / abs(xi_cross[0]), weights[inside])
    got = hs_norm_sq(f, nil.threadlike_descriptor(f.grid.dim), xi_cross)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.fixture(scope="module")
def t3_member():
    """Corpus member 0 on the 48^3 thread-like grid: a modulated packet, not Hermite."""
    grid = make_grid(3, [5.0] * 3, [48] * 3)
    return nil.nilpotent_corpus(grid, 0, 1)[0]


def test_plancherel_n3_default_nodes(t3_member):
    ratio = nil.nilpotent_plancherel_ratio(t3_member, nil.threadlike_descriptor(3))
    assert abs(ratio - 1.0) < 2e-4


def test_uncertainty_computes_the_profile_it_is_not_given(t3_member):
    f, desc, spec = t3_member, nil.threadlike_descriptor(3), MomentSpec(2.0, 1.5)
    given = nil.nilpotent_uncertainty(f, desc, spec, 4, 16, nil.nilpotent_w_profile(f, desc, 4, 16))
    assert nil.nilpotent_uncertainty(f, desc, spec, 4, 16) == given


def test_plancherel_and_inequality_n4():
    """n = 4 member 0 on 48^4, extent 5.  The ratio is not converged at the
    default nodes (1.011, against 1.19 at w=8/t=16), so this checks that it
    approaches 1 as the nodes grow, and the inequality at (1, 1) and (2, 2)."""
    f = nil.nilpotent_corpus(make_grid(4, [5.0] * 4, [48] * 4), 0, 1)[0]
    desc = nil.threadlike_descriptor(4)
    coarse_profile = nil.nilpotent_w_profile(f, desc, 8, 16)
    coarse = nil.nilpotent_plancherel_ratio(f, desc, profile=coarse_profile)
    profile = nil.nilpotent_w_profile(f, desc)
    ratio = nil.nilpotent_plancherel_ratio(f, desc, profile=profile)
    assert abs(ratio - 1.0) < 2e-2
    assert abs(ratio - 1.0) < abs(coarse - 1.0)
    for ab in (1.0, 2.0):
        terms = nil.nilpotent_uncertainty(f, desc, MomentSpec(ab, ab), profile=profile)
        assert terms.ratio >= 1.0 - 1e-4


def test_profile_sums_match_pointwise_loop(t3_member):
    f, desc, spec = t3_member, nil.threadlike_descriptor(3), MomentSpec(2.0, 1.5)
    profile = nil.nilpotent_w_profile(f, desc, 4, T_NODES)
    points, weights, values = profile
    loop = [hs_norm_sq(f, desc, p) for p in points]
    np.testing.assert_allclose(values, loop, rtol=1e-13, atol=1e-13 * max(loop))
    pf = np.array([abs(p[0]) for p in points])
    ratio = nil.nilpotent_plancherel_ratio(f, desc, profile=profile)
    assert ratio == pytest.approx(np.sum(weights * values * pf) / l2_norm_sq(f), rel=1e-13)
    moment = sum(
        w * float(np.sum(p**2)) ** spec.b * v / ((1.0 / pf_i) ** spec.b * pf_i ** (spec.b - 1.0))
        for p, w, v, pf_i in zip(points, weights, values, pf)
    )
    terms = nil.nilpotent_uncertainty(f, desc, spec, profile=profile)
    assert terms.momentum_term == pytest.approx(moment ** (1.0 / (2.0 * spec.b)), rel=1e-13)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_shipped_structure_constants(n):
    _, algebra = nil.descriptor_from_json(shipped(n))
    np.testing.assert_array_equal(algebra.brackets, threadlike_brackets(n))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_shipped_descriptor_valid(n):
    assert nil.validate_descriptor(nil.threadlike_descriptor(n), threadlike_algebra(n)) == []


def descriptor_to_json(desc: nil.CrossSectionDescriptor) -> dict:
    """JSON dict of a descriptor (round-trips files, less structure constants)."""
    return {
        "schema": 1,
        "name": desc.label,
        "n": desc.n,
        "vanishing": list(desc.vanishing),
        "pfaffian": desc.pfaffian_expr.source,
        "h": desc.h_expr.source,
        "substitute": {str(slot): e.source for slot, e in enumerate(desc.substitute_exprs, 1)},
        "bounds": {str(k): [list(p) for p in v] for k, v in desc.bounds.items()},
        "singular_axis": desc.singular_axis,
    }


@pytest.mark.parametrize("n", [3, 4, 5])
def test_shipped_file_roundtrip(n):
    data = shipped(n)
    desc, _ = nil.descriptor_from_json(data)
    del data["structure_constants"]
    assert descriptor_to_json(desc) == data
    assert nil.descriptor_from_json(descriptor_to_json(desc))[0] == desc


def test_threadlike_only_builtin_dimensions():
    with pytest.raises(ValueError):
        nil.threadlike_descriptor(6)


@pytest.mark.parametrize(
    "change, key",
    [
        ({"singular_axis": 0}, "singular_axis"),
        ({"singular_axis": 2}, "singular_axis"),
        ({"substitute": {"4": "t1"}}, "substitute"),
        ({"substitute": {"0": "xi1"}}, "substitute"),
        ({"bounds": {"1": [[0.05, 3.2]], "2": [[-1.0, 1.0]]}}, "bounds"),
        ({"bounds": {}}, "bounds"),
        ({"substitute": {"3": "t3"}}, "substitute 3"),
        ({"pfaffian": "xi1 + t1"}, "pfaffian"),
        ({"h": "1/xi4"}, "h"),
    ],
    ids=[
        "singular-axis-outside",
        "singular-axis-vanishing",
        "substitute-slot-above-n",
        "substitute-slot-zero",
        "bounds-extra-slot",
        "bounds-missing-slot",
        "substitute-unknown-t",
        "pfaffian-uses-t",
        "h-unknown-xi",
    ],
)
def test_loader_rejects_bad_file(change, key):
    data = shipped(3)
    data.update(change)
    with pytest.raises(ValueError, match=f"^{re.escape(key)}:"):
        nil.descriptor_from_json(data)


def generic_xi(n, xi1):
    """(xi1, 0, 0.3, ..., 0.3), or (xi1, 0, 0) at n = 3."""
    return np.array([xi1, 0.0] + [0.3 if n > 3 else 0.0] * (n - 2))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_threadlike_generic_jumps_and_pfaffian(n):
    jump = nil.jump_indices(threadlike_algebra(n), generic_xi(n, 0.7))
    assert jump.indices == (2, n)
    assert nil.pfaffian_sq(jump) == pytest.approx(0.49, rel=1e-12)  # xi1^2


@pytest.mark.parametrize("n, indices", [(3, ()), (4, (3, 4)), (5, (3, 5))])
def test_threadlike_jumps_off_the_generic_layer(n, indices):
    xi = np.zeros(n)
    xi[1] = 1.0  # xi1 = 0, xi2 = 1
    jump = nil.jump_indices(threadlike_algebra(n), xi)
    assert jump.indices == indices
    if not indices:
        with pytest.raises(ValueError):
            nil.pfaffian_sq(jump)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_threadlike_jumps_ill_conditioned_near_singular_set(n):
    with pytest.raises(IllConditionedError):
        nil.jump_indices(threadlike_algebra(n), generic_xi(n, 1e-9))


@pytest.mark.parametrize(
    "change, message",
    [
        ({"pfaffian": "2*xi1"}, "pfaffian mismatch"),
        ({"substitute": {"1": "xi1", "2": "0*t1", "3": "t2"}}, "not injective"),
    ],
    ids=["wrong-pfaffian", "constant-substitute"],
)
def test_validate_descriptor_reports_broken_variant(change, message):
    data = shipped(3)
    data.update(change)
    desc, algebra = nil.descriptor_from_json(data)
    report = nil.validate_descriptor(desc, algebra)
    assert report and all(message in line for line in report)


def test_validate_descriptor_without_algebra():
    desc, _ = nil.load_descriptor_file(DATA / "threadlike3.json")
    assert nil.validate_descriptor(desc) == []


def test_benchmark_descriptor_file_matches_shipped():
    """The benchmark's single check reads its own copy of threadlike3 and
    its sweep the shipped file; both load to equal data."""
    desc, algebra = nil.load_descriptor_file(ROOT / "perfbench" / "data" / "threadlike3.json")
    shipped_desc, shipped_algebra = nil.load_descriptor_file(DATA / "threadlike3.json")
    assert desc == shipped_desc
    np.testing.assert_array_equal(algebra.brackets, shipped_algebra.brackets)


@pytest.mark.parametrize(
    "path, label, right",
    [
        (("schema",), "schema", {"missing", "int"}),
        (("name",), "name", {"missing", "string"}),
        (("n",), "n", {"int"}),
        (("vanishing",), "vanishing", {"list"}),
        (("pfaffian",), "pfaffian", {"string"}),
        (("h",), "h", {"string"}),
        (("substitute",), "substitute", {"missing", "object"}),
        (("bounds",), "bounds", {"object"}),
        (("singular_axis",), "singular_axis", {"missing", "null", "int"}),
        (("structure_constants",), "structure_constants", {"missing", "list"}),
        (("bounds", "1"), "bounds", {"missing", "list"}),
        (("substitute", "1"), "substitute", {"missing", "string"}),
    ],
    ids=["schema", "name", "n", "vanishing", "pfaffian", "h", "substitute", "bounds"]
    + ["singular_axis", "structure_constants", "bounds-1", "substitute-1"],
)
def test_loader_every_json_kind(tmp_path, path, label, right):
    check_every_kind(
        shipped(3), path, label, right, nil.descriptor_from_json, nil.load_descriptor_file, tmp_path
    )


@pytest.mark.parametrize("top", NOT_OBJECTS, ids=NOT_OBJECT_IDS)
def test_loader_top_level_not_an_object(tmp_path, top):
    with pytest.raises(ValueError, match="^top level: not an object$"):
        nil.descriptor_from_json(top)
    path = tmp_path / "top.json"
    path.write_text(json.dumps(top))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: top level: not an object$"):
        nil.load_descriptor_file(path)


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"singular_axs": 1}, "singular_axs: unknown key"),
        ({"schema": 2}, "schema: 2 is not 1"),
        ({"schema": True}, "schema: True is not 1"),
        ({"structure_constants": [[3, 2, 1]]}, "structure_constants: not a list"),
        ({"structure_constants": [[3, True, 1, 1.0]]}, "structure_constants: True is not an integer"),
        ({"bounds": {"1": [[-3.2, -0.05, 0.0]]}}, "bounds: not a list"),
        ({"bounds": {"1": [[-3.2, True]]}}, "bounds: True is not a finite number"),
        ({"bounds": {"x": [[0.05, 3.2]]}}, r"bounds: keys \['x'\] are not slots 1..3"),
        ({"vanishing": [2, True]}, "vanishing: True is not an integer"),
        ({"pfaffian": "("}, r"pfaffian: '\(' was never closed \(at position 0\)$"),
        ({"h": "1/xi1 +"}, r"h: invalid syntax \(at position 7\)$"),
        ({"substitute": {"3": "xi3 - t1 xi1"}}, r"substitute 3: invalid syntax \(at position 9\)$"),
        ({"substitute": {"1": "xi1 # 2"}}, "substitute 1: unexpected character '#'"),
    ],
    ids=["misspelt-singular-axis", "schema-2", "schema-true", "short-constant"]
    + ["bool-index", "long-piece", "bool-bound", "non-slot-bound", "bool-slot"]
    + ["bad-pfaffian", "bad-h", "bad-substitute-3", "bad-substitute-1"],
)
def test_loader_names_the_bad_key(tmp_path, edit, message):
    """A misspelt optional key no longer drops the band guard unnoticed."""
    data = shipped(3) | edit
    with pytest.raises(ValueError, match=f"^{message}"):
        nil.descriptor_from_json(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
        nil.load_descriptor_file(path)


@pytest.fixture(scope="module")
def t3_grid():
    return make_grid(3, [5.0] * 3, [48] * 3)


def test_plancherel_guard_rejects_band_mass(t3_grid):
    # unmodulated: the spectrum peaks on the singular band xi1 = 0
    with pytest.raises(SingularBandError) as info:
        nil.nilpotent_plancherel_ratio(gaussian_packet(t3_grid), nil.threadlike_descriptor(3))
    assert info.value.excluded_mass == pytest.approx(0.14, abs=0.005)


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_band_guard_at_the_budget(t3_grid, factor):
    # exp(-pi |x|^2 + 2 pi i a x_1) with the a that puts factor x 0.5% of its
    # spectral mass in |xi_1| < EPS_SINGULAR; 0.5% is BAND_MASS_BUDGET, written
    # out so that a changed budget fails.  The cross-section rule leaves out
    # exactly that band.
    share = factor * 0.005
    a = solve_decreasing(lambda a: gaussian_band_fraction(a, nil.EPS_SINGULAR), 0.0, 2.0, share)
    f, desc = gaussian_packet(t3_grid, modulations=(a, 0.0, 0.0)), nil.threadlike_descriptor(3)
    if factor < 1.0:
        assert nil.nilpotent_plancherel_ratio(f, desc) == pytest.approx(1.0 - share, rel=1e-9)
    else:
        with pytest.raises(SingularBandError) as info:
            nil.nilpotent_plancherel_ratio(f, desc)
        assert info.value.excluded_mass == pytest.approx(share, rel=1e-9)


@pytest.mark.parametrize("member", [0, 2, 4])
def test_n3_momentum_is_the_axis0_marginal_moment(t3_grid, member):
    """At n = 3 the cross-section point is xi_1 = eta_1 and |h Pf| = 1, so by
    the pullback the momentum moment int |xi|^2b hs2 / (|h|^b |Pf|^(b-1)) dxi
    is int |eta_1|^2b g(eta_1) d eta_1 outside the band |eta_1| < EPS_SINGULAR,
    g the axis-0 marginal of |F f|^2.  The marginal is read off one FFT along
    axis 0 (a Riemann sum over the dual lattice), less the band's share, which
    direct transforms at Gauss nodes in the band give.  At the converged nodes
    w=80/t=48 they agree to <= 8.8e-10 at b = 1 and 2 on these members; the
    band alone is 3.2e-7 of the moment at b = 1."""
    f, desc = nil.nilpotent_corpus(t3_grid, 0, 5)[member], nil.threadlike_descriptor(3)
    profile = nil.nilpotent_w_profile(f, desc, 80, 48)
    (h1, h2, h3), x1, n1 = t3_grid.spacings, t3_grid.axis(0), t3_grid.counts[0]
    eta = np.fft.fftfreq(n1, d=h1)
    marginal = np.sum(np.abs(np.fft.fft(f.values, axis=0) * h1) ** 2, axis=(1, 2)) * h2 * h3
    nodes, weights = np.polynomial.legendre.leggauss(64)
    band_eta, band_w = nil.EPS_SINGULAR * nodes, nil.EPS_SINGULAR * weights
    slab = np.tensordot(np.exp(-2j * np.pi * np.outer(band_eta, x1)) * h1, f.values, axes=(1, 0))
    band_marginal = np.sum(np.abs(slab) ** 2, axis=(1, 2)) * h2 * h3
    for b in (1.0, 2.0):
        lattice = np.sum(np.abs(eta) ** (2.0 * b) * marginal) / (n1 * h1)
        band = np.sum(band_w * np.abs(band_eta) ** (2.0 * b) * band_marginal)
        terms = nil.nilpotent_uncertainty(f, desc, MomentSpec(1.0, b), profile=profile)
        assert terms.momentum_term ** (2.0 * b) == pytest.approx(lattice - band, rel=1e-8)


@pytest.mark.parametrize(
    "call",
    [
        lambda f, desc: nil.nilpotent_plancherel_ratio(f, desc),
        lambda f, desc: nil.nilpotent_uncertainty(f, desc, MomentSpec(1.0, 1.0)),
    ],
    ids=["plancherel", "uncertainty"],
)
def test_zero_field_rejected(t3_grid, call):
    f = SampledField(t3_grid, np.zeros(t3_grid.counts))
    with pytest.raises(ZeroFieldError):
        call(f, nil.threadlike_descriptor(3))


def test_plancherel_guard_rejects_undecayed_field(t3_grid):
    f = gaussian_packet(t3_grid, widths=3.0)
    with pytest.raises(DecayError):
        nil.nilpotent_plancherel_ratio(f, nil.threadlike_descriptor(3))


def test_corpus_rejects_coarse_axis_before_drawing():
    grid = make_grid(3, [5.0] * 3, [48, 16, 48])  # axis 1: width 5.16 needed, 1.69 allowed
    with pytest.raises(DecayError, match="axis 1"):
        nil.nilpotent_corpus(grid, 0, 2)


@pytest.fixture(scope="module")
def narrow_field():
    """A field whose slot-1 dual half-extent, 1.0, lies inside the shipped bound 3.2."""
    return SampledField(make_grid(3, [4.0] * 3, [16] * 3), np.zeros((16,) * 3))


def explicit_rule(pieces, n):
    x, w = np.polynomial.legendre.leggauss(n)
    halves = [(hi - lo) / 2 for lo, hi in pieces]
    nodes = [h * x + (hi + lo) / 2 for h, (lo, hi) in zip(halves, pieces)]
    return np.concatenate(nodes), np.concatenate([h * w for h in halves])


EDGE = 1.0 * (1 - 1e-12)  # the dual half-extent of narrow_field, shrunk as _w_nodes does


@pytest.mark.parametrize(
    "bounds",
    [((-3.2, -0.05), (0.05, 3.2)), ((-3.2, -0.05), (0.05, 1.5), (1.5, 3.2))],
    ids=["clipped", "outside-piece-dropped"],
)
def test_w_nodes_clip_bounds_to_dual_box(narrow_field, bounds):
    desc = dataclasses.replace(nil.threadlike_descriptor(3), bounds={1: bounds})
    ((nodes, weights),) = nil._w_nodes(desc, narrow_field, 6)
    want_nodes, want_weights = explicit_rule([(-EDGE, -0.05), (0.05, EDGE)], 6)
    assert np.array_equal(nodes, want_nodes)
    assert np.array_equal(weights, want_weights)


def test_w_nodes_reject_bounds_outside_dual_box(narrow_field):
    desc = dataclasses.replace(nil.threadlike_descriptor(3), bounds={1: ((1.5, 3.0),)})
    with pytest.raises(ValueError, match="integration bounds fall outside the dual box"):
        nil._w_nodes(desc, narrow_field, 6)


@pytest.mark.parametrize(
    "change, key",
    [
        ({"structure_constants": [[0, 2, 1, 1.0]]}, "structure_constants"),
        ({"structure_constants": [[4, 2, 1, 1.0]]}, "structure_constants"),
        ({"structure_constants": [[3, 2.5, 1, 1.0]]}, "structure_constants"),
        ({"bounds": {"1": [[-3.2, -0.05], [3.2, 0.05]]}}, "bounds"),
        ({"bounds": {"1": [[0.05, 0.05]]}}, "bounds"),
        ({"bounds": {"1": [[-3.2, -0.05], [0.05, float("nan")]]}}, "bounds"),
        ({"bounds": {"1": []}}, "bounds"),
        ({"n": 3.7}, "n"),
        ({"vanishing": [2.5, 3]}, "vanishing"),
    ],
    ids=[
        "index-zero",
        "index-above-n",
        "index-fractional",
        "piece-reversed",
        "piece-empty",
        "piece-nan",
        "no-pieces",
        "n-fractional",
        "vanishing-fractional",
    ],
)
def test_loader_rejects_broken_data(change, key):
    data = shipped(3)
    data.update(change)
    with pytest.raises(ValueError, match=f"^{re.escape(key)}:"):
        nil.descriptor_from_json(data)


def test_largest_intermediate_matches_einsum_report(random_field, monkeypatch):
    """The helper reproduces np.einsum_path's printed "Largest intermediate"
    for the fold and the block contraction; the fold's explicit chain is the
    path np.einsum_path picks greedily."""
    f = random_field
    seen = []
    slices = nil._slices_per_einsum

    def recording(subscripts, operands, path, count):
        seen.append((subscripts, operands, path))
        return slices(subscripts, operands, path, count)

    monkeypatch.setattr(nil, "_slices_per_einsum", recording)
    evaluator = nil._HsEvaluator(f, nil.threadlike_descriptor(f.grid.dim), T_NODES)
    evaluator._block_size(np.array(POINTS[f.grid.dim]))
    assert len(seen) == 2  # the fold, then the block contraction
    for subscripts, operands, path in seen:
        report = np.einsum_path(subscripts, *operands, optimize=path)[1]
        printed = re.search(r"Largest intermediate:\s*(\S+)", report).group(1)
        assert f"{nil._largest_intermediate(subscripts, operands, path):.3e}" == printed
    subscripts, operands, path = seen[0]
    assert np.einsum_path(subscripts, *operands, optimize="greedy")[0] == path


@pytest.mark.parametrize(
    "subscripts, shapes, path, count, want",
    [
        ("abc,Ab,Bc->aAB", [(48,) * 3, (32, 48), (32, 48)], [(0, 1), (0, 1)], 48, 341),
        ("za,aAB->zAB", [(1, 48), (48, 32, 32)], [(0, 1)], 1, 512),
        ("abcd,Ab,Bd->acAB", [(48,) * 4, (16, 48), (16, 48)], [(0, 1), (0, 1)], 48, 14),
        ("za,zAc,acAB->zAB", [(1, 48), (1, 16, 48), (48, 48, 16, 16)], [(0, 2), (0, 1)], 1, 42),
    ],
    ids=["n3-fold", "n3-block", "n4-fold", "n4-block"],
)
def test_slice_and_block_counts(subscripts, shapes, path, count, want):
    """48^3 at t = 32 folds in one slice and takes 512-point blocks; 48^4 at
    t = 16 folds 14 planes at a time and takes 42-point blocks."""
    operands = [np.broadcast_to(np.zeros((), complex), s) for s in shapes]
    assert nil._slices_per_einsum(subscripts, operands, ["einsum_path"] + path, count) == want


LATTICE = [MomentSpec(a, b) for a in (1.0, 2.0) for b in (1.0, 2.0)]


def fresh_t3_member():
    """``t3_member``'s values in a new field object, which holds no stored profile."""
    return nil.nilpotent_corpus(make_grid(3, [5.0] * 3, [48] * 3), 0, 1)[0]


def counting_w_profile(monkeypatch) -> list:
    calls = []
    original = nil.nilpotent_w_profile

    def wrapper(*args, **kwargs):
        calls.append(args[2:])
        return original(*args, **kwargs)

    monkeypatch.setattr(nil, "nilpotent_w_profile", wrapper)
    return calls


@pytest.mark.parametrize("source", ["builtin", "json"])
def test_default_profile_bits_match_given_profile(source):
    if source == "builtin":
        desc = nil.threadlike_descriptor(3)
    else:
        desc, _ = nil.load_descriptor_file(ROOT / "perfbench" / "data" / "threadlike3.json")
    f, unstored = fresh_t3_member(), fresh_t3_member()
    given = nil.nilpotent_w_profile(f, desc)
    ratio = nil.nilpotent_plancherel_ratio(f, desc)
    assert ratio == nil.nilpotent_plancherel_ratio(f, desc, profile=given)
    assert ratio == nil.nilpotent_plancherel_ratio(unstored, desc, profile=given)
    for spec in LATTICE:
        terms = nil.nilpotent_uncertainty(f, desc, spec)
        assert terms == nil.nilpotent_uncertainty(unstored, desc, spec, profile=given)


def test_one_default_profile_per_field(monkeypatch):
    f, desc = fresh_t3_member(), nil.threadlike_descriptor(3)
    calls = counting_w_profile(monkeypatch)
    nil.nilpotent_plancherel_ratio(f, desc, 4, 16)
    for spec in LATTICE:
        nil.nilpotent_uncertainty(f, desc, spec, 4, 16)
    assert calls == [(4, 16)]


def test_position_moment_taken_at_every_point(monkeypatch):
    # deliberately not kept on the field, unlike R^n and R^n x K (see nilpotent_uncertainty)
    f, desc = fresh_t3_member(), nil.threadlike_descriptor(3)
    calls = []
    original = nil.checked_moment

    def wrapper(*args, **kwargs):
        calls.append(args[1:])
        return original(*args, **kwargs)

    monkeypatch.setattr(nil, "checked_moment", wrapper)
    for _ in range(2):
        for spec in LATTICE:
            nil.nilpotent_uncertainty(f, desc, spec, 4, 16)
    assert calls == [(2.0 * spec.a, "position") for spec in LATTICE] * 2


@pytest.mark.parametrize(
    "change, recomputes",
    [("same", False), ("fresh field", True), ("descriptor object", True)]
    + [("w_nodes", True), ("t_nodes", True)],
)
def test_default_profile_recomputed_on_another_key(monkeypatch, change, recomputes):
    f, desc = fresh_t3_member(), nil.threadlike_descriptor(3)
    nil.nilpotent_plancherel_ratio(f, desc, 4, 16)
    w, t = 4, 16
    if change == "fresh field":
        f = fresh_t3_member()
    elif change == "descriptor object":
        desc = nil.threadlike_descriptor(3)  # equal content, another object
    elif change == "w_nodes":
        w = 3
    elif change == "t_nodes":
        t = 12
    calls = counting_w_profile(monkeypatch)
    nil.nilpotent_uncertainty(f, desc, LATTICE[0], w, t)
    assert calls == ([(w, t)] if recomputes else [])


@pytest.mark.parametrize(
    "part, cut",
    [("points", np.s_[:, [0, 0]]), ("points", np.s_[:-1]), ("weights", np.s_[:-1])]
    + [("values", np.s_[:-1]), ("values", np.s_[None, :])],
    ids=["two-columns", "short-points", "short-weights", "short-values", "row-values"],
)
def test_rejects_a_profile_of_the_wrong_shape(t3_member, part, cut):
    desc = nil.threadlike_descriptor(3)
    profile = dict(zip(("points", "weights", "values"), nil.nilpotent_w_profile(t3_member, desc, 4, 16)))
    profile[part] = profile[part][cut]
    bad = tuple(profile.values())
    with pytest.raises(ValueError, match=r"^profile: points, weights and values have shapes"):
        nil.nilpotent_plancherel_ratio(t3_member, desc, profile=bad)
    with pytest.raises(ValueError, match=r"need \(P, 1\), \(P,\) and \(P,\)"):
        nil.nilpotent_uncertainty(t3_member, desc, LATTICE[0], profile=bad)
