"""Thread-like nilpotent groups: HS integrand against a brute-force oracle,
shipped descriptor files against the reference algebra, loader checks."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from groupft import nilpotent as nil
from groupft.errors import SingularBandError
from groupft.fields import MomentSpec, SampledField, l2_norm_sq, make_grid

from .oracles import brute_force_hs_norm_sq

DATA = Path(nil.__file__).resolve().parent / "data"
T_NODES = 8


def shipped(n: int) -> dict:
    return json.loads((DATA / f"threadlike{n}.json").read_text())


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


def oracle_targets(f, xi_cross):
    """(targets, weights, in-box mask) on the tensor Gauss-Legendre t grid."""
    desc = nil.threadlike_descriptor(f.grid.dim)
    xi = desc.embed(xi_cross)
    W = np.asarray(f.grid.dual_half_extents)
    x, w = np.polynomial.legendre.leggauss(T_NODES)
    T1, T2 = (W[slot - 1] * (1.0 - 1e-12) for slot in desc.vanishing)
    targets, weights = [], []
    for a in range(T_NODES):
        for b in range(T_NODES):
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
    got = nil._HsEvaluator(f, nil.threadlike_descriptor(f.grid.dim), T_NODES).integrand(xi_cross)
    want = np.array([oracle(f, [p], 1.0, [1.0]) if ok else 0.0 for p, ok in zip(targets, inside)])
    assert want.max() > 0.0
    np.testing.assert_allclose(got.ravel(), want, rtol=0, atol=1e-12 * want.max())


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
    got = nil.nilpotent_hs_norm_sq(f, nil.threadlike_descriptor(f.grid.dim), xi_cross, T_NODES)
    assert got == pytest.approx(want, rel=1e-12)


def test_hs_norm_sq_rejects_singular_band(random_field):
    f = random_field
    xi_cross = (0.01,) + POINTS[f.grid.dim][0][1:]
    with pytest.raises(SingularBandError):
        nil.nilpotent_hs_norm_sq(f, nil.threadlike_descriptor(f.grid.dim), xi_cross, T_NODES)


@pytest.fixture(scope="module")
def t3_member():
    """Corpus member 0 on the 48^3 thread-like grid: a modulated packet, not Hermite."""
    grid = make_grid(3, [5.0] * 3, [48] * 3)
    return nil.nilpotent_corpus(grid, 0, 1)[0]


def test_plancherel_n3_default_nodes(t3_member):
    ratio = nil.nilpotent_plancherel_ratio(t3_member, nil.threadlike_descriptor(3))
    assert abs(ratio - 1.0) < 2e-4


def test_profile_sums_match_pointwise_loop(t3_member):
    f, desc, spec = t3_member, nil.threadlike_descriptor(3), MomentSpec(2.0, 1.5)
    profile = nil.nilpotent_w_profile(f, desc, 4, T_NODES)
    points, weights, values = profile
    loop = [nil.nilpotent_hs_norm_sq(f, desc, p, T_NODES) for p in points]
    np.testing.assert_allclose(values, loop, rtol=1e-13)
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
    np.testing.assert_array_equal(algebra.brackets, nil.threadlike_algebra(n).brackets)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_shipped_descriptor_valid(n):
    assert nil.validate_descriptor(nil.threadlike_descriptor(n), nil.threadlike_algebra(n)) == []


@pytest.mark.parametrize("n", [3, 4, 5])
def test_shipped_file_roundtrip(n):
    data = shipped(n)
    desc, _ = nil.descriptor_from_json(data)
    del data["structure_constants"]
    assert nil.descriptor_to_json(desc) == data
    assert nil.descriptor_from_json(nil.descriptor_to_json(desc))[0] == desc


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
