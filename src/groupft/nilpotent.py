"""Cross-section Fourier analysis on a class of nilpotent Lie groups.

A group enters through two pieces of data:

* ``LieAlgebraData`` - structure constants in a strong Malcev basis, from
  which coadjoint jump indices and the Pfaffian of the skew form
  B_xi(X, Y) = xi([X, Y]) are computed by plain linear algebra;

* ``CrossSectionDescriptor`` - expression data (vanishing slots, Pfaffian,
  weight h, one coordinate substitution per slot, integration bounds)
  that expresses the squared Hilbert-Schmidt norm of the group transform
  at a generic cross-section point xi as

      hs2(xi) = |h(xi)| * int |F(f o exp)(substitute(xi, t))|^2 dt,

  an integral over the vanishing coordinates of the Euclidean transform
  of f in exponential coordinates, evaluated off-grid by direct
  summation (never interpolation).

Every descriptor is expression data read by ``descriptor_from_json``; the
built-in thread-like groups (n = 3, 4, 5) are JSON files in ``data/``
loaded through the same path as user files.  The t-integrand of a whole
HS-profile is one ``np.einsum`` per block of cross-section points: each
slot's substituted coordinate is evaluated on the sparse t mesh, the
t-axes along which that array varies are the t-axes its phase factor
contracts over, and slots whose expression reads xi carry a point axis.
Phases of slots that read no xi are built once, and folded into f where
that does not enlarge it.  Blocks are sized so that memory stays within a
fixed budget whatever the number of points.  Every phase comes from
``fields._axis_phase``, which zeroes substituted coordinates beyond the
dual box, where the direct sum aliases; that dropped mass is not yet
measured or budgeted.

The Plancherel identity integrates hs2 against |Pf(xi)| d(xi) over the
cross-section; with the built-in thread-like groups (|h| = 1/|Pf|) the
change of variables collapses it to the Euclidean Parseval identity, so
the measured ratio tends to 1.  A band around Pf = 0 is excluded from all
quadratures and its spectral mass is reported, not hidden.
"""

from __future__ import annotations

import math
import numbers
import string
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._jsonfile import check, load
from .errors import DecayError, IllConditionedError, SingularBandError
from .euclidean import UncertaintyTerms, _nonzero_norm_sq, _uncertainty_terms, checked_moment
from .exprs import Expression, ExprError, parse_expression
from .fields import (
    _DECAY_DELTA,
    SampledField,
    _axis_phase,
    _gauss_rule,
    _memo,
    _require_decay,
    _unit_norm,
    axis_band_fraction,
    gaussian_packet,
)

__all__ = [
    "LieAlgebraData",
    "JumpData",
    "CrossSectionDescriptor",
    "algebra_violations",
    "threadlike_descriptor",
    "jump_indices",
    "pfaffian_sq",
    "nilpotent_w_profile",
    "nilpotent_plancherel_ratio",
    "nilpotent_uncertainty",
    "singular_band_fraction",
    "nilpotent_corpus",
    "descriptor_from_json",
    "load_descriptor_file",
    "validate_descriptor",
]

EPS_SINGULAR = 0.05
BAND_MASS_BUDGET = 0.005
_ALGEBRA_TOL = 1e-12  # structure-constant identities hold to this
_RANK_TOL = 1e-9  # singular values below it (relative to max(1, |B|)) count as zero
_RANK_GUARD = 100.0  # a singular value within this factor of the cut leaves the rank undecided
_VALIDATION_SEED, _VALIDATION_SAMPLES = 0, 25  # cross-section points validate_descriptor draws
_DATA_DIR = Path(__file__).resolve().parent / "data"
_BLOCK_BYTES = 16 * 2**20  # working memory of one np.einsum over a block of points or grid slices
_GRID_LETTERS = string.ascii_lowercase[:-1]  # einsum index of grid axis i
_POINT_LETTER = string.ascii_lowercase[-1]  # einsum index of the point axis


# ---------------------------------------------------------------------------
# Lie algebra data, jump indices, Pfaffian
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LieAlgebraData:
    """Structure constants c[i, j, k]: [X_i, X_j] = sum_k c[i,j,k] X_k (0-based)."""

    dim: int
    brackets: np.ndarray

    def __post_init__(self):
        c = np.ascontiguousarray(self.brackets, dtype=np.float64)
        if c.shape != (self.dim,) * 3:
            raise ValueError(f"structure constants must be ({self.dim},)*3, got {c.shape}")
        c.setflags(write=False)
        object.__setattr__(self, "brackets", c)

    def skew_form(self, xi: np.ndarray) -> np.ndarray:
        """B[i, j] = xi([X_i, X_j])."""
        return self.brackets @ np.asarray(xi, dtype=float)


def algebra_violations(lie: LieAlgebraData) -> list[str]:
    """Antisymmetry, Jacobi and strong-Malcev (c_{ij}^k = 0 for k >= j) checks."""
    out = []
    c = lie.brackets
    n = lie.dim
    if np.max(np.abs(c + np.swapaxes(c, 0, 1))) > _ALGEBRA_TOL:
        out.append("antisymmetry fails")
    jac = np.einsum("ijm,mkl->ijkl", c, c)
    jacobi = jac + np.einsum("jkm,mil->ijkl", c, c) + np.einsum("kim,mjl->ijkl", c, c)
    if np.max(np.abs(jacobi)) > _ALGEBRA_TOL:
        out.append("Jacobi identity fails")
    for i in range(n):
        for j in range(n):
            bad = np.nonzero(np.abs(c[i, j, j:]) > _ALGEBRA_TOL)[0]
            if bad.size:
                out.append(
                    f"not adapted to the ascending series: c[{i + 1},{j + 1}]^"
                    f"{j + 1 + bad[0]} != 0"
                )
    return out


@dataclass(frozen=True)
class JumpData:
    """Jump index set (1-based), its complement, and the skew matrix over it."""

    indices: tuple[int, ...]
    complement: tuple[int, ...]
    skew: np.ndarray


def _guarded_svd(mat: np.ndarray, cut: float) -> tuple[np.ndarray, np.ndarray]:
    """(singular values, V^H) of mat; raises IllConditionedError when a singular
    value lies within a factor _RANK_GUARD of ``cut``, where a rank is undecided."""
    _, s, vh = np.linalg.svd(mat)
    ambiguous = (s > cut / _RANK_GUARD) & (s < cut * _RANK_GUARD)
    if np.any(ambiguous):
        raise IllConditionedError(
            f"singular value {s[ambiguous][0]:.3e} sits inside the rank-decision "
            f"window around {cut:.1e}"
        )
    return s, vh


def jump_indices(lie: LieAlgebraData, xi) -> JumpData:
    """Jump set of xi: indices j where ker(B_xi) + span(X_1..X_j) grows.

    The rank decisions are guarded: singular values within a factor
    _RANK_GUARD of the threshold raise IllConditionedError instead of
    silently picking an orbit dimension.
    """
    xi = np.asarray(xi, dtype=float)
    n = lie.dim
    B = lie.skew_form(xi)
    cut = _RANK_TOL * max(1.0, float(np.max(np.abs(B))))
    s, vh = _guarded_svd(B, cut)
    kernel = vh[s <= cut].T
    ranks = []
    for j in range(n + 1):  # rank of ker(B_xi) + span(X_1..X_j)
        s_j, _ = _guarded_svd(np.hstack([kernel, np.eye(n)[:, :j]]), cut)
        ranks.append(int(np.sum(s_j > cut)))
    S = tuple(j for j in range(1, n + 1) if ranks[j] > ranks[j - 1])
    T = tuple(sorted(set(range(1, n + 1)) - set(S)))
    idx = np.array([j - 1 for j in S], dtype=int)
    return JumpData(S, T, B[np.ix_(idx, idx)])


def pfaffian_sq(jump: JumpData) -> float:
    """det of the skew matrix over the jump set; equals Pf(xi)^2."""
    k = len(jump.indices)
    if k == 0:
        raise ValueError("no jump indices: the orbit is a point, no Pfaffian")
    if k % 2 == 1:
        raise ValueError(f"odd jump set {jump.indices}: skew data is inconsistent")
    return float(np.linalg.det(jump.skew))


# ---------------------------------------------------------------------------
# cross-section descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrossSectionDescriptor:
    """Analytic data of one group's generic cross-section, held as expressions.

    ``pfaffian_expr`` and ``h_expr`` are expressions in xi1..xin;
    ``substitute_exprs`` holds one expression per slot 1..n in xi1..xin and
    t1..tk, where t_a fills the a-th vanishing slot (ascending).  The
    methods ``pfaffian(xi)``, ``h(xi)`` and ``substitute(xi, t)`` evaluate
    them on the embedded functional (length n, zeros at vanishing slots),
    which may carry trailing point axes since expressions broadcast.

    The shape of each substituted coordinate decides which t-axes its
    phase factor contracts over, so a coordinate constant in t should not
    be broadcast against t (correct, but slower).  ``bounds`` maps each
    non-vanishing slot to a tuple of (lo, hi) interval pieces of the
    integration box; the pieces already exclude the singular band.
    Substituted coordinates beyond the dual box contribute zero (the phase
    mask of ``fields._axis_phase``), not measured or budgeted.
    """

    n: int
    vanishing: tuple[int, ...]
    pfaffian_expr: Expression
    h_expr: Expression
    substitute_exprs: tuple[Expression, ...]
    bounds: dict[int, tuple[tuple[float, float], ...]]
    singular_axis: int | None = None
    label: str = "descriptor"

    def __post_init__(self):
        if not all(isinstance(j, numbers.Integral) for j in self.vanishing):
            raise ValueError(f"vanishing: {list(self.vanishing)} holds a non-integer slot")
        v = tuple(sorted(int(j) for j in self.vanishing))  # exact: every slot is integral
        if not v or v[0] < 1 or v[-1] > self.n or len(set(v)) != len(v):
            raise ValueError(f"vanishing: slots {self.vanishing} invalid for n={self.n}")
        object.__setattr__(self, "vanishing", v)
        if set(self.bounds) != set(self.cross_slots):
            raise ValueError(
                f"bounds: keys {sorted(self.bounds)} must be the cross-section slots "
                f"{list(self.cross_slots)}"
            )
        for slot, pieces in self.bounds.items():
            if not pieces or not all(-np.inf < lo < hi < np.inf for lo, hi in pieces):
                raise ValueError(f"bounds: slot {slot} pieces {pieces} need finite lo < hi")
        if self.singular_axis is not None and self.singular_axis not in self.cross_slots:
            raise ValueError(
                f"singular_axis: {self.singular_axis!r} is not a cross-section slot "
                f"{list(self.cross_slots)}"
            )
        if len(self.substitute_exprs) != self.n:
            raise ValueError(
                f"substitute: expected {self.n} expressions, got {len(self.substitute_exprs)}"
            )
        xi_names = {f"xi{i}" for i in range(1, self.n + 1)}
        t_names = {f"t{a}" for a in range(1, len(v) + 1)}
        keyed = [("pfaffian", self.pfaffian_expr, xi_names), ("h", self.h_expr, xi_names)]
        keyed += [
            (f"substitute {slot}", expr, xi_names | t_names)
            for slot, expr in enumerate(self.substitute_exprs, 1)
        ]
        for key, expr, allowed in keyed:
            unknown = expr.variable_names - allowed
            if unknown:
                raise ValueError(f"{key}: unknown variables {sorted(unknown)} in {expr.source!r}")

    @property
    def cross_slots(self) -> tuple[int, ...]:
        return tuple(j for j in range(1, self.n + 1) if j not in self.vanishing)

    def embed(self, xi_cross) -> np.ndarray:
        """Full functional in R^n from cross-section coordinates.

        ``xi_cross`` of shape (k,) gives shape (n,); stacked points of shape
        (P, k) give shape (n, P), one row per slot.
        """
        xi_cross = np.atleast_1d(np.asarray(xi_cross, dtype=float))
        if xi_cross.ndim > 2 or xi_cross.shape[-1] != len(self.cross_slots):
            raise ValueError(
                f"expected {len(self.cross_slots)} cross-section coordinates, "
                f"got {xi_cross.shape}"
            )
        xi = np.zeros((self.n,) + xi_cross.shape[:-1])
        xi[np.array(self.cross_slots) - 1] = np.moveaxis(xi_cross, -1, 0)
        return xi

    def _env(self, xi, t=()) -> dict:
        env = {f"xi{i + 1}": xi[i] for i in range(self.n)}
        env.update((f"t{a + 1}", arr) for a, arr in enumerate(t))
        return env

    def pfaffian(self, xi) -> np.ndarray:
        """Pf(xi), shaped like the point axes of xi."""
        return np.broadcast_to(self.pfaffian_expr(self._env(xi)), np.shape(xi)[1:])

    def h(self, xi) -> np.ndarray:
        """Weight h(xi), shaped like the point axes of xi."""
        return np.broadcast_to(self.h_expr(self._env(xi)), np.shape(xi)[1:])

    def substitute(self, xi, t) -> list:
        """The n coordinates where the Euclidean transform is evaluated.

        ``t`` holds one broadcastable array per vanishing slot; each
        coordinate keeps the shape its expression gives it.
        """
        env = self._env(xi, t)
        return [expr(env) for expr in self.substitute_exprs]


def threadlike_descriptor(n: int) -> CrossSectionDescriptor:
    """Built-in thread-like cross-section for n in {3, 4, 5}.

    Loaded from the shipped ``data/threadlike{n}.json`` through the same
    loader as user files.  Vanishing slots (2, n); Pf(xi) = xi_1; the
    files hold h = 1/xi_1 and the evaluation uses |h|; the substitution
    inserts t1 at slot 2, t2 at slot n and shifts slot j by
    Q_j = sum_{k>=1} t1^k xi_{j-k} / (k! xi_1^k) with xi_2 = 0.
    """
    if n not in (3, 4, 5):
        raise ValueError(f"thread-like descriptors are built in for n in {{3,4,5}}, got {n}")
    desc, _ = load_descriptor_file(_DATA_DIR / f"threadlike{n}.json")
    return desc


# ---------------------------------------------------------------------------
# HS-norm evaluation engine
# ---------------------------------------------------------------------------


def _largest_intermediate(subscripts, operands, path) -> int:
    """Elements of the largest array one np.einsum along ``path`` builds,
    the "Largest intermediate" of np.einsum_path's report."""
    inputs, output = subscripts.split("->")
    sizes = {}
    for term, op in zip(inputs.split(","), operands):
        for c, m in zip(term, op.shape):
            sizes[c] = max(sizes.get(c, 1), m)  # a length-1 axis broadcasts
    terms = [set(term) for term in inputs.split(",")]
    largest = 0
    for step in path[1:]:
        picked = set().union(*(terms[p] for p in step))
        terms = [t for p, t in enumerate(terms) if p not in step]
        terms.append(picked & set(output).union(*terms))  # indices still read later
        largest = max(largest, math.prod(sizes[c] for c in terms[-1]))
    return largest


def _slices_per_einsum(subscripts, operands, path, count: int) -> int:
    """Slices of a length-``count`` axis that one np.einsum along ``path``
    may take at once and keep its working memory within _BLOCK_BYTES.
    Every intermediate is charged as if it scaled with the sliced axis, and
    twice, because np.einsum may copy one into batched-matmul layout."""
    largest = _largest_intermediate(subscripts, operands, path)
    return max(1, _BLOCK_BYTES * count // (2 * 16 * largest))


def _t_letters(axes) -> str:
    """einsum indices of t-axes."""
    return "".join(string.ascii_uppercase[a] for a in axes)


class _HsEvaluator:
    """Evaluates the t-integral of hs2 at stacked cross-section points.

    Slot i's substituted coordinate, evaluated on the sparse t mesh, varies
    along some of the t-axes and, when its expression reads any xi, along
    the point axis; its phase factor exp(-2 pi i c x_i) carries exactly
    those axes plus grid axis i.  At construction the phases of slots that
    read no xi are folded into f one after another (a "base" array) where
    that does not make it larger; the others are kept.
    Points are then taken in blocks, one np.einsum per block that
    contracts the base with the slot phases one slot after another; the
    t-axes shared between slots and the point axis are batch indices.
    Every intermediate of a block grows linearly with its number of
    points, and the block size (like the slice count of the folding) keeps
    its working memory within _BLOCK_BYTES: memory does not grow with the
    number of points.
    """

    def __init__(self, f: SampledField, desc: CrossSectionDescriptor, t_nodes: int = 32):
        if f.has_group_axis:
            raise ValueError("nilpotent fields are spatial-only (exponential coordinates)")
        if f.grid.dim != desc.n:
            raise ValueError(f"field dimension {f.grid.dim} != descriptor n = {desc.n}")
        self.f = f
        self.desc = desc
        n_axes = len(desc.vanishing)
        self.t_sparse = []
        self.t_weights = np.ones((t_nodes,) * n_axes)
        for a, slot in enumerate(desc.vanishing):
            T = f.grid.dual_half_extents[slot - 1] * (1.0 - 1e-12)
            t, w = _gauss_rule([(-T, T)], t_nodes)
            shape = [1] * a + [t_nodes] + [1] * (n_axes - a - 1)
            self.t_sparse.append(t.reshape(shape))
            self.t_weights = self.t_weights * w.reshape(shape)
        xi_names = {f"xi{i}" for i in range(1, desc.n + 1)}
        self.reads_xi = [bool(e.variable_names & xi_names) for e in desc.substitute_exprs]
        grid = _GRID_LETTERS[: desc.n]
        env = desc._env(np.zeros(desc.n), self.t_sparse)
        terms, operands, kept, self.base_axes = [grid], [f.values], "", set()
        self.unfolded = {}  # slot -> (t-axes, phase) of xi-free phases kept out of the base
        for i, (expr, reads_xi) in enumerate(zip(desc.substitute_exprs, self.reads_xi)):
            if not reads_xi:
                axes, phase = self._phase(i, expr(env), per_point=False)
                if phase.size <= phase.shape[-1] ** 2:  # folding does not grow the base
                    terms.append(_t_letters(axes) + grid[i])
                    operands.append(phase)
                    self.base_axes.update(axes)
                    continue
                self.unfolded[i] = axes, phase
            kept += grid[i]
        self.base_sub = kept + _t_letters(sorted(self.base_axes))
        subscripts = ",".join(terms) + "->" + self.base_sub
        path = ["einsum_path", (0, 1)] + [(0, m) for m in range(len(operands) - 2, 0, -1)]
        if len(operands) == 1:  # nothing to fold
            self.base = f.values
        elif not kept:  # every slot folded: no slot reads xi
            self.base = np.einsum(subscripts, *operands, optimize=path)
        else:  # in slices of the first kept grid axis, the base's leading axis
            axis = grid.index(kept[0])
            count = f.grid.counts[axis]
            step = _slices_per_einsum(subscripts, operands, path, count)
            sizes = dict(zip(grid, f.grid.counts)) | dict.fromkeys(string.ascii_uppercase, t_nodes)
            self.base = np.empty([sizes[c] for c in self.base_sub], dtype=complex)
            for start in range(0, count, step):
                part = (slice(None),) * axis + (slice(start, start + step),)
                operands[0] = f.values[part]
                np.einsum(subscripts, *operands, optimize=path, out=self.base[start : start + step])
        self._block = None  # points per block

    def _phase(self, i: int, c, per_point: bool):
        """(t-axes c varies along, phase over (point axis +) those axes x grid axis i)."""
        mesh = self.t_weights.shape
        c = np.asarray(c, dtype=float)
        lead = int(per_point)
        dims = (1,) * (lead + len(mesh) - c.ndim) + c.shape
        axes = [a for a, m in enumerate(dims[lead:]) if m > 1]
        c = c.reshape(dims[:lead] + tuple(mesh[a] for a in axes))  # drop the constant t-axes
        return axes, _axis_phase(self.f.grid, i, c, -1.0)

    def _contraction(self, points):
        """(subscripts, operands, path, t-axes of the result) contracting the
        base with the unfolded phases at stacked points (P, k), one slot
        after another."""
        xi = self.desc.embed(points)
        env = self.desc._env(xi.reshape(xi.shape + (1,) * self.t_weights.ndim), self.t_sparse)
        terms, operands, present = [], [], set(self.base_axes)
        for i, (expr, reads_xi) in enumerate(zip(self.desc.substitute_exprs, self.reads_xi)):
            if reads_xi:
                axes, phase = self._phase(i, expr(env), per_point=True)
                terms.append(_POINT_LETTER + _t_letters(axes) + _GRID_LETTERS[i])
            elif i in self.unfolded:
                axes, phase = self.unfolded[i]
                terms.append(_t_letters(axes) + _GRID_LETTERS[i])
            else:
                continue
            operands.append(phase)
            present.update(axes)
        if not any(self.reads_xi):  # the same t-integrand at every point
            terms.append(_POINT_LETTER)
            operands.append(np.ones(len(points)))
        present = sorted(present)
        terms.append(self.base_sub)
        operands.append(self.base)
        subscripts = ",".join(terms) + "->" + _POINT_LETTER + _t_letters(present)
        # each step contracts the first phase left with the running result, the last operand
        path = ["einsum_path"] + [(0, m) for m in range(len(operands) - 1, 0, -1)]
        return subscripts, operands, path, present

    def _block_size(self, points) -> int:
        """Points per block, sized once at the first point."""
        if self._block is None:
            subscripts, operands, path, _ = self._contraction(points[:1])
            self._block = _slices_per_einsum(subscripts, operands, path, 1)
        return self._block

    def integrand(self, points) -> np.ndarray:
        """|F(f o exp)(substitute(xi, t))|^2 at stacked points (P, k), shape
        (P, *t mesh), in one contraction (no blocking)."""
        mesh = self.t_weights.shape
        subscripts, operands, path, present = self._contraction(points)
        amp = np.einsum(subscripts, *operands, optimize=path)
        dens = np.abs(amp) ** 2 * self.f.grid.cell_volume**2
        shape = [mesh[a] if a in present else 1 for a in range(len(mesh))]
        return np.broadcast_to(dens.reshape([len(points)] + shape), (len(points),) + mesh)

    def t_integrals(self, points) -> np.ndarray:
        """int |F(f o exp)(substitute(xi, t))|^2 dt per point, by the tensor
        Gauss rule, one block of points at a time."""
        points = np.asarray(points, dtype=float)
        out = np.empty(len(points))
        if len(points) == 0:
            return out
        step = self._block_size(points)
        for start in range(0, len(points), step):
            dens = self.integrand(points[start : start + step]) * self.t_weights
            out[start : start + step] = dens.reshape(len(dens), -1).sum(axis=1)
        return out


# ---------------------------------------------------------------------------
# cross-section quadrature, Plancherel, uncertainty
# ---------------------------------------------------------------------------


def _w_nodes(desc: CrossSectionDescriptor, f: SampledField, nodes_per_interval: int):
    """Per-coordinate (nodes, weights), bounds clipped to the dual box."""
    out = []
    for slot in desc.cross_slots:
        edge = f.grid.dual_half_extents[slot - 1] * (1 - 1e-12)
        pieces = [(max(lo, -edge), min(hi, edge)) for lo, hi in desc.bounds[slot]]
        pieces = [(lo, hi) for lo, hi in pieces if hi > lo]
        if not pieces:
            raise ValueError(f"slot {slot}: integration bounds fall outside the dual box")
        out.append(_gauss_rule(pieces, nodes_per_interval))
    return out


def nilpotent_w_profile(
    f: SampledField,
    desc: CrossSectionDescriptor,
    w_nodes: int = 20,
    t_nodes: int = 32,
):
    """(points, weights, hs2 values) over the cross-section quadrature grid.

    Points are the tensor product of per-coordinate Gauss-Legendre nodes,
    leading coordinate outermost, stacked as a (P, k) array.  Nodes with
    |Pf(xi)| <= EPS_SINGULAR are dropped; the shipped descriptors' bounds
    leave the same gap, so their rules lose no node to it.
    """
    evaluator = _HsEvaluator(f, desc, t_nodes)
    per_coord = _w_nodes(desc, f, w_nodes)
    k = len(per_coord)
    points = np.stack(np.meshgrid(*(nc for nc, _ in per_coord), indexing="ij"), axis=-1)
    weights = np.stack(np.meshgrid(*(wc for _, wc in per_coord), indexing="ij"), axis=-1)
    points, weights = points.reshape(-1, k), np.prod(weights.reshape(-1, k), axis=1)
    xi = desc.embed(points)
    keep = np.abs(desc.pfaffian(xi)) > EPS_SINGULAR
    integrals = evaluator.t_integrals(points[keep])
    return points[keep], weights[keep], np.abs(desc.h(xi[:, keep])) * integrals


def singular_band_fraction(f: SampledField, desc: CrossSectionDescriptor) -> float | None:
    """Spectral mass of f inside the excluded band |xi| < EPS_SINGULAR on
    the descriptor's singular axis; None when it designates none.  The
    shipped descriptors' bounds leave the same gap."""
    if desc.singular_axis is None:
        return None
    return axis_band_fraction(f, desc.singular_axis - 1, EPS_SINGULAR)


def _plancherel_guard(f: SampledField, desc) -> float:
    norm_sq = _nonzero_norm_sq(f)
    _require_decay(f, "field has not decayed at the box boundary")
    band = singular_band_fraction(f, desc)
    if band is not None and band >= BAND_MASS_BUDGET:
        raise SingularBandError(
            f"spectral mass {band:.3e} inside |Pf| <= {EPS_SINGULAR} exceeds the "
            f"{BAND_MASS_BUDGET:.1%} budget",
            excluded_mass=band,
        )
    return norm_sq


def _profile(f: SampledField, desc, w_nodes: int, t_nodes: int, profile):
    """``profile`` once its shapes agree, or with None the default profile,
    computed once per field, descriptor object and (w_nodes, t_nodes)."""
    if profile is None:
        # the entry holds desc, so its id cannot be reused while the entry lives
        key = ("w_profile", id(desc), w_nodes, t_nodes)
        return _memo(f, key, lambda: (desc, nilpotent_w_profile(f, desc, w_nodes, t_nodes)))[1]
    points, weights, values = profile
    p, k = np.size(values), len(desc.cross_slots)
    shapes = (np.shape(points), np.shape(weights), np.shape(values))
    if shapes != ((p, k), (p,), (p,)):
        raise ValueError(
            f"profile: points, weights and values have shapes {shapes}; they need "
            f"(P, {k}), (P,) and (P,), one row per point and {k} cross-section coordinates"
        )
    return profile


def nilpotent_plancherel_ratio(
    f: SampledField,
    desc: CrossSectionDescriptor,
    w_nodes: int = 20,
    t_nodes: int = 32,
    profile=None,
) -> float:
    """(int_W hs2(xi) |Pf(xi)| dxi) / ||f||_2^2; tends to 1 for the built-ins.

    Fields carrying >= 0.5% of their spectral mass inside the excluded
    band are rejected with the excluded mass attached to the error.  With
    ``profile=None`` the HS-profile is computed once per field, descriptor
    object and (w_nodes, t_nodes), and later calls reuse it; a given
    ``profile=`` (from ``nilpotent_w_profile``) needs P points of
    ``len(desc.cross_slots)`` coordinates and P weights and values
    (ValueError otherwise).
    """
    norm_sq = _plancherel_guard(f, desc)
    points, weights, values = _profile(f, desc, w_nodes, t_nodes, profile)
    pf = np.abs(desc.pfaffian(desc.embed(points)))
    return float(np.sum(weights * values * pf)) / norm_sq


def nilpotent_uncertainty(
    f: SampledField,
    desc: CrossSectionDescriptor,
    spec,
    w_nodes: int = 20,
    t_nodes: int = 32,
    profile=None,
) -> UncertaintyTerms:
    """Uncertainty product on the group, momentum side over the cross-section.

    momentum^(2b) = int_W |xi|^{2b} hs2(xi) / (|h|^b |Pf|^{b-1}) dxi with
    |xi| the Euclidean norm of the cross-section point (vanishing slots
    contribute zero); position side is the Euclidean moment in exponential
    coordinates; lhs = ||f||^{1/a + 1/b} / (4 pi).  That integral is the
    momentum moment passed on, and 4 pi the lhs divisor.  ``profile``
    works as in ``nilpotent_plancherel_ratio``: with None the HS-profile is
    computed once per field, descriptor object and (w_nodes, t_nodes), and
    shared by the Plancherel ratio and every (a, b).
    """
    norm_sq = _plancherel_guard(f, desc)
    points, weights, values = _profile(f, desc, w_nodes, t_nodes, profile)
    xi = desc.embed(points)
    pf = np.abs(desc.pfaffian(xi))
    habs = np.abs(desc.h(xi))
    r2b = np.sum(xi**2, axis=0) ** spec.b
    momentum = float(np.sum(weights * r2b * values / (habs**spec.b * pf ** (spec.b - 1.0))))
    # not memoised: a faster sweep lets a third 10 s bench pass add 95 failures (ROADMAP item 1)
    position = checked_moment(f, 2.0 * spec.a, "position")
    return _uncertainty_terms(spec, norm_sq, position, momentum, 4.0 * np.pi)


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


def nilpotent_corpus(grid, seed: int, count: int) -> list[SampledField]:
    """Seeded corpus with dual energy pushed away from the singular band.

    Alternates packets modulated along the first axis (dual centre near
    +-1) with first-axis Hermite packets (odd members; dual density
    vanishing at xi_1 = 0).  The modulated packets keep the spectral mass
    in |xi_1| < 0.05 far below the 0.5% budget.  The Hermite members do
    not: they carry about 0.70% band mass, so the Plancherel guard rejects
    every one of them with SingularBandError (or DecayError first where
    the boundary decay exceeds 1e-10).  Raises DecayError when the grid
    cannot support the required margins.
    """
    rng = np.random.default_rng(seed)
    L = grid.half_extents
    W = grid.dual_half_extents
    w_hi = (L[0] - 0.2) / _DECAY_DELTA
    alpha = min(1.0, W[0] - _DECAY_DELTA / w_hi)
    w_lo = _DECAY_DELTA / (W[0] - alpha)
    if w_lo > w_hi or alpha < 0.6:
        raise DecayError(
            f"grid (extents {L}, counts {grid.counts}) too coarse for a "
            "band-avoiding corpus"
        )
    width_ranges = []  # (lo, hi) of the width on axes 1.., checked before any draw
    for a in range(1, grid.dim):
        w_hi_a = (L[a] - 0.2) / _DECAY_DELTA
        w_lo_a = _DECAY_DELTA / (W[a] - 0.25) if W[a] > 0.25 else np.inf
        if w_lo_a > w_hi_a:
            raise DecayError(
                f"axis {a} of the grid (extent {L[a]}, {grid.counts[a]} points) is too "
                f"coarse for the corpus margins: width {w_lo_a:.3g} > {w_hi_a:.3g}"
            )
        width_ranges.append((w_lo_a, min(w_hi_a, 1.3 * w_lo_a)))
    out = []
    for i in range(count):
        widths = [rng.uniform(w_lo, w_hi)]
        centers = [rng.uniform(-0.2, 0.2)]
        mods = [rng.choice([-1.0, 1.0]) * rng.uniform(0.9 * alpha, alpha)]
        for lo, hi in width_ranges:
            widths.append(rng.uniform(lo, hi))
            centers.append(rng.uniform(-0.2, 0.2))
            mods.append(rng.uniform(-0.25, 0.25))
        if i % 2:  # odd members: unmodulated first-axis Hermite packets
            mods[0] = 0.0
        f = gaussian_packet(grid, centers, widths, mods, hermite_axis=0, hermite_degree=i % 2)
        out.append(_unit_norm(f))
    return out


# ---------------------------------------------------------------------------
# descriptor definition files
# ---------------------------------------------------------------------------


_DESCRIPTOR_FORMAT = {  # read by _jsonfile.check
    "schema?": 1,
    "name?": "string",
    "n": "integer",
    "vanishing": ["integer"],
    "pfaffian": "string",
    "h": "string",
    "substitute?": {"*": "string"},
    "bounds": {"*": [["finite number", "finite number"]]},
    "singular_axis?": "integer or null",
    "structure_constants?": [["integer", "integer", "integer", "finite number"]],
}


def _parse(key: str, text: str) -> Expression:
    """parse_expression(text); its error, position and all, gets the key in front."""
    try:
        return parse_expression(text)
    except ExprError as exc:
        raise ValueError(f"{key}: {exc}") from None


def descriptor_from_json(data: dict) -> tuple[CrossSectionDescriptor, LieAlgebraData | None]:
    """Build a descriptor (and optional algebra) from its JSON dict, laid
    out as ``_DESCRIPTOR_FORMAT`` says.

    Expressions use variables xi1..xin and t1..tk (t_a fills the a-th
    vanishing slot, ascending).  Substitute entries may be omitted: a
    vanishing slot defaults to its t variable, any other slot to its xi.
    Raises ValueError naming the key when the file does not fit that
    format, on an expression that does not parse, and on slots, variables,
    bounds pieces or structure-constant indices that do not fit the
    descriptor.
    """
    check(data, _DESCRIPTOR_FORMAT)
    n = data["n"]
    vanishing = tuple(sorted(data["vanishing"]))
    slots = {str(slot): slot for slot in range(1, n + 1)}
    for key in ("substitute", "bounds"):
        stray = sorted(set(data.get(key, {})) - set(slots))
        if stray:
            raise ValueError(f"{key}: keys {stray} are not slots 1..{n}")
    text = {key: f"xi{slot}" for key, slot in slots.items()}
    text |= {str(slot): f"t{a}" for a, slot in enumerate(vanishing, 1)} | data.get("substitute", {})
    substitute = tuple(_parse(f"substitute {key}", text[key]) for key in slots)
    bounds = {slots[key]: tuple(map(tuple, pieces)) for key, pieces in data["bounds"].items()}
    algebra = None
    if "structure_constants" in data:
        c = np.zeros((n, n, n))
        for *indices, value in data["structure_constants"]:
            if not all(1 <= s <= n for s in indices):
                raise ValueError(f"structure_constants: indices {indices} are not in 1..{n}")
            i, j, k = (s - 1 for s in indices)
            c[i, j, k], c[j, i, k] = value, -value
        algebra = LieAlgebraData(n, c)
    desc = CrossSectionDescriptor(
        n=n,
        vanishing=vanishing,
        pfaffian_expr=_parse("pfaffian", data["pfaffian"]),
        h_expr=_parse("h", data["h"]),
        substitute_exprs=substitute,
        bounds=bounds,
        singular_axis=data.get("singular_axis"),
        label=data.get("name", "descriptor"),
    )
    return desc, algebra


def load_descriptor_file(path) -> tuple[CrossSectionDescriptor, LieAlgebraData | None]:
    """Read a descriptor file; a ValueError from ``descriptor_from_json`` or
    the JSON parser gets the path in front."""
    return load(path, descriptor_from_json)


def validate_descriptor(
    desc: CrossSectionDescriptor, algebra: LieAlgebraData | None = None
) -> list[str]:
    """Sampled invariant checks; returns violation messages (empty = valid).

    With algebra data present, the descriptor's Pfaffian is cross-checked
    against det M_S(xi) from the structure constants and the jump set
    against the vanishing slots, at sampled cross-section points.
    """
    report = []
    rng = np.random.default_rng(_VALIDATION_SEED)
    if algebra is not None:
        report.extend(algebra_violations(algebra))
        if algebra.dim != desc.n:
            report.append(f"algebra dimension {algebra.dim} != descriptor n {desc.n}")
    n_axes = len(desc.vanishing)
    for _ in range(_VALIDATION_SAMPLES):
        xi_cross = np.array(
            [rng.uniform(*desc.bounds[slot][rng.integers(len(desc.bounds[slot]))])
             for slot in desc.cross_slots]
        )
        xi = desc.embed(xi_cross)
        pf = float(desc.pfaffian(xi))
        if not np.isfinite(pf) or pf == 0.0:
            report.append(f"pfaffian vanishes at {xi_cross}")
            continue
        if not np.isfinite(float(desc.h(xi))) or float(desc.h(xi)) == 0.0:
            report.append(f"h vanishes at {xi_cross}")
        t_a = [rng.uniform(-1.0, 1.0, size=4) for _ in range(n_axes)]
        sparse = [
            arr.reshape([1] * a + [4] + [1] * (n_axes - a - 1)) for a, arr in enumerate(t_a)
        ]
        coords = desc.substitute(xi, sparse)
        pts = np.stack([np.broadcast_to(c, (4,) * n_axes).ravel() for c in coords], axis=-1)
        dists = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        np.fill_diagonal(dists, np.inf)
        if dists.min() < 1e-12:
            report.append(f"substitute is not injective in t at {xi_cross}")
        if algebra is not None:
            try:
                jump = jump_indices(algebra, xi)
            except IllConditionedError as exc:
                report.append(f"jump computation flagged at {xi_cross}: {exc}")
                continue
            if set(jump.indices) != set(desc.vanishing):
                report.append(
                    f"jump set {jump.indices} != vanishing slots {desc.vanishing} at {xi_cross}"
                )
                continue
            det = pfaffian_sq(jump)
            if abs(det - pf**2) > 1e-10 * max(1.0, pf**2):
                report.append(
                    f"pfaffian mismatch at {xi_cross}: det M_S = {det}, descriptor^2 = {pf**2}"
                )
    return report
