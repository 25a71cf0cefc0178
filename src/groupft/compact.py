"""Compact factors K: finite groups with explicit irreps, and the circle.

Haar measure is normalised to total mass 1 on every K, so the Plancherel
identity on K reads

    sum_sigma d_sigma ||phihat(sigma)||_HS^2 = (1/|K|) sum_k |phi(k)|^2,
    phihat(sigma) = (1/|K|) sum_k phi(k) sigma(k^{-1}).

Irreps are shipped as explicit unitary matrices (never reconstructed from
character theory), which keeps every invariant exhaustively checkable.
The circle carries the character basis e^{i m theta}, |m| <= M, sampled
at 2M+1 uniform points where the discrete orthogonality is exact.

Group definition files are JSON; see ``group_to_json`` for the exact
layout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FiniteGroupData",
    "CircleDual",
    "cyclic_group",
    "symmetric_group_3",
    "builtin_group",
    "validate_group",
    "k_plancherel_defect",
    "group_to_json",
    "group_from_json",
    "load_group_file",
]

UNITARITY_TOL = 1e-12


@dataclass(frozen=True)
class FiniteGroupData:
    """A finite group with multiplication table and explicit unitary irreps.

    Elements are labelled 0..order-1 with identity 0.  ``irreps`` maps each
    irrep to an array of shape (order, d, d): the matrix of every element.
    """

    name: str
    table: np.ndarray  # (order, order) int
    irreps: tuple[np.ndarray, ...]

    def __post_init__(self):
        table = np.ascontiguousarray(self.table, dtype=np.int64)
        table.setflags(write=False)
        object.__setattr__(self, "table", table)
        mats = []
        for m in self.irreps:
            m = np.ascontiguousarray(m, dtype=np.complex128)
            if m.ndim != 3 or m.shape[0] != self.order or m.shape[1] != m.shape[2]:
                raise ValueError(f"irrep array has shape {m.shape}, expected (|K|, d, d)")
            m.setflags(write=False)
            mats.append(m)
        object.__setattr__(self, "irreps", tuple(mats))

    @property
    def order(self) -> int:
        return self.table.shape[0]

    @property
    def irrep_dims(self) -> tuple[int, ...]:
        return tuple(m.shape[1] for m in self.irreps)

    @property
    def haar_weights(self) -> np.ndarray:
        return np.full(self.order, 1.0 / self.order)

    def inverses(self) -> np.ndarray:
        inv = np.full(self.order, -1, dtype=np.int64)
        for g in range(self.order):
            hits = np.nonzero(self.table[g] == 0)[0]
            if hits.size != 1:
                raise ValueError(f"element {g} has {hits.size} inverses")
            inv[g] = hits[0]
        return inv

    def entry_kernel(self) -> np.ndarray:
        """(|K|, sum d^2) matrix whose row k lists the entries of sigma(k^{-1}),
        irrep by irrep, each d x d block in row-major order."""
        inv = self.inverses()
        return np.concatenate([m[inv].reshape(self.order, -1) for m in self.irreps], axis=1)


@dataclass(frozen=True)
class CircleDual:
    """Truncated dual of SO(2): characters e^{i m theta}, |m| <= truncation.

    Sampled on 2M+1 uniform points with normalised Haar weights, where the
    characters are exactly orthonormal (discrete Fourier orthogonality).
    """

    truncation: int

    def __post_init__(self):
        if self.truncation < 1:
            raise ValueError(f"truncation must be >= 1, got {self.truncation}")

    @property
    def order(self) -> int:
        return 2 * self.truncation + 1

    @property
    def thetas(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.order) / self.order

    @property
    def haar_weights(self) -> np.ndarray:
        return np.full(self.order, 1.0 / self.order)

    @property
    def irrep_dims(self) -> tuple[int, ...]:
        return (1,) * self.order

    def entry_kernel(self) -> np.ndarray:
        """(samples, modes) matrix sigma_m(theta_k^{-1}) = e^{-i m theta_k}."""
        modes = np.arange(-self.truncation, self.truncation + 1)
        return np.exp(-1j * np.outer(self.thetas, modes))


# ---------------------------------------------------------------------------
# built-in groups
# ---------------------------------------------------------------------------


def cyclic_group(n: int = 4) -> FiniteGroupData:
    """Z_n with its n one-dimensional characters chi_k(m) = e^{2 pi i km/n}."""
    table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    irreps = []
    for k in range(n):
        chars = np.exp(2j * np.pi * k * np.arange(n) / n)
        irreps.append(chars.reshape(n, 1, 1))
    return FiniteGroupData(f"z{n}", table, tuple(irreps))


def symmetric_group_3() -> FiniteGroupData:
    """S_3 as the dihedral group of the triangle: irrep dims (1, 1, 2).

    Elements 0..5 are e, r, r^2, s, sr, sr^2 with r the rotation by 2 pi/3
    and s a reflection; the table comes from composing the underlying
    permutations of {0,1,2}, the 2-dim irrep from the rotation/reflection
    matrices themselves.
    """
    r = (1, 2, 0)
    s = (0, 2, 1)

    def compose(p, q):  # (p o q)(i) = p[q[i]]
        return tuple(p[q[i]] for i in range(3))

    perms = [(0, 1, 2), r, compose(r, r)]
    perms += [compose(s, p) for p in perms[:3]]
    index = {p: i for i, p in enumerate(perms)}
    table = np.array([[index[compose(p, q)] for q in perms] for p in perms])

    rot = lambda t: np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    ref = np.diag([1.0, -1.0])
    two_dim = [np.eye(2), rot(2 * np.pi / 3), rot(4 * np.pi / 3)]
    two_dim += [ref @ m for m in two_dim[:3]]

    trivial = np.ones((6, 1, 1), dtype=complex)
    sign = np.array([1, 1, 1, -1, -1, -1], dtype=complex).reshape(6, 1, 1)
    standard = np.stack(two_dim).astype(complex)
    return FiniteGroupData("s3", table, (trivial, sign, standard))


_BUILTINS = {"z4": lambda: cyclic_group(4), "s3": symmetric_group_3}


def builtin_group(name: str) -> FiniteGroupData:
    try:
        return _BUILTINS[name.lower()]()
    except KeyError:
        raise ValueError(f"unknown built-in group {name!r}; have {sorted(_BUILTINS)}") from None


# ---------------------------------------------------------------------------
# validation and Plancherel
# ---------------------------------------------------------------------------


def validate_group(K: FiniteGroupData) -> list[str]:
    """Exhaustive invariant check; returns violation messages (empty = valid)."""
    report = []
    n = K.order
    t = K.table
    if t.shape != (n, n) or t.min() < 0 or t.max() >= n:
        return [f"table is not an {n}x{n} array over 0..{n - 1}"]
    if not (np.all(t[0] == np.arange(n)) and np.all(t[:, 0] == np.arange(n))):
        report.append("label 0 is not the identity")
    for g in range(n):
        if len(set(t[g])) != n or len(set(t[:, g])) != n:
            report.append(f"table row/column {g} is not a permutation")
    try:
        K.inverses()
    except ValueError as exc:
        report.append(str(exc))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if t[t[a, b], c] != t[a, t[b, c]]:
                    report.append(f"associativity fails at ({a},{b},{c})")
                    break
            else:
                continue
            break
    for idx, mats in enumerate(K.irreps):
        d = mats.shape[1]
        eye = np.eye(d)
        for g in range(n):
            if np.max(np.abs(mats[g] @ mats[g].conj().T - eye)) > UNITARITY_TOL:
                report.append(f"irrep {idx}: matrix of element {g} is not unitary")
        for a in range(n):
            for b in range(n):
                if np.max(np.abs(mats[t[a, b]] - mats[a] @ mats[b])) > 1e-10:
                    report.append(f"irrep {idx}: not a homomorphism at ({a},{b})")
                    break
            else:
                continue
            break
    if sum(d * d for d in K.irrep_dims) != n:
        report.append(
            f"completeness fails: sum d^2 = {sum(d * d for d in K.irrep_dims)} != |K| = {n}"
        )
    return report


def _entry_weights(K: FiniteGroupData | CircleDual) -> np.ndarray:
    """Plancherel weight d_sigma of every column of ``K.entry_kernel()``."""
    return np.repeat(np.asarray(K.irrep_dims, dtype=np.float64), np.square(K.irrep_dims))


def k_plancherel_defect(K: FiniteGroupData | CircleDual, phi) -> float:
    """| sum_sigma d_sigma ||phihat(sigma)||_HS^2  -  ||phi||_2^2 | on K."""
    phi = np.asarray(phi, dtype=np.complex128)
    if isinstance(K, FiniteGroupData) and validate_group(K):
        raise ValueError("invalid group data")
    if phi.shape != (K.order,):
        raise ValueError(f"phi must have shape ({K.order},)")
    w = K.haar_weights
    dual_side = _entry_weights(K) @ np.abs((phi * w) @ K.entry_kernel()) ** 2
    return abs(float(dual_side) - float(np.sum(w * np.abs(phi) ** 2)))


# ---------------------------------------------------------------------------
# JSON group files
# ---------------------------------------------------------------------------


def group_to_json(K: FiniteGroupData) -> dict:
    """Bit-exact JSON layout: complex entries as [re, im] pairs.

    {
      "name": str,
      "order": int,
      "table": [[int, ...], ...],                     # row g, column h -> g*h
      "irreps": [{"dim": d, "matrices": [...]}, ...]  # matrices[k][i][j] = [re, im]
    }
    """
    irreps = []
    for mats in K.irreps:
        entries = np.stack([mats.real, mats.imag], axis=-1)
        irreps.append({"dim": int(mats.shape[1]), "matrices": entries.tolist()})
    return {"name": K.name, "order": K.order, "table": K.table.tolist(), "irreps": irreps}


def _integers(value, label: str) -> np.ndarray:
    """value as int64; ValueError naming ``label`` on an entry that is not a JSON integer."""
    raw = np.asarray(value, dtype=object)
    bad = [v for v in raw.flat if isinstance(v, bool) or not isinstance(v, int)]
    if bad:
        raise ValueError(f"{label}: {bad[0]!r} is not an integer")
    return raw.astype(np.int64)


def group_from_json(data: dict) -> FiniteGroupData:
    """Build a group from its JSON dict (layout in ``group_to_json``).

    Raises ValueError naming the key when a key is missing, when ``order``,
    an irrep ``dim`` or a table entry is not an integer, and when an irrep's
    matrices do not have the shape ``order`` and ``dim`` give.
    """
    try:
        order = int(_integers(data["order"], "order"))
        table = _integers(data["table"], "table")
        irreps = []
        for i, item in enumerate(data["irreps"]):
            dim = int(_integers(item["dim"], f"irreps[{i}].dim"))
            raw = np.asarray(item["matrices"], dtype=np.float64)
            if raw.shape != (order, dim, dim, 2):
                raise ValueError(f"irreps[{i}].matrices: shape {raw.shape} does not fit")
            irreps.append(raw[..., 0] + 1j * raw[..., 1])
    except KeyError as exc:
        raise ValueError(f"{exc.args[0]}: missing") from None
    return FiniteGroupData(str(data.get("name", "user")), table, tuple(irreps))


def load_group_file(path) -> FiniteGroupData:
    """Read a group file; a ValueError from ``group_from_json`` or the JSON
    parser gets the path in front."""
    with open(path) as fh:
        try:
            return group_from_json(json.load(fh))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
