"""Compact factors K: finite groups with explicit irreps, and the circle.

Haar measure is normalised to total mass 1 on every K, so the Plancherel
identity on K reads

    sum_sigma d_sigma ||phihat(sigma)||_HS^2 = (1/|K|) sum_k |phi(k)|^2,
    phihat(sigma) = (1/|K|) sum_k phi(k) sigma(k^{-1}).

Irreps are shipped as explicit unitary matrices (never reconstructed from
character theory), which keeps every invariant exhaustively checkable.
The circle carries the character basis e^{i m theta}, |m| <= M, sampled
at 2M+1 uniform points where the discrete orthogonality is exact.

Group definition files are JSON, laid out as ``_GROUP_FORMAT`` says; the
built-in groups are such files in ``data/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._jsonfile import check, load

__all__ = [
    "FiniteGroupData",
    "CircleDual",
    "builtin_group",
    "validate_group",
    "group_from_json",
    "load_group_file",
]

UNITARITY_TOL = 1e-12
_DATA_DIR = Path(__file__).resolve().parent / "data"


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


# ---------------------------------------------------------------------------
# JSON group files
# ---------------------------------------------------------------------------


_GROUP_FORMAT = {  # read by _jsonfile.check
    "name?": "string",
    "order": "integer",
    "table": [["integer"]],
    "irreps": [{"dim": "integer", "matrices": [[[["finite number", "finite number"]]]]}],
}


def _array(value, dtype, shape, label: str) -> np.ndarray:
    """value as an array of ``shape``; ValueError naming ``label`` otherwise."""
    try:
        arr = np.asarray(value, dtype=dtype)
    except (ValueError, OverflowError) as exc:  # ragged nesting, or beyond int64
        raise ValueError(f"{label}: {exc}") from None
    if arr.shape != shape:
        raise ValueError(f"{label}: shape {arr.shape} does not fit {shape}")
    return arr


def group_from_json(data: dict) -> FiniteGroupData:
    """Build a group from its JSON dict, laid out as ``_GROUP_FORMAT`` says:
    table row g, column h holds g*h, and matrices[k][i][j] = [re, im].

    Raises ValueError naming the key when the file does not fit that format
    and when the table or an irrep's matrices do not have the shape
    ``order`` and ``dim`` give.
    """
    check(data, _GROUP_FORMAT)
    order = data["order"]
    table = _array(data["table"], np.int64, (order, order), "table")
    irreps = []
    for i, item in enumerate(data["irreps"]):
        shape = (order, item["dim"], item["dim"], 2)
        raw = _array(item["matrices"], np.float64, shape, f"irreps[{i}].matrices")
        irreps.append(raw[..., 0] + 1j * raw[..., 1])
    return FiniteGroupData(data.get("name", "user"), table, tuple(irreps))


def load_group_file(path) -> FiniteGroupData:
    """Read a group file; a ValueError from ``group_from_json`` or the JSON
    parser gets the path in front."""
    return load(path, group_from_json)


def builtin_group(name: str) -> FiniteGroupData:
    """Built-in finite group "s3" (irrep dims 1, 1, 2) or "z4", any case, loaded
    from the shipped ``data/{name}.json`` through the same loader as user files."""
    if name.lower() not in ("s3", "z4"):
        raise ValueError(f"unknown built-in group {name!r}; have ['s3', 'z4']")
    return load_group_file(_DATA_DIR / f"{name.lower()}.json")
