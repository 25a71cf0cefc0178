"""The three benchmark workloads: set-up, one sweep pass and the single check.

A sweep or single check is a generator that yields a label at the end of
each unit of work (one corpus, one field's checks, one call), so run.py
can time units separately.  Every call into groupft goes through a module
attribute (``fields.euclidean_ft``, never a from-import of the function),
so the traced run, which rebinds those attributes, sees each call.  Why
each workload exists is in README.md beside this file.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

from groupft import compact, errors, euclidean, fields, motion, nilpotent, product

DATA = Path(__file__).resolve().parent / "data"

LATTICE = tuple(fields.MomentSpec(a, b) for a in (1, 2) for b in (1, 2))
RATIO_FLOOR = 1.0 - 1e-4  # uncertainty ratios below this break the inequality (test tolerance)
UNIT_TOL = 1e-12  # R^n and R^n x K Plancherel ratios equal 1 to this
KAPPA = 2.0 * math.pi  # motion-group Plancherel constant in groupft's convention
KAPPA_TOL = 1e-6
SAME_TOL = 1e-12  # single-check Plancherel ratio vs the sweep's, same field
DIGITS_FLOOR = 1e-12  # caps plancherel_digits at 12

EUCLID_FIELDS = 6  # per corpus: R^1, R^2, R^3, R^2 x S3, R^2 x circle
DILATION_SCALES = (0.8, 0.9, 1.1, 1.25)
MOTION_FIELDS = 8
MOTION_M = 16
MOTION_THETA = 128
NIL3_FIELDS = 36
NIL4_FIELDS = 2
NIL4_NODES = (8, 16)  # (w, t): affordable but not converged, see README.md


class SetupError(RuntimeError):
    """A shipped group or descriptor file failed validation."""


class Tally:
    """Every check of a run: the number it produced or the error it raised.

    A check fails when it raises a typed GroupFTError or gives an
    uncertainty ratio below RATIO_FLOOR.  A completed check whose number
    is wrong (a ratio under the floor, a Plancherel ratio off its
    constant) is also listed in ``wrong``, which makes the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.numbers: dict[str, float] = {}
        self.errors: dict[str, str] = {}
        self.digits: list[float] = []
        self.wrong: list[str] = []

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def _fail(self, label, exc, count=1):
        self.failed += count
        self.errors[label] = type(exc).__name__

    def _ratio(self, label, ratio):
        self.numbers[label] = ratio
        if not ratio >= RATIO_FLOOR:
            self.failed += 1
            self.wrong.append(f"{label}: uncertainty ratio {ratio!r} < {RATIO_FLOOR}")

    def plancherel(self, label, call: Callable[[], float], kappa=1.0, tol=None):
        self.attempted += 1
        try:
            ratio = float(call())
        except errors.GroupFTError as exc:
            self._fail(label, exc)
            return
        self.numbers[label] = ratio
        defect = abs(ratio / kappa - 1.0)
        if not np.isfinite(ratio) or ratio <= 0.0 or (tol is not None and defect > tol):
            self.wrong.append(f"{label}: Plancherel ratio {ratio!r}, expected {kappa!r}")
        self.digits.append(-math.log10(max(defect, DIGITS_FLOOR)))

    def lattice(self, label, call: Callable[[fields.MomentSpec], object], specs=LATTICE):
        """One uncertainty check per (a, b) in ``specs``."""
        for spec in specs:
            key = f"{label}.u{spec.a:g}{spec.b:g}"
            self.attempted += 1
            try:
                terms = call(spec)
            except errors.GroupFTError as exc:
                self._fail(key, exc)
                continue
            self._ratio(key, terms.ratio)

    def dilation(self, label, f, scales):
        """One check per scale; dilation_sweep either returns all or raises."""
        self.attempted += len(scales)
        try:
            terms = euclidean.dilation_sweep(f, LATTICE[0], scales)
        except errors.GroupFTError as exc:
            self._fail(label, exc, len(scales))
            return
        for t, term in zip(scales, terms):
            self._ratio(f"{label}.t{t:g}", term.ratio)


class Workload(NamedTuple):
    setup: Callable[[], dict]
    sweep: Callable[[dict, int, Tally], Iterator[str]]
    single_input: Callable[[dict, int], object]
    single: Callable[[dict, object, Tally], Iterator[str]]
    reference: str  # sweep check on the same field as the single check


# ---------------------------------------------------------------------------
# euclid: R^n and R^n x K, all FFT and moment quadrature
# ---------------------------------------------------------------------------


def _rn_plancherel(f):
    return fields.l2_norm_sq(fields.euclidean_ft(f)) / fields.l2_norm_sq(f)


def setup_euclid():
    group = compact.load_group_file(DATA / "s3.json")
    bad = compact.validate_group(group)
    if bad:
        raise SetupError(f"s3.json: {bad}")
    sizes = ((1, 1024), (2, 256), (3, 96))
    return {
        "grids": {n: fields.make_grid(n, [8.0] * n, [c] * n) for n, c in sizes},
        "product_grid": fields.make_grid(2, [8.0, 8.0], [128, 128]),
        "groups": {"S3": group, "C8": compact.CircleDual(8)},
    }


def sweep_euclid(ctx, seed, tally):
    for n, grid in ctx["grids"].items():
        corpus = fields.test_corpus(grid, seed, EUCLID_FIELDS)
        yield f"R{n}.corpus"
        for i, f in enumerate(corpus):
            tally.plancherel(f"R{n}[{i}].plancherel", lambda: _rn_plancherel(f), tol=UNIT_TOL)
            tally.lattice(f"R{n}[{i}]", lambda spec: euclidean.rn_uncertainty(f, spec))
            yield f"R{n}[{i}]"
        if n == 2:  # member 0 is a plain Gaussian packet: every scale keeps it decayed
            tally.dilation("R2[0].dilation", corpus[0], DILATION_SCALES)
            yield "R2[0].dilation"
    grid = ctx["product_grid"]
    for name, group in ctx["groups"].items():
        corpus = product.product_corpus(grid, group, seed, EUCLID_FIELDS)
        yield f"R2x{name}.corpus"
        for i, pf in enumerate(corpus):
            label = f"R2x{name}[{i}]"
            tally.plancherel(
                f"{label}.plancherel", lambda: product.product_plancherel_ratio(pf), tol=UNIT_TOL
            )
            tally.lattice(label, lambda spec: product.product_uncertainty(pf, spec))
            yield label


def single_input_euclid(ctx, seed):
    return fields.test_corpus(ctx["grids"][3], seed, 1)[0]


def single_euclid(ctx, f, tally):
    tally.plancherel("single.plancherel", lambda: _rn_plancherel(f), tol=UNIT_TOL)
    yield "single.plancherel"
    tally.lattice("single", lambda spec: euclidean.rn_uncertainty(f, spec), LATTICE[:1])
    yield "single.u11"


# ---------------------------------------------------------------------------
# motion: M(2), plane-wave kernel and row transform
# ---------------------------------------------------------------------------


def setup_motion():
    return {
        "grid": fields.make_grid(2, [6.0, 6.0], [64, 64]),
        "lgrid": motion.make_lambda_grid(16.0, 6, 10),
    }


def sweep_motion(ctx, seed, tally):
    lgrid = ctx["lgrid"]
    corpus = motion.motion_corpus(ctx["grid"], MOTION_THETA, seed, MOTION_FIELDS)
    yield "M.corpus"
    profiles = motion.mn_hs_profiles(corpus, lgrid.nodes, MOTION_M)
    yield "M.profiles"
    for i, (f, prof) in enumerate(zip(corpus, profiles)):
        tally.plancherel(
            f"M[{i}].plancherel",
            lambda: motion.mn_plancherel_ratio(f, lgrid, MOTION_M, profile=prof),
            kappa=KAPPA,
            tol=KAPPA_TOL,
        )
        tally.lattice(
            f"M[{i}]", lambda spec: motion.mn_uncertainty(f, spec, lgrid, MOTION_M, profile=prof)
        )
        yield f"M[{i}]"


def single_input_motion(ctx, seed):
    return motion.motion_corpus(ctx["grid"], MOTION_THETA, seed, 1)[0]


def single_motion(ctx, f, tally):
    lgrid = ctx["lgrid"]
    tally.plancherel(
        "single.plancherel",
        lambda: motion.mn_plancherel_ratio(f, lgrid, MOTION_M),
        kappa=KAPPA,
        tol=KAPPA_TOL,
    )
    yield "single.plancherel"
    tally.lattice(
        "single", lambda spec: motion.mn_uncertainty(f, spec, lgrid, MOTION_M), LATTICE[:1]
    )
    yield "single.u11"


# ---------------------------------------------------------------------------
# nilpotent: thread-like groups, HS-integrand contraction and cross-section sweep
# ---------------------------------------------------------------------------


def setup_nilpotent():
    desc, algebra = nilpotent.load_descriptor_file(DATA / "threadlike3.json")
    bad = nilpotent.validate_descriptor(desc, algebra)
    if algebra is None or bad:
        raise SetupError(f"threadlike3.json: structure constants missing or {bad}")
    return {
        "cases": (  # (label, grid, built-in descriptor, count, (w_nodes, t_nodes))
            ("T3", fields.make_grid(3, [5.0] * 3, [48] * 3), nilpotent.threadlike_descriptor(3),
             NIL3_FIELDS, (20, 32)),
            ("T4", fields.make_grid(4, [5.0] * 4, [48] * 4), nilpotent.threadlike_descriptor(4),
             NIL4_FIELDS, NIL4_NODES),
        ),
        "json_descriptor": desc,
    }


def sweep_nilpotent(ctx, seed, tally):
    for label, grid, desc, count, (w, t) in ctx["cases"]:
        corpus = nilpotent.nilpotent_corpus(grid, seed, count)
        yield f"{label}.corpus"
        for i, f in enumerate(corpus):
            prof = nilpotent.nilpotent_w_profile(f, desc, w, t)
            tally.plancherel(
                f"{label}[{i}].plancherel",
                lambda: nilpotent.nilpotent_plancherel_ratio(f, desc, w, t, profile=prof),
            )
            tally.lattice(
                f"{label}[{i}]",
                lambda spec: nilpotent.nilpotent_uncertainty(f, desc, spec, w, t, profile=prof),
            )
            yield f"{label}[{i}]"


def single_input_nilpotent(ctx, seed):
    _, grid, _, _, _ = ctx["cases"][0]
    return nilpotent.nilpotent_corpus(grid, seed, 1)[0]


def single_nilpotent(ctx, f, tally):
    desc = ctx["json_descriptor"]
    tally.plancherel("single.plancherel", lambda: nilpotent.nilpotent_plancherel_ratio(f, desc))
    yield "single.plancherel"
    tally.lattice(
        "single", lambda spec: nilpotent.nilpotent_uncertainty(f, desc, spec), LATTICE[:1]
    )
    yield "single.u11"


WORKLOADS = {
    "euclid": Workload(
        setup_euclid, sweep_euclid, single_input_euclid, single_euclid, "R3[0].plancherel"
    ),
    "motion": Workload(
        setup_motion, sweep_motion, single_input_motion, single_motion, "M[0].plancherel"
    ),
    "nilpotent": Workload(
        setup_nilpotent,
        sweep_nilpotent,
        single_input_nilpotent,
        single_nilpotent,
        "T3[0].plancherel",
    ),
}
