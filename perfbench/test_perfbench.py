"""Tests of the benchmark's own code: span arithmetic, metric names, failure counting.

Run from the repository root:  python -m pytest perfbench -q
"""

import json
import re
from pathlib import Path

import run

spans, workloads = run.import_library()

from groupft import errors, fields, nilpotent, product  # noqa: E402  (needs src/ on the path)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _span(i, parent, name, start, end, run_id="pass0.sweep", **attrs):
    return spans.Span(i, parent, run_id, name, start, end, attrs)


def test_self_time_subtracts_union_of_children():
    tree = [
        _span(0, None, "euclidean.rn_uncertainty", 0.0, 10.0),
        _span(1, 0, "fields.euclidean_ft", 1.0, 4.0),
        _span(2, 0, "fields.l2_norm_sq", 3.0, 6.0),  # overlaps span 1: union is [1, 6]
        _span(3, 1, "fields.weighted_moment", 2.0, 3.0),
        _span(4, 0, "fields.boundary_decay", 9.0, 12.0),  # runs past its parent: clipped at 10
    ]
    got = spans.self_times(tree)
    assert got == {0: 10.0 - 5.0 - 1.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0}


def test_layer_metrics_average_over_passes():
    tree = [
        _span(0, None, "euclidean.rn_uncertainty", 0.0, 4.0, "pass0.sweep"),
        _span(1, 0, "fields.euclidean_ft", 1.0, 2.0, "pass0.sweep"),
        _span(2, None, "euclidean.rn_uncertainty", 5.0, 7.0, "pass1.sweep"),
        _span(3, 2, "fields.inverse_euclidean_ft", 5.5, 6.0, "pass1.sweep"),
        _span(4, 2, "fields.euclidean_ft", 6.0, 6.5, "pass1.sweep"),
        _span(5, None, "compact.load_group_file", 0.0, 0.25, "setup"),
    ]
    got = spans.layer_metrics(tree, passes=2)
    assert got["euclidean.rn_uncertainty.calls"] == 1.0
    assert got["euclidean.rn_uncertainty.self_s"] == (3.0 + 1.0) / 2
    assert got["fields.euclidean_ft.calls"] == 1.5
    assert got["fields.euclidean_ft.self_s"] == (1.0 + 0.5 + 0.5) / 2
    assert got["compact.load_validate_s"] == 0.25
    assert got["motion.profile.calls"] == 0.0


def test_profile_repeats_counted_per_distinct_field():
    tree = [
        _span(0, None, "motion.mn_hs_profiles", 0.0, 8.0, fields=[10, 11], work=8),
        _span(1, None, "motion.mn_hs_profile", 8.0, 10.0, "pass0.single", fields=[12], work=4),
        _span(2, None, "motion.mn_hs_profile", 10.0, 12.0, "pass0.single", fields=[12], work=4),
    ]
    got = spans.layer_metrics(tree, passes=1)
    assert got["motion.profile.per_field"] == 4 / 3
    assert got["motion.profile.s_per_field_lambda"] == 12.0 / (4 * 4)


def test_metric_names_and_units_match_benchmark_json():
    per_layer = spans.per_layer_units()
    for name in list(run.END_TO_END) + list(per_layer) + [w["name"] for w in BENCHMARK["workloads"]]:
        assert NAME.fullmatch(name), name
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == per_layer
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)


def test_error_classes_cover_the_library():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub.__name__
            yield from subclasses(sub)

    assert set(spans.ERROR_CLASSES) == set(subclasses(errors.GroupFTError))


def test_hermite_member_counted_as_decay_error():
    grid = fields.make_grid(3, [5.0] * 3, [48] * 3)
    ctx = {"cases": (("T3", grid, nilpotent.threadlike_descriptor(3), 2, (20, 32)),)}
    tally = workloads.Tally()
    units = list(workloads.sweep_nilpotent(ctx, 0, tally))
    assert units == ["T3.corpus", "T3[0]", "T3[1]"]
    # member 1 is the first-axis Hermite packet; its ratio and all four lattice points raise
    assert tally.attempted == 10
    assert tally.failed == 5
    assert {k: v for k, v in tally.errors.items() if k.startswith("T3[1]")} == {
        f"T3[1].{check}": "DecayError" for check in ("plancherel", "u11", "u12", "u21", "u22")
    }
    assert not tally.wrong
    assert len(tally.digits) == 1


def test_tracer_rebinds_aliases_and_restores():
    original = fields.test_corpus
    assert product._spatial_corpus is original
    tracer = spans.Tracer()
    with tracer:
        assert fields.test_corpus is not original
        assert product._spatial_corpus is fields.test_corpus
        product.product_corpus(fields.make_grid(1, [8.0], [64]), product.CircleDual(2), 0, 1)
    assert fields.test_corpus is original and product._spatial_corpus is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "product.product_corpus" and "fields.test_corpus" in names
    corpus = next(s for s in tracer.spans if s.name == "fields.test_corpus")
    assert corpus.parent == tracer.spans[0].id
