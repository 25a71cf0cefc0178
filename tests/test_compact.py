"""Finite-group and circle representation machinery."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from groupft.compact import (
    CircleDual,
    FiniteGroupData,
    builtin_group,
    cyclic_group,
    group_from_json,
    group_to_json,
    k_plancherel_defect,
    load_group_file,
    symmetric_group_3,
    validate_group,
)

from .oracles import group_irreps, peter_weyl_blocks

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def s3():
    return symmetric_group_3()


@pytest.fixture(scope="module")
def z4():
    return cyclic_group(4)


class TestValidateGroup:
    def test_s3_valid(self, s3):
        assert validate_group(s3) == []
        assert sorted(s3.irrep_dims) == [1, 1, 2]
        assert sum(d * d for d in s3.irrep_dims) == s3.order == 6

    def test_z4_valid(self, z4):
        assert validate_group(z4) == []
        assert z4.irrep_dims == (1, 1, 1, 1)

    def test_scaled_irrep_reported(self, s3):
        broken = list(s3.irreps)
        broken[2] = broken[2] * 1.1
        bad = FiniteGroupData("bad", s3.table, tuple(broken))
        report = validate_group(bad)
        assert any("unitary" in line for line in report)

    def test_broken_table_reported(self, s3):
        t = np.array(s3.table)
        t[1, 1] = 1  # duplicates in the row
        report = validate_group(FiniteGroupData("bad", t, s3.irreps))
        assert report != []

    def test_builtin_lookup(self):
        assert builtin_group("s3").name == "s3"
        assert builtin_group("Z4").name == "z4"
        with pytest.raises(ValueError):
            builtin_group("su2")


class TestSchurOrthogonality:
    def test_matrix_coefficients_orthogonal(self, s3):
        # rows of distinct irreps are orthogonal in L^2(K); exhaustively checked
        w = s3.haar_weights
        coeffs = []
        for mats in s3.irreps:
            d = mats.shape[1]
            for i in range(d):
                for j in range(d):
                    coeffs.append((d, mats[:, i, j]))
        for a, (da, ca) in enumerate(coeffs):
            for b, (db, cb) in enumerate(coeffs):
                inner = np.sum(w * ca * np.conj(cb))
                expected = (1.0 / da) if a == b else 0.0
                assert abs(inner - expected) <= 1e-12


class TestKPlancherel:
    def test_identity_indicator_on_s3(self, s3):
        phi = np.zeros(6)
        phi[0] = 1.0
        assert k_plancherel_defect(s3, phi) <= 1e-12

    def test_zero(self, s3):
        assert k_plancherel_defect(s3, np.zeros(6)) == 0.0

    def test_random_on_z4(self, z4):
        rng = np.random.default_rng(1)
        for _ in range(20):
            phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            assert k_plancherel_defect(z4, phi) <= 1e-12

    def test_random_on_s3(self, s3):
        rng = np.random.default_rng(2)
        for _ in range(20):
            phi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            assert k_plancherel_defect(s3, phi) <= 1e-12

    def test_circle(self):
        K = CircleDual(8)
        rng = np.random.default_rng(3)
        coef = rng.standard_normal(2 * 8 + 1) + 1j * rng.standard_normal(2 * 8 + 1)
        phi = K.entry_kernel().conj() @ coef
        assert k_plancherel_defect(K, phi) <= 1e-10

    @pytest.mark.parametrize(
        "K", [symmetric_group_3(), cyclic_group(4), CircleDual(5)], ids=["s3", "z4", "circle5"]
    )
    def test_matches_per_irrep_loop(self, K):
        rng = np.random.default_rng(6)
        phi = rng.standard_normal(K.order) + 1j * rng.standard_normal(K.order)
        w = K.haar_weights
        want = peter_weyl_blocks(phi, w, *group_irreps(K))
        # the kernel k_plancherel_defect applies holds these blocks' entries, row-major
        got = (phi * w) @ K.entry_kernel()
        assert np.max(np.abs(got - np.concatenate([b.ravel() for b in want]))) <= 1e-15
        dual_side = sum(b.shape[-1] * np.sum(np.abs(b) ** 2) for b in want)
        norm_sq = np.sum(w * np.abs(phi) ** 2)
        loop_defect = abs(dual_side - norm_sq)
        assert loop_defect <= 1e-14 * norm_sq
        assert abs(k_plancherel_defect(K, phi) - loop_defect) <= 1e-14 * norm_sq


class TestCircleDual:
    def test_characters_orthonormal(self):
        K = CircleDual(6)
        chi = K.entry_kernel().conj()
        gram = chi.conj().T @ (chi * K.haar_weights[:, None])
        assert np.max(np.abs(gram - np.eye(K.order))) <= 1e-12

    def test_projection_resums_trig_polynomials(self):
        K = CircleDual(7)
        rng = np.random.default_rng(4)
        coef = rng.standard_normal(K.order) + 1j * rng.standard_normal(K.order)
        chi = K.entry_kernel().conj()
        phi = chi @ coef
        recovered = chi.conj().T @ (phi * K.haar_weights)
        assert np.max(np.abs(recovered - coef)) <= 1e-10
        assert np.max(np.abs(chi @ recovered - phi)) <= 1e-10

    def test_rejects_bad_truncation(self):
        with pytest.raises(ValueError):
            CircleDual(0)


class TestGroupFiles:
    def test_roundtrip(self, tmp_path, s3):
        path = tmp_path / "s3.json"
        path.write_text(json.dumps(group_to_json(s3)))
        back = load_group_file(path)
        assert np.array_equal(back.table, s3.table)
        for a, b in zip(back.irreps, s3.irreps):
            assert np.array_equal(a, b)
        assert validate_group(back) == []

    def test_bad_shape_rejected(self, s3):
        data = group_to_json(s3)
        data["irreps"][0]["matrices"] = data["irreps"][0]["matrices"][:3]
        with pytest.raises(ValueError):
            group_from_json(data)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d.update(order=6.9), "order: 6.9 is not an integer"),
            (lambda d: d.update(order=True), "order: True is not an integer"),
            (lambda d: d["table"][1].__setitem__(2, True), "table: True is not an integer"),
            (lambda d: d["table"][1].__setitem__(2, 2.7), "table: 2.7 is not an integer"),
            (lambda d: d["irreps"][2].update(dim=2.0), r"irreps\[2\].dim: 2.0 is not an integer"),
            (lambda d: d.pop("order"), "order: missing"),
            (lambda d: d.pop("table"), "table: missing"),
            (lambda d: d.pop("irreps"), "irreps: missing"),
        ],
        ids=["float-order", "bool-order", "bool-entry", "float-entry", "float-dim"]
        + ["no-order", "no-table", "no-irreps"],
    )
    def test_bad_key_named(self, tmp_path, s3, edit, message):
        data = group_to_json(s3)
        edit(data)
        with pytest.raises(ValueError, match=f"^{message}$"):
            group_from_json(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}$"):
            load_group_file(path)

    def test_benchmark_group_file_loads_and_validates(self):
        K = load_group_file(ROOT / "perfbench" / "data" / "s3.json")
        assert K.irrep_dims == (1, 1, 2)
        assert validate_group(K) == []
