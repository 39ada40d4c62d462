import numpy as np
import pytest

from avesolve import (
    AveProblem,
    DimensionMismatch,
    DomainError,
    ParseError,
    SparseSpdMatrix,
    SymmetryError,
    alternating_xstar,
    build_rhs,
    estimate_inv_norm,
    gen_lattice,
    load_matrix_market,
    matvec,
    residual,
    save_matrix_market,
)
from conftest import dense_inv_norm


class TestAlternatingXstar:
    def test_even(self):
        assert np.array_equal(alternating_xstar(2), [-1.0, 1.0])

    def test_odd_ends_at_minus_one(self):
        assert np.array_equal(alternating_xstar(3), [-1.0, 1.0, -1.0])

    def test_matches_lattice_solution(self):
        assert np.array_equal(alternating_xstar(64), gen_lattice(8).x_star)


class TestGenLattice:
    def test_m1(self):
        p = gen_lattice(1)
        assert p.n == 1
        assert p.A.to_dense() == np.array([[8.0]])
        assert np.array_equal(p.x_star, [-1.0])
        assert np.array_equal(p.b, [-9.0])

    def test_m2_structure(self):
        A = gen_lattice(2).A.to_dense()
        expected = np.array(
            [
                [8.0, -1.0, -1.0, 0.0],
                [-1.0, 8.0, 0.0, -1.0],
                [-1.0, 0.0, 8.0, -1.0],
                [0.0, -1.0, -1.0, 8.0],
            ]
        )
        assert np.array_equal(A, expected)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_structure_invariants(self, m):
        A = gen_lattice(m).A.to_dense()
        assert np.array_equal(A, A.T)
        assert np.all(np.diag(A) == 8.0)
        off = A - np.diag(np.diag(A))
        assert set(np.unique(off)) <= {0.0, -1.0}
        assert np.all((off != 0).sum(axis=1) <= 4)
        assert np.all(A.sum(axis=1) >= 4.0)  # strict diagonal dominance

    def test_nu_matches_table1(self):
        assert estimate_inv_norm(gen_lattice(8).A) == pytest.approx(0.2358, abs=5e-4)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_nu_matches_dense_oracle_and_below_one(self, m):
        A = gen_lattice(m).A
        nu = estimate_inv_norm(A)
        assert nu < 1.0
        assert abs(nu - dense_inv_norm(A)) <= 1e-8

    def test_known_solution_satisfies_equation(self):
        p = gen_lattice(4)
        assert residual(p, p.x_star) <= 1e-14


class TestAveProblem:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, value):
        A = gen_lattice(2).A
        with pytest.raises(DomainError, match="b must be finite"):
            AveProblem(A, [value, 1.0, 1.0, 1.0])
        with pytest.raises(DomainError, match="x_star must be finite"):
            AveProblem(A, np.ones(4), [1.0, value, 1.0, 1.0])


class TestBuildRhs:
    def test_hand_arithmetic(self):
        A = SparseSpdMatrix.from_dense(2.0 * np.eye(2))
        p = build_rhs(A, np.array([-1.0, 1.0]))
        assert np.array_equal(p.b, [-3.0, 1.0])

    def test_zero_xstar_gives_rejected_residual(self):
        A = SparseSpdMatrix.from_dense(np.eye(2) * 1.0)
        p = build_rhs(A, np.zeros(2))
        assert np.array_equal(p.b, np.zeros(2))
        with pytest.raises(DomainError):
            residual(p, np.zeros(2))

    def test_matches_lattice_b(self):
        p = gen_lattice(8)
        rebuilt = build_rhs(p.A, alternating_xstar(64))
        assert np.array_equal(rebuilt.b, p.b)

    def test_dimension_mismatch(self):
        A = SparseSpdMatrix.from_dense(np.eye(2) * 1.0)
        with pytest.raises(DimensionMismatch):
            build_rhs(A, np.ones(3))


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestMatrixMarket:
    def test_symmetric_mirroring(self, tmp_path):
        f = tmp_path / "a.mtx"
        write_lines(
            f,
            [
                "%%MatrixMarket matrix coordinate real symmetric",
                "2 2 3",
                "1 1 4",
                "2 2 4",
                "2 1 1",
            ],
        )
        A = load_matrix_market(f)
        assert np.array_equal(A.to_dense(), [[4.0, 1.0], [1.0, 4.0]])

    def test_general_symmetric_accepted(self, tmp_path):
        f = tmp_path / "g.mtx"
        write_lines(
            f,
            [
                "%%MatrixMarket matrix coordinate real general",
                "% comment line",
                "2 2 4",
                "1 1 4",
                "1 2 1",
                "2 1 1",
                "2 2 4",
            ],
        )
        A = load_matrix_market(f)
        assert np.array_equal(A.to_dense(), [[4.0, 1.0], [1.0, 4.0]])

    def test_general_asymmetric_rejected(self, tmp_path):
        f = tmp_path / "bad.mtx"
        write_lines(
            f,
            [
                "%%MatrixMarket matrix coordinate real general",
                "2 2 3",
                "1 1 4",
                "1 2 1",
                "2 2 4",
            ],
        )
        with pytest.raises(SymmetryError):
            load_matrix_market(f)

    def test_duplicates_summed(self, tmp_path):
        f = tmp_path / "dup.mtx"
        write_lines(
            f,
            [
                "%%MatrixMarket matrix coordinate real symmetric",
                "1 1 2",
                "1 1 3",
                "1 1 5",
            ],
        )
        assert load_matrix_market(f).to_dense() == np.array([[8.0]])

    def test_inf_entry_rejected(self, tmp_path):
        f = tmp_path / "inf.mtx"
        write_lines(
            f,
            ["%%MatrixMarket matrix coordinate real symmetric", "2 2 2", "1 1 inf", "2 2 1"],
        )
        with pytest.raises(DomainError, match="finite"):
            load_matrix_market(f)

    def test_malformed_header(self, tmp_path):
        f = tmp_path / "h.mtx"
        write_lines(f, ["%%NotMatrixMarket whatever", "1 1 1", "1 1 1"])
        with pytest.raises(ParseError) as exc:
            load_matrix_market(f)
        assert exc.value.line_number == 1

    def test_non_real_field(self, tmp_path):
        f = tmp_path / "c.mtx"
        write_lines(f, ["%%MatrixMarket matrix coordinate complex symmetric", "1 1 1", "1 1 1 0"])
        with pytest.raises(ParseError):
            load_matrix_market(f)

    def test_non_square(self, tmp_path):
        f = tmp_path / "ns.mtx"
        write_lines(f, ["%%MatrixMarket matrix coordinate real symmetric", "2 3 1", "1 1 4"])
        with pytest.raises(ParseError) as exc:
            load_matrix_market(f)
        assert exc.value.line_number == 2

    def test_bad_entry_line_number(self, tmp_path):
        f = tmp_path / "e.mtx"
        write_lines(
            f,
            ["%%MatrixMarket matrix coordinate real symmetric", "1 1 1", "1 x 4"],
        )
        with pytest.raises(ParseError) as exc:
            load_matrix_market(f)
        assert exc.value.line_number == 3

    def test_round_trip(self, tmp_path):
        original = gen_lattice(3).A
        f = tmp_path / "rt.mtx"
        save_matrix_market(original, f)
        loaded = load_matrix_market(f)
        assert loaded.n == original.n
        assert np.array_equal(loaded.row_ptr, original.row_ptr)
        assert np.array_equal(loaded.col_idx, original.col_idx)
        assert np.array_equal(loaded.values, original.values)

        f2 = tmp_path / "rt2.mtx"
        save_matrix_market(loaded, f2)
        assert f.read_text() == f2.read_text()

    def test_trefethen_20b_dimension(self, tmp_path, tref20b):
        f = tmp_path / "Trefethen_20b.mtx"
        save_matrix_market(tref20b, f)
        assert load_matrix_market(f).n == 19
