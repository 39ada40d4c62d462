import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

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
    problems,
    residual,
    save_matrix_market,
)
from conftest import dense_inv_norm, random_ave_problems


class TestAlternatingXstar:
    def test_even(self):
        assert np.array_equal(alternating_xstar(2), [-1.0, 1.0])

    def test_odd_ends_at_minus_one(self):
        assert np.array_equal(alternating_xstar(3), [-1.0, 1.0, -1.0])

    def test_matches_lattice_solution(self):
        assert np.array_equal(alternating_xstar(64), gen_lattice(8).x_star)


def kronecker_lattice(m):
    """The lattice problem by its definition, the Kronecker sum of the line and cross-line couplings."""
    S = sp.diags([-np.ones(m - 1), 8.0 * np.ones(m), -np.ones(m - 1)], [-1, 0, 1])
    K = sp.diags([-np.ones(m - 1), -np.ones(m - 1)], [-1, 1])
    A = sp.kron(sp.eye(m), S) + sp.kron(K, sp.eye(m))
    return build_rhs(SparseSpdMatrix.from_scipy(A), alternating_xstar(m * m))


class TestGenLattice:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8, 17, 64])
    def test_matches_kronecker_sum(self, m):
        p, ref = gen_lattice(m), kronecker_lattice(m)
        for got, want in [(p.A.row_ptr, ref.A.row_ptr), (p.A.col_idx, ref.A.col_idx), (p.A.values, ref.A.values),
                          (p.b, ref.b), (p.x_star, ref.x_star)]:
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [2.5, "3"])
    def test_rejects_non_integer_m(self, m):
        with pytest.raises(DomainError, match="m must be an integer"):
            gen_lattice(m)

    @pytest.mark.parametrize("m", [0, -1])
    def test_rejects_m_below_one(self, m):
        with pytest.raises(DimensionMismatch, match="m must be at least 1"):
            gen_lattice(m)

    def test_numpy_integer_m(self):
        p, ref = gen_lattice(np.int64(3)), gen_lattice(3)
        assert p.n == 9
        assert np.array_equal(p.A.to_dense(), ref.A.to_dense())
        assert np.array_equal(p.b, ref.b)

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

    @pytest.mark.filterwarnings("error")
    def test_rejects_complex(self):
        A = gen_lattice(2).A
        with pytest.raises(DomainError, match="b must be real"):
            AveProblem(A, [1j, 1.0, 1.0, 1.0])
        with pytest.raises(DomainError, match="x_star must be real"):
            AveProblem(A, np.ones(4), np.array([1.0, 1.0 + 1e-3j, 1.0, 1.0]))


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

    @pytest.mark.filterwarnings("error")
    def test_rejects_complex_xstar(self):
        with pytest.raises(DomainError, match="x_star must be real"):
            build_rhs(gen_lattice(2).A, alternating_xstar(4) + 1j)

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

    def test_nan_from_duplicates_in_general_file_rejected_as_non_finite(self, tmp_path):
        # inf + (-inf) sums to nan, which compares unequal to itself: it must be
        # reported as non-finite, not as an asymmetric file, and raise no warning.
        f = tmp_path / "nan.mtx"
        write_lines(
            f,
            ["%%MatrixMarket matrix coordinate real general", "2 2 3", "1 1 inf", "1 1 -inf", "2 2 1"],
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

    @pytest.mark.parametrize("size", ["-2 -2 0", "0 0 0"])
    def test_non_positive_dimension_rejected_at_size_line(self, tmp_path, size):
        f = tmp_path / "empty.mtx"
        write_lines(f, ["%%MatrixMarket matrix coordinate real symmetric", size])
        with pytest.raises(ParseError, match="positive") as exc:
            load_matrix_market(f)
        assert exc.value.line_number == 2

    @pytest.mark.parametrize("n, nnz", [(5, 3), (10**6, 1)])
    def test_fewer_entries_than_rows_rejected_at_size_line(self, tmp_path, n, nnz):
        # An SPD matrix stores every diagonal entry; the size line alone rules the file out, before
        # anything of the declared size is allocated. The nnz entries given are all diagonal.
        f = tmp_path / "short.mtx"
        entries = [f"{i} {i} 4" for i in range(1, nnz + 1)]
        write_lines(f, ["%%MatrixMarket matrix coordinate real symmetric", "% c", f"{n} {n} {nnz}", *entries])
        with pytest.raises(ParseError, match="diagonal") as exc:
            load_matrix_market(f)
        assert exc.value.line_number == 3

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

    @staticmethod
    def reference_write(A, path):
        """The entry-at-a-time writer that save_matrix_market must match byte for byte."""
        coo = A.csr.tocoo()
        keep = coo.row >= coo.col
        r, c, v = coo.row[keep], coo.col[keep], coo.data[keep]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
            fh.write(f"{A.n} {A.n} {len(v)}\n")
            for k in np.lexsort((r, c)):
                fh.write(f"{r[k] + 1} {c[k] + 1} {v[k]:.17g}\n")

    @pytest.mark.parametrize("name", ["tref20b", "tref200b"], ids=["20b", "200b"])
    def test_writer_matches_reference_trefethen(self, tmp_path, name, request):
        A = request.getfixturevalue(name)
        save_matrix_market(A, tmp_path / "a.mtx")
        self.reference_write(A, tmp_path / "ref.mtx")
        assert (tmp_path / "a.mtx").read_bytes() == (tmp_path / "ref.mtx").read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(problem=random_ave_problems())
    def test_writer_matches_reference_random_spd(self, tmp_path_factory, problem):
        d = tmp_path_factory.mktemp("w")
        save_matrix_market(problem.A, d / "a.mtx")
        self.reference_write(problem.A, d / "ref.mtx")
        assert (d / "a.mtx").read_bytes() == (d / "ref.mtx").read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(problem=random_ave_problems())
    def test_round_trip_random_spd(self, tmp_path_factory, problem):
        f = tmp_path_factory.mktemp("rt") / "a.mtx"
        save_matrix_market(problem.A, f)
        loaded = load_matrix_market(f)
        for field in ("row_ptr", "col_idx", "values"):
            ours, theirs = getattr(loaded, field), getattr(problem.A, field)
            assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()


# Ways to break a valid file; "crlf" and "no_final_newline" leave it valid.
MALFORMATIONS = ("missing_field", "extra_field", "float_index", "out_of_bounds", "count_off_by_one",
                 "blank_or_comment_line", "trailing_comment", "crlf", "no_final_newline")


@st.composite
def matrix_market_texts(draw, malformation=None):
    """The text of a random valid coordinate real file, with one malformation applied (if given)."""
    n = draw(st.integers(1, 5))
    symmetry = draw(st.sampled_from(["symmetric", "general"]))
    value = st.one_of(
        st.integers(-9, 9).map(str),
        st.floats(-1e6, 1e6).map(repr),
        st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.17g}"),
    )
    index = st.integers(1, n)
    # At least n entries: fewer cannot hold the diagonal, and the size line is rejected before either parser.
    entries = [list(map(str, e)) for e in draw(st.lists(st.tuples(index, index, value), min_size=n, max_size=12))]
    if symmetry == "general":
        entries += [[j, i, v] for i, j, v in entries if i != j]
    nnz = len(entries)
    k = draw(st.integers(0, nnz - 1))
    if malformation == "missing_field":
        entries[k].pop(draw(st.integers(0, 2)))
    elif malformation == "extra_field":
        entries[k].append("1")
    elif malformation == "float_index":
        entries[k][draw(st.integers(0, 1))] += draw(st.sampled_from([".0", "e0", ".5"]))
    elif malformation == "out_of_bounds":
        entries[k][draw(st.integers(0, 1))] = str(draw(st.sampled_from([0, -1, n + 1])))
    elif malformation == "count_off_by_one":
        nnz += draw(st.sampled_from([-1, 1]))
    elif malformation == "trailing_comment":
        entries[k].append("% c")
    sep = draw(st.sampled_from([" ", "  ", "\t"]))
    body = [draw(st.sampled_from(["", " "])) + sep.join(e) for e in entries]
    if malformation == "blank_or_comment_line":
        body.insert(draw(st.integers(0, len(body))), draw(st.sampled_from(["", "   ", "% c", "%"])))
    lines = [f"%%MatrixMarket matrix coordinate real {symmetry}"]
    lines += draw(st.lists(st.sampled_from(["% comment", ""]), max_size=2)) + [f"{n} {n} {nnz}"] + body
    newline = "\r\n" if malformation == "crlf" else "\n"
    return newline.join(lines) + ("" if malformation == "no_final_newline" else newline)


def load_outcome(path):
    """What load_matrix_market gives: the exact bytes of the CSR arrays, or the exception raised."""
    try:
        A = load_matrix_market(path)
    except Exception as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line_number", None)
    return tuple((a.dtype.str, a.tobytes()) for a in (A.row_ptr, A.col_idx, A.values))


class TestMatrixMarketBulkParse:
    """The vectorized body parse against the line loop alone (the bulk pass made to decline)."""

    @pytest.mark.parametrize("malformation", [None, *MALFORMATIONS])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_same_result_or_error_as_line_loop(self, tmp_path_factory, malformation, data):
        f = tmp_path_factory.mktemp("mm") / "a.mtx"
        f.write_bytes(data.draw(matrix_market_texts(malformation)).encode("utf-8"))
        bulk = problems._bulk_body
        accepted = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(problems, "_bulk_body", lambda *a: accepted.append(bulk(*a)) or accepted[-1])
            fast = load_outcome(f)
            mp.setattr(problems, "_bulk_body", lambda *a: None)
            assert fast == load_outcome(f)
        if malformation in (None, "crlf", "no_final_newline"):
            assert accepted and accepted[0] is not None  # clean files take the bulk path
