import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

import mpm.cellular as C
from mpm import (DataError, FilteredComplex, ParseError, Presentation,
                 PrimeField, boundary_morphism,
                 grade_injections, hilbert_dim, homology_presentation,
                 kernel_basis, lift_presentations, parse_complex,
                 serialize_complex, serialize_presentation)
from mpm.field import ColumnEchelon
from mpm.grades import grade_leq, join_all
from mpm.lines import AdmissibleLine
from mpm.fixtures import perturbed_refiltration, random_monotone_complex

from oracles import dense_nullity_at, span_dim_at

F2 = PrimeField(2)
F5 = PrimeField(5)


def fm(field, n_params, rows, cols, columns):
    return Presentation(field, n_params,
                        tuple(tuple(F(c) for c in g) for g in rows),
                        tuple(tuple(F(c) for c in g) for g in cols),
                        tuple(tuple(sorted(col.items())) for col in columns))


def test_boundary_matrix_of_fig_complex(fig_complex_f):
    d1 = boundary_morphism(fig_complex_f, 1)
    assert d1.row_labels == ((F(0), F(0)), (F(0), F(0)))
    assert d1.col_labels == ((F(1), F(4)), (F(3), F(3)), (F(4), F(1)))
    assert d1.columns == (((0, 1), (1, 1)),) * 3


def test_boundary_of_single_vertex():
    X = FilteredComplex(F2, 2, [("v", 0, (0, 0))], {})
    d1 = boundary_morphism(X, 1)
    assert d1.row_labels == ((F(0), F(0)),) and d1.col_labels == ()


def test_monotonicity_validated():
    with pytest.raises(DataError, match="monotone"):
        FilteredComplex(F2, 2, [("v", 0, (1, 1)), ("e", 1, (0, 0))],
                        {"e": (("v", 1),)})


def test_boundary_squared_validated():
    cells = [("v", 0, (0, 0)), ("e", 1, (0, 0)), ("t", 2, (0, 0))]
    with pytest.raises(DataError, match="nonzero"):
        FilteredComplex(F2, 2, cells, {"e": (("v", 1),), "t": (("e", 1),)})


def test_kernel_of_fig_boundary(fig_complex_f):
    K = kernel_basis(boundary_morphism(fig_complex_f, 1))
    assert sorted(K.grades) == [(F(3), F(4)), (F(4), F(3))]
    by_grade = dict(zip(K.grades, K.columns))
    assert by_grade[(F(3), F(4))] == ((0, 1), (1, 1))   # e1 + e2
    assert by_grade[(F(4), F(3))] == ((1, 1), (2, 1))   # e2 + e3
    assert len(set(K.leads)) == len(K.leads)


def test_kernel_of_injective_map_is_empty():
    gamma = fm(F2, 2, [(0, 0), (0, 0)], [(1, 1)], [{0: 1}])
    assert len(kernel_basis(gamma)) == 0


def test_kernel_of_zero_map_is_identity():
    gamma = fm(F2, 2, [], [(1, 2), (2, 1)], [{}, {}])
    K = kernel_basis(gamma)
    assert K.grades == ((F(2), F(1)), (F(1), F(2)))  # colex order
    assert sorted(K.columns) == [((0, 1),), ((1, 1),)]


def test_kernel_join_grade_counterexample_to_single_pass():
    # three columns onto one generator: generators at (2,1) and (1,2)
    gamma = fm(F2, 2, [(0, 0)], [(0, 2), (2, 0), (1, 1)], [{0: 1}, {0: 1}, {0: 1}])
    K = kernel_basis(gamma)
    assert sorted(K.grades) == [(F(1), F(2)), (F(2), F(1))]


def test_kernel_randomized_against_dense_nullspace():
    rng = random.Random(101)
    for _ in range(25):
        field = PrimeField(rng.choice([2, 5]))
        n_rows = rng.randint(0, 5)
        n_cols = rng.randint(1, 6)
        cols = []
        for _ in range(n_cols):
            cols.append({r: rng.randrange(1, field.q) for r in range(n_rows)
                         if rng.random() < 0.6})
        row_grades = [(F(0), F(0))] * n_rows
        col_grades = [(F(rng.randrange(0, 7)), F(rng.randrange(0, 7)))
                      for _ in range(n_cols)]
        gamma = fm(field, 2, row_grades, col_grades, cols)
        K = kernel_basis(gamma)
        # join formula for every emitted element
        for grade, col in zip(K.grades, K.columns):
            assert grade == join_all(col_grades[i] for i, _ in col)
        # pointwise spans equal the kernel at sampled grades
        for _ in range(8):
            g = (F(rng.randrange(-1, 8)), F(rng.randrange(-1, 8)))
            want = dense_nullity_at(col_grades, cols, n_rows, field.q, g)
            got = span_dim_at(K.grades, K.columns, n_cols, field.q, g)
            assert got == want
            # freeness: no redundant generator at or below g
            assert sum(grade_leq(c, g) for c in K.grades) == want
        # Groebner property
        assert len(set(K.leads)) == len(K.leads)


def test_homology_presentation_builds_one_echelon(monkeypatch, fig_complex_f):
    # the kernel sweep's echelon is the only one: each boundary's
    # coordinates are divided off the kernel basis's distinct leads
    built = []
    init = ColumnEchelon.__init__

    def spy_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ColumnEchelon, "__init__", spy_init)
    for j in (0, 1, 2):
        built.clear()
        homology_presentation(fig_complex_f, j)
        assert len(built) == 1, j


def test_kernel_sweeps_resume_from_their_unchanged_prefix(monkeypatch):
    # each sweep after the first reduces only from its first new column
    # (the first of its y-grade in the (x, index) order) on, and the
    # sweep's joins see integer grade ranks, not Fractions; over F_2
    # (bitset columns) and F_3 (dict columns) alike
    inserted, joined = [], []
    add_tagged, support_grade = ColumnEchelon.add_tagged, C._support_grade

    def spy_add_tagged(self, col, tag):
        inserted.append(tag)
        return add_tagged(self, col, tag)

    def spy_support_grade(vec, grades):
        joined.extend(c for i in vec for c in grades[i])
        return support_grade(vec, grades)

    monkeypatch.setattr(ColumnEchelon, "add_tagged", spy_add_tagged)
    monkeypatch.setattr(C, "_support_grade", spy_support_grade)
    for q in (2, 3):
        X = random_monotone_complex(random.Random(17), n_vertices=10, edge_rate=0.5,
                                    max_cells=60, field=PrimeField(q))
        gamma = boundary_morphism(X, 1)
        dg = gamma.col_labels
        pos = {i: p for p, i in enumerate(sorted(range(len(dg)), key=lambda i: (dg[i][0], i)))}
        ys = sorted({g[1] for g in dg})
        start = {y: min(pos[i] for i in pos if dg[i][1] == y) for y in ys}
        inserted.clear()
        joined.clear()
        K = kernel_basis(gamma)
        assert len(ys) > 1 and len(K) > 0 and inserted
        for i in pos:
            # at most once per sweep that holds i at or after its first new column
            assert inserted.count(i) <= sum(dg[i][1] <= y and pos[i] >= start[y] for y in ys)
        assert joined and {type(c) for c in joined} == {int}


def test_with_grades_names_a_missing_cell():
    X = random_monotone_complex(random.Random(0))
    grades = X.grade_map()
    grades.pop("0")
    with pytest.raises(DataError, match="no grade given for cell 0$"):
        X.with_grades(grades)


def test_grade_injections_fig_example(fig_complex_f):
    gamma = boundary_morphism(fig_complex_f, 1)
    K = kernel_basis(gamma)
    jx, jy = grade_injections(gamma, K)
    named = {K.grades[i]: (jx[i], jy[i]) for i in range(len(K))}
    # c at (3,4): j_x -> (3,3) column, j_y -> (1,4) column
    assert named[(F(3), F(4))] == (1, 0)
    assert named[(F(4), F(3))] == (2, 1)


def test_grade_injections_zero_morphism_identity():
    gamma = fm(F2, 2, [], [(1, 2), (2, 1), (3, 3)], [{}, {}, {}])
    K = kernel_basis(gamma)
    jx, jy = grade_injections(gamma, K)
    for i, col in enumerate(K.columns):
        [(support, _)] = col
        assert jx[i] == jy[i] == support


def test_grade_injections_random_coordinate_equalities():
    rng = random.Random(103)
    for _ in range(20):
        field = PrimeField(rng.choice([2, 5]))
        n_rows = rng.randint(1, 4)
        n_cols = rng.randint(1, 6)
        cols = [{r: rng.randrange(1, field.q) for r in range(n_rows)
                 if rng.random() < 0.5} for _ in range(n_cols)]
        col_grades = [(F(rng.randrange(0, 6)), F(rng.randrange(0, 6)))
                      for _ in range(n_cols)]
        gamma = fm(field, 2, [(0, 0)] * n_rows, col_grades, cols)
        K = kernel_basis(gamma)
        jx, jy = grade_injections(gamma, K)
        assert len(set(jx)) == len(jx) and len(set(jy)) == len(jy)
        for i in range(len(K)):
            assert gamma.col_labels[jx[i]][0] == K.grades[i][0]
            assert gamma.col_labels[jy[i]][1] == K.grades[i][1]


def test_homology_of_fig_complex(fig_complex_f, fig_complex_g, pres_f, pres_g):
    H1f = homology_presentation(fig_complex_f, 1)
    assert H1f.n_cols == 0 and sorted(H1f.row_labels) == [(F(3), F(4)), (F(4), F(3))]
    H1g = homology_presentation(fig_complex_g, 1)
    assert sorted(H1g.row_labels) == [(F(2), F(4)), (F(4), F(2))]
    H0f = homology_presentation(fig_complex_f, 0)
    H0g = homology_presentation(fig_complex_g, 0)
    for got, want in ((H0f, pres_f), (H0g, pres_g)):
        for x in range(6):
            for y in range(6):
                assert hilbert_dim(got, (F(x), F(y))) == hilbert_dim(want, (F(x), F(y)))


def test_homology_single_vertex():
    X = FilteredComplex(F2, 2, [("v", 0, (3, 5))], {})
    H0 = homology_presentation(X, 0)
    assert H0.row_labels == ((F(3), F(5)),) and H0.n_cols == 0


def test_homology_one_parameter_route():
    # circle filtered over one parameter: H1 generator appears at 2
    cells = [("v", 0, (0,)), ("e", 1, (2,))]
    X = FilteredComplex(F2, 1, cells, {"e": ()})
    H1 = homology_presentation(X, 1)
    assert H1.row_labels == ((F(2),),) and H1.n_cols == 0
    H0 = homology_presentation(X, 0)
    assert hilbert_dim(H0, (F(0),)) == 1


def test_lift_fig_pair_roundtrip(pres_f, pres_g):
    X, f, g = lift_presentations(pres_f, pres_g)
    assert len(X.cells_of_dim(0)) == 1
    assert len(X.cells_of_dim(1)) == 2 and len(X.cells_of_dim(2)) == 3
    d2 = boundary_morphism(X, 2)
    assert d2.columns == pres_f.columns
    H1f = homology_presentation(X, 1)
    H1g = homology_presentation(X.with_grades(g), 1)
    for got, want in ((H1f, pres_f), (H1g, pres_g)):
        for x in range(-1, 6):
            for y in range(-1, 6):
                assert hilbert_dim(got, (F(x), F(y))) == hilbert_dim(want, (F(x), F(y)))


def test_lift_identical_presentations(pres_f):
    X, f, g = lift_presentations(pres_f, pres_f)
    assert f == g


def test_lift_disk():
    P = Presentation(F2, 2, ((0, 0),), ((1, 1),), (((0, 1),),))
    X, f, g = lift_presentations(P, P)
    H1 = homology_presentation(X, 1)
    assert hilbert_dim(H1, (F(0), F(0))) == 1
    assert hilbert_dim(H1, (F(1), F(1))) == 0


def test_lift_requires_same_matrix(pres_f, h1_f):
    with pytest.raises(DataError):
        lift_presentations(pres_f, h1_f)


def test_lift_label_distance_equals_function_distance(pres_f, pres_g):
    from mpm import label_distance, PairedPresentations
    from mpm.grades import vec_pnorm_power
    X, f, g = lift_presentations(pres_f, pres_g)
    for p in (F(1), F(2)):
        func_power = sum(vec_pnorm_power([a - b for a, b in zip(f[c], g[c])], p)
                         for c in f)
        from mpm import label_distance_power
        assert func_power == label_distance_power(PairedPresentations(pres_f, pres_g), p)


def test_homology_dims_match_dense_oracle():
    # dim H_j at g = nullity of d_j at g minus rank of d_(j+1) at g,
    # recomputed from the raw boundary matrices by dense elimination
    from oracles import dense_rank_at
    rng = random.Random(127)
    for _ in range(15):
        field = PrimeField(rng.choice([2, 5]))
        X = random_monotone_complex(rng, n_vertices=rng.randint(4, 6), field=field)
        for j in (0, 1):
            H = homology_presentation(X, j)
            dj = boundary_morphism(X, j)
            dj1 = boundary_morphism(X, j + 1)
            for _ in range(6):
                g = (F(rng.randrange(0, 10)), F(rng.randrange(0, 10)))
                null_j = dense_nullity_at(dj.col_labels, dj.column_dicts(),
                                          len(dj.row_labels), field.q, g)
                rank_j1 = dense_rank_at(dj1.col_labels, dj1.column_dicts(),
                                        len(dj1.row_labels), field.q, g)
                assert hilbert_dim(H, g) == null_j - rank_j1


def test_simplicial_input_and_cwf_roundtrip():
    rng = random.Random(107)
    X = random_monotone_complex(rng, n_vertices=6)
    text = serialize_complex(X)
    Y = parse_complex(text)
    assert Y.cells == X.cells and Y.boundary == X.boundary
    # homology pipeline runs end to end
    for j in (0, 1):
        homology_presentation(X, j)


def test_cwf_truncated_header_reports_line():
    with pytest.raises(ParseError, match="expected 'params <int>'") as info:
        parse_complex("cwf 1\n# a comment\nfield 2\n")
    assert info.value.line == 4
    with pytest.raises(ParseError, match="'cwf 1' header") as info:
        parse_complex("# only a comment\n")
    assert info.value.line == 1


def test_cwf_bad_field_and_params_lines():
    with pytest.raises(ParseError, match="expected 'field <int>'") as info:
        parse_complex("cwf 1\nfeld 2\nparams 2\n")
    assert info.value.line == 2
    with pytest.raises(ParseError, match="bad integer 'two'") as info:
        parse_complex("cwf 1\nfield 2\n\nparams two\n")
    assert info.value.line == 4
    with pytest.raises(ParseError, match="not prime") as info:
        parse_complex("cwf 1\nfield 4\nparams 2\n")
    assert info.value.line == 2
    for bad in ("3", "-1"):
        with pytest.raises(ParseError, match=f"params must be 1 or 2, got {bad}") as info:
            parse_complex(f"cwf 1\nfield 2\nparams {bad}\nv 0 0 0 :\n")
        assert info.value.line == 3


def test_from_simplices_requires_faces():
    with pytest.raises(DataError, match="missing face"):
        FilteredComplex.from_simplices(F2, 2, {(0, 1): (F(0), F(0))})


def test_stability_smoke_on_fig_pair(fig_complex_f, fig_complex_g):
    # along any line, d_W <= ||f - g||_p; spot-check the diagonal
    import math
    from mpm import sampled_lower_bound
    for j in (0, 1):
        A = homology_presentation(fig_complex_f, j)
        B = homology_presentation(fig_complex_g, j)
        for p, norm in ((F(1), 2.0), (F(2), 2 ** 0.5), (math.inf, 1.0)):
            got = sampled_lower_bound(A, B, p, [AdmissibleLine((1, 1), (0, 0)),
                                                AdmissibleLine((1, 1), (2, 0))])
            assert float(got) <= norm + 1e-9


# Draws for the pinned homology records: (count, keyword arguments of
# random_monotone_complex).  Span 2 with denominator 1 ties many x- and
# y-grades; triangle_rate 0 leaves degree 2 without cells.
HOMOLOGY_GOLDEN_DRAWS = (
    (4, dict(n_vertices=10, edge_rate=0.5, triangle_rate=0.6, max_cells=60)),
    (3, dict(n_vertices=9, edge_rate=0.6, triangle_rate=0.7, span=2, denom=1)),
    (2, dict(n_vertices=9, field=PrimeField(3))),
    (2, dict(n_vertices=9, field=PrimeField(5), span=2, denom=1)),
    (2, dict(n_vertices=10, n_params=1, edge_rate=0.5)),
    (1, dict(n_vertices=8, n_params=1, field=PrimeField(3), span=2, denom=1)),
    (1, dict(n_vertices=10, edge_rate=0.5, triangle_rate=0)),
)


def _homology_golden_cases():
    """Both filtrations of each draw: the complex and its perturbed_refiltration."""
    rng = random.Random(709)
    for count, kwargs in HOMOLOGY_GOLDEN_DRAWS:
        for _ in range(count):
            X = random_monotone_complex(rng, **kwargs)
            yield X
            yield X.with_grades(perturbed_refiltration(rng, X))


def _homology_records(X):
    for j in (0, 1, 2):
        K = kernel_basis(boundary_morphism(X, j))
        yield (serialize_presentation(homology_presentation(X, j))
               + f"{K.grades!r}\n{K.columns!r}\n{K.leads!r}\n")


def test_homology_and_kernel_golden():
    # homology presentations and kernel bases in degrees 0-2, recorded
    # with the sweep that re-sorted and re-reduced every column per y-grade
    want = json.loads((Path(__file__).parent / "homology_golden.json").read_text())
    got = [r for X in _homology_golden_cases() for r in _homology_records(X)]
    assert len(got) == len(want) == 90
    for k, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"record {k}"
