"""Randomized fixture generators (deterministic for a fixed seed).

Used by ``mpm gen`` and by the test-suite; all grades are small
rationals with denominator dividing ``denom`` so that exact arithmetic
stays cheap.
"""
from __future__ import annotations

import random
from fractions import Fraction

from .barcode import Barcode
from .cellular import FilteredComplex
from .field import PrimeField
from .grades import INF, Grade, grade_join, join_all
from .presentation import Presentation


def _rand_coord(rng: random.Random, span: int, denom: int) -> Fraction:
    return Fraction(rng.randrange(0, span * denom + 1), denom)


def _rand_grade(rng, n_params: int, span: int, denom: int) -> Grade:
    return tuple(_rand_coord(rng, span, denom) for _ in range(n_params))


def _bump(rng, n_params: int, span: int, denom: int) -> Grade:
    return tuple(Fraction(rng.randrange(0, span * denom // 2 + 1), denom)
                 for _ in range(n_params))


def random_matrix(rng: random.Random, n_rows: int, n_cols: int, field: PrimeField):
    """Sparse columns with at least one entry when rows exist."""
    columns = []
    for _ in range(n_cols):
        col = {}
        if n_rows:
            support_size = rng.randint(1, min(n_rows, 4))
            for r in rng.sample(range(n_rows), support_size):
                col[r] = rng.randrange(1, field.q)
        columns.append(col)
    return columns


def labels_for_matrix(rng, columns, n_rows: int, n_params: int,
                      span: int = 6, denom: int = 2):
    """Row labels at random, column labels at the support join plus a bump."""
    rows = [_rand_grade(rng, n_params, span, denom) for _ in range(n_rows)]
    cols = []
    for col in columns:
        base = join_all(rows[r] for r in col) if col \
            else _rand_grade(rng, n_params, span, denom)
        cols.append(grade_join(base, tuple(
            b + c for b, c in zip(base, _bump(rng, n_params, span // 2 or 1, denom)))))
    return rows, cols


def _random_label_sets(rng, k, n_params, max_rows, max_cols, field, span, denom):
    """k presentations: k valid label sets over one random matrix."""
    n_rows = rng.randint(1, max_rows)
    n_cols = rng.randint(0, max_cols)
    columns = random_matrix(rng, n_rows, n_cols, field)
    frozen = tuple(tuple(sorted(c.items())) for c in columns)
    out = []
    for _ in range(k):
        rows, cols = labels_for_matrix(rng, columns, n_rows, n_params, span, denom)
        out.append(Presentation(field, n_params, tuple(rows), tuple(cols), frozen))
    return out


def random_presentation(rng: random.Random, n_params: int = 2,
                        max_rows: int = 4, max_cols: int = 4,
                        field: PrimeField = PrimeField(2),
                        span: int = 6, denom: int = 2) -> Presentation:
    return _random_label_sets(rng, 1, n_params, max_rows, max_cols, field, span, denom)[0]


def random_paired_presentations(rng: random.Random, n_params: int = 2,
                                max_rows: int = 4, max_cols: int = 4,
                                field: PrimeField = PrimeField(2),
                                span: int = 6, denom: int = 2):
    """Two valid label sets over one random matrix."""
    return tuple(_random_label_sets(rng, 2, n_params, max_rows, max_cols, field, span, denom))


def random_barcode(rng: random.Random, max_bars: int = 6, span: int = 8,
                   denom: int = 2, essential_rate: float = 0.25) -> Barcode:
    bars = []
    for _ in range(rng.randint(0, max_bars)):
        birth = _rand_coord(rng, span, denom)
        if rng.random() < essential_rate:
            bars.append((birth, INF))
        else:
            death = birth + Fraction(rng.randrange(1, span * denom), denom)
            bars.append((birth, death))
    return Barcode(bars)


def random_monotone_complex(rng: random.Random, n_vertices: int = 8,
                            edge_rate: float = 0.4, triangle_rate: float = 0.5,
                            n_params: int = 2, field: PrimeField = PrimeField(2),
                            span: int = 6, denom: int = 2,
                            max_cells: int = 40) -> FilteredComplex:
    """Random simplicial complex with monotone random grades."""
    simplices: dict[tuple, Grade] = {}
    for v in range(n_vertices):
        simplices[(v,)] = _rand_grade(rng, n_params, span, denom)
    edges = []
    for a in range(n_vertices):
        for b in range(a + 1, n_vertices):
            if len(simplices) >= max_cells:
                break
            if rng.random() < edge_rate:
                base = grade_join(simplices[(a,)], simplices[(b,)])
                simplices[(a, b)] = tuple(
                    x + y for x, y in zip(base, _bump(rng, n_params, span // 2 or 1, denom)))
                edges.append((a, b))
    edge_set = set(edges)
    for i, (a, b) in enumerate(edges):
        for c in range(b + 1, n_vertices):
            if len(simplices) >= max_cells:
                break
            if (a, c) in edge_set and (b, c) in edge_set and rng.random() < triangle_rate:
                base = join_all([simplices[(a, b)], simplices[(a, c)], simplices[(b, c)]])
                simplices[(a, b, c)] = tuple(
                    x + y for x, y in zip(base, _bump(rng, n_params, span // 2 or 1, denom)))
    return FilteredComplex.from_simplices(field, n_params, simplices)


def perturbed_refiltration(rng: random.Random, X: FilteredComplex,
                           scale: Fraction = Fraction(1, 2),
                           denom: int = 4) -> dict[str, Grade]:
    """Monotone perturbation of the existing grades (small ||f - g||)."""
    grades: dict[str, Grade] = {}
    for cid, dim, grade in sorted(X.cells, key=lambda c: c[1]):
        faces = [grades[fid] for fid, _ in X.boundary[cid]]
        jitter = tuple(Fraction(rng.randrange(0, int(scale * denom) + 1), denom)
                       for _ in range(X.n_params))
        moved = tuple(g + j for g, j in zip(grade, jitter))
        if faces:
            moved = grade_join(moved, join_all(faces))
        grades[cid] = moved
    return grades
