import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mpm import F2, FilteredComplex, Presentation, PrimeField, free_presentation
from mpm.fixtures import random_presentation
from mpm.presentation import _minimal


def _ones_column(n_rows):
    return tuple((r, 1) for r in range(n_rows))


@pytest.fixture(scope="session")
def pres_f() -> Presentation:
    """H0 presentation of the two-vertex/three-edge complex, function f."""
    return Presentation(F2, 2, ((0, 0), (0, 0)), ((1, 4), (3, 3), (4, 1)),
                        (((1, 1),), ((1, 1),), ((1, 1),)))


@pytest.fixture(scope="session")
def pres_g() -> Presentation:
    """Same underlying matrix, middle relation moved from (3,3) to (2,2)."""
    return Presentation(F2, 2, ((0, 0), (0, 0)), ((1, 4), (2, 2), (4, 1)),
                        (((1, 1),), ((1, 1),), ((1, 1),)))


@pytest.fixture(scope="session")
def h1_f() -> Presentation:
    return free_presentation([(3, 4), (4, 3)], F2)


@pytest.fixture(scope="session")
def h1_g() -> Presentation:
    return free_presentation([(2, 4), (4, 2)], F2)


def two_vertex_three_edge_complex(middle):
    """Two 0-cells, three 1-cells each attached to both vertices."""
    cells = [("p", 0, (0, 0)), ("q", 0, (0, 0)),
             ("a", 1, (1, 4)), ("b", 1, middle), ("c", 1, (4, 1))]
    boundary = {e: (("p", 1), ("q", 1)) for e in "abc"}
    return FilteredComplex(F2, 2, cells, boundary)


@pytest.fixture(scope="session")
def fig_complex_f() -> FilteredComplex:
    return two_vertex_three_edge_complex((3, 3))


@pytest.fixture(scope="session")
def fig_complex_g() -> FilteredComplex:
    return two_vertex_three_edge_complex((2, 2))


@pytest.fixture(scope="session")
def triangle_m() -> Presentation:
    """Module with generators at (0,-1), (-1,0) glued at the origin."""
    return Presentation(F2, 2, ((0, -1), (-1, 0)), ((0, 0),), (((0, 1), (1, 1)),))


def q_free(x, y) -> Presentation:
    return free_presentation([(x, y)], F2)


def shuffled_label_distinct_pairs(seed, n):
    """n pairs (P, Q) that present one module.

    P is a random F_2 or F_3 presentation with pairwise distinct row
    labels and pairwise distinct column labels, whose minimal form keeps
    every generator (at least two) and a relation.  Q is P with its rows
    and columns shuffled, the rows out of their given order, so minimal
    forms kept in given row order would differ.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        P = random_presentation(rng, max_rows=5, max_cols=5,
                                field=PrimeField(rng.choice([2, 3])))
        if len(set(P.row_labels)) < P.n_rows or len(set(P.col_labels)) < P.n_cols:
            continue
        rows, cols, _ = _minimal(P)
        if len(rows) < 2 or len(rows) < P.n_rows or not cols:
            continue
        row_order, col_order = list(range(P.n_rows)), list(range(P.n_cols))
        rng.shuffle(row_order)
        rng.shuffle(col_order)
        if row_order == sorted(row_order):
            continue
        out.append((P, P.permuted(row_order, col_order)))
    return out
