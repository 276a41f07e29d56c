import math
import random
from fractions import Fraction as F

import pytest

from mpm import (Barcode, DataError, INF, PrimeField, Presentation,
                 barcode_of, labels, rank_invariant,
                 reduce_to_normal_form, wasserstein, wasserstein_power)
from mpm.fixtures import (random_matrix, random_paired_presentations,
                          random_presentation)
from mpm.grades import vec_pnorm, vec_pnorm_power
from mpm.onepar import barcode_pairs

F2 = PrimeField(2)


def pres1(rows, cols, columns, q=2):
    return Presentation(PrimeField(q), 1,
                        tuple((F(r),) for r in rows),
                        tuple((F(c),) for c in cols),
                        tuple(tuple(sorted(col.items())) for col in columns))


def test_reduce_basic_pivot_and_zero_row():
    P = pres1([0, 0], [2], [{0: 1, 1: 1}])
    nf = reduce_to_normal_form(P)
    assert len(nf.pivots) == 1
    [(j, r)] = nf.pivots.items()
    assert nf.presentation.columns[j] == ((r, 1),)
    per_row = [0] * nf.presentation.n_rows
    for col in nf.presentation.columns:
        for rr, _ in col:
            per_row[rr] += 1
    assert max(per_row) <= 1 and all(len(col) <= 1 for col in nf.presentation.columns)


def test_reduce_diagonal_is_fixed_point():
    P = pres1([0, 1], [2, 3], [{0: 1}, {1: 1}])
    nf = reduce_to_normal_form(P)
    assert nf.presentation == P
    assert nf.pivots == {0: 0, 1: 1}


def test_reduce_empty():
    P = pres1([], [], [])
    nf = reduce_to_normal_form(P)
    assert nf.presentation.n_rows == 0 and nf.presentation.n_cols == 0
    assert barcode_of(P) == Barcode()


def test_reduce_requires_one_parameter(pres_f):
    with pytest.raises(DataError):
        reduce_to_normal_form(pres_f)


def test_normal_form_over_f3_and_f5():
    # odd fields have non-unit pivots, which the normal form must keep
    rng = random.Random(59)
    non_unit = 0
    for q in (3, 5):
        for _ in range(40):
            P = random_presentation(rng, n_params=1, max_rows=6, max_cols=6,
                                    field=PrimeField(q))
            nf = reduce_to_normal_form(P)
            R = nf.presentation
            entries = [(r, j, v) for j, col in enumerate(R.columns) for r, v in col]
            assert all(len(col) <= 1 for col in R.columns)
            assert len({r for r, _, _ in entries}) == len(entries)
            assert nf.pivots == {j: r for r, j, _ in entries}
            non_unit += sum(1 for _, _, v in entries if v != 1)
            bars = [(R.row_labels[r][0], R.col_labels[j][0]) for r, j, _ in entries]
            bars = [(b, d) for b, d in bars if b != d]
            bars += [(R.row_labels[r][0], INF) for r in range(R.n_rows)
                     if r not in nf.pivots.values()]
            assert Barcode(bars) == barcode_of(P)
    assert non_unit > 0


def test_barcode_examples():
    assert barcode_of(pres1([0, 0], [2], [{0: 1, 1: 1}])) == Barcode([(0, 2), (0, INF)])
    assert barcode_of(pres1([3], [], [])) == Barcode([(3, INF)])
    # equal-label pivot pairs emit no bar
    assert barcode_of(pres1([1], [1], [{0: 1}])) == Barcode()


def _random_admissible_ops(rng, P: Presentation, n_ops: int = 6) -> Presentation:
    """Random admissible row/column additions (labels never change)."""
    q = P.field.q
    cols = [dict(c) for c in P.columns]
    rows = list(P.row_labels)
    for _ in range(n_ops):
        if rng.random() < 0.5 and P.n_cols >= 2:
            i, j = rng.sample(range(P.n_cols), 2)
            if not P.col_labels[i] <= P.col_labels[j]:
                i, j = j, i
            if P.col_labels[i] <= P.col_labels[j]:
                alpha = rng.randrange(1, q)
                for r, v in list(cols[i].items()):
                    w = (cols[j].get(r, 0) + alpha * v) % q
                    if w:
                        cols[j][r] = w
                    else:
                        cols[j].pop(r, None)
        elif P.n_rows >= 2:
            i, j = rng.sample(range(P.n_rows), 2)
            if not rows[i] <= rows[j]:
                i, j = j, i
            if rows[i] <= rows[j]:
                alpha = rng.randrange(1, q)
                for col in cols:
                    if j in col:
                        w = (col.get(i, 0) + alpha * col[j]) % q
                        if w:
                            col[i] = w
                        else:
                            col.pop(i, None)
    return Presentation(P.field, 1, P.row_labels, P.col_labels,
                        tuple(tuple(sorted(c.items())) for c in cols))


def test_barcode_invariant_under_admissible_ops():
    rng = random.Random(41)
    for _ in range(40):
        P = random_presentation(rng, n_params=1, max_rows=5, max_cols=5,
                                field=PrimeField(rng.choice([2, 5])))
        Q = _random_admissible_ops(rng, P)
        assert barcode_of(P) == barcode_of(Q)


def test_barcode_agrees_with_rank_invariant():
    rng = random.Random(43)
    for _ in range(30):
        P = random_presentation(rng, n_params=1, max_rows=5, max_cols=5)
        bars = barcode_of(P)
        for _ in range(6):
            s = F(rng.randrange(0, 10))
            t = s + rng.randrange(0, 6)
            counted = sum(1 for b, d in bars if b <= s and t < d)
            assert counted == rank_invariant(P, (s,), (t,))


def test_wasserstein_bounded_by_label_distance():
    rng = random.Random(47)
    for _ in range(60):
        P, Q = random_paired_presentations(rng, n_params=1, max_rows=4, max_cols=4)
        bp, bq = barcode_of(P), barcode_of(Q)
        deltas = [a[0] - b[0] for a, b in zip(labels(P), labels(Q))]
        for p in (F(1), F(2)):
            assert wasserstein_power(bp, bq, p) <= vec_pnorm_power(deltas, p)
        assert wasserstein(bp, bq, math.inf) <= vec_pnorm(deltas, math.inf)


def test_barcode_pairs_memo_matches_fresh_reduction():
    # one memo shared by many tie-heavy label vectors of one matrix returns
    # exactly what a fresh reduction returns, and holds one entry per
    # (row order, column order), ties broken by index; the bars it reads
    # off are never empty and the essential births come sorted
    rng = random.Random(173)
    for q in (2, 3):
        field = PrimeField(q)
        for _ in range(8):
            n_rows, n_cols = rng.randint(1, 5), rng.randint(0, 5)
            columns = random_matrix(rng, n_rows, n_cols, field)
            for kind in (F, float):
                memo, orders = {}, set()
                for _ in range(50):
                    rows = [kind(rng.randrange(3)) for _ in range(n_rows)]
                    cols = [kind(rng.randrange(3)) for _ in range(n_cols)]
                    got = barcode_pairs(rows, cols, columns, field, memo)
                    assert got == barcode_pairs(rows, cols, columns, field)
                    bars, essential = got
                    assert all(type(v) is kind for pair in bars for v in pair)
                    # the one read-off: no empty bar, essential births ascending
                    assert all(b < d for b, d in bars)
                    assert essential == sorted(essential)
                    orders.add(tuple(tuple(sorted(range(len(v)), key=lambda i: (v[i], i)))
                                     for v in (rows, cols)))
                assert len(memo) == len(orders)
