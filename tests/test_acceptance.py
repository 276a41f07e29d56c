"""Acceptance criteria, one test per criterion.

Each test prints a single ``criterion N: PASS`` line (written straight
to the terminal so it shows without -s) including the measured wall
time against the stated cap.  Tolerances are pinned in the asserts.
"""
import math
import random
import sys
import time
from fractions import Fraction as F

from mpm import (AdmissibleLine, PairedPresentations, Presentation,
                 PrimeField, approx_matching_distance, barcode_along_line,
                 barcode_of, chain_upper_bound, grade_injections,
                 hilbert_dim, homology_presentation, kernel_basis,
                 label_distance, label_distance_power, labels,
                 lift_presentations, pad_and_pair, push, rank_invariant,
                 sampled_lower_bound, wasserstein,
                 wasserstein_power)
from mpm.grades import grade_leq, join_all, vec_pnorm, vec_pnorm_power
from mpm.matchdist import LineParam, ParamBox, label_deviation, line_of_param
from mpm.fixtures import (random_barcode, random_monotone_complex,
                          random_paired_presentations, perturbed_refiltration)

from conftest import q_free
from oracles import (box_sample_max_power, brute_force_full, brute_force_wasserstein,
                     dense_nullity_at, span_dim_at)

F2 = PrimeField(2)
F5 = PrimeField(5)


import pytest


@pytest.fixture
def report(capsys):
    def _report(n: int, elapsed: float, cap: float, extra: str = ""):
        assert elapsed < cap, f"criterion {n}: took {elapsed:.2f}s, cap {cap}s"
        note = f" {extra}" if extra else ""
        with capsys.disabled():
            sys.stdout.write(
                f"criterion {n:2d}: PASS ({elapsed:.5f}s < {cap:g}s{note})\n")
            sys.stdout.flush()
    return _report


def test_c01_label_distances_exact(pres_f, pres_g, triangle_m, report):
    pairs = {
        "stability": PairedPresentations(pres_f, pres_g),
        "triangle_mq": pad_and_pair(triangle_m, q_free(0, 0)),
        "triangle_qq": pad_and_pair(q_free(0, 0), q_free(10, 10)),
    }
    def run():
        # d^p(P^f, P^g) = 2^(1/p): exact p-th powers 2, 2 and max 1
        assert label_distance_power(pairs["stability"], 1) == 2
        assert label_distance_power(pairs["stability"], 2) == 2
        assert label_distance(pairs["stability"], math.inf) == 1
        # M vs Q^(0,0): also 2^(1/p)
        assert label_distance_power(pairs["triangle_mq"], 1) == 2
        assert label_distance_power(pairs["triangle_mq"], 2) == 2
        assert label_distance(pairs["triangle_mq"], math.inf) == 1
        # Q^(0,0) vs Q^(10,10): 2^(1/p) * 10
        assert label_distance_power(pairs["triangle_qq"], 1) == 20
        assert label_distance_power(pairs["triangle_qq"], 2) == 200
        assert label_distance(pairs["triangle_qq"], math.inf) == 10

    # best of five timings: the 1 ms cap measures the computation, not
    # scheduler noise
    elapsed = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        run()
        elapsed = min(elapsed, time.perf_counter() - t0)
    report(1, elapsed, 0.001)


def test_c02_fig_homology(fig_complex_f, fig_complex_g, pres_f, pres_g, report):
    t0 = time.perf_counter()
    H1f = homology_presentation(fig_complex_f, 1)
    assert H1f.n_cols == 0
    assert sorted(H1f.row_labels) == [(F(3), F(4)), (F(4), F(3))]
    H1g = homology_presentation(fig_complex_g, 1)
    assert H1g.n_cols == 0
    assert sorted(H1g.row_labels) == [(F(2), F(4)), (F(4), F(2))]

    H0f = homology_presentation(fig_complex_f, 0)
    relations_f = ((F(1), F(4)), (F(3), F(3)), (F(4), F(1)))
    for x in range(6):
        for y in range(6):
            g = (F(x), F(y))
            killed = any(grade_leq(r, g) for r in relations_f)
            expected = 1 if killed else 2  # shaded regions of the figure
            assert hilbert_dim(H0f, g) == expected

    H0g = homology_presentation(fig_complex_g, 0)
    rng = random.Random(2024)
    for got, want in ((H0f, pres_f), (H0g, pres_g)):
        for _ in range(50):
            s = (F(rng.randrange(0, 6)), F(rng.randrange(0, 6)))
            t = (s[0] + rng.randrange(0, 6), s[1] + rng.randrange(0, 6))
            assert rank_invariant(got, s, t) == rank_invariant(want, s, t)
    report(2, time.perf_counter() - t0, 1.0)


def test_c03_matching_distance_certificates(pres_f, pres_g, h1_f, h1_g, report):
    eps = 0.05
    worst = 0.0
    for name, A, B in (("H0", pres_f, pres_g), ("H1", h1_f, h1_g)):
        for p in (F(1), math.inf):
            t0 = time.perf_counter()
            rep = approx_matching_distance(A, B, p, eps)
            dt = time.perf_counter() - t0
            worst = max(worst, dt)
            assert dt < 30.0, f"{name} p={p}: {dt:.1f}s"
            assert rep.converged
            assert float(rep.upper) - float(rep.lower) <= eps
            assert float(rep.lower) >= 1 - eps
            root = 1.0 if p == math.inf else 2 ** (1 / float(p))
            assert float(rep.upper) <= root + eps
    report(3, worst, 30.0, "(worst single run)")


def test_c04_wasserstein_oracle_equivalence(report):
    rng = random.Random(404)
    t0 = time.perf_counter()
    for _ in range(500):
        B = random_barcode(rng, max_bars=6)
        C = random_barcode(rng, max_bars=6)
        for p in (F(1), F(2)):
            assert wasserstein_power(B, C, p) == brute_force_full(B, C, p).power
        assert wasserstein(B, C, math.inf) == brute_force_wasserstein(B, C, math.inf)
    report(4, time.perf_counter() - t0, 10.0)


def test_c05_one_parameter_collapse(report):
    rng = random.Random(505)
    t0 = time.perf_counter()
    for _ in range(200):
        P, Q = random_paired_presentations(rng, n_params=1, max_rows=10, max_cols=10)
        bp, bq = barcode_of(P), barcode_of(Q)
        for p in (F(1), F(2)):
            assert wasserstein_power(bp, bq, p) <= \
                vec_pnorm_power([a[0] - b[0] for a, b in zip(labels(P), labels(Q))], p)
        assert wasserstein(bp, bq, math.inf) <= \
            vec_pnorm([a[0] - b[0] for a, b in zip(labels(P), labels(Q))], math.inf)
    diag = AdmissibleLine((1, 1), (0, 0))
    for _ in range(50):
        P, Q = random_paired_presentations(rng, n_params=1, max_rows=4, max_cols=4)
        embed = lambda R: R.with_labels(
            tuple((g[0], g[0]) for g in R.row_labels),
            tuple((g[0], g[0]) for g in R.col_labels))
        P2, Q2 = embed(P), embed(Q)
        for p in (F(1), F(2), math.inf):
            want = wasserstein(barcode_of(P), barcode_of(Q), p)
            got = sampled_lower_bound(P2, Q2, p, [diag])
            assert abs(float(got) - float(want)) <= 0.01
    report(5, time.perf_counter() - t0, 60.0)


def _function_distance(f, g, cells, p):
    deltas = [c - d for cid in cells for c, d in zip(f[cid], g[cid])]
    return vec_pnorm(deltas, p)


def test_c06_cellular_stability(report):
    rng = random.Random(606)
    t0 = time.perf_counter()
    params = [LineParam(F(s), F(m, 4)) for s in range(-4, 5, 2)
              for m in range(-4, 5, 2)]
    lines = [line_of_param(q) for q in params]
    for trial in range(50):
        X = random_monotone_complex(rng, n_vertices=rng.randint(4, 8),
                                    max_cells=40)
        f = X.grade_map()
        g = perturbed_refiltration(rng, X)
        Y = X.with_grades(g)
        cells = [cid for cid, _, _ in X.cells]
        lowers = {}
        for j in (0, 1):
            A = homology_presentation(X, j)
            B = homology_presentation(Y, j)
            for p in (F(1), F(2), math.inf):
                lowers[(j, p)] = float(sampled_lower_bound(A, B, p, lines))
        for p in (F(1), F(2), math.inf):
            norm = float(_function_distance(f, g, cells, p))
            eps = 0.02 * norm + 0.01
            for j in (0, 1):
                assert lowers[(j, p)] <= norm + eps, (trial, j, p)
            if p == math.inf:
                cross = max(lowers[(0, p)], lowers[(1, p)])
            else:
                cross = (lowers[(0, p)] ** float(p) +
                         lowers[(1, p)] ** float(p)) ** (1 / float(p))
            root = 1.0 if p == math.inf else 2 ** (1 / float(p))
            assert cross <= root * norm + eps, (trial, p)
    report(6, time.perf_counter() - t0, 300.0)


def test_c07_push_stability_exact(report):
    rng = random.Random(707)
    t0 = time.perf_counter()
    for _ in range(10**4):
        a = (F(rng.randrange(-40, 41), 4), F(rng.randrange(-40, 41), 4))
        b = (F(rng.randrange(-40, 41), 4), F(rng.randrange(-40, 41), 4))
        if rng.random() < 0.5:
            v = (F(1), F(rng.randrange(4, 17), 4))
        else:
            v = (F(rng.randrange(4, 17), 4), F(1))
        line = AdmissibleLine(v, (F(rng.randrange(-8, 9), 2), F(rng.randrange(-8, 9), 2)))
        gap = push(line, a) - push(line, b)
        if gap < 0:
            gap = -gap
        linf = max(abs(a[0] - b[0]), abs(a[1] - b[1]))
        assert gap <= linf
    report(7, time.perf_counter() - t0, 1.0)


def test_c08_kernel_suite(report):
    rng = random.Random(808)
    t0 = time.perf_counter()
    for trial in range(100):
        field = F2 if trial % 2 == 0 else F5
        n_rows = rng.randint(0, 15)
        n_cols = rng.randint(1, 15)
        cols = [{r: rng.randrange(1, field.q) for r in range(n_rows)
                 if rng.random() < 0.3} for _ in range(n_cols)]
        col_grades = tuple((F(rng.randrange(0, 9)), F(rng.randrange(0, 9)))
                           for _ in range(n_cols))
        gamma = Presentation(field, 2, ((F(0), F(0)),) * n_rows, col_grades,
                             tuple(tuple(sorted(c.items())) for c in cols))
        K = kernel_basis(gamma)
        for grade, col in zip(K.grades, K.columns):
            assert grade == join_all(col_grades[i] for i, _ in col)
        assert len(set(K.leads)) == len(K.leads)
        for _ in range(20):
            g = (F(rng.randrange(-1, 10)), F(rng.randrange(-1, 10)))
            want = dense_nullity_at(col_grades, cols, n_rows, field.q, g)
            got = span_dim_at(K.grades, K.columns, n_cols, field.q, g)
            assert got == want, (trial, g)
        jx, jy = grade_injections(gamma, K)
        assert len(set(jx)) == len(jx) and len(set(jy)) == len(jy)
        for i in range(len(K)):
            assert col_grades[jx[i]][0] == K.grades[i][0]
            assert col_grades[jy[i]][1] == K.grades[i][1]
    report(8, time.perf_counter() - t0, 30.0)


def test_c09_lifting_roundtrip(report):
    rng = random.Random(909)
    t0 = time.perf_counter()
    for _ in range(30):
        P, Q = random_paired_presentations(rng, n_params=2, max_rows=8,
                                           max_cols=8, field=F2)
        X, f, g = lift_presentations(P, Q)
        H1p = homology_presentation(X, 1)
        H1q = homology_presentation(X.with_grades(g), 1)
        for got, want in ((H1p, P), (H1q, Q)):
            for _ in range(25):
                pt = (F(rng.randrange(-1, 12)), F(rng.randrange(-1, 12)))
                assert hilbert_dim(got, pt) == hilbert_dim(want, pt)
            for _ in range(10):
                if rng.random() < 0.5:
                    v = (F(1), F(rng.randrange(4, 13), 4))
                else:
                    v = (F(rng.randrange(4, 13), 4), F(1))
                w = (F(rng.randrange(0, 9), 2), F(rng.randrange(0, 9), 2))
                line = AdmissibleLine(v, w)
                assert barcode_along_line(got, line) == barcode_along_line(want, line)
        cells = [cid for cid, _, _ in X.cells]
        pp = PairedPresentations(P, Q)
        for p in (F(1), F(2)):
            func = sum(vec_pnorm_power([c - d for c, d in zip(f[cid], g[cid])], p)
                       for cid in cells)
            assert func == label_distance_power(pp, p)
        assert _function_distance(f, g, cells, math.inf) == label_distance(pp, math.inf)
    report(9, time.perf_counter() - t0, 60.0)


def test_c10_local_bound_oracle_gate(report):
    rng = random.Random(1010)
    t0 = time.perf_counter()
    for case in range(200):
        z = rng.randint(1, 6)
        labs = [(F(rng.randrange(0, 33), 4), F(rng.randrange(0, 33), 4))
                for _ in range(z)]
        s_lo = F(rng.randrange(-32, 29), 4)
        mu_lo = F(rng.randrange(-8, 6), 8)
        box = ParamBox(s_lo, s_lo + F(rng.randrange(1, 17), 4),
                       mu_lo, min(F(1), mu_lo + F(rng.randrange(1, 5), 8)))
        p = (F(1), F(2), math.inf)[case % 3]
        devs = [label_deviation(a, box) for a in labs]
        sampled = box_sample_max_power(labs, box, p, 100)  # 10^4 lines
        if p == math.inf:
            assert max(devs) >= sampled, case
        else:
            assert vec_pnorm_power(devs, p) >= sampled, case
    report(10, time.perf_counter() - t0, 120.0)


def test_c11_triangle_inequality_failure(triangle_m, report):
    t0 = time.perf_counter()
    q00_matrix = triangle_m.with_labels(((0, 0), (0, 0)), ((0, 0),))
    link1 = PairedPresentations(triangle_m, q00_matrix)
    link2 = pad_and_pair(q_free(0, 0), q_free(10, 10))
    total = chain_upper_bound([link1, link2], 1)
    assert total == 22
    # the paper's lower bound for the one-hop pairing distance at r = 10
    paper_one_hop_lower = 40
    assert total < paper_one_hop_lower
    report(11, time.perf_counter() - t0, 5.0)
