import math
import random
from fractions import Fraction as F

import pytest

from mpm import (ChainError, ComputationError, DataError, PairedPresentations,
                 PairingError, Presentation, PrimeField, SubdivisionLimitError,
                 approx_matching_distance, bounds, chain_upper_bound,
                 free_presentation, hilbert_dim, label_distance,
                 label_distance_power, pad_and_pair, presdist)
from mpm.fixtures import labels_for_matrix, random_matrix, random_paired_presentations
from mpm.presentation import labels

from conftest import q_free, shuffled_label_distinct_pairs
from oracles import rank_invariant

F2 = PrimeField(2)


def test_label_distance_stability_pair(pres_f, pres_g):
    pp = PairedPresentations(pres_f, pres_g)
    assert label_distance_power(pp, 1) == 2
    assert label_distance_power(pp, 2) == 2
    assert label_distance(pp, math.inf) == 1
    assert label_distance(pp, 1) == 2


def test_label_distance_triangle_example(triangle_m):
    q00 = Presentation(F2, 2, ((0, 0), (0, 0)), ((0, 0),), (((0, 1), (1, 1)),))
    pp = PairedPresentations(triangle_m, q00)
    assert label_distance_power(pp, 1) == 2
    assert label_distance_power(pp, 2) == 2
    assert label_distance(pp, math.inf) == 1


def test_label_distance_zero_on_identity(pres_f):
    pp = PairedPresentations(pres_f, pres_f)
    assert label_distance(pp, 1) == 0


def test_paired_presentations_require_same_matrix(pres_f, pres_g, h1_f):
    PairedPresentations(pres_f, pres_g)
    with pytest.raises(DataError):
        PairedPresentations(pres_f, h1_f)


def test_paired_presentations_require_same_parameter_count():
    # the same 1x1 matrix under 1- and 2-parameter labels is no pair
    one = Presentation(F2, 1, ((0,),), ((1,),), (((0, 1),),))
    two = Presentation(F2, 2, ((0, 0),), ((1, 1),), (((0, 1),),))
    for first, second in ((one, two), (two, one)):
        with pytest.raises(DataError, match="parameter count"):
            PairedPresentations(first, second)


def test_presdist_refusals_and_the_pairing_of_empty_presentations():
    # the refusals no other test reaches, each with its message; and two
    # presentations with no labels, which have no label to pad with
    one, two = free_presentation([(0,)], F2), q_free(0, 0)
    for call, error, message in (
            (lambda: PairedPresentations(two, free_presentation([(0, 0)], PrimeField(3))),
             DataError, "paired presentations must share the coefficient field"),
            (lambda: pad_and_pair(one, two),
             PairingError, "presentations have different parameter counts")):
        with pytest.raises(error, match=f"^{message}$"):
            call()
    empty = free_presentation([], F2, n_params=2)
    pp = pad_and_pair(empty, empty)
    assert pp == PairedPresentations(empty, empty)
    assert label_distance(pp, 1) == 0


def test_pad_and_pair_free_modules():
    pp = pad_and_pair(q_free(0, 0), q_free(10, 10))
    assert label_distance(pp, 1) == 20
    assert label_distance(pp, math.inf) == 10
    assert float(label_distance(pp, 2)) == pytest.approx(10 * 2 ** 0.5)


def test_pad_and_pair_identity(pres_f):
    pp = pad_and_pair(pres_f, pres_f)
    assert label_distance(pp, 1) == 0


def test_pad_and_pair_pads_redundant_pair():
    small = q_free(0, 0)                       # 1 row, 0 cols
    big = Presentation(F2, 2, ((0, 0), (1, 1)), ((2, 2),), (((1, 1),),))
    pp = pad_and_pair(small, big)
    assert pp.first.n_rows == 2 and pp.first.n_cols == 1
    assert pp.first.underlying_equal(pp.second)


def test_pad_and_pair_incompatible_matrices():
    # a 1x1 unit matrix cannot be aligned with a 1x1 zero matrix
    a = Presentation(F2, 2, ((0, 0),), ((1, 1),), (((0, 1),),))
    b = Presentation(F2, 2, ((0, 0),), ((1, 1),), ((),))
    with pytest.raises(PairingError):
        pad_and_pair(a, b)
    with pytest.raises(PairingError):
        pad_and_pair(a, Presentation(PrimeField(5), 2, ((0, 0),), ((1, 1),), (((0, 1),),)))


def _label_order(R):
    return (sorted(range(R.n_rows), key=lambda i: (R.row_labels[i], i)),
            sorted(range(R.n_cols), key=lambda j: (R.col_labels[j], j)))


def test_pad_and_pair_needs_the_refined_order(monkeypatch):
    # Q is P with rows and columns rotated and relabelled so that neither
    # the given order nor the label order lines the matrices up; the
    # refinement colours (a column's count of entries, a row's) do
    P = Presentation(F2, 2, ((0, 0), (1, 0), (2, 0)), ((0, 1), (1, 1), (2, 1)),
                     (((0, 1),), ((0, 1), (1, 1)), ((0, 1), (1, 1), (2, 1))))
    Q = P.permuted([2, 0, 1], [2, 0, 1]).with_labels(
        ((0, 0), (0, 2), (0, 1)), ((3, 3),) * 3)
    assert not P.permuted(*_label_order(P)).underlying_equal(Q.permuted(*_label_order(Q)))
    assert label_distance(pad_and_pair(P, Q), 1) == 18
    monkeypatch.setattr(presdist, "_wl_orders",
                        lambda R: (list(range(R.n_rows)), list(range(R.n_cols))))
    with pytest.raises(PairingError):
        pad_and_pair(P, Q)


def _same_shape_pairs(rng, n):
    """Same-matrix, row- and column-shuffled, and unrelated same-shape
    pairs, in turn; none has a side with a single label grade, which
    _uniform_borrow would also pair."""
    out = []
    while len(out) < n:
        field = PrimeField(rng.choice([2, 3]))
        P, Q = random_paired_presentations(rng, max_rows=4, max_cols=4, field=field,
                                           span=4)
        kind = len(out) % 3
        if kind == 1:
            row_order, col_order = list(range(Q.n_rows)), list(range(Q.n_cols))
            rng.shuffle(row_order)
            rng.shuffle(col_order)
            Q = Q.permuted(row_order, col_order)
        elif kind == 2:
            columns = random_matrix(rng, P.n_rows, P.n_cols, field)
            rows, cols = labels_for_matrix(rng, columns, P.n_rows, 2, span=4)
            Q = Presentation(field, 2, rows, cols, columns)
        if all(len(set(labels(R))) > 1 for R in (P, Q)):
            out.append((P, Q))
    return out


def test_pad_and_pair_is_the_best_of_its_orders():
    # the pairing is the first p = 1 minimum over the given, label-sorted
    # and refined orders; pad_and_pair leaves the label-sorted one out,
    # as the refined one aligns the same labels whenever it aligns
    rng = random.Random(29)
    aligned = 0
    for P, Q in _same_shape_pairs(rng, 450):
        candidates = []
        for orders in (lambda R: (range(R.n_rows), range(R.n_cols)), _label_order,
                       presdist._wl_orders):
            A, B = P.permuted(*orders(P)), Q.permuted(*orders(Q))
            if A.underlying_equal(B):
                candidates.append(PairedPresentations(A, B))
        if not candidates:
            with pytest.raises(PairingError):
                pad_and_pair(P, Q)
            continue
        aligned += 1
        best = min(candidates, key=lambda pp: label_distance(pp, 1))
        pp = pad_and_pair(P, Q)
        for p in (1, 2, math.inf):
            assert label_distance(pp, p) == label_distance(best, p), (P, Q, p)
    assert 300 < aligned < 450


def test_chain_junction_accepts_a_shuffled_copy():
    # distinct labels: the label-ordered minimal forms of P and of P with
    # rows and columns shuffled are equal
    for P, Q in shuffled_label_distinct_pairs(7, 4):
        chain = [PairedPresentations(P, P), PairedPresentations(Q, Q)]
        assert chain_upper_bound(chain, 1) == 0


def test_chain_upper_bound_triangle_failure(triangle_m):
    # M -> Q^(0,0) -> Q^(10,10) at p = 1 costs 2 + 20 = 22, beating the
    # one-hop lower bound 4r = 40 of the direct pairing distance
    q00_matrix = Presentation(F2, 2, ((0, 0), (0, 0)), ((0, 0),), (((0, 1), (1, 1)),))
    link1 = PairedPresentations(triangle_m, q00_matrix)
    link2 = pad_and_pair(q_free(0, 0), q_free(10, 10))
    total = chain_upper_bound([link1, link2], 1)
    assert total == 22
    assert total < 40


def test_chain_endpoint_mismatch_detected(triangle_m):
    link1 = PairedPresentations(triangle_m, triangle_m)
    link2 = pad_and_pair(q_free(5, 5), q_free(6, 6))
    with pytest.raises(ChainError):
        chain_upper_bound([link1, link2], 1)


def test_chain_junction_needs_a_proof_not_equal_hilbert_functions():
    # A = [0,2) + [1,3) and B = [0,3) + [1,2) have equal Hilbert
    # functions, but W_1 of their barcodes is 2: the junction A | B must
    # be refused
    A = Presentation(F2, 1, ((0,), (1,)), ((2,), (3,)), (((0, 1),), ((1, 1),)))
    B = Presentation(F2, 1, ((0,), (1,)), ((2,), (3,)), (((1, 1),), ((0, 1),)))
    assert all(hilbert_dim(A, (g,)) == hilbert_dim(B, (g,)) for g in range(5))
    with pytest.raises(ChainError):
        chain_upper_bound([PairedPresentations(A, A), PairedPresentations(B, B)], 1)
    # 1-parameter junctions with equal barcodes are accepted: B with its
    # generators swapped, and A with a redundant pair appended
    B_swapped = B.permuted([1, 0], [0, 1])
    A_padded = Presentation(F2, 1, ((0,), (1,), (5,)), ((2,), (3,), (5,)),
                            (((0, 1),), ((1, 1),), ((2, 1),)))
    assert B_swapped != B and A_padded != A
    for left, right in ((B, B_swapped), (A, A_padded)):
        link1, link2 = PairedPresentations(left, left), PairedPresentations(right, right)
        assert chain_upper_bound([link1, link2], 1) == 0
    # a uniformly graded junction needs equal rows - rank, and one field
    R = Presentation(F2, 2, ((0, 0), (0, 0)), ((0, 0),), (((0, 1),),))
    free2 = Presentation(F2, 2, ((0, 0), (0, 0)), (), ())
    R5 = Presentation(PrimeField(5), 2, ((0, 0), (0, 0)), ((0, 0),), (((0, 1),),))
    for other, ok in ((q_free(0, 0), True), (free2, False), (R5, False)):
        chain = [PairedPresentations(R, R), PairedPresentations(other, other)]
        if ok:
            assert chain_upper_bound(chain, 1) == 0
        else:
            with pytest.raises(ChainError):
                chain_upper_bound(chain, 1)


def test_chain_junction_accepts_equal_minimal_presentations():
    # A has generators at (0,0) and (1,0) and relations at (2,1) and
    # (1,3); A_extra adds their sum at the join (2,3), a redundant
    # relation, and a generator cancelled by a relation at (4,4).  Both
    # present one module, and their grades are not uniform
    A = Presentation(F2, 2, ((0, 0), (1, 0)), ((2, 1), (1, 3)),
                     (((0, 1), (1, 1)), ((0, 1),)))
    A_extra = Presentation(F2, 2, ((0, 0), (1, 0), (4, 4)),
                           ((2, 1), (2, 3), (1, 3), (4, 4)),
                           (((0, 1), (1, 1)), ((1, 1),), ((0, 1),), ((1, 1), (2, 1))))
    for left, right in ((A, A_extra), (A_extra, A)):
        chain = [PairedPresentations(left, left), PairedPresentations(right, right)]
        assert chain_upper_bound(chain, 1) == 0
    # moving the relation at (1,3) to the other generator keeps the
    # Hilbert function but not the module
    A_other = Presentation(F2, 2, ((0, 0), (1, 0)), ((2, 1), (1, 3)),
                           (((0, 1), (1, 1)), ((1, 1),)))
    s, t = (F(0), F(0)), (F(1), F(3))
    assert (rank_invariant(A, s, t), rank_invariant(A_other, s, t)) == (0, 1)
    with pytest.raises(ChainError):
        chain_upper_bound([PairedPresentations(A, A),
                           PairedPresentations(A_other, A_other)], 1)


def test_chain_trivial_cases(pres_f):
    assert chain_upper_bound([], 1) == 0
    pp = PairedPresentations(pres_f, pres_f)
    assert chain_upper_bound([pp], 1) == label_distance(pp, 1) == 0


def test_p_monotonicity_of_label_distance():
    rng = random.Random(109)
    for _ in range(40):
        P, Q = random_paired_presentations(rng, max_rows=4, max_cols=4)
        pp = PairedPresentations(P, Q)
        vals = [float(label_distance(pp, p)) for p in (F(1), F(2), F(4), math.inf)]
        for lo, hi in zip(vals, vals[1:]):
            assert lo >= hi - 1e-9


def test_bounds_identical_inputs(pres_f):
    rep = bounds(pres_f, pres_f, 1, F(1, 100))
    assert rep.lower == 0 and rep.upper == 0


def test_bounds_stability_pair(pres_f, pres_g):
    rep = bounds(pres_f, pres_g, 1, F(1, 20))
    assert float(rep.lower) >= 1 - 0.05
    assert float(rep.upper) <= 2
    assert float(rep.lower) <= float(rep.upper)
    assert rep.matchdist is not None and rep.matchdist.converged


def test_bounds_triangle_example(triangle_m):
    rep = bounds(triangle_m, q_free(0, 0), math.inf, F(1, 20))
    assert rep.upper == 1  # the paper's pairing at p = inf
    assert float(rep.lower) <= 1


def test_bounds_keeps_the_partial_report_of_a_depth_guard(monkeypatch, pres_f, pres_g):
    # a matching-distance run stopped by its depth guard still certifies
    # its lower bound: bounds keeps that lower and the report itself
    with pytest.raises(SubdivisionLimitError) as info:
        approx_matching_distance(pres_f, pres_g, 1, F(1, 20), max_depth=1)
    partial = info.value.report
    assert not partial.converged

    def stopped(*args, **kwargs):
        raise SubdivisionLimitError("subdivision depth limit 1 reached", partial)

    monkeypatch.setattr(presdist, "approx_matching_distance", stopped)
    rep = bounds(pres_f, pres_g, 1, F(1, 20))
    assert rep.matchdist is partial and rep.lower == partial.lower == 1
    assert rep.upper == 2
    assert rep.provenance[0] == "lower: matching-distance run hit the depth guard; bound kept"


def test_bounds_over_different_fields_has_no_upper_bound():
    rep = bounds(free_presentation([(0, 0)], F2), free_presentation([(1, 1)], PrimeField(3)),
                 1, F(1, 10))
    assert rep.lower == 1 and rep.upper == math.inf
    assert rep.provenance[1] == ("upper: no pairing found (presentations are over "
                                 "different fields); bound is infinite")


def test_bounds_rejects_an_upper_bound_below_the_lower(monkeypatch, pres_f, pres_g):
    # lower = 1 here, so an upper of 0 is more than eps below it
    monkeypatch.setattr(presdist, "label_distance", lambda pp, p: F(0))
    with pytest.raises(ComputationError, match=r"^lower bound 1\.0 exceeds upper bound 0\.0$"):
        bounds(pres_f, pres_g, 1, F(1, 20))


def test_sandwich_on_random_pairs():
    rng = random.Random(113)
    for _ in range(8):
        P, Q = random_paired_presentations(rng, max_rows=3, max_cols=3, span=4)
        for p in (F(1), math.inf):
            rep = bounds(P, Q, p, F(1, 10))
            assert float(rep.lower) <= float(rep.upper) + 0.1 + 1e-9
