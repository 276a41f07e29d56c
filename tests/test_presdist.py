import math
import random
from fractions import Fraction as F

import pytest

from mpm import (ChainError, DataError, PairedPresentations,
                 PairingError, Presentation, PrimeField, bounds,
                 chain_upper_bound,
                 hilbert_dim, label_distance, label_distance_power,
                 pad_and_pair)
from mpm.fixtures import random_paired_presentations

from conftest import q_free

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


def test_sandwich_on_random_pairs():
    rng = random.Random(113)
    for _ in range(8):
        P, Q = random_paired_presentations(rng, max_rows=3, max_cols=3, span=4)
        for p in (F(1), math.inf):
            rep = bounds(P, Q, p, F(1, 10))
            assert float(rep.lower) <= float(rep.upper) + 0.1 + 1e-9
