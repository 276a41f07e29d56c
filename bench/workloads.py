"""The benchmark's workloads: fixtures from a seed, one op, output checks.

Every op goes through module attributes (``mods.presdist.bounds``, ...)
looked up at call time, so the tracer's wrappers see each call.

The two matchdist workloads use pinned generator seeds.  Their op cost
spans orders of magnitude from pair to pair (0.01 s to 10 s when the
benchmark was written), so a pool drawn afresh for each ``--seed`` would
make the end-to-end medians differ between seeds by more than any useful
bound.
``--seed`` instead applies exact symmetries of the distance to each
pinned pair: a common translation of all labels, a common permutation of
rows and of columns, and a swap of the two modules.  The program
receives different ``.fpm`` text for each seed while the difficulty
stays fixed, and the recorded reference intervals hold for every seed.
The cellular op cost varies little between random complexes of one size
(log-spread 0.09), so ``exact-cellular`` draws fresh complexes per seed.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

EPS_RANDOM = Fraction(1, 4)
EPS_PLATEAU = Fraction(1, 10)

# random_paired_presentations(Random(s), 2, n, n) with n = 4 + s % 13: the
# seeds below 29 whose op (bounds at p = 1 and p = inf) took at most 1.5 s
# when the benchmark was written, plus seed 51 (8 x 16, 2.2 s) so that a
# large p = 1 assignment sets the tail.  Seeds 9, 11, 12, 19 and 24 took
# 2.7-10.8 s each and would make one pass longer than a run.
RANDOM_SEEDS = (0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 13, 14, 15, 16, 17, 18, 20, 21,
                22, 23, 25, 26, 27, 28, 51)

# random_paired_presentations(Random(s), 2, 3, 3): the seeds below 120 whose
# p = inf run at eps 0.1 needed at least 1,500 lines and at most 1 s when the
# benchmark was written.
PLATEAU_SEEDS = (3, 8, 16, 20, 25, 30, 37, 39, 41, 45, 49, 61, 69, 83, 97, 98,
                 101, 104, 107, 111, 112)

# exact-cellular: complexes per seed, and the exact per-line schedule.
CELL_POOL = 12
CELL_LINES = (((1, 1), (0, 0)), ((1, Fraction(3, 2)), (1, 0)),
              ((Fraction(3, 2), 1), (0, 1)))
# (degree, p, line indices); H1 at p = 1 is the costly exact assignment, so
# it runs on one line only and homology keeps a comparable share
CELL_SCHEDULE = ((0, 1, (0, 1, 2)), (0, math.inf, (0, 1, 2)),
                 (1, math.inf, (0, 1, 2)), (1, 1, (0,)))
CELL_GRID = tuple((Fraction(x), Fraction(y)) for x in (2, 5, 8, 11) for y in (2, 5, 8, 11))

INF_KEY = "inf"


def p_key(p) -> str:
    return INF_KEY if p == math.inf else str(p)


@dataclass
class Fixture:
    """One op's input text and the data its checks need."""

    name: str
    texts: tuple[str, str]
    check_lines: list = field(default_factory=list)
    norms: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# matchdist workloads

def _pinned_pair(mods, gen_seed: int, size: int, rng: random.Random) -> Fixture:
    """A pinned pair moved by a seeded translation, permutation and swap."""
    A, B = mods.fixtures.random_paired_presentations(random.Random(gen_seed), 2, size, size)
    rows, cols = list(range(A.n_rows)), list(range(A.n_cols))
    rng.shuffle(rows)
    rng.shuffle(cols)
    dx, dy = (Fraction(rng.randrange(0, 41), 4) for _ in range(2))

    def move(P):
        P = P.permuted(rows, cols)
        return P.with_labels([(x + dx, y + dy) for x, y in P.row_labels],
                             [(x + dx, y + dy) for x, y in P.col_labels])

    A, B = move(A), move(B)
    if rng.random() < 0.5:
        A, B = B, A
    lines = []
    for _ in range(2):
        slope = 1 + Fraction(rng.randrange(0, 9), 4)
        v = (1, slope) if rng.random() < 0.5 else (slope, 1)
        w = (dx + Fraction(rng.randrange(-8, 33), 4), dy + Fraction(rng.randrange(-8, 33), 4))
        lines.append(mods.lines.AdmissibleLine(v, w))
    serialize = mods.fpm.serialize_presentation
    return Fixture(str(gen_seed), (serialize(A), serialize(B)), lines)


def _distance_record(report) -> dict:
    return {"lower": report.lower, "upper": report.upper,
            "lines": report.lines_evaluated, "converged": report.converged,
            "max_depth": report.max_depth_seen}


class MatchdistWorkload:
    """Certified distances of pinned pairs; subclasses choose p and the call."""

    name = ""
    tail_pct = 0
    seeds: tuple = ()
    eps = Fraction(0)
    ps: tuple = ()

    def size(self, gen_seed: int) -> int:
        raise NotImplementedError

    def build(self, mods, seed: int) -> list[Fixture]:
        rng = random.Random(seed)
        return [_pinned_pair(mods, s, self.size(s), rng) for s in self.seeds]

    def check(self, mods, fx: Fixture, out: dict, reference: dict) -> list[str]:
        A = mods.fpm.parse_presentation(fx.texts[0])
        B = mods.fpm.parse_presentation(fx.texts[1])
        eps = float(self.eps)
        problems = []
        for p in self.ps:
            rec = out[p_key(p)]
            lower, upper = float(rec["lower"]), float(rec["upper"])
            tag = f"{self.name}/{fx.name}/p={p_key(p)}"
            if not rec["converged"]:
                problems.append(f"{tag}: did not converge")
            if not lower <= upper:
                problems.append(f"{tag}: lower {lower} > upper {upper}")
            if not upper - lower <= eps + 1e-9:
                problems.append(f"{tag}: gap {upper - lower} > eps {eps}")
            if "pair_upper" in rec and not lower <= float(rec["pair_upper"]) + eps:
                problems.append(f"{tag}: matching lower {lower} above pairing upper")
            for line in fx.check_lines:
                exact = mods.wasserstein.wasserstein(
                    mods.lines.barcode_along_line(A, line),
                    mods.lines.barcode_along_line(B, line), p)
                if not float(exact) <= upper + 1e-9:
                    problems.append(f"{tag}: line {line} has distance {float(exact)} > upper")
            ref = reference.get(fx.name, {}).get(p_key(p))
            if ref is None:
                problems.append(f"{tag}: no reference interval")
            elif not (lower <= ref[1] + 1e-9 and ref[0] <= upper + 1e-9):
                problems.append(f"{tag}: [{lower}, {upper}] misses reference {ref}")
        return problems


class MatchdistRandom(MatchdistWorkload):
    """bounds() at p = 1 and p = inf on pinned random pairs, n in 4..16."""

    name = "matchdist-random"
    tail_pct = 80
    seeds = RANDOM_SEEDS
    eps = EPS_RANDOM
    ps = (1, math.inf)

    def size(self, gen_seed: int) -> int:
        return 4 + gen_seed % 13

    def op(self, mods, fx: Fixture) -> dict:
        A = mods.fpm.parse_presentation(fx.texts[0])
        B = mods.fpm.parse_presentation(fx.texts[1])
        out = {}
        for p in self.ps:
            rep = mods.presdist.bounds(A, B, p, self.eps)
            rec = _distance_record(rep.matchdist)
            rec["pair_upper"] = rep.upper
            out[p_key(p)] = rec
        return out


class MatchdistPlateau(MatchdistWorkload):
    """approx_matching_distance at p = inf, eps 0.1, on pinned 3x3 plateaus."""

    name = "matchdist-plateau"
    tail_pct = 85
    seeds = PLATEAU_SEEDS
    eps = EPS_PLATEAU
    ps = (math.inf,)

    def size(self, gen_seed: int) -> int:
        return 3

    def op(self, mods, fx: Fixture) -> dict:
        A = mods.fpm.parse_presentation(fx.texts[0])
        B = mods.fpm.parse_presentation(fx.texts[1])
        try:
            rep = mods.matchdist.approx_matching_distance(A, B, math.inf, self.eps)
        except mods.errors.SubdivisionLimitError as exc:
            rep = exc.report
        return {INF_KEY: _distance_record(rep)}


# ---------------------------------------------------------------------------
# exact-cellular

def _grade_norms(f: dict, g: dict) -> dict:
    deltas = [abs(a - b) for cid in f for a, b in zip(f[cid], g[cid])]
    return {"1": sum(deltas, Fraction(0)), INF_KEY: max(deltas, default=Fraction(0))}


class ExactCellular:
    """Homology presentations of perturbed complexes and exact per-line distances."""

    name = "exact-cellular"
    tail_pct = 70

    def build(self, mods, seed: int) -> list[Fixture]:
        out = []
        for i in range(CELL_POOL):
            rng = random.Random(seed * 1000 + i)
            X = mods.fixtures.random_monotone_complex(
                rng, n_vertices=30, edge_rate=0.25, max_cells=150)
            g = mods.fixtures.perturbed_refiltration(rng, X)
            Y = X.with_grades(g)
            texts = (mods.cellular.serialize_complex(X), mods.cellular.serialize_complex(Y))
            out.append(Fixture(str(i), texts, norms=_grade_norms(X.grade_map(), g)))
        return out

    def lines(self, mods):
        return [mods.lines.AdmissibleLine(v, w) for v, w in CELL_LINES]

    def op(self, mods, fx: Fixture) -> dict:
        X = mods.cellular.parse_complex(fx.texts[0])
        Y = mods.cellular.parse_complex(fx.texts[1])
        lines = self.lines(mods)
        H, texts, values = {}, {}, {}
        for j in (0, 1):
            H[j] = (mods.cellular.homology_presentation(X, j),
                    mods.cellular.homology_presentation(Y, j))
            texts[j] = tuple(mods.fpm.serialize_presentation(P) for P in H[j])
        for j, p, idx in CELL_SCHEDULE:
            for li in idx:
                values[f"{j}/{p_key(p)}/{li}"] = mods.matchdist.sampled_lower_bound(
                    H[j][0], H[j][1], p, [lines[li]])
        return {"presentations": H, "texts": texts, "values": values}

    def check(self, mods, fx: Fixture, out: dict, reference: dict) -> list[str]:
        problems = []
        tag = f"{self.name}/{fx.name}"
        values = out["values"]
        for key, value in values.items():
            j, pk, li = key.split("/")
            if not 0 <= value <= fx.norms[pk]:
                problems.append(f"{tag}/{key}: {value} outside [0, ||f - g||_{pk}]")
            twin = values.get(f"{j}/1/{li}")
            if pk == INF_KEY and twin is not None and not value <= twin:
                problems.append(f"{tag}/{key}: p = inf value above the p = 1 value")
        for j, pair in out["presentations"].items():
            for P, text in zip(pair, out["texts"][j]):
                if mods.fpm.parse_presentation(text) != P:
                    problems.append(f"{tag}: H{j} does not survive serialization")
        if reference:
            ref = reference["fixtures"][int(fx.name)]
            got = {k: str(v) for k, v in values.items()}
            if got != ref["values"]:
                problems.append(f"{tag}: per-line distances differ from the reference")
            if hilbert_table(mods, out["presentations"]) != ref["hilbert"]:
                problems.append(f"{tag}: Hilbert dimensions differ from the reference")
        return problems


def hilbert_table(mods, presentations: dict) -> dict:
    return {f"{j}/{k}": [mods.presentation.hilbert_dim(P, g) for g in CELL_GRID]
            for j, pair in presentations.items() for k, P in enumerate(pair)}


def op_record(out: dict) -> dict:
    """The per-op fields of the run record: lines, lower, upper, converged."""
    if "values" in out:
        return {"values": {k: str(v) for k, v in out["values"].items()}}
    return {pk: {"lines": r["lines"], "lower": float(r["lower"]),
                 "upper": float(r["upper"]), "converged": r["converged"]}
            for pk, r in out.items()}


WORKLOADS = {w.name: w for w in (MatchdistRandom(), MatchdistPlateau(), ExactCellular())}
