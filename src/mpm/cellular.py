"""Bifiltered cell complexes, free-module kernels, homology presentations.

The kernel of a morphism of free modules is free for n <= 2 parameters.
kernel_basis computes a basis that is also a Groebner basis for the
colexicographically ordered domain basis (pairwise distinct leading
components): the columns are swept once per distinct y-grade, in
ascending x within the sweep, reducing images against an echelon whose
combinations are tracked; a column whose image dies yields a syzygy
whose grade is the join of its support grades.  Only the first death of
a column is kept: a column that died in an earlier sweep dies again and
adds nothing, so later sweeps skip it (a single colex pass would emit
wrong grades: three columns hitting one generator at grades (0,2),
(2,0), (1,1) must produce kernel generators at (2,1) and (1,2), not
(2,2)).  Each sweep resumes from the previous one: the columns before
its first new column are reduced exactly as before, so their echelon
entries are kept and only the rest of the sweep is reduced.

homology_presentation reads the coordinates of each (j+1)-boundary in
the kernel basis of the j-th boundary map off the basis's distinct
colex leads, by division on the sweep's colex order: no second echelon
re-reduces the basis.

Each kernel vector keeps one form, the dict that
ColumnEchelon.add_tagged returns, through lead reduction and the
division; only kernel_basis freezes the vectors into the sorted tuples
of a KernelBasis.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import ComputationError, DataError, ParseError
from .field import ColumnEchelon, PrimeField, SparseCol, col_axpy
from .fpm import _preamble
from .grades import (Grade, as_grade, grade_formatter, grade_leq,
                     grade_parser, show_grade)
from .presentation import Column, Presentation, labels


# ---------------------------------------------------------------------------
# filtered complexes

Cell = tuple[str, int, Grade]


class FilteredComplex:
    """Finite CW/simplicial complex with a monotone grade per cell.

    boundary[cell id] lists (face id, coefficient) pairs over the field;
    faces must have dimension one lower, grades must be monotone, and
    the composite boundary must vanish.
    """

    __slots__ = ("field", "n_params", "cells", "boundary", "_index")

    def __init__(self, field: PrimeField, n_params: int,
                 cells: Iterable[Cell],
                 boundary: Mapping[str, Iterable[tuple[str, int]]]):
        if n_params not in (1, 2):
            raise DataError(f"n_params must be 1 or 2, got {n_params}")
        self.field = field
        self.n_params = n_params
        frozen_cells = []
        for cid, dim, grade in cells:
            cid = str(cid)
            if dim < 0:
                raise DataError(f"cell {cid} has negative dimension")
            grade = as_grade(grade)
            if len(grade) != n_params:
                raise DataError(f"cell {cid}: grade {grade} is not {n_params}-dimensional")
            frozen_cells.append((cid, dim, grade))
        self.cells: tuple[Cell, ...] = tuple(frozen_cells)
        self._index = {cid: i for i, (cid, _, _) in enumerate(self.cells)}
        if len(self._index) != len(self.cells):
            raise DataError("duplicate cell ids")
        bnd = {}
        for cid, _, _ in self.cells:
            entries = []
            for fid, coeff in boundary.get(cid, ()):
                fid = str(fid)
                coeff = coeff % field.q
                if coeff:
                    entries.append((fid, coeff))
            bnd[cid] = tuple(entries)
        self.boundary: dict[str, tuple[tuple[str, int], ...]] = bnd
        self._validate()

    def _validate(self):
        for cid, dim, grade in self.cells:
            for fid, _ in self.boundary[cid]:
                if fid not in self._index:
                    raise DataError(f"cell {cid}: unknown face {fid}")
                f_id, f_dim, f_grade = self.cells[self._index[fid]]
                if f_dim != dim - 1:
                    raise DataError(f"cell {cid}: face {fid} has dimension {f_dim}, expected {dim - 1}")
                if not grade_leq(f_grade, grade):
                    raise DataError(
                        f"grades not monotone: face {fid} at {show_grade(f_grade)} "
                        f"≰ cell {cid} at {show_grade(grade)}")
        q = self.field.q
        for cid, dim, _ in self.cells:
            if dim < 2:
                continue
            acc: dict[str, int] = {}
            for fid, c1 in self.boundary[cid]:
                for gid, c2 in self.boundary[fid]:
                    acc[gid] = (acc.get(gid, 0) + c1 * c2) % q
            if any(acc.values()):
                raise DataError(f"boundary of boundary of {cid} is nonzero")

    def cells_of_dim(self, dim: int) -> list[Cell]:
        return [c for c in self.cells if c[1] == dim]

    def with_grades(self, grades: Mapping[str, Grade]) -> "FilteredComplex":
        cells = []
        for cid, dim, _ in self.cells:
            if cid not in grades:
                raise DataError(f"no grade given for cell {cid}")
            cells.append((cid, dim, grades[cid]))
        return FilteredComplex(self.field, self.n_params, cells, self.boundary)

    def grade_map(self) -> dict[str, Grade]:
        return {cid: grade for cid, _, grade in self.cells}

    @staticmethod
    def from_simplices(field: PrimeField, n_params: int,
                       simplices: Mapping[tuple, Grade]) -> "FilteredComplex":
        """Simplicial input: keys are vertex tuples, boundaries implied.

        Every proper face of a listed simplex must be listed too.
        """
        def name(vs) -> str:
            return "-".join(str(v) for v in vs)

        keyed = {tuple(sorted(vs)): grade for vs, grade in simplices.items()}
        cells = []
        boundary = {}
        for vs in sorted(keyed, key=lambda t: (len(t), t)):
            dim = len(vs) - 1
            cells.append((name(vs), dim, keyed[vs]))
            faces = []
            if dim > 0:
                for i in range(len(vs)):
                    face = vs[:i] + vs[i + 1:]
                    if face not in keyed:
                        raise DataError(f"missing face {face} of simplex {vs}")
                    faces.append((name(face), (-1) ** i % field.q))
            boundary[name(vs)] = faces
        return FilteredComplex(field, n_params, cells, boundary)


# ---------------------------------------------------------------------------
# boundary maps

def _boundary_columns(X: FilteredComplex, j: int):
    """Row grades, column grades and sparse columns of the j-th boundary map."""
    rows = X.cells_of_dim(j - 1) if j >= 1 else []
    cols = X.cells_of_dim(j)
    row_pos = {cid: i for i, (cid, _, _) in enumerate(rows)}
    q = X.field.q
    columns = []
    for cid, _, _ in cols:
        entries: SparseCol = {}
        for fid, coeff in X.boundary[cid]:
            r = row_pos[fid]
            entries[r] = (entries.get(r, 0) + coeff) % q
        columns.append({r: v for r, v in entries.items() if v})
    return (tuple(g for _, _, g in rows), tuple(g for _, _, g in cols),
            columns)


def boundary_morphism(X: FilteredComplex, j: int) -> Presentation:
    """Matrix of the j-th boundary map of the associated chain complex.

    Rows are the (j-1)-cells, columns the j-cells, each labeled by its grade.
    """
    if j < 0:
        raise DataError("boundary degree must be nonnegative")
    return Presentation(X.field, X.n_params, *_boundary_columns(X, j))


# ---------------------------------------------------------------------------
# kernel bases

@dataclass(frozen=True)
class KernelBasis:
    """Basis of ker(gamma) with the colex Groebner property.

    columns[i] is the coordinate vector of the i-th basis element over
    the domain basis of gamma; grades[i] is the join of the grades of
    its support; leads[i] the colex-largest support index.
    """

    grades: tuple[Grade, ...]
    columns: tuple[Column, ...]
    leads: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.columns)


def _support_grade(vec: SparseCol, grades: Sequence[Grade]) -> Grade:
    return tuple(map(max, zip(*[grades[i] for i in vec])))


def _place_distinct_lead(vec: SparseCol, grade: Grade,
                         by_lead: dict[int, tuple[SparseCol, Grade]],
                         rank: Mapping[int, int], grades: Sequence[Grade],
                         field: PrimeField) -> int:
    """Reduce vec in place until its lead is free in by_lead, place
    (vec, grade) there and return that lead.

    Conflicting leads always have comparable grades (their lead shares
    the binding coordinate), so the smaller-grade vector stays and the
    other is reduced by it.  Reductions never change a vector's grade
    (all bases of a free module share the same grade multiset).

    The placed vector is always the smaller one: both callers place
    vectors in _kernel_sweep's emission order, which is colex in grade
    (sweeps run in ascending y, each in ascending x, and a first death
    in sweep y has grade (x_j, y)).  A vector that is <= a later one in
    the product order and differs from it is colex-smaller, so it was
    placed first; the later one is never strictly below it.  So a placed
    vector is never displaced or changed, and the returned lead is
    final.
    """
    q = field.q
    while True:
        if not vec:
            raise ComputationError("basis element reduced to zero")
        lead = max(vec, key=rank.__getitem__)
        held = by_lead.get(lead)
        if held is None:
            by_lead[lead] = (vec, grade)
            return lead
        other, other_grade = held
        if not grade_leq(other_grade, grade):
            raise ComputationError("leading component held by a grade not below the new one")
        col_axpy(vec, vec[lead] * field.inv(other[lead]) % q, other, q)
        if vec and _support_grade(vec, grades) != grade:
            raise ComputationError("lead reduction changed a basis grade")


def kernel_basis(gamma: Presentation) -> KernelBasis:
    """Groebner kernel basis for a morphism with n_params in {1, 2}.

    gamma maps the free module on its columns to the one on its rows.
    Sweep y, one per column y-grade (one sweep of all columns for one
    parameter), reduces the images of the columns of y-grade <= y in
    (x, index) order.  A column dies when its image reduces to zero, and
    its syzygy ends at the column in that order.  Only first deaths are
    kept; later sweeps skip dead columns, which leaves each echelon as
    it was, since a zero residual adds no pivot.  This keeps exactly the
    syzygies outside the span of the earlier generators of no larger
    grade (lead reduction keeps these spans):

    (a) dead columns stay dead: for y' < y, sweep y's order contains
        sweep y''s columns in the same relative order;
    (b) a first death of column j in sweep y has grade (x_j, y), and no
        combination of earlier generators, first deaths of other
        columns, ends at j;
    (c) a repeat death w of j is in that span: grade(w) >= grade(v) for
        j's first death v (else j died earlier), so w - v is a kernel
        vector of grade <= grade(w) ending before j; the column it ends
        at has a first death of no larger grade, and subtracting those,
        by induction on the end, leaves 0.

    Each kept syzygy is lead-reduced in colex order (reversed grade,
    then index) as it is found; leads[i] is its colex lead.  The sweep
    keeps the syzygies as the echelon's dicts, and only this function
    freezes them into the KernelBasis's sorted tuples.

    Two things make the sweeps cheap without changing any output:

    (d) Grade ranks.  The sweep sees each grade coordinate as its rank
        among the distinct values of that coordinate in the column
        grades.  The rank map is strictly increasing per coordinate, so
        it preserves <= and max there, hence every order, slice test,
        product-order test and join; the syzygy grades are mapped back
        once, at the end.
    (e) Resumed sweeps.  Every y-grade is some column's, so sweep y has
        a first new column (of y-grade y) in the one x-order; let the
        prefix be the positions before it.  The columns there have
        y-grade < y, so by (a) sweep y reduces exactly the prefix
        columns of the previous sweep minus those that died there.  A
        dying column adds no entry, and the others meet the same
        earlier entries, so they leave the same residuals, pivots and
        tracked expressions: the prefix's echelon entries are the
        previous sweep's, and none of its columns dies anew.  Entries
        are never replaced, so these are the previous echelon's first
        entries, and the sweep keeps them and reduces only from its
        first new column on.
    """
    grades, leads, vecs, _ = _kernel_sweep(gamma.field, gamma.n_params,
                                           gamma.col_labels, gamma.columns)
    return KernelBasis(tuple(grades), tuple(tuple(sorted(v.items())) for v in vecs),
                       tuple(leads))


def _kernel_sweep(field: PrimeField, n_params: int, dg: Sequence[Grade],
                  cols: Sequence[SparseCol]):
    """kernel_basis on column grades dg and columns cols, unchecked, as
    lists of the grades, the colex leads and the vectors as dicts, and
    the colex rank of every column index (the order of its leads)."""
    k = len(dg)
    values = [sorted({g[c] for g in dg}) for c in range(n_params)]
    ranks = [{v: r for r, v in enumerate(vs)} for vs in values]
    rg = [tuple(rk[v] for rk, v in zip(ranks, g)) for g in dg]
    colex_order = sorted(range(k), key=lambda i: (rg[i][::-1], i))
    rank = {i: r for r, i in enumerate(colex_order)}
    x_order = sorted(range(k), key=lambda i: (rg[i][0], i))
    y_of = [g[1] for g in rg] if n_params == 2 else [0] * k
    first_new: dict[int, int] = {}
    for pos, i in enumerate(x_order):
        first_new.setdefault(y_of[i], pos)

    grades: list[Grade] = []
    leads: list[int] = []
    vecs: list[SparseCol] = []
    by_lead: dict[int, tuple[SparseCol, Grade]] = {}
    dead: set[int] = set()
    ech = ColumnEchelon(field)
    entry_pos: list[int] = []  # x-order position behind each echelon entry
    for y, start in sorted(first_new.items()):
        ech.truncate(bisect_left(entry_pos, start))
        del entry_pos[ech.rank:]
        for pos in range(start, k):
            i = x_order[pos]
            if y_of[i] > y or i in dead:
                continue
            vec = ech.add_tagged(cols[i], i)
            if vec is None:
                entry_pos.append(pos)
                continue
            dead.add(i)
            g = _support_grade(vec, rg)
            leads.append(_place_distinct_lead(vec, g, by_lead, rank, rg, field))
            vecs.append(vec)
            grades.append(tuple(vs[r] for vs, r in zip(values, g)))
    return grades, leads, vecs, rank


def grade_injections(gamma: Presentation, C: KernelBasis):
    """Injective maps j_x, j_y from kernel elements to domain basis indices.

    C is kernel_basis(gamma), in its order.  j_y(c) is the colex leading
    component of c (its y-grade equals c's): C.leads, as kernel_basis
    lead-reduces in colex order.  j_x mirrors it with the coordinates
    swapped, on a copy of the basis lead-reduced in lex order.  Returns
    (j_x, j_y) as tuples of domain indices parallel to C.
    """
    if gamma.n_params != 2:
        raise DataError("grade injections are defined for 2-parameter morphisms")
    dg = gamma.col_labels
    rank = {i: r for r, i in enumerate(sorted(range(len(dg)), key=lambda i: (dg[i], i)))}
    by_lead: dict[int, tuple[SparseCol, Grade]] = {}
    j_x = tuple(_place_distinct_lead(dict(col), grade, by_lead, rank, dg, gamma.field)
                for col, grade in zip(C.columns, C.grades))
    for leads, coord in ((C.leads, 1), (j_x, 0)):
        if any(dg[lead][coord] != grade[coord] for lead, grade in zip(leads, C.grades)):
            raise ComputationError("leading component misses the binding coordinate")
        if len(set(leads)) != len(leads):
            raise ComputationError("grade injection is not injective")
    return j_x, C.leads


# ---------------------------------------------------------------------------
# homology presentations and the lifting construction

def homology_presentation(X: FilteredComplex, j: int) -> Presentation:
    """A presentation of the degree-j homology of the sublevel filtration.

    Rows are a kernel basis K of the j-th boundary map, columns the
    (j+1)-cells, entries the coordinates of their boundaries in K.  A
    boundary b is divided by K lead by lead, on the colex order of the
    sweep that built K: take b's colex-largest entry t, which must be
    the lead of exactly one K_i, record b[t] / K_i[t] as b's coordinate
    on K_i, subtract that multiple of K_i, and repeat until b is empty.
    These are the coordinates of b in K, and the only ones:

    (a) They exist and are unique.  b is a cycle, as FilteredComplex
        has checked that the composite boundary vanishes.  At a grade
        above every cell, the free kernel's basis K spans all cycles
        and is independent there.
    (b) Division recovers them.  The leads are pairwise distinct, so
        the colex-largest entry of sum c_i K_i is the lead of the i
        with c_i != 0 whose lead is largest, and its value is
        c_i K_i[lead].  Each step so reads off one c_i and leaves a
        combination of the K_i with smaller leads; a boundary whose
        largest entry is no lead would lie outside the span, and
        raises ComputationError.

    K's vectors are the sweep's dicts, used as they are: the division
    reads them and consumes only b.

    The two boundary matrices are not built as checked Presentations:
    FilteredComplex has already checked face <= cell for every entry,
    which is their label order.  The result gets the full check.
    """
    if j < 0:
        raise DataError("homology degree must be nonnegative")
    _, dg, cols = _boundary_columns(X, j)
    grades, leads, vecs, rank = _kernel_sweep(X.field, X.n_params, dg, cols)
    by_lead = {t: (i, k_i) for i, (t, k_i) in enumerate(zip(leads, vecs))}
    _, up_grades, up_cols = _boundary_columns(X, j + 1)
    columns = []
    for b in up_cols:  # fresh dicts, consumed by the division
        coords: SparseCol = {}
        while b:
            t = max(b, key=rank.__getitem__)
            if t not in by_lead:
                raise ComputationError("a boundary is outside the span of the kernel basis")
            i, k_i = by_lead[t]
            coords[i] = c = b[t] * X.field.inv(k_i[t]) % X.field.q
            col_axpy(b, c, k_i, X.field.q)
        columns.append(coords)
    return Presentation(X.field, X.n_params, grades, up_grades, columns)


def lift_presentations(P_M: Presentation, P_N: Presentation):
    """CW-complex realizing both presentations as degree-1 homology.

    One vertex at the joint coordinatewise minimum of all labels, one
    1-cell per row (attached at both ends to the vertex, so the degree-1
    boundary vanishes), one 2-cell per column with cellular boundary
    equal to that column.  Returns (X, f, g) where X carries the f
    grades and f, g map cell ids to grades; ||f - g||_p equals the label
    distance of the pair.
    """
    if not P_M.underlying_equal(P_N):
        raise DataError("lifting requires presentations with the same underlying matrix")
    if P_M.n_params != 2 or P_N.n_params != 2:
        raise DataError("lifting is defined for 2-parameter presentations")
    all_labels = labels(P_M) + labels(P_N)
    if all_labels:
        vx = min(g[0] for g in all_labels)
        vy = min(g[1] for g in all_labels)
    else:
        vx = vy = Fraction(0)
    base = (vx, vy)

    def build(P: Presentation) -> FilteredComplex:
        cells = [("v", 0, base)]
        cells += [(f"e{i}", 1, P.row_labels[i]) for i in range(P.n_rows)]
        cells += [(f"t{j}", 2, P.col_labels[j]) for j in range(P.n_cols)]
        boundary = {f"t{j}": tuple((f"e{r}", v) for r, v in P.columns[j])
                    for j in range(P.n_cols)}
        return FilteredComplex(P.field, 2, cells, boundary)

    X = build(P_M)
    # building P_N's complex also validates the monotonicity of g
    return X, X.grade_map(), build(P_N).grade_map()


# ---------------------------------------------------------------------------
# the .cwf format

def parse_complex(text: str) -> FilteredComplex:
    """Parse the ``.cwf`` format: header lines then one line per cell,
    ``<id> <dim> <grade...> : <face-id> <coeff> ...``."""
    lines, field, n_params = _preamble(text, "cwf")
    parse_grade = grade_parser(n_params)
    cells = []
    boundary = {}
    while not lines.done():
        lineno, line = lines.next("a cell line")
        head, _, tail = line.partition(":")
        toks = head.split()
        if len(toks) != 2 + n_params:
            raise ParseError("expected '<id> <dim> <grade...> : ...'", lineno)
        cid = toks[0]
        try:
            dim = int(toks[1])
            grade = parse_grade(toks[2:])
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(str(exc), lineno) from exc
        face_toks = tail.split()
        if len(face_toks) % 2:
            raise ParseError("boundary must be '<face-id> <coeff>' pairs", lineno)
        faces = []
        for fid, ctok in zip(face_toks[::2], face_toks[1::2]):
            try:
                coeff = int(ctok)
            except ValueError as exc:
                raise ParseError(f"bad coefficient {ctok!r}", lineno) from exc
            if not 0 < coeff < field.q:
                raise ParseError(f"coefficient {coeff} outside the field {field}", lineno)
            faces.append((fid, coeff))
        cells.append((cid, dim, grade))
        boundary[cid] = tuple(faces)
    try:
        return FilteredComplex(field, n_params, cells, boundary)
    except DataError as exc:
        raise ParseError(str(exc)) from exc


def serialize_complex(X: FilteredComplex) -> str:
    fmt = grade_formatter()
    out = ["cwf 1", f"field {X.field.q}", f"params {X.n_params}"]
    for cid, dim, grade in X.cells:
        entries = " ".join(f"{fid} {v}" for fid, v in X.boundary[cid])
        out.append(f"{cid} {dim} {fmt(grade)} :" + (f" {entries}" if entries else ""))
    return "\n".join(out) + "\n"
