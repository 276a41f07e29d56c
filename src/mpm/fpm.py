"""The ``.fpm`` text format for finitely presented modules.

Line-oriented, UTF-8::

    fpm 1
    field <q>
    params <n>
    rows <r>
    <n decimals>            (r times)
    cols <c>
    <n decimals> : <row-index> <coeff> [<row-index> <coeff> ...]   (c times)

``#`` starts a comment; blank lines are ignored.  Decimal (or ``a/b``)
literals are converted exactly to rationals.  Coefficients must already
lie in [1, q); out-of-range values are rejected rather than reduced.
"""
from __future__ import annotations

from .errors import DataError, ParseError
from .field import PrimeField
from .grades import grade_formatter, grade_parser
from .presentation import Presentation


class _Lines:
    def __init__(self, text: str):
        self.items = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.split("#", 1)[0].strip()
            if stripped:
                self.items.append((lineno, stripped))
        self.pos = 0

    def next(self, what: str) -> tuple[int, str]:
        if self.pos >= len(self.items):
            raise ParseError(f"unexpected end of file, expected {what}",
                             self.items[-1][0] + 1 if self.items else 1)
        item = self.items[self.pos]
        self.pos += 1
        return item

    def done(self) -> bool:
        return self.pos >= len(self.items)


def _keyword_int(lines: _Lines, keyword: str) -> tuple[int, int]:
    """(line number, value) of a '<keyword> <int>' line."""
    lineno, line = lines.next(f"'{keyword} <int>'")
    toks = line.split()
    if len(toks) != 2 or toks[0] != keyword:
        raise ParseError(f"expected '{keyword} <int>', got {line!r}", lineno)
    try:
        return lineno, int(toks[1])
    except ValueError as exc:
        raise ParseError(f"bad integer {toks[1]!r}", lineno) from exc


def _preamble(text: str, kind: str) -> tuple[_Lines, PrimeField, int]:
    """The lines of a document after its '<kind> 1', 'field <q>' and
    'params <n>' lines, with its field and n, which must be 1 or 2."""
    lines = _Lines(text)
    lineno, header = lines.next(f"'{kind} 1' header")
    if header.split() != [kind, "1"]:
        raise ParseError(f"expected '{kind} 1' header, got {header!r}", lineno)
    lineno, q = _keyword_int(lines, "field")
    try:
        field = PrimeField(q)
    except DataError as exc:
        raise ParseError(str(exc), lineno) from exc
    lineno, n_params = _keyword_int(lines, "params")
    if n_params not in (1, 2):
        raise ParseError(f"params must be 1 or 2, got {n_params}", lineno)
    return lines, field, n_params


def parse_presentation(text: str) -> Presentation:
    """Parse an ``.fpm`` document into a validated Presentation."""
    lines, fld, n_params = _preamble(text, "fpm")
    parse_grade = grade_parser(n_params)

    lineno, n_rows = _keyword_int(lines, "rows")
    if n_rows < 0:
        raise ParseError(f"rows must be >= 0, got {n_rows}", lineno)
    row_labels = []
    for _ in range(n_rows):
        lineno, line = lines.next("a row label")
        try:
            row_labels.append(parse_grade(line.split()))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(str(exc), lineno) from exc

    lineno, n_cols = _keyword_int(lines, "cols")
    if n_cols < 0:
        raise ParseError(f"cols must be >= 0, got {n_cols}", lineno)
    col_labels = []
    columns = []
    for _ in range(n_cols):
        lineno, line = lines.next("a column line")
        head, _, tail = line.partition(":")
        try:
            col_labels.append(parse_grade(head.split()))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(str(exc), lineno) from exc
        toks = tail.split()
        if len(toks) % 2:
            raise ParseError("column entries must be '<row-index> <coeff>' pairs", lineno)
        col = {}
        for rtok, ctok in zip(toks[::2], toks[1::2]):
            try:
                r, c = int(rtok), int(ctok)
            except ValueError as exc:
                raise ParseError(f"bad entry pair {rtok!r} {ctok!r}", lineno) from exc
            if not 0 <= r < n_rows:
                raise ParseError(f"row index {r} out of range", lineno)
            if not 0 < c < fld.q:
                raise ParseError(f"coefficient {c} outside the field {fld}", lineno)
            if r in col:
                raise ParseError(f"duplicate row index {r}", lineno)
            col[r] = c
        columns.append(col)
    if not lines.done():
        lineno, line = lines.next("")
        raise ParseError(f"trailing content {line!r}", lineno)
    try:
        return Presentation(fld, n_params, tuple(row_labels), tuple(col_labels),
                            tuple(tuple(sorted(c.items())) for c in columns))
    except DataError as exc:
        raise ParseError(str(exc)) from exc


def serialize_presentation(P: Presentation) -> str:
    """Serialize; parse(serialize(P)) == P exactly."""
    fmt = grade_formatter()
    out = ["fpm 1", f"field {P.field.q}", f"params {P.n_params}", f"rows {P.n_rows}"]
    out.extend(map(fmt, P.row_labels))
    out.append(f"cols {P.n_cols}")
    for g, col in zip(P.col_labels, P.columns):
        entries = " ".join(f"{r} {v}" for r, v in col)
        out.append(f"{fmt(g)} :" + (f" {entries}" if entries else ""))
    return "\n".join(out) + "\n"
