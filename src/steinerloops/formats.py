"""Text formats for systems, loops, factor systems, operators and reports.

System file: first line ``v b``, then b lines of three 0-based point labels,
each line ascending, lines in lexicographic order. Lines starting with ``#``
are comments and are ignored on read.

Loop and block files use the element labels ``W`` (identity) and the point
labels 0..v-1 for the rest, matching the carrier convention point i <->
element i+1.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path

import numpy as np

from .design_core import SteinerLoop, TripleSystem
from .errors import FormatError
from .schreier import ClassificationReport, FactorSystem
from .steiner_operator import LatinSquare, SteinerOperator


def _data_lines(text: str) -> list:
    """The stripped lines of text that are neither blank nor comments."""
    return [line for line in map(str.strip, text.splitlines()) if line and line[0] != "#"]


def _head(lines: list, kind: str, names: str) -> tuple:
    """The two integers of the first of a kind file's data lines, which
    names them ('v b'); FormatError on no lines or another first line."""
    if not lines:
        raise FormatError(f"empty {kind} file")
    try:
        first, second = map(int, lines[0].split())
    except ValueError as exc:  # not two integers
        raise FormatError(f"first line must be '{names}'") from exc
    return first, second


def _label(e: int) -> str:
    return "W" if e == 0 else str(e - 1)


def _unlabel(tok: str, n: int) -> int:
    if tok == "W":
        return 0
    try:
        e = int(tok) + 1
    except ValueError as exc:
        raise FormatError(f"bad element label {tok!r}") from exc
    if not 1 <= e < n:
        raise FormatError(f"element label {tok!r} out of range")
    return e


# -- systems -----------------------------------------------------------------


def render_system(s: TripleSystem, comments=()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(f"{s.v} {s.b}")
    lines.append(("%d %d %d\n" * s.b) % tuple(s.lines.ravel().tolist()))
    return "\n".join(lines)


def parse_system(text: str) -> TripleSystem:
    lines = _data_lines(text)
    v, b = _head(lines, "system", "v b")
    if len(lines) - 1 != b:
        raise FormatError(f"expected {b} triple lines, found {len(lines) - 1}")
    rows = [line.split() for line in lines[1:]]
    try:
        values = list(map(int, chain.from_iterable(rows))) if set(map(len, rows)) <= {3} else None
    except ValueError:
        values = None
    if values is None:  # name the first bad line
        for line, parts in zip(lines[1:], rows):
            if len(parts) != 3:
                raise FormatError(f"triple line needs three labels: {line!r}")
            try:
                list(map(int, parts))
            except ValueError as exc:
                raise FormatError(f"bad point label in {line!r}") from exc
    try:
        triples = np.array(values, dtype=np.int64).reshape(-1, 3)
    except OverflowError:  # a label past int64: the constructor reports it as a bad triple
        triples = [values[i : i + 3] for i in range(0, len(values), 3)]
    return TripleSystem(v, triples)


def write_system(s: TripleSystem, path, comments=()):
    Path(path).write_text(render_system(s, comments))


def read_system(path) -> TripleSystem:
    return parse_system(Path(path).read_text())


# -- loops --------------------------------------------------------------------


def render_loop_csv(loop: SteinerLoop) -> str:
    table = loop.table
    labels = [_label(e) for e in range(loop.n)]
    lines = ["," + ",".join(labels)]
    for x in range(loop.n):
        lines.append(labels[x] + "," + ",".join(_label(int(e)) for e in table[x]))
    return "\n".join(lines) + "\n"


def parse_loop_csv(text: str) -> SteinerLoop:
    lines = _data_lines(text)
    if not lines:
        raise FormatError("empty loop file")
    header = lines[0].split(",")
    n = len(header) - 1
    if n < 2 or header[0] != "" or len(lines) != n + 1:
        raise FormatError("loop file must be an (n+1) x (n+1) labeled table")
    table = np.empty((n, n), dtype=np.int32)
    for x, line in enumerate(lines[1:]):
        parts = line.split(",")
        if len(parts) != n + 1:
            raise FormatError(f"row {x} has {len(parts) - 1} entries, expected {n}")
        if _unlabel(parts[0], n) != x:
            raise FormatError(f"row label {parts[0]!r} out of order")
        table[x] = [_unlabel(tok, n) for tok in parts[1:]]
    return SteinerLoop(table)


def write_loop_csv(loop: SteinerLoop, path):
    Path(path).write_text(render_loop_csv(loop))


def read_loop_csv(path) -> SteinerLoop:
    return parse_loop_csv(Path(path).read_text())


# -- factor systems -------------------------------------------------------------


def render_factor_system(f: FactorSystem) -> str:
    lines = [f"{f.q_system.v} {f.t}"]
    for tri, val in zip(f.q_system.triples, f.values):
        bits = "".join(str((val >> c) & 1) for c in range(f.t))
        lines.append(f"{tri[0]} {tri[1]} {tri[2]} {bits}".rstrip())
    return "\n".join(lines) + "\n"


def parse_factor_system(text: str, q: SteinerLoop) -> FactorSystem:
    lines = _data_lines(text)
    w, t = _head(lines, "factor-system", "w t")
    qs = q.system()
    if w != qs.v:
        raise FormatError(f"file order {w} does not match the quotient order {qs.v}")
    if len(lines) - 1 != qs.b:
        raise FormatError(f"expected {qs.b} value lines, found {len(lines) - 1}")
    values = []
    for idx, line in enumerate(lines[1:]):
        parts = line.split()
        if len(parts) != (4 if t else 3):
            raise FormatError(f"bad value line {line!r}")
        try:
            tri = tuple(int(p) for p in parts[:3])
        except ValueError as exc:
            raise FormatError(f"bad point label in {line!r}") from exc
        if tri != qs.triples[idx]:
            raise FormatError(
                f"line {idx + 2}: triple {tri} out of canonical order ({qs.triples[idx]})"
            )
        bits = parts[3] if t else ""
        if len(bits) != t or any(c not in "01" for c in bits):
            raise FormatError(f"bad value bits {bits!r}")
        values.append(sum((bits[c] == "1") << c for c in range(t)))
    return FactorSystem(q, t, values)


def write_factor_system(f: FactorSystem, path):
    Path(path).write_text(render_factor_system(f))


def read_factor_system(path, q: SteinerLoop) -> FactorSystem:
    return parse_factor_system(Path(path).read_text(), q)


# -- latin squares and operators -------------------------------------------------


def render_square(square) -> str:
    entries = square.entries if isinstance(square, LatinSquare) else np.asarray(square)
    return "\n".join(" ".join(_label(int(e)) for e in row) for row in entries) + "\n"


def parse_square(text: str) -> LatinSquare:
    rows = []
    for line in _data_lines(text):
        rows.append(line.split())
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise FormatError("square file must hold an n x n table")
    return LatinSquare([[_unlabel(tok, n) for tok in row] for row in rows])


def write_square(square, path):
    Path(path).write_text(render_square(square))


def read_square(path) -> LatinSquare:
    return parse_square(Path(path).read_text())


def render_operator(op: SteinerOperator) -> str:
    m, k = op.q.n, op.n_loop.n
    lines = [f"{m} {k}"]
    for p in range(m):
        for r in range(m):
            lines.append(f"# block {p} {r}")
            for x in range(k):
                lines.append(" ".join(_label(int(e)) for e in op.blocks[p, r, x]))
    return "\n".join(lines) + "\n"


def parse_operator(text: str, q: SteinerLoop, n_loop: SteinerLoop) -> SteinerOperator:
    lines = _data_lines(text)
    m, k = _head(lines, "operator", "m n")
    if m != q.n or k != n_loop.n:
        raise FormatError("operator header does not match the given loops")
    if len(lines) - 1 != m * m * k:
        raise FormatError(f"expected {m * m * k} block rows, found {len(lines) - 1}")
    labels = []
    for i, parts in enumerate(map(str.split, lines[1:])):  # row x of block (p,r) is row (pm+r)k+x
        if len(parts) != k:
            raise FormatError(f"block ({i // k // m},{i // k % m}) row {i % k} needs {k} labels")
        labels += [_unlabel(tok, k) for tok in parts]
    return SteinerOperator(q, n_loop, np.array(labels, dtype=np.int32).reshape(m, m, k, k))


def write_operator(op: SteinerOperator, path):
    Path(path).write_text(render_operator(op))


def read_operator(path, q: SteinerLoop, n_loop: SteinerLoop) -> SteinerOperator:
    return parse_operator(Path(path).read_text(), q, n_loop)


# -- classification reports -------------------------------------------------------


def report_to_dict(rep: ClassificationReport) -> dict:
    classes = []
    for i, vals in enumerate(rep.class_reps):
        alpha, beta = rep.witnesses[i]
        classes.append(
            {
                "rep": list(vals),
                "orbit": rep.orbit_of_class[i],
                "witness": {"alpha": list(alpha), "beta": list(beta)},
            }
        )
    return {
        "schema": 1,
        "t": rep.t,
        "q_order": rep.q_order,
        "b": rep.b,
        "total": rep.total,
        "hom_count": rep.hom_count,
        "b2_count": rep.b2_count,
        "equivalence_class_count": rep.equivalence_class_count,
        "isomorphism_class_count": rep.isomorphism_class_count,
        "classes": classes,
        "orbit_reps": [list(v) for v in rep.orbit_reps],
    }


def render_report_json(rep: ClassificationReport) -> str:
    return json.dumps(report_to_dict(rep), sort_keys=True, indent=2) + "\n"
