"""Command-line front end.

Subcommands: analyze, extend, enumerate, classify, double, isomorphic,
catalog. Inputs may be file paths or catalog keys; outputs are deterministic
(identical invocations produce byte-identical files). Exit codes: 0 success,
1 internal check failed, 2 invalid input, 3 bound exceeded, 4 incompletable
operator data.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import catalog, formats, schreier, steiner_operator
from .design_core import (
    SteinerLoop,
    TripleSystem,
    are_isomorphic,
    census,
    hyperplanes,
    veblen_points,
)
from .errors import (
    BoundExceeded,
    Incompletable,
    SteinerError,
    UnknownKey,
    ValidationError,
)

DEFAULT_BOUND_V = 63

_SYSTEM_ALIASES = {
    "fano": "fano_labeled",
    "sts9": "sts9_labeled",
}


def _resolve(spec: str, kind: type, read, refuse=None):
    """The kind of object a path or catalog key names, a loop standing for
    its system and a system for its loop: read(path) for a path, else the
    catalog's object. sts1, sts3, pgN and agN are keys only where refuse is
    given, and a pgN or agN key is built only after refuse has been called
    with its order and has not raised."""
    path = Path(spec)
    if path.exists():
        obj = read(path)
    elif refuse is not None and spec in ("sts1", "sts3"):
        obj = TripleSystem(1, []) if spec == "sts1" else TripleSystem(3, [(0, 1, 2)])
    elif refuse is not None and spec[:2] in ("pg", "ag") and spec[2:].isdigit():
        dim = int(spec[2:])
        refuse((1 << (dim + 1)) - 1 if spec[:2] == "pg" else 3**dim)
        obj = catalog.pg(dim) if spec[:2] == "pg" else catalog.ag(dim)
    else:
        obj = catalog.fixture(_SYSTEM_ALIASES.get(spec, spec))
    if kind is TripleSystem and isinstance(obj, SteinerLoop):
        return obj.system()
    if kind is SteinerLoop and isinstance(obj, TripleSystem):
        return obj.loop()
    if not isinstance(obj, kind):
        raise UnknownKey(spec)
    return obj


def _read_loop(path: Path):
    """A loop table (.csv) or a system, which _resolve takes as its loop."""
    return formats.read_loop_csv(path) if path.suffix == ".csv" else formats.read_system(path)


def _emit(text: str, output):
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def cmd_analyze(args) -> int:
    spec = args.seed_fixture or args.input
    if not spec:
        raise ValidationError("analyze needs --input or --seed-fixture")
    s = _resolve(spec, TripleSystem, formats.read_system, lambda v: _check_order(v, args.bound_v))
    _check_order(s.v, args.bound_v)
    veblen = sorted(veblen_points(s))
    cens = census(s)
    planes = [sorted(h) for h in hyperplanes(s)]
    payload = {
        "schema": 1,
        "v": s.v,
        "b": s.b,
        "veblen": veblen,
        "veblen_count": len(veblen),
        "center_size": len(veblen) + 1,
        "pasch_total": cens.pasch_total,
        "fano_total": cens.fano_total,
        # associative means every element is central, i.e. every point is Veblen
        "projective": len(veblen) == s.v,
        "hyperplanes": sorted(planes),
    }
    if args.format == "json":
        _emit(_dump_json(payload), args.output)
    else:
        lines = [f"{k} = {payload[k]}" for k in sorted(payload) if k != "schema"]
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def _provenance(args, *names) -> str:
    parts = [args.command, args.kind, *(f"--{name} {getattr(args, name)}" for name in names)]
    return "built by: steiner " + " ".join(parts)


def _check_order(v: int, bound: int, what: str = "order") -> None:
    """Refuse a system of order v above --bound-v before it is built."""
    if v > bound:
        raise BoundExceeded(f"{what} {v} exceeds --bound-v {bound}")


def _extension_base(spec: str, bound: int, built_order) -> SteinerLoop:
    """The loop named by spec, refused before it is built (pgN/agN keys) or
    right after when built_order(its order) exceeds --bound-v."""
    loop = _resolve(
        spec, SteinerLoop, _read_loop, lambda v: _check_order(built_order(v + 1), bound, "built order")
    )
    _check_order(built_order(loop.n), bound, "built order")
    return loop


# the options of each kind of extension; the double command takes those of double
_EXTEND_KINDS = {"schreier": ("q", "t", "f"), "operator": ("q", "n", "op"), "double": ("n", "square")}
_EXTEND_OPTIONS = {
    "q": {"help": "quotient system/loop (file or catalog key)"},
    "t": {"type": int, "help": "2-group dimension"},
    "f": {"help": "factor system (file, catalog key, or 'zero')"},
    "n": {"help": "subloop (file or catalog key)"},
    "op": {"help": "operator file"},
    "square": {"help": "symmetric square (file or catalog key)"},
}


def cmd_extend(args) -> int:
    if args.kind == "schreier":
        q = _extension_base(
            args.q, args.bound_v, lambda m: m * schreier.ElemAbelian2(args.t).size - 1
        )
        n = schreier.ElemAbelian2(args.t)
        if args.f == "zero":
            f = schreier.zero_factor_system(n, q)
        elif Path(args.f).exists():  # a file's t is checked by build_schreier
            f = formats.read_factor_system(args.f, q)
        else:  # a fixture's values are tied to its own quotient's labelling
            f = _resolve(args.f, schreier.FactorSystem, None)
            if f.t != args.t or not np.array_equal(f.q.table, q.table):
                raise ValidationError(f"fixture {args.f!r} does not match --q/--t")
            f = schreier.FactorSystem(q, args.t, f.values)
        loop, names = schreier.build_schreier(n, q, f), ("q", "f", "t")
    elif args.kind == "operator":
        # the extension has at least as many points as q's system
        q = _resolve(args.q, SteinerLoop, _read_loop, lambda v: _check_order(v, args.bound_v))
        n_loop = _extension_base(args.n, args.bound_v, lambda m: q.n * m - 1)
        op = formats.read_operator(args.op, q, n_loop)
        loop, names = steiner_operator.build_extension(op), ("q", "n")
    else:  # double, also the double command
        n_loop = _extension_base(args.n, args.bound_v, lambda m: 2 * m - 1)
        square = _resolve(args.square, steiner_operator.LatinSquare, formats.read_square)
        loop = steiner_operator.build_extension(
            steiner_operator.double_operator(n_loop, square)
        )
        names = ("n", "square")
    _emit(formats.render_system(loop.system(), comments=[_provenance(args, *names)]), args.output)
    return 0


def _quotient(args, tb_name: str) -> SteinerLoop:
    """The loop --q, refused before a pgN/agN key is built and again once
    read: t*b against --bound-tb (named tb_name), then v against --bound-v."""

    def refuse(v):
        tb = args.t * (v * (v - 1) // 6)
        if tb > args.bound_tb:
            raise BoundExceeded(f"t*b = {tb} exceeds {tb_name} {args.bound_tb}")
        _check_order(v, args.bound_v)

    q = _resolve(args.q, SteinerLoop, _read_loop, refuse)
    refuse(q.n - 1)
    return q


def cmd_enumerate(args) -> int:
    q = _quotient(args, "--bound-tb")
    n = schreier.ElemAbelian2(args.t)
    b = q.system().b
    payload = {"schema": 1, "t": n.t, "b": b, "total": 1 << (n.t * b)}
    if args.output is not None:
        if n.t * b > 16:
            raise BoundExceeded("refusing to materialize more than 2^16 factor systems")
        payload["systems"] = [
            list(f.values)
            for f in schreier.enumerate_factor_systems(n, q, tb_bound=args.bound_tb)
        ]
    _emit(_dump_json(payload), args.output)
    return 0


def cmd_classify(args) -> int:
    q = _quotient(args, "enumeration bound")  # classify's own wording
    n = schreier.ElemAbelian2(args.t)
    report = schreier.classify(n, q, tb_bound=args.bound_tb)
    _emit(formats.render_report_json(report), args.output)
    return 0


def cmd_isomorphic(args) -> int:
    s1, s2 = (
        _resolve(spec, TripleSystem, formats.read_system, lambda v: _check_order(v, args.bound_v))
        for spec in (args.first, args.second)
    )
    _check_order(max(s1.v, s2.v), args.bound_v)
    mapping = are_isomorphic(s1, s2, bound=args.bound_v)
    payload = {
        "schema": 1,
        "isomorphic": mapping is not None,
        "map": list(mapping) if mapping else None,
    }
    if args.format == "json":
        _emit(_dump_json(payload), args.output)
    else:
        _emit(("isomorphic " + str(mapping is not None).lower()) + "\n", args.output)
    return 0


def cmd_catalog(args) -> int:
    if args.action == "list":
        lines = []
        for key in catalog.fixture_keys():
            obj = catalog.fixture(key)
            kind = type(obj).__name__ if not isinstance(obj, tuple) else "Permutation"
            lines.append(f"{key}\t{kind}\t{catalog.fixture_provenance(key)}")
        _emit("\n".join(lines) + "\n", args.output)
        return 0
    obj = catalog.fixture(args.key)
    if isinstance(obj, TripleSystem):
        text = formats.render_system(obj)
    elif isinstance(obj, SteinerLoop):
        text = formats.render_loop_csv(obj)
    elif isinstance(obj, steiner_operator.LatinSquare):
        text = formats.render_square(obj)
    elif isinstance(obj, schreier.FactorSystem):
        text = formats.render_factor_system(obj)
    else:
        text = _dump_json({"schema": 1, "permutation": list(obj)})
    _emit(text, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steiner",
        description="Analyze, extend and classify Steiner triple systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(p, *names):
        """Give p --output and those of the shared options its command reads."""
        p.add_argument("--output", help="write to this path instead of stdout")
        if "format" in names:
            p.add_argument("--format", choices=("text", "json"), default="json")
        if "bound_v" in names:
            p.add_argument("--bound-v", type=int, default=DEFAULT_BOUND_V)
        if "bound_tb" in names:
            p.add_argument("--bound-tb", type=int, default=schreier.DEFAULT_TB_BOUND)

    p = sub.add_parser("analyze", help="Veblen points, census, hyperplanes of a system")
    p.add_argument("--input", help="system file")
    p.add_argument("--seed-fixture", dest="seed_fixture", help="catalog key instead of a file")
    shared(p, "format", "bound_v")
    p.set_defaults(func=cmd_analyze)

    def extension(p, kind):
        """Give p the options of that kind of extension, all required."""
        for name in _EXTEND_KINDS[kind]:
            p.add_argument(f"--{name}", required=True, **_EXTEND_OPTIONS[name])
        shared(p, "bound_v")
        p.set_defaults(func=cmd_extend, kind=kind)

    p = sub.add_parser("extend", help="build an extension and write its system")
    kinds = p.add_subparsers(dest="kind", required=True)  # each kind takes its own options
    for kind in _EXTEND_KINDS:
        extension(kinds.add_parser(kind), kind)

    p = sub.add_parser("enumerate", help="enumerate factor systems over a quotient")
    p.add_argument("--q", required=True)
    p.add_argument("--t", type=int, required=True)
    shared(p, "bound_v", "bound_tb")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("classify", help="equivalence and isomorphism classes of extensions")
    p.add_argument("--q", required=True)
    p.add_argument("--t", type=int, required=True)
    shared(p, "bound_v", "bound_tb")
    p.set_defaults(func=cmd_classify)

    extension(sub.add_parser("double", help="index-two extension from a symmetric square"), "double")

    p = sub.add_parser("isomorphic", help="decide isomorphism of two systems")
    p.add_argument("first")
    p.add_argument("second")
    shared(p, "format", "bound_v")
    p.set_defaults(func=cmd_isomorphic)

    p = sub.add_parser("catalog", help="list or export built-in fixtures")
    p.add_argument("action", choices=("list", "get"))
    p.add_argument("key", nargs="?")
    shared(p)
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Incompletable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (SteinerError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
