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
    validate_system,
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
DEFAULT_BOUND_TB = 24

_SYSTEM_ALIASES = {
    "fano": "fano_labeled",
    "sts9": "sts9_labeled",
    "sts15_2": "sts15_2",
}


def _resolve_system(spec: str) -> TripleSystem:
    path = Path(spec)
    if path.exists():
        return formats.read_system(path)
    if spec == "sts1":
        return validate_system(1, [])
    if spec == "sts3":
        return validate_system(3, [(0, 1, 2)])
    if spec.startswith("pg") and spec[2:].isdigit():
        return catalog.pg(int(spec[2:]))
    if spec.startswith("ag") and spec[2:].isdigit():
        return catalog.ag(int(spec[2:]))
    key = _SYSTEM_ALIASES.get(spec, spec)
    obj = catalog.fixture(key)
    if isinstance(obj, TripleSystem):
        return obj
    if isinstance(obj, SteinerLoop):
        return obj.system()
    raise UnknownKey(spec)


def _resolve_loop(spec: str) -> SteinerLoop:
    path = Path(spec)
    if path.exists():
        if path.suffix == ".csv":
            return formats.read_loop_csv(path)
        return formats.read_system(path).loop()
    try:
        obj = catalog.fixture(_SYSTEM_ALIASES.get(spec, spec))
    except UnknownKey:
        return _resolve_system(spec).loop()
    if isinstance(obj, SteinerLoop):
        return obj
    if isinstance(obj, TripleSystem):
        return obj.loop()
    raise UnknownKey(spec)


def _resolve_square(spec: str) -> steiner_operator.LatinSquare:
    path = Path(spec)
    if path.exists():
        return formats.read_square(path)
    obj = catalog.fixture(spec)
    if isinstance(obj, steiner_operator.LatinSquare):
        return obj
    raise UnknownKey(spec)


def _resolve_factor(spec: str, q: SteinerLoop, t: int) -> schreier.FactorSystem:
    if spec == "zero":
        return schreier.zero_factor_system(schreier.ElemAbelian2(t), q)
    path = Path(spec)
    if path.exists():
        return formats.read_factor_system(path, q)
    obj = catalog.fixture(spec)
    if isinstance(obj, schreier.FactorSystem):
        if obj.t != t or not np.array_equal(obj.q.table, q.table):
            raise ValidationError(f"fixture {spec!r} does not match --q/--t")
        return schreier.FactorSystem(q, t, obj.values)
    raise UnknownKey(spec)


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
    s = _resolve_system(spec)
    if s.v > args.bound_v:
        raise BoundExceeded(f"order {s.v} exceeds --bound-v {args.bound_v}")
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


def _provenance(args) -> str:
    parts = [args.command]
    if getattr(args, "kind", None):
        parts.append(args.kind)
    for name in ("q", "n", "f", "square", "t"):
        val = getattr(args, name, None)
        if val is not None:
            parts.append(f"--{name} {val}")
    return "built by: steiner " + " ".join(parts)


def _check_extension_order(v: int, bound: int) -> None:
    """Refuse an extension of system order v before any table is built."""
    if v > bound:
        raise BoundExceeded(f"built order {v} exceeds --bound-v {bound}")


def cmd_extend(args) -> int:
    if args.kind == "schreier":
        if args.q is None or args.t is None or args.f is None:
            raise ValidationError("extend schreier needs --q, --t and --f")
        q = _resolve_loop(args.q)
        n = schreier.ElemAbelian2(args.t)
        _check_extension_order(q.n * n.size - 1, args.bound_v)
        f = _resolve_factor(args.f, q, args.t)
        loop = schreier.build_schreier(n, q, f)
    elif args.kind == "operator":
        if args.q is None or args.n is None or args.op is None:
            raise ValidationError("extend operator needs --q, --n and --op")
        q = _resolve_loop(args.q)
        n_loop = _resolve_loop(args.n)
        _check_extension_order(q.n * n_loop.n - 1, args.bound_v)
        op = formats.read_operator(args.op, q, n_loop)
        loop = steiner_operator.build_extension(op)
    elif args.kind == "double":
        if args.n is None or args.square is None:
            raise ValidationError("extend double needs --n and --square")
        n_loop = _resolve_loop(args.n)
        _check_extension_order(2 * n_loop.n - 1, args.bound_v)
        square = _resolve_square(args.square)
        loop = steiner_operator.build_extension(
            steiner_operator.double_operator(n_loop, square)
        )
    else:
        raise ValidationError(f"unknown extension kind {args.kind!r}")
    _emit(formats.render_system(loop.system(), comments=[_provenance(args)]), args.output)
    return 0


def cmd_enumerate(args) -> int:
    q = _resolve_loop(args.q)
    n = schreier.ElemAbelian2(args.t)
    b = q.system().b
    if n.t * b > args.bound_tb:
        raise BoundExceeded(f"t*b = {n.t * b} exceeds --bound-tb {args.bound_tb}")
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
    q = _resolve_loop(args.q)
    n = schreier.ElemAbelian2(args.t)
    report = schreier.classify(n, q, tb_bound=args.bound_tb)
    _emit(formats.render_report_json(report), args.output)
    return 0


def cmd_double(args) -> int:
    args.kind = "double"
    args.q = None
    args.f = None
    args.t = None
    return cmd_extend(args)


def cmd_isomorphic(args) -> int:
    s1 = _resolve_system(args.first)
    s2 = _resolve_system(args.second)
    if max(s1.v, s2.v) > args.bound_v:
        raise BoundExceeded(f"order exceeds --bound-v {args.bound_v}")
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

    def common(p):
        p.add_argument("--output", help="write to this path instead of stdout")
        p.add_argument("--format", choices=("text", "json"), default="json")
        p.add_argument("--bound-v", type=int, default=DEFAULT_BOUND_V, dest="bound_v")
        p.add_argument("--bound-tb", type=int, default=DEFAULT_BOUND_TB, dest="bound_tb")

    p = sub.add_parser("analyze", help="Veblen points, census, hyperplanes of a system")
    p.add_argument("--input", help="system file")
    p.add_argument("--seed-fixture", dest="seed_fixture", help="catalog key instead of a file")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("extend", help="build an extension and write its system")
    p.add_argument("kind", choices=("schreier", "operator", "double"))
    p.add_argument("--q", help="quotient system/loop (file or catalog key)")
    p.add_argument("--t", type=int, help="2-group dimension for schreier")
    p.add_argument("--f", help="factor system (file, catalog key, or 'zero')")
    p.add_argument("--n", help="subloop (file or catalog key)")
    p.add_argument("--op", help="operator file")
    p.add_argument("--square", help="symmetric square (file or catalog key)")
    common(p)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("enumerate", help="enumerate factor systems over a quotient")
    p.add_argument("--q", required=True)
    p.add_argument("--t", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("classify", help="equivalence and isomorphism classes of extensions")
    p.add_argument("--q", required=True)
    p.add_argument("--t", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("double", help="index-two extension from a symmetric square")
    p.add_argument("--n", required=True, help="subloop (file or catalog key)")
    p.add_argument("--square", required=True, help="symmetric square (file or catalog key)")
    common(p)
    p.set_defaults(func=cmd_double)

    p = sub.add_parser("isomorphic", help="decide isomorphism of two systems")
    p.add_argument("first")
    p.add_argument("second")
    common(p)
    p.set_defaults(func=cmd_isomorphic)

    p = sub.add_parser("catalog", help="list or export built-in fixtures")
    p.add_argument("action", choices=("list", "get"))
    p.add_argument("key", nargs="?")
    common(p)
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
