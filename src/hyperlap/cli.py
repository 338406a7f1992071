"""Command-line front end.

Exit codes: 0 success, 1 input/usage error, 2 internal or budget error.
All indices on the command line are 1-based.
numpy is imported only by the `evolve` command, so every other command
starts without it.
"""

from __future__ import annotations

import argparse
import sys

from . import enumeration, formats, laplacian, model, walkcount
from .enumeration import BudgetExceededError
from .model import CWHypergraph, Hypergraph, HyperlapError


def _add_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fixture", choices=["fig1", "fig2"], help="use a built-in figure fixture")
    p.add_argument("--input", help="path to a .hg or .cw file")
    p.add_argument("--machine", action="store_true", help="emit key=value lines")


def _load(args) -> Hypergraph | CWHypergraph:
    if bool(args.fixture) == bool(args.input):
        raise HyperlapError("exactly one of --fixture and --input is required")
    if args.fixture:
        return formats.builtin_fixture(args.fixture)
    with open(args.input, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise HyperlapError(f"{args.input}: not valid UTF-8 (byte {exc.start})") from None
    if args.input.endswith(".cw"):
        return formats.parse_cw(text)
    return formats.parse_hg(text)


def _emit(args, human: str, machine: str) -> None:
    print(machine if args.machine else human)


def _print_grid(args, entries) -> None:
    if args.machine:
        for i, row in enumerate(entries, start=1):
            print(f"row{i}=" + " ".join(str(v) for v in row))
    else:
        widths = [max((len(str(r[j])) for r in entries), default=1) for j in range(len(entries[0]))] if entries else []
        for row in entries:
            print(" ".join(str(v).rjust(w) for v, w in zip(row, widths)))


def _cw_labels(d: int, count: int) -> list[str]:
    return [f"e{i}^{d}" for i in range(1, count + 1)]


def _cmd_validate(args) -> int:
    obj = _load(args)
    report = model.validate(obj)
    if args.machine:
        print(f"ok={'true' if report.ok else 'false'}")
        for issue in report.issues:
            print(f"issue={issue.severity}:{issue.location}:{issue.message}")
        for d, zero in sorted(report.boundary_squared_zero.items()):
            print(f"boundary_squared_zero.level{d}={'true' if zero else 'false'}")
    else:
        print("ok" if report.ok else "invalid")
        for issue in report.issues:
            print(f"  [{issue.severity}] {issue.location}: {issue.message}")
        for d, zero in sorted(report.boundary_squared_zero.items()):
            print(f"  boundary squared zero at composition level {d}: {zero}")
    return 0 if report.ok else 1


def _cmd_laplacian(args) -> int:
    obj = _load(args)
    cw = isinstance(obj, CWHypergraph)
    if cw != (args.dim is not None):
        raise HyperlapError("--dim is required for CW input" if cw else "--dim only applies to CW input")
    lap = laplacian.cw_laplacian(obj, args.dim or 0, args.which)
    _print_grid(args, lap.entries)
    return 0


def _cmd_count(args) -> int:
    obj = _load(args)
    signed = args.command == "signed-count"
    if isinstance(obj, CWHypergraph) != signed:
        raise HyperlapError("signed-count applies to CW input" if signed
                            else "count applies to hypergraph input; use signed-count for CW")
    q = walkcount.WalkQuery(args.kind, args.from_index, args.to_index, args.length, args.dim if signed else 0)
    value = walkcount.signed_count(obj, q).value
    _emit(args, str(value), f"{'sum' if signed else 'count'}={value}")
    return 0


def _cmd_enumerate(args) -> int:
    obj = _load(args)
    budget = enumeration.enumeration_budget()
    signed = args.kind in ("lower", "upper")
    if isinstance(obj, CWHypergraph) != signed:
        raise HyperlapError(f"kind {args.kind} needs {'CW' if signed else 'hypergraph'} input")
    if signed and args.dim is None:
        raise HyperlapError("--dim is required for lower/upper kinds")
    d = args.dim if signed else 0
    pairs = enumeration.enum_signed_walks(obj, d, args.kind, args.from_index,
                                          args.to_index, args.length, budget=budget)
    if signed:
        lower, upper = _cw_labels(d, obj.counts[d]), _cw_labels(d + 1, obj.counts[d + 1])
    else:
        lower, upper = obj.vertex_labels, obj.edge_labels
    even, odd = (lower, upper) if args.kind in ("vertex", "lower") else (upper, lower)
    for w, s in pairs:
        line = w.render(even, odd) + ((" [+1]" if s == 1 else " [-1]") if signed else "")
        print(f"walk={line}" if args.machine else line)
    total = sum(s for _w, s in pairs)
    if signed:
        _emit(args, f"{len(pairs)} walks, signed sum {total}", f"total={len(pairs)}\nsum={total}")
    else:
        _emit(args, f"{len(pairs)} walks", f"total={len(pairs)}")
    return 0


def _cmd_check(args) -> int:
    obj = _load(args)
    report = enumeration.cross_check(obj, args.max_length,
                                     budget=enumeration.enumeration_budget())
    n = len(report.mismatches)
    _emit(args, f"{n} mismatches", f"mismatches={n}\nchecked={report.checked}")
    if not args.machine:
        for kind, i, j, k, mv, ov in report.mismatches:
            print(f"  {kind} {i}->{j} k={k}: matrix {mv} oracle {ov}")
    return 0 if report.ok else 2


def _cmd_evolve(args) -> int:
    from . import evolve

    obj = _load(args)
    if not isinstance(obj, Hypergraph):
        raise HyperlapError("evolve applies to hypergraph input")
    if args.trace:
        z = evolve.partition_trace(obj, args.theta)
        text = evolve.format_complex(z)
        _emit(args, text, f"trace={text}")
    else:
        u = evolve.evolution_operator(laplacian.susy_laplacian(obj), args.theta)
        # the blocks never mix, so only the diagonal ones are formatted
        n, zeros_n, zeros_m = obj.n, "0+0i " * obj.n, " 0+0i" * obj.m
        lines = [" ".join(map(evolve.format_complex, row)) + zeros_m for row in u[:n, :n].tolist()]
        lines += [zeros_n + " ".join(map(evolve.format_complex, row)) for row in u[n:, n:].tolist()]
        for i, line in enumerate(lines, start=1):
            print(f"row{i}={line}" if args.machine else line)
    return 0


def _cmd_fixture(args) -> int:
    obj = formats.builtin_fixture(args.name)
    if args.emit:
        sys.stdout.write(formats.serialize(obj))
    elif isinstance(obj, Hypergraph):
        _emit(args, f"hypergraph: {obj.n} vertices, {obj.m} edges",
              f"vertices={obj.n}\nedges={obj.m}")
    else:
        counts = " ".join(str(c) for c in obj.counts)
        _emit(args, f"cw-hypergraph: cell counts {counts}", f"counts={counts}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hyperlap")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check structural invariants")
    _add_source(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("laplacian", help="print a Laplacian matrix")
    _add_source(p)
    p.add_argument("--which", choices=["even", "odd"], required=True)
    p.add_argument("--dim", type=int, default=None, help="incidence level (CW input)")
    p.set_defaults(func=_cmd_laplacian)

    p = sub.add_parser("count", help="walk count via matrix powers")
    _add_source(p)
    p.add_argument("--kind", choices=["vertex", "edge"], required=True)
    p.add_argument("--from", dest="from_index", type=int, required=True)
    p.add_argument("--to", dest="to_index", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("signed-count", help="signed walk sum via matrix powers")
    _add_source(p)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--kind", choices=["lower", "upper"], required=True)
    p.add_argument("--from", dest="from_index", type=int, required=True)
    p.add_argument("--to", dest="to_index", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("enumerate", help="list all walks explicitly")
    _add_source(p)
    p.add_argument("--kind", choices=["vertex", "edge", "lower", "upper"], required=True)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--from", dest="from_index", type=int, required=True)
    p.add_argument("--to", dest="to_index", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("check", help="cross-check matrix powers against the enumerator")
    _add_source(p)
    p.add_argument("--max-length", type=int, required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("evolve", help="evolution operator exp(-i*theta*Laplacian)")
    _add_source(p)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--trace", action="store_true", help="print the partition trace only")
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("fixture", help="inspect or emit a built-in fixture")
    p.add_argument("--name", choices=["fig1", "fig2"], required=True)
    p.add_argument("--emit", action="store_true", help="print the fixture in file format")
    p.add_argument("--machine", action="store_true")
    p.set_defaults(func=_cmd_fixture)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (HyperlapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
