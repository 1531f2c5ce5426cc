"""Command-line front end.

Exit codes are disjoint and stable: 0 success, 1 falsified mathematical
check, 2 invalid input or domain, 3 I/O failure.  Every command is
deterministic for fixed (input bytes, flags, seed).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from itertools import combinations_with_replacement

from .census import build_census, census_names
from .chart import (ChartDomainError, PointRef, ambient_position, build_chart,
                    forward_map, geometric_tol, retraction_samples)
from .fields import (FieldDomainError, HoleDomainError, InvalidGeometryError,
                     black_hole_region, continuity_report, deform_tensor,
                     deformation_samples, extend_frame, field_from_spec,
                     read_fld, root_facet_clearance)
from .homology import verify_theorem2
from .offio import complex_off, points_off, spine_off
from .simplicial import (InvalidComplexError, Metric, SimplicialComplex,
                         read_tri, validate_closed_manifold)
from .spine import STRATEGIES, decompose, spine_connected

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_INVALID = 2
EXIT_IO = 3


def _positive_int(text: str) -> int:
    """argparse type for counts: a run that checks nothing cannot pass."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_source(p):
    p.add_argument("input", nargs="?", help="path to a .tri file")
    p.add_argument("--census", choices=census_names(), help="built-in complex")


def _add_decomposition_flags(p):
    p.add_argument("--root", type=int, default=0, help="root facet id (default 0)")
    p.add_argument("--strategy", choices=STRATEGIES, default="bfs")
    p.add_argument("--seed", type=int, default=0)


def _load(args) -> SimplicialComplex:
    if args.census and args.input:
        raise InvalidComplexError("give either --census or an input path, not both")
    if args.census:
        return build_census(args.census)
    if not args.input:
        raise InvalidComplexError("no input: give --census NAME or a .tri path")
    c = read_tri(args.input)
    report = validate_closed_manifold(c)
    if not report.ok:
        detail = []
        for rid, count in report.ridge_violations[:5]:
            face = c.faces[c.dimension - 1][rid]
            detail.append(f"ridge {face} has {count} cofacets")
        for v, why in report.link_violations[:5]:
            detail.append(f"vertex {v}: {why}")
        if not report.dual_connected:
            detail.append("dual graph is disconnected")
        raise InvalidComplexError("; ".join(detail) or "validation failed")
    return c


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_doc(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# -- subcommands ----------------------------------------------------------------

def cmd_decompose(args) -> int:
    c = _load(args)
    d = decompose(c, root=args.root, strategy=args.strategy, seed=args.seed)
    doc = {
        "decomposition": d.to_json_obj(c),
        "summary": {
            "top": len(c.top_simplices),
            "gates": len(d.gates),
            "spine": len(d.spine),
            "spine_connected": spine_connected(c, d),
        },
    }
    _emit(_json_doc(doc), args.out)
    return EXIT_OK


def run_verification(c: SimplicialComplex, root: int, strategy: str, seeds):
    """Theorem-2 comparison plus spine connectivity over the given seeds."""
    failures = []
    for seed in seeds:
        d = decompose(c, root=root, strategy=strategy, seed=seed)
        report = verify_theorem2(c, d)
        if not report.ok:
            failures.append({"seed": seed, "reason": "homology mismatch",
                             "detail": report.to_json_obj()})
        if not spine_connected(c, d):
            failures.append({"seed": seed, "reason": "spine disconnected"})
    return failures


def cmd_verify(args) -> int:
    c = _load(args)
    seeds = range(args.runs)
    failures = run_verification(c, args.root, args.strategy, seeds)
    doc = {
        "root": args.root,
        "strategy": args.strategy,
        "runs": args.runs,
        "failures": failures,
        "ok": not failures,
    }
    _emit(_json_doc(doc), args.out)
    if failures:
        sys.stderr.write(f"falsified at seed {failures[0]['seed']}\n")
        return EXIT_FALSIFIED
    return EXIT_OK


def cmd_deform(args) -> int:
    c = _load(args)
    if not args.field:
        raise FieldDomainError("no field file: give --field PATH.fld")
    spec = read_fld(args.field)
    d = decompose(c, root=args.root, strategy=args.strategy, seed=args.seed)
    chart = build_chart(c, d, Metric.from_complex(c))
    frame = extend_frame(chart)
    field = field_from_spec(spec, chart, frame)
    eps = args.eps_frac * root_facet_clearance(chart)
    hole = black_hole_region(chart, eps)   # raises for eps_frac >= 1
    kbar = deform_tensor(field, chart, hole)
    report = continuity_report(kbar, chart, hole, samples=args.samples, seed=args.seed)
    doc = {
        "hole": hole.report(),
        "continuity": report.to_json_obj(),
    }
    sys.stdout.write(_json_doc(doc))
    if args.out:
        rows = deformation_samples(kbar, chart, hole, lines=args.samples,
                                   per_line=16, seed=args.seed)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["line", "arc"] +
                        [f"c{i}" for i in range(len(rows[0]) - 2 if rows else 0)])
        writer.writerows(rows)
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(buf.getvalue())
    tol = geometric_tol()
    ok = (report.boundary_seam <= tol
          and report.spine_limit <= 1e-6
          and report.gate_jump <= 1e-6)
    return EXIT_OK if ok else EXIT_FALSIFIED


def _grid_points(n: int, level: int):
    """Interior barycentric grid: positive multiples of 1/level summing to 1."""
    for cut in combinations_with_replacement(range(1, level), n):
        parts = []
        prev = 0
        for x in cut:
            parts.append(x - prev)
            prev = x
        parts.append(level - prev)
        if all(p > 0 for p in parts):
            yield tuple(p / level for p in parts)


def cmd_export_off(args) -> int:
    c = _load(args)
    if args.subject == "complex":
        _emit(complex_off(c), args.out)
        return EXIT_OK
    d = decompose(c, root=args.root, strategy=args.strategy, seed=args.seed)
    if args.subject == "spine":
        _emit(spine_off(c, d), args.out)
        return EXIT_OK
    chart = build_chart(c, d, Metric.from_complex(c))
    if args.subject == "retraction":
        rows = retraction_samples(chart, count=args.samples, t_steps=4, seed=args.seed)
        pts = [ambient_position(c, PointRef(int(r[1]), tuple(r[2:]))) for r in rows]
        _emit(points_off(pts), args.out)
        return EXIT_OK
    # forward-mapped interior grid of the root facet; grid points sitting on
    # degenerate ray strata (corner-exact exits) are skipped
    level = max(2, args.samples)
    pts = []
    for bary in _grid_points(c.dimension, level):
        try:
            img = forward_map(chart, PointRef(chart.root, bary))
        except ChartDomainError:
            continue
        pts.append(ambient_position(c, img))
    _emit(points_off(pts), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spineforge",
        description="Cell + spine decompositions of closed triangulated "
                    "manifolds: charts, homology verification, tensor "
                    "deformation toward the thickened spine.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="paint a decomposition and report it")
    _add_source(p)
    _add_decomposition_flags(p)
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("verify", help="homology oracle over randomized runs")
    _add_source(p)
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--strategy", choices=STRATEGIES, default="random")
    p.add_argument("--runs", type=_positive_int, default=100)
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("deform", help="deform a tensor field toward the hole")
    _add_source(p)
    _add_decomposition_flags(p)
    p.add_argument("--field", help="path to a .fld field file", required=False)
    p.add_argument("--eps-frac", type=float, default=0.25,
                   help="hole radius as a fraction of the admissible maximum")
    p.add_argument("--samples", type=_positive_int, default=20)
    p.add_argument("--out", help="write CSV deformation samples here")
    p.set_defaults(fn=cmd_deform)

    p = sub.add_parser("export-off", help="write OFF geometry")
    p.add_argument("subject", choices=("complex", "spine", "retraction", "grid"))
    _add_source(p)
    _add_decomposition_flags(p)
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--out", help="write the OFF file here instead of stdout")
    p.set_defaults(fn=cmd_export_off)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InvalidComplexError, ChartDomainError, FieldDomainError,
            HoleDomainError, InvalidGeometryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
