"""Command-line front end: domain generation, Whitney audits, extension and
curve-condition experiments, and consolidated reports.

Exit codes: 0 ok, 1 internal error or a failed `whitney` audit, 2
usage/precondition error.  All CSV numbers use repr() of Python floats and
ints so values round-trip exactly; reruns with the same arguments and
version produce identical numeric content.  Every command but `report`
records, in <out>/manifest.json, the sha256 of its parsed arguments, its
wall time and the hashes of the artifacts it wrote.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import figio
from .config import RunManifest, __version__
from .curves import check_scan_inputs, curve_condition_scan, weighted_geodesic
from .distance import distance_transform
from .domain import GENERATORS, GeneratorSpec, VoxelDomain, build_domain
from .errors import PreconditionNotMet, SobexError
from .extension import ExtensionParams, InequalityReport, extend_set
from .perimeter import VoxelSet
from .whitney import audit_whitney, exterior_whitney, whitney_decompose


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        if args.command == "report":
            return args.func(args)
        return _run_recorded(args)
    except SobexError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # internal
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sobex")
    ap.add_argument("--out", default="runs/out", help="output directory")
    ap.add_argument("--seed", type=int, default=7)
    sub = ap.add_subparsers(dest="command")

    g = sub.add_parser("gen", help="generate a domain file and previews")
    g.add_argument("--domain", required=True, choices=GENERATORS)
    g.add_argument("--K", type=int, required=True)
    # --margin is read as typed, an exact rational such as 1/2
    flags = {k: gen.arguments({})[k] for gen in GENERATORS.values()
             for k in gen.flags if k != "margin"}
    for name, default in flags.items():
        g.add_argument("--" + name.replace("_", "-"), type=type(default),
                       default=default)
    g.add_argument("--margin", default="0")
    g.set_defaults(func=cmd_gen)

    w = sub.add_parser("whitney", help="decompose a domain and audit (W1)-(W4)")
    w.add_argument("--domain-file", required=True)
    w.add_argument("--L-max", type=int, required=True)
    w.add_argument("--exterior", action="store_true")
    w.set_defaults(func=cmd_whitney)

    e = sub.add_parser("extend", help="set extension inequality experiment")
    e.add_argument("--domain-file", required=True)
    e.add_argument("--set", dest="set_kind", default="half",
                   choices=["half", "quadrant", "below_slit", "random"])
    e.add_argument("--density", type=float, default=0.5)
    e.add_argument("--p", type=float, nargs="+", default=[1.5])
    e.add_argument("--refine", type=int, default=0)
    e.set_defaults(func=cmd_extend)

    c = sub.add_parser("curvescan", help="boundary-pair curve condition scan")
    c.add_argument("--domain-file", required=True)
    c.add_argument("--p", type=float, nargs="+", default=[1.5])
    c.add_argument("--pairs", type=int, default=48)
    c.add_argument("--focus", type=float, nargs=2, default=None)
    c.add_argument("--scales", type=float, nargs="+", default=None)
    c.add_argument("--no-refine", action="store_true")
    c.set_defaults(func=cmd_curvescan)

    d = sub.add_parser("geodesic", help="single weighted geodesic query")
    d.add_argument("--domain-file", required=True)
    d.add_argument("--p", type=float, default=1.5)
    d.add_argument("--src", type=float, nargs="+", required=True)
    d.add_argument("--dst", type=float, nargs="+", required=True)
    d.add_argument("--side", default="complement",
                   choices=["complement", "interior"])
    d.set_defaults(func=cmd_geodesic)

    n = sub.add_parser("cantor", help="build and audit a Cantor-tube spec")
    n.add_argument("--depth", type=int, required=True)
    n.set_defaults(func=cmd_cantor)

    r = sub.add_parser("report", help="summarize a run directory")
    r.add_argument("--run", required=True)
    r.set_defaults(func=cmd_report)
    return ap


def _run_recorded(args) -> int:
    """Run a command into --out and record its argument hash, wall time and
    returned artifacts in <out>/manifest.json, next to the entries of the
    commands run into --out before it."""
    os.makedirs(args.out, exist_ok=True)
    params = {k: v for k, v in vars(args).items() if k != "func"}
    man = RunManifest(config_hash=hashlib.sha256(
        json.dumps(params, sort_keys=True).encode()).hexdigest())
    with man.time_block(args.command):
        code, names = args.func(args)
    for name in names:
        man.add_file(os.path.join(args.out, name), root=args.out)
    man.save(os.path.join(args.out, "manifest.json"))
    return code


def cmd_gen(args) -> tuple[int, list[str]]:
    out = args.out
    gen = GENERATORS[args.domain]
    # the default --dim 2 stands for no --dim, so cantor_tube (3D) takes it
    if "dim" not in gen.flags and args.dim != 2:
        gen.arguments({"dim": args.dim})
    params = {name: getattr(args, name) for name in gen.flags}
    if "margin" in params:
        params["margin"] = Fraction(params["margin"])
    dom = build_domain(args.domain, args.K, **params)
    path = os.path.join(out, "domain.voxd")
    dom.save(path)
    figio.save_ppm(dom, os.path.join(out, "preview.ppm"))
    names = ["domain.voxd", "preview.ppm"]
    if dom.n == 2:
        figio.domain_svg(dom).save(os.path.join(out, "preview.svg"))
        names.append("preview.svg")
    print(f"wrote {path}: {dom.n}D K={dom.K} cells={int(dom.mask.sum())} "
          f"connected={dom.connected}")
    return 0, names


def cmd_whitney(args) -> tuple[int, list[str]]:
    out = args.out
    dom = VoxelDomain.load(args.domain_file)
    dec = (exterior_whitney if args.exterior else whitney_decompose)(
        dom, args.L_max
    )
    audit = audit_whitney(dec)
    with open(os.path.join(out, "cubes.txt"), "w") as f:
        f.write(dec.to_text())
    names = ["cubes.txt"]
    if dom.n == 2:
        figio.whitney_svg(dec).save(os.path.join(out, "whitney.svg"))
        names.append("whitney.svg")
    line = " ".join(
        f"{k} {'ok' if audit[k] else 'FAIL'}" for k in ("W1", "W2", "W3", "W4")
    )
    print(f"{line} collar={audit['collar_measure']!r} cubes={audit['cubes']}")
    return (0 if all(audit[k] for k in ("W1", "W2", "W3", "W4")) else 1), names


def make_set(dom: VoxelDomain, kind: str, seed: int = 7,
             density: float = 0.5) -> VoxelSet:
    cen = dom.cell_centers()
    n = dom.n
    if kind == "half":
        cut = cen[0][:, None] < 0.5 if n == 2 else cen[0][:, None, None] < 0.5
        mask = np.broadcast_to(cut, dom.mask.shape)
    elif kind == "quadrant":
        mask = np.ones(dom.mask.shape, bool)
        for d in range(n):
            ax = cen[d].reshape(tuple(-1 if a == d else 1 for a in range(n)))
            mask = mask & (ax < 0.5)
    elif kind == "below_slit":
        ax = cen[1].reshape((1, -1) if n == 2 else (1, -1, 1))
        mask = np.broadcast_to(ax < 0.5, dom.mask.shape)
    elif kind == "random":
        rng = np.random.default_rng(seed)
        mask = rng.random(dom.mask.shape) < density
    else:
        raise ValueError(f"unknown set kind {kind!r}")
    return VoxelSet.from_domain(dom, mask & dom.mask)


def cmd_extend(args) -> tuple[int, list[str]]:
    # refuse bad exponents and refinements before any geometry is built
    for p in args.p:
        ExtensionParams(p)
    if args.refine < 0:
        raise PreconditionNotMet(f"--refine must be >= 0, got {args.refine}")
    dom0 = VoxelDomain.load(args.domain_file)
    rows = [InequalityReport.CSV_HEADER]
    for K in range(dom0.K, dom0.K + args.refine + 1):
        rows += _extension_rows(dom0.name, K, args, overlay=K == dom0.K)
    csv_path = os.path.join(args.out, "inequality.csv")
    with open(csv_path, "w") as f:
        f.write("\n".join(rows) + "\n")
    print(f"wrote {csv_path} with {len(rows) - 1} rows")
    return 0, ["inequality.csv"] + (["extension.svg"] if dom0.n == 2 else [])


def _extension_rows(spec: GeneratorSpec, K: int, args,
                    overlay: bool) -> list[str]:
    """Extend the set at resolution K and report it at every --p; the calls
    share one geometry, which is freed with the set on return, before the
    next K."""
    dom = build_domain(spec, K)
    dist = distance_transform(dom)
    W = whitney_decompose(dom, K)
    We = exterior_whitney(dom, K)
    A = make_set(dom, args.set_kind, seed=args.seed, density=args.density)
    results = [extend_set(A, W, We, dist, ExtensionParams(p)) for p in args.p]
    if overlay and dom.n == 2:
        figio.sets_svg(dom, [
            (A.mask, "#1f77b4"),
            (results[0].A_prime.mask, "#2ca02c"),
            (results[0].A0.mask, "#ff7f0e"),
        ]).save(os.path.join(args.out, "extension.svg"))
    return [res.report.csv_row() for res in results]


def cmd_curvescan(args) -> tuple[int, list[str]]:
    out = args.out
    dom = VoxelDomain.load(args.domain_file)
    for p in args.p:
        check_scan_inputs(dom, p, args.pairs, args.scales, not args.no_refine)
    ends = ",".join(f"z{e}{a}" for e in "12" for a in "xyz"[:dom.n])
    rows = [f"p,K,scale,{ends},separation,cost,ratio"]
    for p in args.p:
        rep = curve_condition_scan(
            dom, p, args.pairs, args.seed, scales=args.scales,
            focus=args.focus, refine=not args.no_refine,
        )
        rows += [",".join(repr(v) for v in (
            p, rep.K, row["scale"],
            *(float(c) for c in row["z1"] + row["z2"]),
            row["separation"], row["cost"], row["ratio"],
        )) for row in rep.rows]
        sups = " ".join(f"{s:.4g}:{v:.4g}"
                        for s, v in zip(rep.scales, rep.sup_ratio))
        print(f"p={p} sup ratios per scale: {sups}")
        print(f"p={p} searches: {rep.searches}, "
              f"settled nodes: {rep.settled_nodes}")
        if rep.drift:
            print(f"p={p} refinement drift: "
                  + " ".join(f"{v:.3f}" for v in rep.drift))
    # written once every scan has returned, so a refused scan leaves no CSV
    with open(os.path.join(out, "curvescan.csv"), "w") as f:
        f.write("\n".join(rows) + "\n")
    return 0, ["curvescan.csv"]


def cmd_geodesic(args) -> tuple[int, list[str]]:
    out = args.out
    dom = VoxelDomain.load(args.domain_file)
    dist = distance_transform(dom)
    path = weighted_geodesic(dom, dist, args.src, args.dst, args.p,
                             side=args.side)
    csv_path = os.path.join(out, "geodesic.csv")
    with open(csv_path, "w") as f:
        f.write("p,cost,length,vertices\n")
        f.write(f"{args.p!r},{path.cost!r},{path.length!r},{len(path.vertices)}\n")
    names = ["geodesic.csv"]
    if dom.n == 2 and not path.empty:
        cv = figio.domain_svg(dom)
        cv.polyline(path.vertices, stroke="#d62728")
        cv.save(os.path.join(out, "geodesic.svg"))
        names.append("geodesic.svg")
    print(f"cost={path.cost!r} length={path.length!r} "
          f"vertices={len(path.vertices)}")
    return 0, names


def cmd_cantor(args) -> tuple[int, list[str]]:
    from .cantor import build_cantor_tube

    spec = build_cantor_tube(args.depth)
    # stream the text chunk by chunk into a side file and move it into place
    # only when complete, so a failed write leaves no truncated spec
    path = os.path.join(args.out, "cantor_spec.txt")
    partial = path + ".partial"
    try:
        with open(partial, "w") as f:
            f.writelines(spec.text_chunks())
        os.replace(partial, path)
    finally:
        if os.path.exists(partial):
            os.remove(partial)
    ntubes = sum(len(spec.curves[n]) for n in range(1, spec.depth + 1))
    print(f"depth={spec.depth} tubes={ntubes} "
          f"c_m={float(spec.c[spec.depth])!r} "
          f"|C_m|={float(spec.cantor_measure(spec.depth))!r} invariants=ok")
    return 0, ["cantor_spec.txt"]


def cmd_report(args) -> int:
    import glob

    csvs = sorted(glob.glob(os.path.join(args.run, "*.csv")))
    if not csvs:
        print(f"error: no CSV artifacts under {args.run}", file=sys.stderr)
        return 2
    lines = [f"run report: {args.run}", f"tool version: {__version__}"]
    series = []
    for path in csvs:
        with open(path) as f:
            header = f.readline().strip().split(",")
            rows = [line.strip().split(",") for line in f if line.strip()]
        lines.append(f"{os.path.basename(path)}: {len(rows)} rows")
        if "ratio" in header and rows:
            j = header.index("ratio")
            vals = [float(r[j]) for r in rows if _finite(r[j])]
            if vals:
                lines.append(
                    f"  ratio: min={min(vals)!r} max={max(vals)!r}"
                )
                series.append((os.path.basename(path), vals))
    summary = os.path.join(args.run, "summary.txt")
    with open(summary, "w") as f:
        f.write("\n".join(lines) + "\n")
    if series:
        cv = figio.SvgCanvas((0.0, 0.0), (1.0, 1.0), px=600)
        for k, (name, vals) in enumerate(series):
            top = max(vals) or 1.0
            pts = [
                (i / max(1, len(vals) - 1), v / (1.05 * top))
                for i, v in enumerate(vals)
            ]
            color = figio.LEVEL_COLORS[k % len(figio.LEVEL_COLORS)]
            if len(pts) == 1:
                pts = pts * 2
            cv.polyline(pts, stroke=color, width=1.2)
            cv.text(0.02, 0.95 - 0.05 * k, name, size=11)
        cv.save(os.path.join(args.run, "summary.svg"))
    print("\n".join(lines))
    return 0


def _finite(tok: str) -> bool:
    try:
        return math.isfinite(float(tok))
    except ValueError:
        return False


if __name__ == "__main__":
    sys.exit(main())
