"""Command-line front end: domain generation, Whitney audits, extension and
curve-condition experiments, and consolidated reports.

Exit codes: 0 ok, 1 internal error, 2 usage/precondition error.  All CSV
numbers use repr() so values round-trip exactly; reruns with the same config
and version produce identical numeric content.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import figio
from .config import ExperimentConfig, RunManifest, __version__
from .curves import curve_condition_scan, weighted_geodesic
from .distance import distance_transform
from .domain import GENERATORS, GeneratorSpec, VoxelDomain, build_domain
from .errors import SobexError
from .extension import (
    ExtensionParams,
    ExtensionResult,
    InequalityReport,
    extend_set,
)
from .perimeter import VoxelSet
from .whitney import audit_whitney, exterior_whitney, whitney_decompose


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return args.func(args)
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
    ap.add_argument("--threads", type=int, default=1)
    sub = ap.add_subparsers(dest="command")

    g = sub.add_parser("gen", help="generate a domain file and previews")
    g.add_argument("--domain", required=True, choices=GENERATORS)
    g.add_argument("--K", type=int, required=True)
    g.add_argument("--dim", type=int, default=2)
    g.add_argument("--r", type=float, default=0.5)
    g.add_argument("--slit-len", type=float, default=0.5)
    g.add_argument("--alpha", type=float, default=2.0)
    g.add_argument("--iterations", type=int, default=3)
    g.add_argument("--depth", type=int, default=1)
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


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _manifest(args) -> RunManifest:
    cfg = ExperimentConfig(out_dir=args.out, seed=args.seed)
    return RunManifest(config_hash=cfg.sha256())


def _save_manifest(man: RunManifest, out: str, names: list[str]) -> None:
    """Record this command's artifacts in <out>/manifest.json, next to those
    of the commands run into `out` before it."""
    for name in names:
        man.add_file(os.path.join(out, name), root=out)
    man.save(os.path.join(out, "manifest.json"))


def cmd_gen(args) -> int:
    out = _outdir(args)
    params = {"margin": Fraction(args.margin)}
    if args.domain == "ball":
        params["r"] = args.r
        params["dim"] = args.dim
    elif args.domain == "cube":
        params["dim"] = args.dim
    elif args.domain == "slit_square":
        params["slit_len"] = args.slit_len
    elif args.domain == "outward_cusp":
        params["alpha"] = args.alpha
    elif args.domain == "snowflake_approx":
        params["iterations"] = args.iterations
    elif args.domain == "cantor_tube":
        params["depth"] = args.depth
        params.pop("margin")
    dom = build_domain(args.domain, args.K, **params)
    man = _manifest(args)
    with man.time_block("gen"):
        path = os.path.join(out, "domain.voxd")
        dom.save(path)
        figio.save_ppm(dom, os.path.join(out, "preview.ppm"))
        if dom.n == 2:
            figio.domain_svg(dom).save(os.path.join(out, "preview.svg"))
    _save_manifest(man, out, ["domain.voxd", "preview.ppm"]
                   + (["preview.svg"] if dom.n == 2 else []))
    print(f"wrote {path}: {dom.n}D K={dom.K} cells={int(dom.mask.sum())} "
          f"connected={dom.connected}")
    return 0


def cmd_whitney(args) -> int:
    out = _outdir(args)
    dom = VoxelDomain.load(args.domain_file)
    dec = (exterior_whitney if args.exterior else whitney_decompose)(
        dom, args.L_max
    )
    audit = audit_whitney(dec)
    with open(os.path.join(out, "cubes.txt"), "w") as f:
        f.write(dec.to_text())
    if dom.n == 2:
        figio.whitney_svg(dec).save(os.path.join(out, "whitney.svg"))
    _save_manifest(_manifest(args), out,
                   ["cubes.txt"] + (["whitney.svg"] if dom.n == 2 else []))
    line = " ".join(
        f"{k} {'ok' if audit[k] else 'FAIL'}" for k in ("W1", "W2", "W3", "W4")
    )
    print(f"{line} collar={audit['collar_measure']!r} cubes={audit['cubes']}")
    return 0 if all(audit[k] for k in ("W1", "W2", "W3", "W4")) else 1


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


def _extend_cell(spec: GeneratorSpec, K: int, set_kind: str, seed: int,
                 density: float, p: float) -> ExtensionResult:
    dom = build_domain(spec, K)
    dist = distance_transform(dom)
    W = whitney_decompose(dom, K)
    We = exterior_whitney(dom, K)
    A = make_set(dom, set_kind, seed=seed, density=density)
    return extend_set(A, W, We, dist, ExtensionParams(p=p))


def cmd_extend(args) -> int:
    out = _outdir(args)
    dom0 = VoxelDomain.load(args.domain_file)
    spec = dom0.name
    jobs = [
        (spec, K, args.set_kind, args.seed, args.density, p)
        for K in range(dom0.K, dom0.K + args.refine + 1)
        for p in args.p
    ]
    if args.threads > 1:
        import multiprocessing as mp

        with mp.Pool(args.threads) as pool:
            results = pool.starmap(_extend_cell, jobs)
    else:
        # lazily, so each cell's domain and caches are freed before the next
        results = itertools.starmap(_extend_cell, jobs)
    rows: list[str] = []
    names = ["inequality.csv"]
    for res in results:
        if not rows and res.A.n == 2:
            # overlay for the base resolution, cell (dom0.K, p[0])
            figio.sets_svg(res.A.parent, [
                (res.A.mask, "#1f77b4"),
                (res.A_prime.mask, "#2ca02c"),
                (res.A0.mask, "#ff7f0e"),
            ]).save(os.path.join(out, "extension.svg"))
            names.append("extension.svg")
        rows.append(res.report.csv_row())
    csv_path = os.path.join(out, "inequality.csv")
    with open(csv_path, "w") as f:
        f.write(InequalityReport.CSV_HEADER + "\n")
        for row in rows:
            f.write(row + "\n")
    _save_manifest(_manifest(args), out, names)
    print(f"wrote {csv_path} with {len(rows)} rows")
    return 0


def cmd_curvescan(args) -> int:
    out = _outdir(args)
    dom = VoxelDomain.load(args.domain_file)
    if dom.name.tag in GENERATORS and dom.name.tag != "custom":
        dom = build_domain(dom.name, dom.K)  # regenerate so refine can rebuild
    csv_path = os.path.join(out, "curvescan.csv")
    with open(csv_path, "w") as f:
        f.write("p,K,scale,z1x,z1y,z2x,z2y,separation,cost,ratio\n")
        for p in args.p:
            rep = curve_condition_scan(
                dom, p, args.pairs, args.seed, scales=args.scales,
                focus=args.focus, refine=not args.no_refine,
            )
            for row in rep.rows:
                f.write(",".join(repr(v) for v in (
                    p, rep.K, row["scale"], row["z1"][0], row["z1"][1],
                    row["z2"][0], row["z2"][1], row["separation"],
                    row["cost"], row["ratio"],
                )) + "\n")
            sups = " ".join(f"{s:.4g}:{v:.4g}"
                            for s, v in zip(rep.scales, rep.sup_ratio))
            print(f"p={p} sup ratios per scale: {sups}")
            if rep.drift:
                print(f"p={p} refinement drift: "
                      + " ".join(f"{v:.3f}" for v in rep.drift))
    _save_manifest(_manifest(args), out, ["curvescan.csv"])
    return 0


def cmd_geodesic(args) -> int:
    out = _outdir(args)
    dom = VoxelDomain.load(args.domain_file)
    dist = distance_transform(dom)
    path = weighted_geodesic(dom, dist, args.src, args.dst, args.p,
                             side=args.side)
    csv_path = os.path.join(out, "geodesic.csv")
    with open(csv_path, "w") as f:
        f.write("p,cost,length,vertices\n")
        f.write(f"{args.p!r},{path.cost!r},{path.length!r},{len(path.vertices)}\n")
    if dom.n == 2 and not path.empty:
        cv = figio.domain_svg(dom)
        cv.polyline(path.vertices, stroke="#d62728")
        cv.save(os.path.join(out, "geodesic.svg"))
    print(f"cost={path.cost!r} length={path.length!r} "
          f"vertices={len(path.vertices)}")
    return 0


def cmd_cantor(args) -> int:
    from .cantor import build_cantor_tube

    out = _outdir(args)
    spec = build_cantor_tube(args.depth)
    path = os.path.join(out, "cantor_spec.txt")
    with open(path, "w") as f:
        f.write(spec.to_text())
    _save_manifest(_manifest(args), out, ["cantor_spec.txt"])
    ntubes = sum(len(spec.curves[n]) for n in range(1, spec.depth + 1))
    print(f"depth={spec.depth} tubes={ntubes} "
          f"c_m={float(spec.c[spec.depth])!r} "
          f"|C_m|={float(spec.cantor_measure(spec.depth))!r} invariants=ok")
    return 0


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
