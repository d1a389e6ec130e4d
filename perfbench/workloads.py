"""The three benchmark workloads.

Each workload drives the sobex layers only through their public functions.
One round is: `setup` (fresh domains and sets from the seed), `run` (the
timed operations), `summarize` (plain records taken from the results after
the timer stops), `check` and `digest_rows`.  The program objects are built
anew every round because `distance_transform` and `boundary_faces` cache on
them; reusing them would time a cache hit.
"""

from __future__ import annotations

import importlib
import math
import time
from fractions import Fraction

import numpy as np
from scipy.spatial import cKDTree

import checks

# the package namespace re-exports functions under some module names (e.g.
# `sobex.perimeter` is the function), so the layer modules are looked up by
# their full names
cantor, curves, distance, domain, extension, perimeter, whitney = (
    importlib.import_module(f"sobex.{m}") for m in
    ("cantor", "curves", "distance", "domain", "extension", "perimeter", "whitney"))

# bench: the sizes the benchmark times.  small: the self-test's sizes, which
# run every check in a few seconds per workload.
SIZES = {
    "bench": {
        "ext_Ks": (7, 8), "jordan_K": 6, "jordan_sets": 2,
        "disk_K": 7, "pairs": 48, "cusp_K": 10, "slab_K": 9, "grid_K": 6,
        "cantor_depth": 2, "window_K": 14, "ball3_K": 5,
    },
    "small": {
        "ext_Ks": (5, 6), "jordan_K": 5, "jordan_sets": 2,
        "disk_K": 6, "pairs": 24, "cusp_K": 10, "slab_K": 8, "grid_K": 5,
        "cantor_depth": 1, "window_K": 14, "ball3_K": 4,
    },
}

EXT_CASES = (
    ("ball", {"r": 0.5}, "half"),
    ("slit_square", {"slit_len": 0.5}, "below_slit"),
)
EXT_MARGIN = Fraction(3, 2)
EXT_PS = (1.25, 1.5, 1.75)
CUSP_SCALES = (0.45, 0.225, 0.1125, 0.05625)
CANTOR_WINDOW = (
    (Fraction(1, 2) - Fraction(1, 256), Fraction(1, 2) - Fraction(1, 256),
     Fraction(1) - Fraction(1, 512)),
    (Fraction(1, 2) + Fraction(1, 256), Fraction(1, 2) + Fraction(1, 256),
     Fraction(1)),
)


class Ops:
    """Counts and times operations (public calls made by the benchmark) and
    their failures.  A failed operation returns None; checks skip what it
    would have made.  `seconds[i]` is the wall time of the i-th operation of
    the round; every round makes the same operations in the same order."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.seconds: list[float] = []

    def __call__(self, fn, *args, **kwargs):
        self.attempted += 1
        t = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__qualname__', fn)}: "
                               f"{type(exc).__name__}: {exc}")
            return None
        finally:
            self.seconds.append(time.perf_counter() - t)


def _half_mask(dom, kind: str) -> np.ndarray:
    cen = dom.cell_centers()
    if kind == "half":
        cut = cen[0][:, None] < 0.5
    else:  # below_slit
        cut = cen[1][None, :] < 0.5
    return np.broadcast_to(cut, dom.shape) & dom.mask


def _dec_record(name: str, dec) -> dict:
    dom = dec.domain
    n = dom.n
    return {
        "name": name,
        "K": dom.K,
        "lo_int": dom.lo_int,
        "region": dec.side_mask(),
        "levels": np.array([q.level for q in dec.cubes], dtype=np.int64),
        "index": np.array([q.index for q in dec.cubes], dtype=np.int64).reshape(-1, n),
        "collar_levels": np.array([q.level for q in dec.collar_cubes], dtype=np.int64),
        "collar_index": np.array([q.index for q in dec.collar_cubes],
                                 dtype=np.int64).reshape(-1, n),
    }


def _ext_record(case: str, dom, res) -> dict:
    rep = res.report
    return {
        "case": case, "K": dom.K, "p": rep.p, "lo_int": dom.lo_int,
        "dom_mask": dom.mask, "A_mask": res.A.mask,
        "tilde_mask": res.A_tilde.mask,
        "rhs": rep.rhs, "lhs_int": rep.lhs_interior, "ratio": rep.ratio,
        "csv": rep.csv_row(),
    }


def _check_ext_rows(rows: list[dict]) -> list[str]:
    fails = []
    trees: dict[int, cKDTree] = {}
    for r in rows:
        key = id(r["dom_mask"])
        if key not in trees:
            h = 2.0 ** -r["K"]
            trees[key] = cKDTree(checks.boundary_centroids(r["dom_mask"], r["lo_int"], h))
        fails += checks.check_extension_row(r, trees[key])
    return fails


# ---------------------------------------------------------------------------
# extension-planar
# ---------------------------------------------------------------------------


class ExtensionPlanar:
    """The `sobex extend --refine 1` inequality table: two domains at K and
    K+1 (L_max = K, margin 3/2), three exponents with lemma ratios on, one
    seeded random-density set on the ball, and Jordan loops of seeded random
    sets in the unit square."""

    name = "extension-planar"

    def __init__(self, sizes: dict):
        self.s = sizes

    def setup(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        cases = []
        for tag, params, kind in EXT_CASES:
            for K in self.s["ext_Ks"]:
                dom = domain.build_domain(tag, K, margin=EXT_MARGIN, **params)
                A = perimeter.VoxelSet.from_domain(dom, _half_mask(dom, kind))
                cases.append({"case": f"{tag}/{kind}", "dom": dom, "A": A})
        # density 1/2 keeps the work per round independent of the seed
        ball = cases[len(self.s["ext_Ks"]) - 1]["dom"]
        rand = perimeter.VoxelSet.from_domain(
            ball, (rng.random(ball.shape) < 0.5) & ball.mask)
        square = domain.build_domain("cube", self.s["jordan_K"], dim=2)
        jsets = [perimeter.VoxelSet.from_domain(
            square, (rng.random(square.shape) < 0.5) & square.mask)
            for _ in range(self.s["jordan_sets"])]
        return {"cases": cases, "random": rand, "jordan": jsets}

    def run(self, inp: dict, op: Ops) -> dict:
        out = []
        for c in inp["cases"]:
            dom, K = c["dom"], c["dom"].K
            dist = op(distance.distance_transform, dom)
            W = op(whitney.whitney_decompose, dom, K)
            We = op(whitney.exterior_whitney, dom, K)
            res = [op(extension.extend_set, c["A"], W, We, dist,
                      extension.ExtensionParams(p=p)) for p in EXT_PS]
            out.append((c, dist, W, We, res))
        _, dist, W, We, _ = out[len(self.s["ext_Ks"]) - 1]
        rand = op(extension.extend_set, inp["random"], W, We, dist,
                  extension.ExtensionParams(p=1.5))
        loops = [op(perimeter.jordan_loops, A) for A in inp["jordan"]]
        return {"cases": out, "random": rand, "loops": loops}

    def summarize(self, inp: dict, raw: dict) -> dict:
        rows, decs = [], []
        for c, _dist, W, We, res in raw["cases"]:
            dom = c["dom"]
            tag = f"{c['case']} K={dom.K}"
            if W is not None:
                decs.append(_dec_record(f"{tag} interior", W))
            if We is not None:
                decs.append(_dec_record(f"{tag} exterior", We))
            rows += [_ext_record(c["case"], dom, r) for r in res if r is not None]
        rand = []
        if raw["random"] is not None:
            rand = [_ext_record("ball/random", raw["random"].A.parent, raw["random"])]
        loops = []
        for j, (A, lps) in enumerate(zip(inp["jordan"], raw["loops"])):
            if lps is None:
                continue
            h = A.h
            loops.append({
                "set": j, "mask": A.mask, "K": A.K,
                "loops": [{"corners": np.rint(lp.corners / h).astype(np.int64),
                           "signed_area": lp.signed_area, "length": lp.length,
                           "parent": lp.parent} for lp in lps],
            })
        return {"rows": rows, "random": rand, "decs": decs, "loops": loops}

    def check(self, res: dict) -> list[str]:
        fails = _check_ext_rows(res["rows"] + res["random"])
        fails += checks.check_ratio_stability(res["rows"])
        for dec in res["decs"]:
            fails += checks.check_whitney_volume(dec)
        for rec in res["loops"]:
            fails += checks.check_jordan(rec)
        return fails

    def digest_rows(self, res: dict) -> list[str]:
        out = [f"{r['case']},{r['csv']}" for r in res["rows"] + res["random"]]
        out += [f"{d['name']},{len(d['levels'])},{len(d['collar_levels'])}"
                for d in res["decs"]]
        for rec in res["loops"]:
            out += [f"loop {rec['set']},{lp['signed_area']!r},{lp['length']!r},"
                    f"{lp['parent']}" for lp in rec["loops"]]
        return out


# ---------------------------------------------------------------------------
# curves-planar
# ---------------------------------------------------------------------------


def _slab(K: int):
    """Half-plane: cells with y > 0 inside [-1.25, 1.25]^2."""
    N = int(2.5 * 2**K)
    lo_int = (-(N // 2), -(N // 2))
    mask = np.zeros((N, N), bool)
    mask[:, np.arange(N) + lo_int[1] > 0] = True
    return domain.VoxelDomain(K, lo_int, mask)


def _path_record(dom, path, side: str) -> dict:
    cells = np.floor(path.vertices / dom.h).astype(np.int64) - np.asarray(dom.lo_int)
    side_mask = dom.mask if side == "interior" else ~dom.mask
    inside = np.all((cells >= 0) & (cells < np.asarray(dom.shape)), axis=1)
    on_side = bool(inside.all() and side_mask[tuple(cells.T)].all())
    return {"vertices": path.vertices, "h": dom.h, "on_side": on_side,
            "edge_lengths": path.edge_lengths, "edge_weights": path.edge_weights,
            "cost": path.cost}


class CurvesPlanar:
    """Curve-condition scans on a disk and an outward cusp, plus single
    queries that search the whole graph: geodesics on the disk and the
    half-plane slab, John and cig checks inside the disk, and one Dijkstra
    on a small random grid."""

    name = "curves-planar"

    def __init__(self, sizes: dict):
        self.s = sizes

    def setup(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        disk = domain.build_domain("ball", self.s["disk_K"], r=0.5, margin=Fraction(1, 2))
        cusp = domain.build_domain("outward_cusp", self.s["cusp_K"], alpha=2.0, margin=0)
        m = rng.random((48, 48)) > 0.4
        m[16:32, 16:32] = True
        grid = domain.VoxelDomain(self.s["grid_K"], (0, 0), m)
        src = int(np.flatnonzero((np.argwhere(m) == (24, 24)).all(axis=1))[0])
        return {"seed": seed, "disk": disk, "cusp": cusp, "slab": _slab(self.s["slab_K"]),
                "grid": grid, "src": src}

    def run(self, inp: dict, op: Ops) -> dict:
        seed, disk, slab, grid = inp["seed"], inp["disk"], inp["slab"], inp["grid"]
        out = {}
        out["disk_scan"] = op(curves.curve_condition_scan, disk, 1.5, self.s["pairs"],
                              seed, refine=True)
        out["cusp_scan"] = op(curves.curve_condition_scan, inp["cusp"], 1.75,
                              self.s["pairs"], seed, scales=list(CUSP_SCALES),
                              focus=(0.5, 0.5), refine=True)
        dd = op(distance.distance_transform, disk)
        out["disk_geo"] = op(curves.weighted_geodesic, disk, dd, (0.1, 1.2), (0.9, -0.2), 1.5)
        out["john"] = op(curves.john_check, disk, dd, (0.5, 0.5), seed=seed)
        out["cig"] = op(curves.cig_check, disk, dd, (0.2, 0.5), (0.8, 0.5))
        sd = op(distance.distance_transform, slab)
        out["slab_far"] = op(curves.weighted_geodesic, slab, sd, (0.0, -0.25), (0.0, -1.0), 1.5)
        out["slab_near"] = op(curves.weighted_geodesic, slab, sd, (0.0, -0.125), (0.0, -0.5), 1.5)
        gd = op(distance.distance_transform, grid)
        solver = op(curves.GeodesicSolver, grid, gd, side="interior", weight=("power", 1.5))
        out["grid"] = op(curves.GeodesicSolver.distances_from, solver, inp["src"])
        return out

    def summarize(self, inp: dict, raw: dict) -> dict:
        res = {}
        d, c = raw["disk_scan"], raw["cusp_scan"]
        if d is not None:
            res["disk"] = {"sups": list(d.sup_ratio), "rows": d.rows}
        if c is not None:
            res["cusp"] = {"coarse": list(c.sup_ratio), "refined": list(c.sup_ratio_refined),
                           "rows": c.rows}
        paths = {}
        for key, dom, side in (("disk_geo", inp["disk"], "complement"),
                               ("slab_far", inp["slab"], "complement"),
                               ("slab_near", inp["slab"], "complement")):
            if raw[key] is not None:
                paths[key] = _path_record(dom, raw[key], side)
        if raw["cig"] is not None:
            paths["cig"] = _path_record(inp["disk"], raw["cig"].path, "interior")
            res["cig"] = (raw["cig"].cig_d, raw["cig"].cig_l)
        res["paths"] = paths
        if raw["john"] is not None:
            res["john"] = (raw["john"].constant, len(raw["john"].per_sample))
        if raw["grid"] is not None:
            g = inp["grid"]
            res["grid"] = {"mask": g.mask, "K": g.K, "lo_int": g.lo_int, "p": 1.5,
                           "src": inp["src"], "costs": np.asarray(raw["grid"][0])}
        return res

    def check(self, res: dict) -> list[str]:
        fails = []
        if "disk" in res:
            fails += checks.check_disk_scan(res["disk"]["sups"])
        if "cusp" in res:
            fails += checks.check_cusp_growth(res["cusp"]["coarse"], res["cusp"]["refined"])
        for key, rec in res["paths"].items():
            fails += checks.check_path(key, rec)
        if "slab_far" in res["paths"] and "slab_near" in res["paths"]:
            fails += checks.check_slab(res["paths"]["slab_far"]["cost"],
                                       res["paths"]["slab_near"]["cost"], 1.5)
        if "john" in res:
            const, samples = res["john"]
            if not (math.isfinite(const) and const > 0 and samples == 64):
                fails.append(f"john: constant {const!r} over {samples} samples")
        if "cig" in res and not all(math.isfinite(v) and v > 0 for v in res["cig"]):
            fails.append(f"cig: constants {res['cig']}")
        if "grid" in res:
            fails += checks.check_dijkstra_small(res["grid"])
        return fails

    def digest_rows(self, res: dict) -> list[str]:
        out = []
        for key in ("disk", "cusp"):
            for r in res.get(key, {}).get("rows", []):
                out.append(f"{key},{r['scale']!r},{r['z1']!r},{r['z2']!r},{r['cost']!r}")
        out += [f"{k},{rec['cost']!r}" for k, rec in sorted(res["paths"].items())]
        out.append(f"john,{res.get('john')!r};cig,{res.get('cig')!r}")
        if "grid" in res:
            out.append("grid," + ",".join(repr(float(v)) for v in res["grid"]["costs"]))
        return out


# ---------------------------------------------------------------------------
# cantor-3d
# ---------------------------------------------------------------------------


class Cantor3D:
    """The paper's 3D construction with its exact certificates, the spec's
    text form, the tube-resolving window voxelization, and the 3D Whitney
    path on a ball (interior decomposition one level below the grid)."""

    name = "cantor-3d"

    def __init__(self, sizes: dict):
        self.s = sizes

    def setup(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        ball = domain.build_domain("ball", self.s["ball3_K"], r=0.5,
                                   margin=Fraction(1, 2), dim=3)
        normal = rng.normal(size=3)
        g = np.meshgrid(*ball.cell_centers(), indexing="ij")
        side = sum((gi - 0.5) * v for gi, v in zip(g, normal)) < 0
        A = perimeter.VoxelSet.from_domain(ball, side & ball.mask)
        return {"ball": ball, "A": A}

    def run(self, inp: dict, op: Ops) -> dict:
        ball, K = inp["ball"], inp["ball"].K
        out = {}
        spec = out["spec"] = op(cantor.build_cantor_tube, self.s["cantor_depth"])
        out["text"] = op(cantor.CantorTubeSpec.to_text, spec)
        out["window"] = op(domain.build_domain, "cantor_tube", self.s["window_K"],
                           depth=1, window=CANTOR_WINDOW)
        dist = op(distance.distance_transform, ball)
        Wi = out["Wi"] = op(whitney.whitney_decompose, ball, K + 1)
        We = out["We"] = op(whitney.exterior_whitney, ball, K)
        out["audit_i"] = op(whitney.audit_whitney, Wi)
        out["audit_e"] = op(whitney.audit_whitney, We)
        out["ext"] = op(extension.extend_set, inp["A"], Wi, We, dist,
                        extension.ExtensionParams(p=1.5, lemma_ratios=False))
        return out

    def summarize(self, inp: dict, raw: dict) -> dict:
        import hashlib

        res = {}
        spec = raw["spec"]
        if spec is not None:
            m = spec.depth
            res["constants"] = {"depth": m, "measure": spec.cantor_measure(m),
                                "c": list(spec.c), "e": list(spec.e)}
            res["curves1"] = [list(v) for v in spec.curves[1]]
            res["c1"] = spec.c[1]
            res["pieces"] = sum(len(p) for lvl in spec.splits for p in lvl)
        text = raw["text"]
        if text is not None:
            res["text"] = {"head": text[:8], "splits": text.count("\nsplit "),
                           "sha256": hashlib.sha256(text.encode()).hexdigest()}
        w = raw["window"]
        if w is not None:
            res["window"] = {"mask": w.mask, "K": w.K, "lo_int": w.lo_int,
                             "c1": float(w.cantor_spec.c[1])}
        ball = inp["ball"]
        res["decs"] = [_dec_record(f"3D ball K={ball.K} {name}", raw[key])
                       for key, name in (("Wi", "interior"), ("We", "exterior"))
                       if raw[key] is not None]
        res["audits"] = [(name, raw[key]) for key, name in
                         (("audit_i", "3D interior"), ("audit_e", "3D exterior"))
                         if raw[key] is not None]
        res["rows"] = [_ext_record("ball3/halfspace", ball, raw["ext"])] \
            if raw["ext"] is not None else []
        return res

    def check(self, res: dict) -> list[str]:
        fails = []
        if "constants" in res:
            fails += checks.check_cantor_constants(res["constants"])
            fails += checks.check_tube_separation(res["curves1"], res["c1"])
            if "text" in res:
                fails += checks.check_spec_text(res["text"]["head"],
                                                res["text"]["splits"], res["pieces"])
        if "window" in res:
            w = res["window"]
            fails += checks.check_window(w["mask"], w["K"], w["lo_int"], w["c1"])
        for dec in res["decs"]:
            fails += checks.check_whitney_volume(dec)
        for name, audit in res["audits"]:
            fails += checks.check_audit(name, audit)
        fails += _check_ext_rows(res["rows"])
        return fails

    def digest_rows(self, res: dict) -> list[str]:
        out = []
        if "text" in res:
            out.append(f"spec,{res['text']['sha256']},{res['pieces']}")
        if "window" in res:
            out.append("window," + bytes(np.packbits(res["window"]["mask"])).hex())
        out += [f"{d['name']},{len(d['levels'])},{len(d['collar_levels'])}"
                for d in res["decs"]]
        out += [f"{r['case']},{r['csv']}" for r in res["rows"]]
        return out


WORKLOADS = {w.name: w for w in (ExtensionPlanar, CurvesPlanar, Cantor3D)}
