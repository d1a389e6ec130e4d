"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

Runs every workload once at the small sizes, requires every operation to
succeed and every check to pass, then corrupts one result at a time and
requires the checks to reject it.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import copy
import math
import os
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

SEED = 5


def _flip_inside(row):
    cells = np.argwhere(row["dom_mask"])
    cell = tuple(cells[len(cells) // 2])
    row["tilde_mask"][cell] = ~row["tilde_mask"][cell]


def _drop_cube(dec):
    dec["levels"], dec["index"] = dec["levels"][:-1], dec["index"][:-1]


def _double_cube(dec):
    dec["levels"] = np.append(dec["levels"], dec["levels"][:1])
    dec["index"] = np.concatenate([dec["index"], dec["index"][:1]])


def _first(loops, pred):
    return next(j for j, lp in enumerate(loops) if pred(lp))


def _orphan_hole(res):
    loops = res["loops"][0]["loops"]
    loops[_first(loops, lambda lp: lp["signed_area"] < 0)]["parent"] = None


def _same_orientation_parent(res):
    loops = res["loops"][0]["loops"]
    j = _first(loops, lambda lp: lp["parent"] is not None)
    sign = loops[j]["signed_area"] > 0
    loops[j]["parent"] = _first(
        loops, lambda lp: lp is not loops[j] and (lp["signed_area"] > 0) == sign)


def _repeat_corner(res):
    lp = res["loops"][0]["loops"][0]
    c = lp["corners"]
    lp["corners"] = np.concatenate([c[:2], c[1:]])


def _ratio_jump(res):
    rows = res["rows"]
    fine = max(r["K"] for r in rows)
    next(r for r in rows if r["K"] == fine)["ratio"] *= 1.5


def _grid_cost(res):
    costs = res["grid"]["costs"]
    j = int(np.flatnonzero(np.isfinite(costs) & (costs > 0))[0])
    costs[j] += 1e-9 * costs[j] + 1e-12


def _shift_vertex(res):
    path = res["paths"]["disk_geo"]
    path["vertices"][len(path["vertices"]) // 2] += 2 * path["h"]


def _fill_tube(res):
    from scipy import ndimage

    mask = res["window"]["mask"]
    lab, _ = ndimage.label(~mask)
    mask[lab == 1] = True


def _set(path, value):
    def mutate(res):
        obj = res
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value(obj[path[-1]]) if callable(value) else value
    return mutate


# (what is corrupted, how, a phrase the rejecting check's message contains)
CORRUPTIONS = {
    "extension-planar": [
        ("flipped cell of A~ inside Omega", lambda r: _flip_inside(r["rows"][0]),
         "A~ n Omega"),
        ("rhs off by 1e-6", _set(("rows", 0, "rhs"), lambda v: v * (1 + 1e-6)), "own sum"),
        ("lhs_int one ulp from rhs",
         _set(("rows", 1, "lhs_int"), lambda v: float(np.nextafter(v, math.inf))),
         "lhs_int"),
        ("random-set rhs off by 1e-6",
         _set(("random", 0, "rhs"), lambda v: v * (1 + 1e-6)), "own sum"),
        ("ratio jumps 50% under refinement", _ratio_jump, "ratio moves"),
        ("infinite ratio", _set(("rows", 2, "ratio"), math.inf), "not finite"),
        ("Whitney cube dropped", lambda r: _drop_cube(r["decs"][0]), "region measure"),
        ("Whitney cube counted twice", lambda r: _double_cube(r["decs"][1]),
         "covered exactly once"),
        ("hole without a parent", _orphan_hole, "runs clockwise"),
        ("parent of the same orientation", _same_orientation_parent,
         "inconsistent parent"),
        ("loop dropped", lambda r: r["loops"][0]["loops"].pop(), "perimeter"),
        ("repeated loop corner", _repeat_corner, "not a simple"),
    ],
    "curves-planar": [
        ("slab geodesic cost perturbed",
         _set(("paths", "slab_far", "cost"), lambda v: v * 1.08), "vertical-drop"),
        ("slab half-scale cost perturbed",
         _set(("paths", "slab_near", "cost"), lambda v: v * 1.05), "scale covariance"),
        ("small-grid Dijkstra cost perturbed", _grid_cost, "relaxation"),
        ("geodesic vertex off the lattice walk", _shift_vertex, "lattice neighbours"),
        ("disk sup ratios spread by 5x",
         _set(("disk", "sups", 0), lambda v: 5 * v), "factor 4"),
        ("cusp growth lost", _set(("cusp", "refined", 3), lambda v: 0.5 * v), "growth"),
        ("John constant infinite", _set(("john",), lambda v: (math.inf, v[1])), "john"),
    ],
    "cantor-3d": [
        ("|C_m| off by 1e-12",
         _set(("constants", "measure"), lambda v: v * (1 + 1e-12)), "relative error"),
        ("c_1 off the recursion",
         _set(("constants", "c", 1), lambda v: v * (1 + 2**-60)), "recursion"),
        ("level-1 curves coincide",
         lambda r: _set(("curves1", 1), list(r["curves1"][0]))(r), "closer than 2c_1"),
        ("one tube filled", _fill_tube, "tube components"),
        ("split record missing", _set(("text", "splits"), lambda v: v - 1), "split records"),
        ("3D Whitney cube dropped", lambda r: _drop_cube(r["decs"][0]), "region measure"),
        ("3D audit fails W3",
         _set(("audits", 0), lambda v: (v[0], {**v[1], "W3": False})), "audit fails"),
        ("flipped cell of 3D A~ inside Omega", lambda r: _flip_inside(r["rows"][0]),
         "A~ n Omega"),
    ],
}


def main() -> int:
    ok = True
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(workloads.SIZES["small"])
        ops = workloads.Ops()
        t = time.perf_counter()
        inp = wl.setup(SEED)
        res = wl.summarize(inp, wl.run(inp, ops))
        fails = wl.check(res)
        good = ops.failed == 0 and not fails
        ok &= good
        print(f"{'PASS' if good else 'FAIL'} {name}: {ops.attempted} operations, "
              f"{ops.failed} failed, {len(fails)} check failures "
              f"({time.perf_counter() - t:.1f} s)")
        for msg in ops.errors + fails:
            print(f"    {msg}")
        for label, mutate, phrase in CORRUPTIONS[name]:
            bad = copy.deepcopy(res)
            mutate(bad)
            caught = [msg for msg in wl.check(bad) if phrase in msg]
            ok &= bool(caught)
            print(f"{'PASS' if caught else 'FAIL'} {name}: rejects {label}"
                  + (f" ({caught[0]})" if caught else ""))
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
