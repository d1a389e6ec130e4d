"""Span tracer for the sobex benchmark.

The tracer wraps the public functions and methods of the sobex layers from
outside the package.  Every call becomes one span (name, start, end, parent,
root operation) kept in flat in-memory arrays; counters are taken at the same
boundaries.  `layer_metrics` turns the spans into per-layer self times, where
a span's self time is its duration minus the durations of its child spans.

Nothing in the package is edited: `install` rebinds every reference to a
wrapped function in the loaded `sobex.*` modules and replaces methods on their
classes, and `uninstall` restores the originals.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("domain", "distance", "whitney", "perimeter", "extension", "curves",
          "cantor")

# classes whose constructors do real work (the rest are plain records)
_TRACED_INIT = {"VoxelDomain", "VoxelSet", "GeodesicSolver", "PartitionOfUnity"}


class _ReadLog(np.ndarray):
    """View of a Dijkstra distance array that logs the scalar indices read."""

    def __array_finalize__(self, obj):
        self._reads = None

    def __getitem__(self, key):
        if self._reads is not None and isinstance(key, (int, np.integer)):
            self._reads.add(int(key))
        return super().__getitem__(key)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.root = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.reads: list[set] = []       # one set per Dijkstra result
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        import sobex  # noqa: F401  (loads every layer module)

        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"sobex.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if not inspect.isgeneratorfunction(obj):
                        wrapped[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        # rebind the wrapped functions wherever a sobex module imported them
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "sobex" or modname.startswith("sobex.")):
                continue
            for attr, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, w)

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr == "__init__":
                if cls.__name__ not in _TRACED_INIT or dataclasses.is_dataclass(cls):
                    continue
            elif attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(raw.__func__, name))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                new = self._wrap(raw, name)
            else:
                continue
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        hook = _HOOKS.get(name)
        before = hook[0] if hook else None
        after = hook[1] if hook else None
        tr = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args) if before else None
            stack = tr._stack
            k = len(tr.name)
            if stack:
                tr.parent.append(stack[-1])
                tr.root.append(tr.root[stack[-1]])
            else:
                tr.parent.append(-1)
                tr.root.append(nid)
            tr.name.append(nid)
            tr.start.append(0.0)
            tr.end.append(0.0)
            stack.append(k)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                tr.start[k] = t0
                tr.end[k] = t1
            if after:
                result = after(tr, state, args, result)
            return result

        return wrapper

    # -- reduction -------------------------------------------------------

    def self_times(self) -> np.ndarray:
        dur = np.array(self.end, dtype=np.float64) - np.array(
            self.start, dtype=np.float64)
        par = np.array(self.parent, dtype=np.int64)
        child = np.zeros(len(dur))
        has = par >= 0
        np.add.at(child, par[has], dur[has])
        return dur - child

    def _mask(self, names, field=None) -> np.ndarray:
        col = np.array(field if field is not None else self.name,
                       dtype=np.int32)
        ids = [self._ids[n] for n in names if n in self._ids]
        return np.isin(col, ids)

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics, each divided by the number of traced rounds."""
        st = self.self_times()
        names = self.names
        c = self.counts

        def self_of(span_names) -> float:
            return float(st[self._mask(span_names)].sum()) / rounds

        def layer(prefix) -> list[str]:
            return [n for n in names if n.startswith(prefix + ".")]

        solver_init = "curves.GeodesicSolver.__init__"
        dijkstra = "curves.GeodesicSolver.distances_from"
        curves_other = [n for n in layer("curves") if n not in (solver_init, dijkstra)]
        in_scan = self._mask(["curves.curve_condition_scan"], self.root)
        in_single = self._mask(["curves.weighted_geodesic", "curves.john_check",
                                "curves.cig_check"], self.root)
        own = self._mask(curves_other)
        cantor_misc = [n for n in layer("cantor") if n not in (
            "cantor.CantorTubeSpec.to_text", "cantor.CantorTubeSpec.from_text",
            "cantor.cantor_occupancy")]

        dmask = self._mask([dijkstra])
        dur = (np.array(self.end, dtype=np.float64)
               - np.array(self.start, dtype=np.float64))
        dms = dur[dmask] * 1e3
        decompose_s = self_of(["whitney.whitney_decompose", "whitney.exterior_whitney"])
        settled = c["settled_nodes"]
        reads = sum(len(s) for s in self.reads)

        out = {
            "domain.build_s": self_of(layer("domain")),
            "domain.cells": c["domain_cells"] / rounds,
            "distance.edt_s": self_of(layer("distance")),
            "distance.edt_calls": c["edt_calls"] / rounds,
            "distance.lattice_nodes": c["lattice_nodes"] / rounds,
            "distance.bytes_computed": c["edt_bytes"] / rounds,
            "whitney.decompose_s": decompose_s,
            "whitney.cubes": c["cubes"] / rounds,
            "whitney.subcell_cubes": c["subcell_cubes"] / rounds,
            "whitney.cubes_per_s": (c["cubes"] / rounds) / decompose_s
            if decompose_s > 0 else 0.0,
            "whitney.audit_s": self_of(["whitney.audit_whitney",
                                        "whitney.WhitneyDecomposition.neighbor_graph",
                                        "whitney.WhitneyDecomposition.side_mask"]),
            "whitney.smooth_s": self_of(["whitney.smooth_indicator",
                                         "whitney.cube_averages",
                                         "whitney.gradient_energy",
                                         "whitney.WhitneyDecomposition.min_side_level"]),
            "whitney.smooth_grid_cells": c["smooth_cells"] / rounds,
            "whitney.smooth_bytes_computed": c["smooth_bytes"] / rounds,
            "perimeter.faces_s": self_of(["perimeter.boundary_faces"]),
            "perimeter.faces": c["faces"] / rounds,
            "perimeter.weighted_integral_s": self_of(
                ["perimeter.weighted_boundary_integral"]),
            "perimeter.jordan_s": self_of(["perimeter.jordan_loops"]),
            "perimeter.loops": c["loops"] / rounds,
            "extension.extend_s": self_of(["extension.extend_set"]),
            "extension.rows": c["rows"] / rounds,
            "extension.select_A_prime_s": self_of(["extension.select_A_prime"]),
            "extension.select_A0_s": self_of(["extension.select_A0"]),
            "extension.a0_cubes": c["a0_cubes"] / rounds,
            "extension.clipped_dilates": c["clipped"] / rounds,
            "curves.solver_build_s": self_of([solver_init]),
            "curves.graph_nodes": c["graph_nodes"] / rounds,
            "curves.dijkstra_s": self_of([dijkstra]),
            "curves.dijkstra_calls": len(dms) / rounds,
            "curves.dijkstra_ms.p50": float(np.percentile(dms, 50)) if len(dms) else 0.0,
            "curves.dijkstra_ms.p90": float(np.percentile(dms, 90)) if len(dms) else 0.0,
            "curves.settled_nodes": settled / rounds,
            "curves.useful_fraction": reads / settled if settled else 0.0,
            "curves.pairs": c["pairs"] / rounds,
            "curves.scan_s": float(st[own & in_scan].sum()) / rounds,
            "curves.single_query_s": float(st[own & in_single].sum()) / rounds,
            "cantor.build_s": self_of(cantor_misc),
            "cantor.pieces": c["pieces"] / rounds,
            "cantor.text_s": self_of(["cantor.CantorTubeSpec.to_text",
                                      "cantor.CantorTubeSpec.from_text"]),
            "cantor.spec_bytes": c["spec_bytes"] / rounds,
            "cantor.occupancy_s": self_of(["cantor.cantor_occupancy"]),
        }
        return out

    def save(self, path: str) -> None:
        """Write the spans as arrays (name ids index the `names` array)."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int64),
            root=np.array(self.root, dtype=np.int32),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
        )


# ---------------------------------------------------------------------------
# counters taken at span boundaries: name -> (before(args), after(tracer,
# state, args, result) -> result)
# ---------------------------------------------------------------------------


def _domain_init(tr, state, args, result):
    tr.counts["domain_cells"] += args[0].mask.size
    return result


def _edt_before(args):
    return args[0]._dist is None


def _edt_after(tr, miss, args, result):
    if miss:
        size = result.d2_doubled.size
        n = result.d2_doubled.ndim
        tr.counts["edt_calls"] += 1
        tr.counts["lattice_nodes"] += size
        # site mask (1 B), index arrays (8n B), squared distances (8 B) and
        # the kept feature arrays (4n B) per lattice node
        tr.counts["edt_bytes"] += size * (1 + 8 * n + 8 + 4 * n)
    return result


def _decompose(tr, state, args, result):
    K = result.domain.K
    tr.counts["cubes"] += len(result.cubes)
    tr.counts["subcell_cubes"] += sum(1 for q in result.cubes if q.level > K)
    return result


def _smooth(tr, state, args, result):
    u = result.u
    tr.counts["smooth_cells"] += u.size
    # numerator, denominator and u (8 B each), the gradient (8n B) and the
    # two coverage masks (1 B each) per evaluation cell
    tr.counts["smooth_bytes"] += u.size * (3 * 8 + 8 * u.ndim + 2)
    return result


def _faces_before(args):
    return args[0]._faces is None


def _faces_after(tr, miss, args, result):
    if miss:
        tr.counts["faces"] += len(result)
    return result


def _jordan(tr, state, args, result):
    tr.counts["loops"] += len(result)
    return result


def _extend(tr, state, args, result):
    tr.counts["rows"] += 1
    tr.counts["a0_cubes"] += len(result.a0_ids)
    tr.counts["clipped"] += len(result.a0_clipped)
    return result


def _solver(tr, state, args, result):
    tr.counts["graph_nodes"] += len(args[0].cells)
    return result


def _dijkstra(tr, state, args, result):
    dists, pred = result
    tr.counts["settled_nodes"] += int(np.isfinite(dists).sum())
    view = dists.view(_ReadLog)
    view._reads = set()
    tr.reads.append(view._reads)
    return view, pred


def _scan(tr, state, args, result):
    tr.counts["pairs"] += len(result.rows)
    return result


def _cantor_build(tr, state, args, result):
    tr.counts["pieces"] += sum(len(pieces) for lvl in result.splits for pieces in lvl)
    return result


def _to_text(tr, state, args, result):
    tr.counts["spec_bytes"] += len(result)
    return result


_HOOKS = {
    "domain.VoxelDomain.__init__": (None, _domain_init),
    "distance.distance_transform": (_edt_before, _edt_after),
    "whitney.whitney_decompose": (None, _decompose),
    "whitney.smooth_indicator": (None, _smooth),
    "perimeter.boundary_faces": (_faces_before, _faces_after),
    "perimeter.jordan_loops": (None, _jordan),
    "extension.extend_set": (None, _extend),
    "curves.GeodesicSolver.__init__": (None, _solver),
    "curves.GeodesicSolver.distances_from": (None, _dijkstra),
    "curves.curve_condition_scan": (None, _scan),
    "cantor.build_cantor_tube": (None, _cantor_build),
    "cantor.CantorTubeSpec.to_text": (None, _to_text),
}
