"""Voxel domains: occupancy grids at dyadic resolution plus the generators
for the test geometries (box, ball, slit square, outward cusp, snowflake
prefractal, Cantor-tube window), one table of them, `GENERATORS`, from
which `build_domain` checks a request before building any grid, and the
one bounding box of every generator: its window grown by the margin."""

from __future__ import annotations

import io
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np
from scipy import ndimage

from .errors import InvalidDomain, ResolutionTooCoarse

# classes of a face against a domain: both its cells in it, both out of it
# (cells off the grid are out), one of each (on its boundary), or not
# classified (a set given no domain)
INTERIOR, EXTERIOR, ON_BOUNDARY, UNCLASSIFIED = 0, 1, 2, 3

@dataclass(frozen=True)
class GeneratorSpec:
    tag: str
    params: dict = field(default_factory=dict)

    def describe(self) -> str:
        """`tag(k=v,...)` with the params sorted by name, in a form `parse`
        reads back.  A sequence is written as exact rationals joined by ';'
        (a one-item sequence ends in ';'), a sequence of sequences as those
        joined by '|'."""
        items = ",".join(f"{k}={_format_value(self.params[k])}"
                         for k in sorted(self.params))
        return f"{self.tag}({items})"

    @classmethod
    def parse(cls, text: str) -> "GeneratorSpec":
        text = text.strip()
        if "(" not in text:
            return cls(text)
        tag, rest = text.split("(", 1)
        rest = rest.rstrip(")")
        params = {}
        for item in filter(None, rest.split(",")):
            k, v = item.split("=", 1)
            params[k.strip()] = _parse_value(v.strip())
        return cls(tag.strip(), params)


def _format_value(v) -> str:
    if not isinstance(v, (tuple, list)):
        return str(v)
    nested = any(isinstance(x, (tuple, list)) for x in v)
    sep = "|" if nested else ";"
    parts = [_format_value(x) if nested else str(Fraction(x)) for x in v]
    return sep.join(parts) + (sep if len(v) == 1 else "")


def _parse_value(v: str):
    for sep, item in (("|", _parse_value), (";", _parse_scalar)):
        if sep in v:
            return tuple(item(x) for x in v.split(sep) if x)
    return _parse_scalar(v)


def _parse_scalar(v: str):
    v = v.strip()
    if v in ("True", "False"):
        return v == "True"
    try:
        return int(v)
    except ValueError:
        pass
    if "/" in v:
        try:
            f = Fraction(v)
            return int(f) if f.denominator == 1 else f
        except ValueError:
            pass
    try:
        return float(v)
    except ValueError:
        return v


class VoxelDomain:
    """Open set as an occupancy grid: a cell being "in" means the open cell
    is a subset of the domain.  The discrete boundary is the set of faces
    between in and out cells plus bbox clipping faces of in-cells."""

    def __init__(self, K: int, lo_int: tuple[int, ...], mask: np.ndarray,
                 name: GeneratorSpec | None = None):
        mask = np.asarray(mask, dtype=bool)
        self.name = name or GeneratorSpec("custom")
        if mask.ndim not in (2, 3):
            raise InvalidDomain("only 2D and 3D grids are supported")
        if not mask.any():
            raise InvalidDomain(f"{self.name.tag}: empty occupancy at K={K}")
        self.K = K
        self.lo_int = tuple(int(v) for v in lo_int)
        self.mask = mask
        self._faces = None
        self._dist = None
        self._table = None

    @cached_property
    def connected(self) -> bool:
        """One face-connected component; labelled on the first read."""
        structure = ndimage.generate_binary_structure(self.n, 1)
        return ndimage.label(self.mask, structure=structure)[1] == 1

    @property
    def n(self) -> int:
        return self.mask.ndim

    @property
    def h(self) -> float:
        return 2.0**-self.K

    @property
    def shape(self) -> tuple[int, ...]:
        return self.mask.shape

    def bbox(self) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
        s = Fraction(1, 2**self.K)
        lo = tuple(v * s for v in self.lo_int)
        hi = tuple((v + n) * s for v, n in zip(self.lo_int, self.mask.shape))
        return lo, hi

    def cell_centers(self) -> list[np.ndarray]:
        """Per-axis arrays of cell-center coordinates (floats)."""
        return [g.ravel()
                for g in _grid_centers(self.K, self.lo_int, self.mask.shape)]

    def measure(self) -> float:
        return float(self.mask.sum()) * self.h**self.n

    # -- discrete boundary ------------------------------------------------

    def boundary_faces_doubled(self) -> tuple[np.ndarray, np.ndarray]:
        """Boundary face centroids in doubled-grid integer coordinates.

        Returns (axes, coords): axes[m] is the axis the face is perpendicular
        to; coords[m] is the absolute centroid position in units of h/2, so
        the perpendicular component is even and the rest are odd.
        """
        if self._faces is None:
            self._faces = interface_faces_doubled(self.mask, self.lo_int)
        return self._faces

    def cell_in_domain(self, cells: np.ndarray) -> np.ndarray:
        """Occupancy lookup for absolute cell indices; out-of-bbox is False."""
        cells = np.asarray(cells)
        rel = cells - np.asarray(self.lo_int)
        ok = np.ones(len(cells), dtype=bool)
        for d in range(self.n):
            ok &= (rel[:, d] >= 0) & (rel[:, d] < self.mask.shape[d])
        out = np.zeros(len(cells), dtype=bool)
        sel = tuple(rel[ok, d] for d in range(self.n))
        out[ok] = self.mask[sel]
        return out

    def boundary_area(self) -> float:
        axes, _ = self.boundary_faces_doubled()
        return len(axes) * self.h ** (self.n - 1)

    # -- serialization ----------------------------------------------------

    def to_voxd(self) -> bytes:
        lo, hi = self.bbox()
        head = io.StringIO()
        head.write("VOXD1\n")
        head.write(f"dim {self.n}\n")
        head.write(f"K {self.K}\n")
        corners = " ".join(
            f"{c.numerator}/{c.denominator}" for c in list(lo) + list(hi)
        )
        head.write(f"bbox {corners}\n")
        head.write(f"generator {self.name.describe()}\n")
        head.write(f"shape {' '.join(str(s) for s in self.mask.shape)}\n")
        head.write("data\n")
        # row-major with x fastest: transpose so axis 0 (x) varies last
        flat = self.mask.transpose(tuple(reversed(range(self.n)))).ravel()
        payload = np.packbits(flat.astype(np.uint8), bitorder="little").tobytes()
        return head.getvalue().encode() + payload

    @classmethod
    def from_voxd(cls, blob: bytes) -> "VoxelDomain":
        sep = blob.index(b"data\n") + len(b"data\n")
        header, payload = blob[:sep].decode(), blob[sep:]
        lines = header.strip().splitlines()
        if lines[0] != "VOXD1":
            raise ValueError("not a VOXD1 file")
        fields = dict(line.split(None, 1) for line in lines[1:-1])
        n = int(fields["dim"])
        K = int(fields["K"])
        corners = [Fraction(tok) for tok in fields["bbox"].split()]
        shape = tuple(int(s) for s in fields["shape"].split())
        lo = corners[:n]
        lo_int = tuple(int(c * 2**K) for c in lo)
        nbits = int(np.prod(shape))
        bits = np.unpackbits(
            np.frombuffer(payload, dtype=np.uint8), bitorder="little"
        )[:nbits]
        mask = bits.astype(bool).reshape(tuple(reversed(shape)))
        mask = mask.transpose(tuple(reversed(range(n))))
        return cls(K, lo_int, mask, name=GeneratorSpec.parse(fields["generator"]))

    def save(self, path) -> None:
        with open(path, "wb") as f:
            f.write(self.to_voxd())

    @classmethod
    def load(cls, path) -> "VoxelDomain":
        with open(path, "rb") as f:
            return cls.from_voxd(f.read())


def _mask_bounds(mask: np.ndarray) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Cell bounds [lo, hi) of a mask's bounding box, or None for an empty
    mask.  Each axis reduces only the box the axes before it cut."""
    lo, hi = [], []
    for d in range(mask.ndim):
        box = mask[tuple(map(slice, lo, hi))]
        hit = np.flatnonzero(box.any(
            axis=tuple(a for a in range(mask.ndim) if a != d)))
        if not len(hit):
            return None
        lo.append(int(hit[0]))
        hi.append(int(hit[-1]) + 1)
    return tuple(lo), tuple(hi)


def interface_faces_doubled(mask: np.ndarray, lo_int) -> tuple[np.ndarray, np.ndarray]:
    """Interface faces of a mask (in/out plus clipping at the array edge),
    as (axes, doubled centroid coordinates), per axis in C order of the
    grid.  Only the mask's bounding box is scanned: C order inside a box is
    C order of the grid, and its padding stands for the empty cells around
    it."""
    n = mask.ndim
    bounds = _mask_bounds(mask)
    if bounds is None:
        return np.empty(0, dtype=np.int8), np.empty((0, n), dtype=np.int64)
    box = mask[tuple(map(slice, *bounds))]
    base = np.add(lo_int, bounds[0])
    axes_list, coords_list = [], []
    for d in range(n):
        padded = np.zeros(
            tuple(s + 2 if a == d else s for a, s in enumerate(box.shape)), bool
        )
        sl = tuple(slice(1, -1) if a == d else slice(None) for a in range(n))
        padded[sl] = box
        lowside = tuple(slice(0, -1) if a == d else slice(None) for a in range(n))
        highside = tuple(slice(1, None) if a == d else slice(None) for a in range(n))
        iface = padded[lowside] != padded[highside]
        idx = np.argwhere(iface)
        coords = 2 * (idx + base) + 1
        coords[:, d] -= 1
        axes_list.append(np.full(len(idx), d, dtype=np.int8))
        coords_list.append(coords)
    return np.concatenate(axes_list), np.concatenate(coords_list)


def root_tiling_level(dom: VoxelDomain) -> int:
    """Coarsest dyadic level whose cubes tile the bbox exactly."""

    def v2(x):
        x = abs(int(x))
        if x == 0:
            return 10**9
        c = 0
        while x % 2 == 0:
            x //= 2
            c += 1
        return c

    m = min(min(v2(s) for s in dom.shape), min(v2(v) for v in dom.lo_int), dom.K)
    return dom.K - m


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _grid_centers(K, lo_int, shape):
    h = 2.0**-K
    axes = [(np.arange(n) + lo_int[d] + 0.5) * h for d, n in enumerate(shape)]
    return np.meshgrid(*axes, indexing="ij", sparse=True)


def _bbox_cells(K, lo: Fraction, hi: Fraction):
    scale = 2**K
    a = lo * scale
    b = hi * scale
    if a.denominator != 1 or b.denominator != 1:
        raise InvalidDomain("bbox corners must be dyadic at resolution K")
    return int(a), int(b - a)


def _margin_bbox(K, margin, window, n):
    """(lo_int, shape) of the window, or the unit box, grown by the margin."""
    lo, hi = window or ((0,) * n, (1,) * n)
    return tuple(zip(*(_bbox_cells(K, Fraction(a) - margin, Fraction(b) + margin)
                       for a, b in zip(lo, hi))))


def koch_snowflake(iterations: int) -> np.ndarray:
    """Vertices of the Koch snowflake prefractal, as an (m, 2) float array."""
    # equilateral triangle around (0.5, 0.5), counterclockwise
    r = 0.3
    pts = [0.5 + 0.5j + r * np.exp(1j * (np.pi / 2 + 2 * np.pi * k / 3)) for k in range(3)]
    rot = np.exp(-1j * np.pi / 3)  # outward bump for a CCW polygon
    for _ in range(iterations):
        nxt = []
        for a, b in zip(pts, pts[1:] + pts[:1]):
            d = (b - a) / 3
            nxt += [a, a + d, a + d + d * rot, a + 2 * d]
        pts = nxt
    return np.array([(z.real, z.imag) for z in pts])


def _points_in_polygon(px, py, poly):
    """Crossing-number inclusion test, vectorized over (broadcast) points."""
    inside = np.zeros(np.broadcast_shapes(px.shape, py.shape), dtype=bool)
    x0, y0 = poly[:, 0], poly[:, 1]
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    for ax, ay, bx, by in zip(x0, y0, x1, y1):
        cond = (ay > py) != (by > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = ax + (py - ay) * (bx - ax) / (by - ay)
        inside ^= cond & (px < xint)
    return inside


def _cube(K, lo_int, shape):
    inside = np.ones(shape, dtype=bool)
    for g in _grid_centers(K, lo_int, shape):
        inside &= (g > 0) & (g < 1)
    return inside


def _ball(K, lo_int, shape, r):
    d2 = sum((g - 0.5) ** 2 for g in _grid_centers(K, lo_int, shape))
    return d2 < r * r


def _slit_square(K, lo_int, shape, slit_len):
    x, y = _grid_centers(K, lo_int, shape)
    h = 2.0**-K
    # the slit is one cell row thick: cells [0, slit_len) x [1/2, 1/2+h)
    slit = (x < slit_len) & (y > 0.5) & (y < 0.5 + h)
    return _cube(K, lo_int, shape) & ~slit


def _outward_cusp(K, lo_int, shape, alpha):
    if alpha <= 1:
        raise InvalidDomain("cusp exponent must satisfy alpha > 1")
    x, y = _grid_centers(K, lo_int, shape)
    spike = (y >= 0.5) & (np.abs(x - 0.5) <= (y - 0.5) ** alpha)
    return _cube(K, lo_int, shape) & ~spike


def _snowflake_approx(K, lo_int, shape, iterations):
    x, y = _grid_centers(K, lo_int, shape)
    return _points_in_polygon(x, y, koch_snowflake(iterations))


def _cantor_tube(K, lo_int, shape, depth, lambda_override, allow_coarse,
                 cantor_spec):
    from .cantor import _cantor_constants, build_cantor_tube, cantor_occupancy

    c = (_cantor_constants(depth, lambda_override)[3] if cantor_spec is None
         else cantor_spec.c)
    h = Fraction(1, 2**K)
    if c[depth] < 4 * h and not allow_coarse:
        # sub-resolution tubes vanish under center sampling; measure-level
        # studies may opt in explicitly since the tubes carry no volume
        raise ResolutionTooCoarse(
            f"cantor_tube depth={depth} needs h <= c_{depth}/4 = "
            f"{float(c[depth] / 4):.3e}, got h = {float(h):.3e}"
        )
    if int(np.prod(shape)) > 2**27:
        raise InvalidDomain(
            f"cantor_tube voxelization of {shape} exceeds the cell budget of "
            "2^27 cells; voxelize a window with build_domain(..., window=)"
        )
    if cantor_spec is None:
        cantor_spec = build_cantor_tube(depth, lambda_override=lambda_override)
    # depth and lambdas rebuild the spec, so the name leaves it out
    return (cantor_occupancy(cantor_spec, K, lo_int, shape),
            {"cantor_spec": cantor_spec})


@dataclass(frozen=True)
class Generator:
    """`occupancy(K, lo_int, shape, **params)` returns the set's mask at the
    cell centres, or a (mask, attributes) pair; the domain keeps the
    attributes and leaves them out of its name.  `params` maps the own
    parameters to their defaults, `flags` lists those `sobex gen` passes."""

    tag: str
    occupancy: Callable
    dims: tuple[int, ...]
    params: dict
    flags: tuple[str, ...]

    def arguments(self, given: dict) -> dict:
        """Given and default values of the own parameters and of `margin`,
        `window` and `dim` (default `dims[0]`), each given value cast to its
        default's type; unknown names, other dims and bad windows raise."""
        defaults = {"margin": Fraction(0), "window": None,
                    "dim": self.dims[0], **self.params}
        unknown = sorted(set(given) - set(defaults))
        if unknown:
            raise InvalidDomain(f"{self.tag}: unknown parameters {unknown}")
        args = {**defaults, **{
            k: v if defaults[k] is None else type(defaults[k])(v)
            for k, v in given.items()}}
        dim, window = args["dim"], args["window"]
        if dim not in self.dims:
            grids = " and ".join(f"{d}D" for d in self.dims)
            raise InvalidDomain(f"{self.tag}: only {grids} grids are "
                                f"supported, got dim={dim}")
        if window is not None and (
                len(window) != 2 or any(len(c) != dim for c in window)):
            raise InvalidDomain(f"{self.tag}: a window is two corners of "
                                f"{dim} coordinates, got {window}")
        return args


GENERATORS = {g.tag: g for g in (
    Generator("cube", _cube, (2, 3), {}, ("dim", "margin")),
    Generator("ball", _ball, (2, 3), {"r": 0.5}, ("r", "dim", "margin")),
    Generator("slit_square", _slit_square, (2,), {"slit_len": 0.5},
              ("slit_len", "margin")),
    Generator("outward_cusp", _outward_cusp, (2,), {"alpha": 2.0},
              ("alpha", "margin")),
    Generator("snowflake_approx", _snowflake_approx, (2,), {"iterations": 3},
              ("iterations", "margin")),
    Generator("cantor_tube", _cantor_tube, (3,),
              {"depth": 1, "lambda_override": None, "allow_coarse": False,
               "cantor_spec": None}, ("depth",)),
)}


def build_domain(spec: GeneratorSpec | str, K: int, **params) -> VoxelDomain:
    """Realize a generator of `GENERATORS` at resolution 2**-K: the set
    sampled at the cell centers of `window` (dyadic corners, the unit box by
    default) grown by `margin` (dyadic, default 0, room for exterior
    decompositions).  Bad requests are refused before any grid is built."""
    if isinstance(spec, str):
        spec = GeneratorSpec(spec, dict(params))
    gen = GENERATORS.get(spec.tag)
    if gen is None:
        raise InvalidDomain(f"unknown generator '{spec.tag}'")
    if K < 0:
        raise InvalidDomain(f"resolution K must be >= 0, got {K}")
    args = gen.arguments(spec.params)
    lo_int, shape = _margin_bbox(K, args.pop("margin"), args.pop("window"),
                                 args.pop("dim"))
    mask = gen.occupancy(K, lo_int, shape, **args)
    mask, kept = mask if isinstance(mask, tuple) else (mask, {})
    dom = VoxelDomain(K, lo_int, mask, name=GeneratorSpec(spec.tag, {
        k: v for k, v in spec.params.items() if k not in kept}))
    vars(dom).update(kept)
    return dom
