"""Voxel domains: occupancy grids at dyadic resolution plus the generators
for the test geometries (box, ball, slit square, outward cusp, snowflake
prefractal, Cantor-tube window)."""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy import ndimage

from .errors import InvalidDomain, ResolutionTooCoarse

GENERATORS = (
    "cube",
    "ball",
    "slit_square",
    "outward_cusp",
    "snowflake_approx",
    "cantor_tube",
)


@dataclass(frozen=True)
class GeneratorSpec:
    tag: str
    params: dict = field(default_factory=dict)

    def describe(self) -> str:
        items = ",".join(f"{k}={self.params[k]}" for k in sorted(self.params)
                         if k not in ("window", "spec"))
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
            params[k.strip()] = _parse_scalar(v)
        return cls(tag.strip(), params)


def _parse_scalar(v: str):
    v = v.strip()
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
        if mask.ndim not in (2, 3):
            raise InvalidDomain("only 2D and 3D grids are supported")
        if not mask.any():
            raise InvalidDomain("empty occupancy")
        self.K = K
        self.lo_int = tuple(int(v) for v in lo_int)
        self.mask = mask
        self.name = name or GeneratorSpec("custom")
        self._faces = None
        self._dist = None
        structure = ndimage.generate_binary_structure(mask.ndim, 1)
        _, ncomp = ndimage.label(mask, structure=structure)
        self.connected = ncomp == 1

    def __getstate__(self):
        # the boundary and distance caches are rebuilt on demand and can be
        # far larger than the mask, so pickles leave them out
        return {**self.__dict__, "_faces": None, "_dist": None,
                "_face_grid": None}

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
        h = self.h
        return [
            (np.arange(n) + self.lo_int[d] + 0.5) * h
            for d, n in enumerate(self.mask.shape)
        ]

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

    def boundary_face_lookup(self) -> np.ndarray:
        """Bool array over the doubled grid marking boundary face centroids."""
        if getattr(self, "_face_grid", None) is None:
            _, coords = self.boundary_faces_doubled()
            shape2 = tuple(2 * s + 1 for s in self.mask.shape)
            grid = np.zeros(shape2, dtype=bool)
            offs = coords - 2 * np.asarray(self.lo_int, dtype=np.int64)
            grid[tuple(offs[:, d] for d in range(self.n))] = True
            self._face_grid = grid
        return self._face_grid

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

    def boundary_centroids(self) -> np.ndarray:
        """Boundary face centroids as float coordinates."""
        _, coords = self.boundary_faces_doubled()
        return coords * (self.h / 2.0)

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


def interface_faces_doubled(mask: np.ndarray, lo_int) -> tuple[np.ndarray, np.ndarray]:
    """Interface faces of a mask (in/out plus clipping at the array edge),
    as (axes, doubled centroid coordinates)."""
    axes_list, coords_list = [], []
    n = mask.ndim
    for d in range(n):
        padded = np.zeros(
            tuple(s + 2 if a == d else s for a, s in enumerate(mask.shape)), bool
        )
        sl = tuple(slice(1, -1) if a == d else slice(None) for a in range(n))
        padded[sl] = mask
        lowside = tuple(slice(0, -1) if a == d else slice(None) for a in range(n))
        highside = tuple(slice(1, None) if a == d else slice(None) for a in range(n))
        iface = padded[lowside] != padded[highside]
        idx = np.argwhere(iface)
        coords = np.empty_like(idx)
        for a in range(n):
            if a == d:
                coords[:, a] = 2 * (idx[:, a] + lo_int[a])
            else:
                coords[:, a] = 2 * (idx[:, a] + lo_int[a]) + 1
        axes_list.append(np.full(len(idx), d, dtype=np.int8))
        coords_list.append(coords)
    return np.concatenate(axes_list), np.concatenate(coords_list).astype(np.int64)


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
    return np.meshgrid(*axes, indexing="ij")


def _bbox_cells(K, lo: Fraction, hi: Fraction):
    scale = 2**K
    a = lo * scale
    b = hi * scale
    if a.denominator != 1 or b.denominator != 1:
        raise InvalidDomain("bbox corners must be dyadic at resolution K")
    return int(a), int(b - a)


def _margin_bbox(K, margin, base_lo, base_hi, n):
    margin = Fraction(margin)
    lo = [Fraction(base_lo)] * n
    hi = [Fraction(base_hi)] * n
    lo = [v - margin for v in lo]
    hi = [v + margin for v in hi]
    lo_int, shapes = zip(*[_bbox_cells(K, a, b) for a, b in zip(lo, hi)])
    return tuple(lo_int), tuple(shapes)


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
    """Crossing-number inclusion test, vectorized over points."""
    inside = np.zeros(px.shape, dtype=bool)
    x0, y0 = poly[:, 0], poly[:, 1]
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    for ax, ay, bx, by in zip(x0, y0, x1, y1):
        cond = (ay > py) != (by > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = ax + (py - ay) * (bx - ax) / (by - ay)
        inside ^= cond & (px < xint)
    return inside


def build_domain(spec: GeneratorSpec | str, K: int, **params) -> VoxelDomain:
    """Realize a generator at resolution 2**-K.

    Occupancy is the analytic set sampled at cell centers.  Every generator
    accepts `margin` (dyadic, default 0) growing the bbox beyond the unit
    box so the complement has room for exterior decompositions.
    """
    if isinstance(spec, str):
        spec = GeneratorSpec(spec, dict(params))
    p = dict(spec.params)
    tag = spec.tag
    if tag not in GENERATORS:
        raise InvalidDomain(f"unknown generator '{tag}'")
    margin = Fraction(p.pop("margin", 0))
    if tag == "cantor_tube":
        dom = _build_cantor_domain(K, margin, p)
        dom_name = GeneratorSpec(tag, dict(spec.params))
        dom.name = dom_name
        return dom

    ndim = int(p.pop("dim", 2))
    lo_int, shape = _margin_bbox(K, margin, 0, 1, ndim)
    grids = _grid_centers(K, lo_int, shape)

    if tag == "cube":
        inside = np.ones(shape, dtype=bool)
        for g in grids:
            inside &= (g > 0) & (g < 1)
    elif tag == "ball":
        r = float(p.pop("r", 0.5))
        c = [0.5] * ndim
        d2 = sum((g - ci) ** 2 for g, ci in zip(grids, c))
        inside = d2 < r * r
    elif tag == "slit_square":
        slit_len = float(p.pop("slit_len", 0.5))
        x, y = grids
        inside = (x > 0) & (x < 1) & (y > 0) & (y < 1)
        h = 2.0**-K
        # the slit is one cell row thick: cells [0, slit_len) x [1/2, 1/2+h)
        slit = (x < slit_len) & (y > 0.5) & (y < 0.5 + h)
        inside &= ~slit
    elif tag == "outward_cusp":
        alpha = float(p.pop("alpha", 2.0))
        if alpha <= 1:
            raise InvalidDomain("cusp exponent must satisfy alpha > 1")
        x, y = grids
        inside = (x > 0) & (x < 1) & (y > 0) & (y < 1)
        spike = (y >= 0.5) & (np.abs(x - 0.5) <= (y - 0.5) ** alpha)
        inside &= ~spike
    elif tag == "snowflake_approx":
        iters = int(p.pop("iterations", 3))
        poly = koch_snowflake(iters)
        x, y = grids
        inside = _points_in_polygon(x, y, poly)
    else:  # pragma: no cover
        raise InvalidDomain(tag)

    if p:
        raise InvalidDomain(f"unused generator parameters: {sorted(p)}")
    if not inside.any():
        raise InvalidDomain(f"{tag}: empty occupancy at K={K}")
    return VoxelDomain(K, lo_int, inside, name=spec)


def _build_cantor_domain(K, margin, p):
    from .cantor import _cantor_constants, build_cantor_tube, cantor_occupancy

    depth = int(p.pop("depth", 1))
    lam = p.pop("lambda_override", None)
    window = p.pop("window", None)
    allow_coarse = bool(p.pop("allow_coarse", False))
    spec3 = p.pop("cantor_spec", None)
    c = _cantor_constants(depth, lam)[3] if spec3 is None else spec3.c
    h = Fraction(1, 2**K)
    if c[depth] < 4 * h and not allow_coarse:
        # sub-resolution tubes vanish under center sampling; measure-level
        # studies may opt in explicitly since the tubes carry no volume
        raise ResolutionTooCoarse(
            f"cantor_tube depth={depth} needs h <= c_{depth}/4 = "
            f"{float(c[depth] / 4):.3e}, got h = {float(h):.3e}"
        )
    if spec3 is None:
        spec3 = build_cantor_tube(depth, lambda_override=lam)
    if window is None:
        wlo = [Fraction(0) - margin] * 3
        whi = [Fraction(1) + margin] * 3
    else:
        wlo = [Fraction(v) - margin for v in window[0]]
        whi = [Fraction(v) + margin for v in window[1]]
    lo_int, shape = zip(*[_bbox_cells(K, a, b) for a, b in zip(wlo, whi)])
    ncells = int(np.prod(shape))
    if ncells > 2**27:
        raise InvalidDomain(
            f"cantor_tube voxelization of {shape} exceeds the cell budget; "
            "pass a smaller window"
        )
    mask = cantor_occupancy(spec3, K, lo_int, shape)
    if not mask.any():
        raise InvalidDomain("cantor_tube: empty occupancy")
    dom = VoxelDomain(K, lo_int, mask, name=GeneratorSpec("cantor_tube"))
    dom.cantor_spec = spec3
    return dom
