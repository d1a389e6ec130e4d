"""Minimal SVG and PPM emitters for previews and overlays."""

from __future__ import annotations

import numpy as np

from .whitney import _cube_boxes

LEVEL_COLORS = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]


class SvgCanvas:
    """Fixed-viewport SVG writer; world coordinates map y-up."""

    def __init__(self, world_lo, world_hi, px: int = 800):
        self.lo = tuple(float(v) for v in world_lo)
        self.hi = tuple(float(v) for v in world_hi)
        w = self.hi[0] - self.lo[0]
        h = self.hi[1] - self.lo[1]
        self.px = px
        self.py = int(px * h / w)
        self._scale = px / w
        self.parts: list[str] = []

    def _pt(self, x, y):
        return (
            (x - self.lo[0]) * self._scale,
            self.py - (y - self.lo[1]) * self._scale,
        )

    def rect(self, lo, hi, fill="none", stroke="#000", width=0.5, opacity=1.0):
        x0, y1 = self._pt(lo[0], lo[1])
        x1, y0 = self._pt(hi[0], hi[1])
        self.parts.append(
            f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{x1-x0:.2f}" '
            f'height="{y1-y0:.2f}" fill="{fill}" stroke="{stroke}" '
            f'stroke-width="{width}" fill-opacity="{opacity}"/>'
        )

    def polyline(self, pts, stroke="#d62728", width=1.5, closed=False):
        coords = " ".join(
            f"{x:.2f},{y:.2f}" for x, y in (self._pt(p[0], p[1]) for p in pts)
        )
        tag = "polygon" if closed else "polyline"
        self.parts.append(
            f'<{tag} points="{coords}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width}"/>'
        )

    def text(self, x, y, s, size=12):
        px, py = self._pt(x, y)
        self.parts.append(f'<text x="{px:.1f}" y="{py:.1f}" font-size="{size}">{s}</text>')

    def tostring(self) -> str:
        body = "\n".join(self.parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.px}" '
            f'height="{self.py}" viewBox="0 0 {self.px} {self.py}">\n'
            f'<rect width="100%" height="100%" fill="white"/>\n{body}\n</svg>\n'
        )

    def save(self, path):
        with open(path, "w") as f:
            f.write(self.tostring())


def domain_svg(dom, px: int = 800) -> SvgCanvas:
    lo, hi = dom.bbox()
    cv = SvgCanvas([float(v) for v in lo][:2], [float(v) for v in hi][:2], px)
    if dom.n == 2:
        _mask_rects(cv, dom, dom.mask, fill="#cfe2f3", stroke="none")
    return cv


def _mask_rects(cv: SvgCanvas, dom, mask: np.ndarray, **style) -> None:
    """Draw a 2D mask on the domain grid as one rect per run of cells along
    x, row by row, to keep files small."""
    h = dom.h
    x0, y0 = dom.lo_int[:2]
    edges = np.diff(np.pad(mask.T.astype(np.int8), ((0, 0), (1, 1))), axis=1)
    rows, starts = np.nonzero(edges == 1)
    ends = np.nonzero(edges == -1)[1]
    for j, a, b in zip(rows.tolist(), starts.tolist(), ends.tolist()):
        y = (y0 + j) * h
        cv.rect(((x0 + a) * h, y), ((x0 + b) * h, y + h), **style)


def whitney_svg(dec, px: int = 900) -> SvgCanvas:
    cv = domain_svg(dec.domain, px)
    boxes, _ = _cube_boxes(dec)
    n = dec.domain.n
    for box, level in zip(boxes.tolist(), dec.levels.tolist()):
        cv.rect(box[:2], box[n:n + 2],
                stroke=LEVEL_COLORS[level % len(LEVEL_COLORS)], width=0.6)
    return cv


def sets_svg(dom, layers: list[tuple[np.ndarray, str]], px: int = 800) -> SvgCanvas:
    """Overlay masks (on the domain grid) in the given colors."""
    lo, hi = dom.bbox()
    cv = SvgCanvas([float(v) for v in lo][:2], [float(v) for v in hi][:2], px)
    for mask, color in [(dom.mask, "#eeeeee")] + layers:
        _mask_rects(cv, dom, mask, fill=color, stroke="none", opacity=0.55)
    return cv


def save_ppm(dom, path) -> None:
    """Binary PPM raster of the occupancy (2D, or a 3D mid-slice)."""
    mask = dom.mask if dom.n == 2 else dom.mask[:, :, dom.mask.shape[2] // 2]
    img = np.where(mask.T[::-1], 40, 230).astype(np.uint8)
    rgb = np.stack([img, img, np.full_like(img, 245)], axis=-1)
    with open(path, "wb") as f:
        f.write(f"P6\n{rgb.shape[1]} {rgb.shape[0]}\n255\n".encode())
        f.write(rgb.tobytes())
