import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from copy_oracles import dense_grid_centers
from memory import traced_peak
from scipy import ndimage

import sobex.domain as domain
from sobex.cantor import build_cantor_tube, default_lambdas
from sobex.domain import GENERATORS, GeneratorSpec, VoxelDomain, build_domain
from sobex.errors import InvalidDomain, ResolutionTooCoarse
from sobex.perimeter import VoxelSet, perimeter


def test_cube_k4_full_occupancy():
    dom = build_domain("cube", 4, dim=2)
    assert dom.shape == (16, 16)
    assert dom.mask.all()
    axes, coords = dom.boundary_faces_doubled()
    # boundary is exactly the bbox faces
    assert len(axes) == 4 * 16
    assert dom.boundary_area() == pytest.approx(4.0)


def test_ball_area_against_refined_quadrature():
    dom = build_domain("ball", 6, r=0.5)
    # oracle: the same center-sampling quadrature at K=12
    K = 12
    c = (np.arange(2**K) + 0.5) * 2.0**-K
    x, y = np.meshgrid(c, c, indexing="ij")
    refined = np.sum((x - 0.5) ** 2 + (y - 0.5) ** 2 < 0.25) * 4.0 ** -K
    assert refined == pytest.approx(math.pi * 0.25, rel=1e-4)
    assert dom.measure() == pytest.approx(refined, rel=0.02)


def test_slit_square_count_formula():
    K = 9
    dom = build_domain("slit_square", K, slit_len=0.5)
    # slit removes one cell row of thickness h and length slit_len
    expected = 4**K - int(0.5 * 2**K)
    assert int(dom.mask.sum()) == expected


def test_outward_cusp_geometry():
    dom = build_domain("outward_cusp", 7, alpha=2.0)
    assert dom.connected
    cen = dom.cell_centers()
    x, y = np.meshgrid(cen[0], cen[1], indexing="ij")
    spike = (y >= 0.5) & (np.abs(x - 0.5) <= (y - 0.5) ** 2)
    assert not np.any(dom.mask & spike)
    assert np.all(dom.mask | spike)


def test_snowflake_connected_and_bounded():
    dom = build_domain("snowflake_approx", 7, iterations=3)
    assert dom.connected
    # strictly inside the unit box
    assert not dom.mask[0, :].any() and not dom.mask[-1, :].any()
    assert not dom.mask[:, 0].any() and not dom.mask[:, -1].any()


def test_invalid_and_coarse_errors():
    with pytest.raises(InvalidDomain):
        build_domain("ball", 3, r=0.01)  # no cell center falls inside
    with pytest.raises(ResolutionTooCoarse):
        build_domain("cantor_tube", 6, depth=1)
    with pytest.raises(InvalidDomain):
        build_domain("no_such_generator", 4)


def test_voxd_roundtrip_bytes():
    dom = build_domain("ball", 6, r=0.5, margin=1)
    blob = dom.to_voxd()
    dom2 = VoxelDomain.from_voxd(blob)
    assert np.array_equal(dom.mask, dom2.mask)
    assert dom2.K == dom.K and dom2.lo_int == dom.lo_int
    assert dom2.to_voxd() == blob


def test_generator_spec_parse_roundtrip():
    spec = GeneratorSpec("ball", {"r": 0.5, "margin": 1})
    back = GeneratorSpec.parse(spec.describe())
    assert back.tag == "ball"
    assert back.params["r"] == 0.5
    assert back.params["margin"] == 1


@pytest.mark.parametrize("tag,params", [
    ("ball", {"r": 0.5}),
    ("slit_square", {"slit_len": 0.5}),
    ("outward_cusp", {"alpha": 2.0}),
    ("snowflake_approx", {"iterations": 3}),
])
def test_refinement_measure_stability(tag, params):
    # refining by one level moves the measure estimate by at most the
    # boundary collar, ~ perimeter * h
    K = 7
    d1 = build_domain(tag, K, **params)
    d2 = build_domain(tag, K + 1, **params)
    per = perimeter(VoxelSet.from_domain(d1, d1.mask), "rn")
    assert abs(d1.measure() - d2.measure()) <= per * d1.h


def test_connectivity_flag_on_disconnected_mask():
    mask = np.zeros((8, 8), bool)
    mask[0, 0] = True
    mask[7, 7] = True
    dom = VoxelDomain(3, (0, 0), mask)
    assert not dom.connected


def test_connected_is_labelled_on_first_read(monkeypatch, tmp_path):
    calls = []
    label = ndimage.label

    def counting_label(*args, **kwargs):
        calls.append(1)
        return label(*args, **kwargs)

    monkeypatch.setattr(domain.ndimage, "label", counting_label)
    dom = build_domain("outward_cusp", 6, alpha=2.0)
    dom.save(tmp_path / "cusp.voxd")
    loaded = VoxelDomain.load(tmp_path / "cusp.voxd")
    mask = np.zeros((8, 8), bool)
    mask[0, 0] = mask[7, 7] = True
    apart = VoxelDomain(3, (0, 0), mask)
    assert not calls
    assert dom.connected and loaded.connected and not apart.connected
    assert dom.connected and len(calls) == 3  # kept after the first read
    structure = ndimage.generate_binary_structure(2, 1)
    assert label(dom.mask, structure=structure)[1] == 1


def _no_grid(*args):
    raise AssertionError("a grid was built")


@pytest.mark.parametrize("tag", list(GENERATORS))
@pytest.mark.parametrize("refused", ["dim", "unknown", "window"])
def test_refusals_come_before_any_grid(monkeypatch, tag, refused):
    """A wrong dim, an unknown parameter and a window of the wrong
    dimension are refused by every generator before a grid exists."""
    monkeypatch.setattr(domain, "_grid_centers", _no_grid)
    monkeypatch.setattr(domain, "_margin_bbox", _no_grid)
    dims = GENERATORS[tag].dims
    params = {
        "dim": dict(dim=4 if 3 in dims else 3),
        "unknown": dict(bogus=7, dim=dims[0]),
        "window": dict(window=((0,) * (5 - dims[0]), (1,) * (5 - dims[0]))),
    }[refused]
    with pytest.raises(InvalidDomain, match=tag):
        build_domain(tag, 5, **params)


def test_build_peaks():
    """A 3D ball build holds its 2 MiB mask and 16 MiB of float64 squared
    distances, and no int32 component labels; a refused build allocates
    nothing."""
    dom, peak = traced_peak(lambda: build_domain(
        "ball", 6, r=0.5, margin=Fraction(1, 2), dim=3))
    assert dom.shape == (128, 128, 128)
    assert peak <= 18.1 * 2**20

    def refused():
        with pytest.raises(InvalidDomain):
            build_domain("slit_square", 10, dim=3)

    _, peak = traced_peak(refused)
    assert peak < 2**20


@pytest.mark.parametrize("tag, K, params", [
    ("cube", 6, dict(dim=2)),
    ("ball", 6, dict(r=0.5)),
    ("slit_square", 7, dict(slit_len=0.5)),
    ("outward_cusp", 7, dict(alpha=2.0)),
    ("snowflake_approx", 6, dict(iterations=3)),
    ("ball", 4, dict(r=0.5, dim=3)),
])
def test_window_is_the_crop_of_the_margin_build(tag, K, params):
    """A window grown by a margin gives exactly that crop of the margin
    build, and its generator line rebuilds it at K+1."""
    n = params.get("dim", 2)
    # across the unit box's low edges, and not a cube
    window = ((Fraction(-1, 8),) * n,
              (Fraction(3, 4),) + (Fraction(5, 8),) * (n - 1))
    whole = build_domain(tag, K, margin=Fraction(1, 4), **params)
    dom = build_domain(tag, K, margin=Fraction(1, 8), window=window, **params)
    assert dom.bbox() == (tuple(a - Fraction(1, 8) for a in window[0]),
                          tuple(b + Fraction(1, 8) for b in window[1]))
    crop = tuple(slice(a - b, a - b + s) for a, b, s in
                 zip(dom.lo_int, whole.lo_int, dom.shape))
    assert np.array_equal(dom.mask, whole.mask[crop])
    name = VoxelDomain.from_voxd(dom.to_voxd()).name
    finer = build_domain(name, K + 1)
    assert finer.bbox() == dom.bbox()
    assert np.array_equal(finer.mask, build_domain(
        tag, K + 1, margin=Fraction(1, 8), window=window, **params).mask)


def test_cantor_window_file_bytes_are_pinned():
    window = ((Fraction(1, 4), Fraction(1, 4), Fraction(3, 4)),
              (Fraction(3, 4), Fraction(3, 4), Fraction(1)))
    dom = build_domain("cantor_tube", 5, depth=1, window=window,
                       allow_coarse=True, margin=Fraction(1, 8))
    assert hashlib.sha256(dom.to_voxd()).hexdigest() == (
        "33839774a2a349b18c73a38a0fc75000d7f3af467eccf53188625dec834bdee2")


def _small_cantor_window():
    w = Fraction(1, 2**9)
    return ((Fraction(1, 2) - w, Fraction(1, 2) - w, Fraction(1) - w / 2),
            (Fraction(1, 2) + w, Fraction(1, 2) + w, Fraction(1)))


def _cantor_cases():
    win = _small_cantor_window()
    coarse = ((Fraction(1, 4), Fraction(1, 4), Fraction(3, 4)),
              (Fraction(3, 4), Fraction(3, 4), Fraction(1)))
    return {
        "window": (14, dict(depth=1, window=win)),
        "lambda_override": (14, dict(depth=1, window=win,
                                     lambda_override=default_lambdas(1))),
        "allow_coarse=False": (14, dict(depth=1, window=win,
                                        allow_coarse=False)),
        "allow_coarse=True": (5, dict(depth=1, window=coarse,
                                      allow_coarse=True, margin=Fraction(1, 8))),
        "cantor_spec": (14, dict(depth=1, window=win,
                                 cantor_spec=build_cantor_tube(1))),
    }


@pytest.mark.parametrize("case", ["window", "lambda_override",
                                  "allow_coarse=False", "allow_coarse=True",
                                  "cantor_spec"])
def test_cantor_generator_line_roundtrip(case):
    """The VOXD generator line reads back to the same name, and that name
    rebuilds the same mask."""
    K, params = _cantor_cases()[case]
    dom = build_domain("cantor_tube", K, **params)
    assert "cantor_spec" not in dom.name.params
    loaded = VoxelDomain.from_voxd(dom.to_voxd())
    assert loaded.name == dom.name
    assert loaded.name.describe() == dom.name.describe()
    assert np.array_equal(build_domain(loaded.name, K).mask, dom.mask)


def test_generator_values_parse_back():
    spec = GeneratorSpec("t", {"a": True, "b": False, "c": (Fraction(1, 3),),
                               "d": (1, Fraction(-1, 2)), "e": ((0, 1),),
                               "f": ((1, 2), (Fraction(3, 4), 5)),
                               "g": Fraction(1, 8), "h": 0.1})
    text = spec.describe()
    assert "Fraction" not in text and " " not in text
    back = GeneratorSpec.parse(text)
    assert back == spec
    assert back.params["a"] is True and back.params["b"] is False


@pytest.mark.parametrize("tag, K, params", [
    ("cube", 6, dict(margin=Fraction(1, 4))),
    ("ball", 7, dict(r=0.5, margin=Fraction(1, 2))),
    ("slit_square", 7, dict(slit_len=0.5, margin=Fraction(1, 4))),
    ("outward_cusp", 8, dict(alpha=2.0, margin=Fraction(1, 4))),
    ("snowflake_approx", 7, dict(iterations=3, margin=Fraction(1, 4))),
    ("ball", 5, dict(dim=3, r=0.5, margin=Fraction(1, 2))),
    ("cube", 4, dict(dim=3, margin=Fraction(1, 4))),
])
def test_open_grids_give_the_dense_masks(monkeypatch, tag, K, params):
    mask = build_domain(tag, K, **params).mask
    monkeypatch.setattr(domain, "_grid_centers", dense_grid_centers)
    dense = build_domain(tag, K, **params).mask
    assert mask.any() and not mask.all()
    assert np.array_equal(mask, dense)
