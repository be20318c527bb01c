import dataclasses
import inspect
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from wulffkit import (
    InputError, QuadraticNorm, SceneError, load_scene, parse_scene, sample_surface, suites,
)
from wulffkit.cli import main, run
from wulffkit.errors import WulffkitError
from wulffkit.steiner import HI_FRAC, LO_FRAC, SAMPLES

SCENES = Path(__file__).resolve().parent.parent / "scenes"
NAN, INF = float("nan"), float("inf")
# the tube window of the steiner suite, pinned in the library
PINNED = {"lo_frac": LO_FRAC, "hi_frac": HI_FRAC, "samples": SAMPLES}


def test_parse_wulff_scene():
    scene = load_scene(SCENES / "wulff_d2.json")
    assert scene.dim == 2
    assert scene.seed == 7
    assert scene.bodies[0][0] == "w1"
    assert scene.grid is not None
    assert scene.tolerances == {"eps_cluster": 1e-3, "tol_unique": None}


def test_parse_errors_name_the_field():
    with pytest.raises(SceneError, match="family"):
        parse_scene({"integrand": {"family": "mystery"}})
    with pytest.raises(SceneError, match="bodies\\[0\\]"):
        parse_scene(
            {
                "integrand": {"family": "euclidean", "dimension": 2},
                "bodies": [{"kind": "wulff", "center": [0, 0]}],
            }
        )
    with pytest.raises(SceneError, match="unique"):
        parse_scene(
            {
                "integrand": {"family": "euclidean", "dimension": 2},
                "bodies": [
                    {"id": "a", "kind": "ellipsoid", "matrix": [[1, 0], [0, 1]], "center": [0, 0]},
                    {"id": "a", "kind": "ellipsoid", "matrix": [[1, 0], [0, 1]], "center": [3, 0]},
                ],
            }
        )
    with pytest.raises(SceneError, match="tolerances"):
        parse_scene(
            {"integrand": {"family": "euclidean", "dimension": 2}, "tolerances": {"nope": 1}}
        )


BASE = {
    "integrand": {"family": "quadratic", "matrix": [[4.0, 0.0], [0.0, 1.0]]},
    "bodies": [{"id": "w", "kind": "wulff", "center": [0.0, 0.0], "radius": 1.0}],
    "resolution": 512,
    "grid": {"bounds": [[-2.0, 2.0], [-1.5, 1.5]], "cells": [40, 30]},
    "seed": 3,
}


def test_run_cache_samples_each_complement_source_once(monkeypatch):
    from wulffkit import EuclideanNorm, distance, suites

    calls = []

    def counting(fn):
        def wrapped(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapped

    for module in (distance, suites):
        monkeypatch.setattr(module, "sample_surface", counting(module.sample_surface))
    monkeypatch.setattr(distance, "boundary_source", counting(distance.boundary_source))
    scene = parse_scene(BASE)
    cache = suites.RunCache(scene)
    _, body = scene.bodies[0]
    field_f = cache.complement_field(body, scene.integrand)
    field_e = cache.complement_field(body, EuclideanNorm(2))
    assert field_f is not field_e
    assert field_f.source is field_e.source
    assert cache.complement_field(body, scene.integrand) is field_f
    # the run's quadrature sizes the source, one more sample is the source
    assert calls == ["sample_surface", "boundary_source", "sample_surface"]


def test_complement_source_is_sized_from_the_cached_quadrature(monkeypatch):
    from wulffkit import suites

    scene = parse_scene(BASE)
    cache = suites.RunCache(scene)
    _, body = scene.bodies[0]
    cache.table(body)
    calls = []

    def counted(*args):
        calls.append(args)
        return sample_surface(*args)

    monkeypatch.setattr(suites, "sample_surface", counted)
    cache.complement_field(body, scene.integrand)
    assert calls == []


@pytest.mark.parametrize(
    "path,value",
    [
        (("resolution",), "abc"),
        (("resolution",), [64, "x"]),
        (("bodies", 0, "center"), ["a", 0.0]),
        (("grid", "cells"), "z"),
        (("grid", "bounds"), [[0, "q"], [0, 1]]),
        (("seed",), "q"),
        (("seed",), -1),
        (("steiner",), {"reference_radius": "q"}),
        (("tolerances",), {"tol_eq": "x"}),
        (("steiner",), {"samples": "many"}),
        (("bodies",), 5),
        # non-finite numbers, which Python's json reads as NaN and Infinity
        (("tolerances",), {"tol_eq": NAN}),
        (("tolerances",), {"tol_fit": -INF}),
        (("steiner",), {"reference_radius": NAN}),
        (("steiner",), {"reference_radius": -INF}),
        (("steiner",), {"lo_frac": NAN}),
        (("steiner",), {"reference_radius": INF}),
        (("grid", "bounds"), [[-INF, 2.0], [-1.5, 1.5]]),
        (("grid", "bounds"), [[-2.0, 2.0], [-1.5, NAN]]),
        (("bodies", 0, "radius"), NAN),
        (("bodies", 0, "radius"), INF),
        (("bodies", 0, "center"), [NAN, 0.0]),
        (("integrand", "matrix"), [[INF, 0.0], [0.0, 1.0]]),
        (("integrand",), {"family": "weighted-sum", "terms": [
            {"weight": INF, "integrand": {"family": "euclidean", "dimension": 2}},
        ]}),
        (("bodies", 0), {"kind": "ellipsoid", "matrix": [[INF, 0.0], [0.0, 1.0]],
                         "center": [0.0, 0.0]}),
        (("bodies", 0), {"kind": "superellipse", "semi_axes": [1.0, 1.0], "exponent": INF,
                         "center": [0.0, 0.0]}),
        (("bodies", 0), {"kind": "superellipse", "semi_axes": [NAN, 1.0], "exponent": 4.0,
                         "center": [0.0, 0.0]}),
        # whole-number fields given fractions
        (("integrand",), {"family": "euclidean", "dimension": 2.5}),
        (("seed",), 1.5),
        (("steiner",), {"samples": 40.5}),
        (("grid", "cells"), 100.5),
        (("grid", "cells"), [40, 30.5]),
        # steiner window values off the pin, and other steiner keys
        (("steiner",), {"lo_frac": 0.0}),
        (("steiner",), {"lo_frac": -0.5}),
        (("steiner",), {"lo_frac": 0.9, "hi_frac": 0.05}),
        (("steiner",), {"hi_frac": 0.05}),
        (("steiner",), {"reference_radius": 0.0}),
        (("steiner",), {"reference_radius": -1.0}),
        (("steiner",), {"reference_radiuss": 5}),
        (("steiner",), {"source_resolution": -64}),
        (("steiner",), {"source_resolution": 0}),
        # tube sample counts off the pin
        (("steiner",), {"samples": -1}),
        (("steiner",), {"samples": 0}),
        (("steiner",), {"samples": 2}),
        (("steiner",), {"samples": 5}),
        # JSON booleans, which Python reads as the integers 1 and 0
        (("seed",), True),
        (("tolerances",), {"tol_eq": True}),
        (("steiner",), {"hi_frac": True}),
        (("steiner",), {"reference_radius": True}),
        (("grid", "cells"), [40, True]),
        (("bodies", 0, "radius"), True),
        (("integrand",), {"family": "weighted-sum", "terms": [
            {"weight": True, "integrand": {"family": "euclidean", "dimension": 2}},
        ]}),
        (("bodies", 0, "id"), "a/b"),
        (("bodies", 0, "id"), "a,b"),
        # JSON booleans inside arrays, and ids that are not strings
        (("bodies", 0, "center"), [True, 0.0]),
        (("integrand", "matrix"), [[True, 0.0], [0.0, 1.0]]),
        (("bodies", 0), {"kind": "ellipsoid", "matrix": [[True, 0.0], [0.0, 1.0]],
                         "center": [0.0, 0.0]}),
        (("bodies", 0), {"kind": "superellipse", "semi_axes": [True, 1.0], "exponent": 4.0,
                         "center": [0.0, 0.0]}),
        (("bodies", 0, "id"), True),
        (("bodies", 0, "id"), 7),
    ],
)
def test_bad_field_values_are_scene_errors(path, value):
    raw = json.loads(json.dumps(BASE))
    target = raw
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(SceneError, match=str(path[0])) as refused:
        parse_scene(raw)
    if path == ("steiner",) and PINNED.keys() & value.keys():
        assert "the tube window is pinned in the library" in str(refused.value)


EUCLIDEAN = {"family": "euclidean", "dimension": 2}


@pytest.mark.parametrize(
    "override,field",
    [
        ({"resolutoin": 1024}, "resolutoin"),
        ({"integrand": {**EUCLIDEAN, "matrix": [[4.0, 0.0], [0.0, 1.0]]}}, "integrand.matrix"),
        ({"integrand": {**BASE["integrand"], "dimension": 3}}, "integrand.dimension"),
        ({"integrand": {"family": "weighted-sum", "terms": [], "weights": [1.0]}},
         "integrand.weights"),
        ({"integrand": {"family": "weighted-sum", "terms": [
            {"weight": 1.0, "integrand": EUCLIDEAN, "power": 2},
        ]}}, "integrand.terms[0].power"),
        ({"bodies": [{**BASE["bodies"][0], "radiuss": 2.0}]}, "bodies[0].radiuss"),
        ({"bodies": [{"kind": "ellipsoid", "matrix": [[1.0, 0.0], [0.0, 1.0]],
                      "center": [0.0, 0.0], "radius": 1.0}]}, "bodies[0].radius"),
        ({"bodies": [{"kind": "superellipse", "semi_axes": [1.0, 1.0], "exponent": 4.0,
                      "center": [0.0, 0.0], "matrix": [[1.0, 0.0], [0.0, 1.0]]}]},
         "bodies[0].matrix"),
        ({"grid": {**BASE["grid"], "cellz": [80, 60]}}, "grid.cellz"),
        ({"steiner": {"reference_radius": 0.9, "source_res": 1024}}, "steiner.source_res"),
    ],
    ids=[
        "root", "euclidean", "quadratic", "weighted-sum", "term", "wulff", "ellipsoid",
        "superellipse", "grid", "steiner",
    ],
)
def test_unknown_keys_are_refused_at_every_level(override, field):
    # the parser read the keys it knew and ran the scene on defaults, so a
    # misspelled key gave verdicts for a scene other than the one written
    with pytest.raises(SceneError, match=f"^{re.escape(field)}: unknown key$"):
        parse_scene({**BASE, **override})


@pytest.mark.parametrize("axes", [5.0, [1.0, 2.0, 3.0]])
def test_superellipse_semi_axes_not_two_numbers_name_the_field(axes):
    body = {"kind": "superellipse", "semi_axes": axes, "exponent": 4.0, "center": [0.0, 0.0]}
    with pytest.raises(SceneError, match=re.escape("bodies[0]: superellipse semi_axes")):
        parse_scene({**BASE, "bodies": [body]})


def test_booleans_in_arrays_name_the_field():
    ellipsoid = {"kind": "ellipsoid", "matrix": [[1.0, 0.0], [0.0, False]], "center": [0.0, 0.0]}
    superellipse = {"kind": "superellipse", "semi_axes": [1.0, True], "exponent": 4.0,
                    "center": [0.0, 0.0]}
    for override, field in (
        ({"integrand": {"family": "quadratic", "matrix": [[4.0, 0.0], [0.0, True]]}},
         "integrand.matrix"),
        ({"bodies": [ellipsoid]}, "bodies[0].matrix"),
        ({"bodies": [superellipse]}, "bodies[0].semi_axes"),
        ({"bodies": [{**BASE["bodies"][0], "center": [0.0, True]}]}, "bodies[0].center"),
    ):
        with pytest.raises(SceneError, match=re.escape(field)):
            parse_scene({**BASE, **override})


@pytest.mark.parametrize(
    "section,value,field",
    [
        ("steiner", {"lo_frac": -0.5}, "steiner.lo_frac"),
        ("steiner", {"hi_frac": 0.05}, "steiner.hi_frac"),
        ("steiner", {"reference_radius": 0.0}, "steiner.reference_radius"),
        # the curvature bound hk.c could change no verdict, so hk is no scene key
        ("hk", {"c": 1.0}, "hk: unknown key"),
        ("steiner", {"source_resolution": 65}, "steiner.source_resolution"),
        ("steiner", {"samples": 5}, "steiner.samples"),
    ],
)
def test_steiner_and_hk_refusals_name_the_key(section, value, field):
    with pytest.raises(SceneError, match=field.replace(".", "\\.")) as refused:
        parse_scene({**BASE, section: value})
    if field.split(".")[-1] in PINNED:
        assert "the tube window is pinned in the library" in str(refused.value)


def test_steiner_window_parses_only_at_the_pinned_values():
    # a scene may state each key of the pinned tube window at its pinned
    # value, as JSON writes it; Scene.steiner holds only the other keys
    for base in (BASE, D3):
        stated = json.loads(json.dumps({**base, "steiner": {**PINNED, "reference_radius": 0.5}}))
        assert parse_scene(stated).steiner == {"reference_radius": 0.5}
        assert parse_scene({**base, "steiner": {"samples": float(SAMPLES)}}).steiner == {}
    # any other value is refused, naming the key; samples 6 and 9, the least
    # the degree-2 and degree-3 fits take, were accepted before the pin
    for key, pinned in PINNED.items():
        others = [
            2 * pinned, 0.5 * pinned, -pinned, 0, 6, 9, float(np.nextafter(pinned, 1e3)),
            True, False, NAN, INF, str(pinned), None, [pinned], {key: pinned},
        ]
        for base in (BASE, D3):
            for value in others:
                with pytest.raises(
                    SceneError, match=rf"steiner\.{key}: the tube window is pinned in the library"
                ):
                    parse_scene({**base, "steiner": {key: value}})


@pytest.mark.parametrize(
    "key", ["eps_cluster", "steiner_residual", "tol_eq", "tol_fit", "tol_r", "tol_unique"]
)
def test_negative_tolerances_are_scene_errors(key):
    # verdict tolerances are pinned in the library: a scene's tolerances
    # section is refused whatever it holds, naming the key
    for value in (-1, -1e-300, 0, 1e-3, None):
        with pytest.raises(SceneError, match=f"tolerances\\.{key}"):
            parse_scene({**BASE, "tolerances": {key: value}})


@pytest.mark.parametrize(
    "name,tolerances",
    [
        # each loosened a verdict: unequal radii read as equal, and an
        # ellipse's HK ratio of 0.542 as equality
        ("two_wulff_d2", {"tol_r": 0.5}),
        ("ellipse_d2", {"tol_eq": 1.0}),
        ("wulff_d2", {}),
        ("wulff_d2", []),
    ],
)
def test_scene_tolerances_are_refused(tmp_path, capsys, name, tolerances):
    raw = json.loads((SCENES / f"{name}.json").read_text())
    scene = tmp_path / "loose.json"
    scene.write_text(json.dumps({**raw, "tolerances": tolerances}))
    code = main(["hk", "--scene", str(scene), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "tolerances" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


D3 = json.loads((SCENES / "wulff_d3.json").read_text())


@pytest.mark.parametrize(
    "base,override,field",
    [
        (D3, {"resolution": [32]}, "resolution"),
        (D3, {"resolution": [32, 64, 64]}, "resolution"),
        (D3, {"resolution": 100.5}, "resolution"),
        (D3, {"resolution": [64, 128.5]}, "resolution"),
        (BASE, {"resolution": 512.5}, "resolution"),
        (BASE, {"resolution": [512, 512]}, "resolution"),
        (BASE, {"steiner": {"source_resolution": 100.5}}, "steiner.source_resolution"),
        (BASE, {"steiner": {"source_resolution": [512, 512]}}, "steiner.source_resolution"),
        # counts the sphere grid takes but surface sampling refuses
        (BASE, {"resolution": 4097}, "resolution"),
        (BASE, {"resolution": 32}, "resolution"),
        (D3, {"resolution": [33, 64]}, "resolution"),
        (D3, {"resolution": [32, 62]}, "resolution"),
        (BASE, {"steiner": {"source_resolution": 1023}}, "steiner.source_resolution"),
        # 2^21 nodes, above the bound of 2^20
        (BASE, {"resolution": 2**21}, "resolution"),
        (D3, {"resolution": [1024, 2048]}, "resolution"),
        (BASE, {"steiner": {"source_resolution": 2**21}}, "steiner.source_resolution"),
    ],
    ids=[
        "d3-one-axis",
        "d3-three-axes",
        "d3-fraction",
        "d3-fraction-in-pair",
        "d2-fraction",
        "d2-pair",
        "source-fraction",
        "source-pair",
        "d2-odd",
        "d2-too-few",
        "d3-odd-theta",
        "d3-too-few-phi",
        "source-odd",
        "d2-too-many",
        "d3-too-many",
        "source-too-many",
    ],
)
def test_resolution_refusals_name_the_field(base, override, field):
    with pytest.raises(SceneError, match=field):
        parse_scene({**base, **override})


def test_whole_float_resolution_is_a_count():
    assert parse_scene({**BASE, "resolution": 512.0}).resolution == 512
    assert parse_scene({**D3, "resolution": [64.0, 128]}).resolution == (64, 128)


def test_d3_resolution_of_one_axis_is_a_scene_error_in_all(tmp_path):
    scene = tmp_path / "short.json"
    scene.write_text(json.dumps({**D3, "resolution": [32]}))
    with pytest.raises(SceneError, match="resolution"):
        run("all", scene, tmp_path / "out")


JSON = hst.recursive(
    hst.none()
    | hst.booleans()
    | hst.integers(-(10**6), 10**6)
    | hst.floats(allow_nan=False, allow_infinity=False)
    | hst.text(max_size=6),
    lambda inner: hst.lists(inner, max_size=4)
    | hst.dictionaries(hst.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def _maybe(valid):
    return hst.one_of(hst.just(valid), JSON)


def _fields(keys):
    return hst.dictionaries(hst.sampled_from(keys), JSON, max_size=3)


SCENES_ANY = hst.one_of(
    JSON,
    hst.fixed_dictionaries(
        {"integrand": _maybe(BASE["integrand"])},
        optional={
            "bodies": hst.lists(
                hst.fixed_dictionaries(
                    {
                        "kind": _maybe("wulff"),
                        "center": _maybe([0.0, 0.0]),
                        "radius": _maybe(1.0),
                    },
                    optional={"id": JSON, "matrix": JSON, "semi_axes": JSON, "exponent": JSON},
                ),
                max_size=2,
            )
            | JSON,
            "resolution": _maybe(512),
            "grid": hst.fixed_dictionaries(
                {"bounds": _maybe(BASE["grid"]["bounds"])}, optional={"cells": _maybe([40, 30])}
            )
            | JSON,
            "seed": _maybe(3),
            "suites": _maybe(["dual", "hk"]),
            "tolerances": _fields(["tol_eq", "tol_fit", "tol_r", "eps_cluster", "tol_unique"])
            | JSON,
            "steiner": _fields(["lo_frac", "samples", "reference_radius", "source_resolution"])
            | JSON,
        },
    ),
)


@given(SCENES_ANY)
@settings(max_examples=300, deadline=None)
def test_any_json_scene_parses_or_raises_scene_error(raw):
    try:
        parse_scene(raw)
    except SceneError:
        pass


@pytest.mark.parametrize(
    "field,override,argv",
    [
        ("resolution", {"resolution": "abc"}, []),
        ("seed", {}, ["--seed", "-1"]),
        ("grid", {"grid": {"bounds": [[-INF, 2.0], [-1.5, 1.5]], "cells": [40, 30]}}, []),
        ("tolerances.eps_cluster", {"tolerances": {"eps_cluster": -1}}, []),
        ("steiner.samples", {"steiner": {"samples": -1}}, []),
        # a body id names output files and CSV fields
        ("bodies[0].id", {"bodies": [{**BASE["bodies"][0], "id": "a/b"}]}, []),
        ("bodies[0].id", {"bodies": [{**BASE["bodies"][0], "id": "a,b"}]}, []),
        ("bodies[0].radius", {"bodies": [{**BASE["bodies"][0], "radius": True}]}, []),
        ("bodies[0].exponent", {"bodies": [
            {"kind": "superellipse", "semi_axes": [1.0, 1.0], "exponent": "four",
             "center": [0.0, 0.0]},
        ]}, []),
        ("integrand.terms[0].weight", {"integrand": {"family": "weighted-sum", "terms": [
            {"weight": True, "integrand": {"family": "euclidean", "dimension": 2}},
        ]}}, []),
    ],
)
def test_bad_scene_value_exits_1_without_traceback(tmp_path, capsys, field, override, argv):
    scene = tmp_path / "bad.json"
    scene.write_text(json.dumps({**BASE, **override}))
    code = main(["all", "--scene", str(scene), "--out", str(tmp_path / "out"), *argv])
    assert code == 1
    err = capsys.readouterr().err
    assert field in err
    assert "Traceback" not in err


def test_malformed_json_reports_line(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "integrand": [,]\n}')
    with pytest.raises(SceneError, match="line 2"):
        load_scene(bad)


def test_non_spd_matrix_is_input_error_exit_1(tmp_path, capsys):
    scene = tmp_path / "broken.json"
    scene.write_text(
        json.dumps(
            {
                "integrand": {"family": "quadratic", "matrix": [[4.0, 0.0], [0.0, -1.0]]},
                "bodies": [],
            }
        )
    )
    code = main(["dual", "--scene", str(scene), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "positive definite" in capsys.readouterr().err


def test_missing_scene_exit_1(tmp_path, capsys):
    code = main(["dual", "--scene", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == 1


@pytest.mark.parametrize("case", ["non-UTF-8 scene", "directory as scene", "file as out"])
def test_unusable_scene_or_out_path_exits_1_in_one_line(tmp_path, capsys, case):
    # these raised a raw UnicodeDecodeError, IsADirectoryError and
    # FileExistsError
    scene, out = tmp_path / "scene.json", tmp_path / "out"
    scene.write_text(json.dumps(BASE))
    if case == "non-UTF-8 scene":
        scene.write_bytes(b'{"integrand": "\xff"}')
        expected = f"scene error: {scene}: not UTF-8 text at byte 15: invalid start byte"
    elif case == "directory as scene":
        scene = tmp_path / "a directory"
        scene.mkdir()
        expected = f"scene error: cannot read scene file {scene}: Is a directory"
    else:
        out.write_text("")
        expected = f"error: cannot create output directory {out}: File exists"
    assert main(["dual", "--scene", str(scene), "--out", str(out)]) == 1
    assert capsys.readouterr().err == expected + "\n"


def test_automatic_source_resolution_doubles_until_the_sample_fits_the_grid(tmp_path):
    # rays at uniform angles space a 3:1 ellipse's samples unevenly: the
    # length-based resolution left its spacing 0.0249 above h = 0.02, and
    # steiner and reach refused the scene
    raw = {
        "integrand": {"family": "euclidean", "dimension": 2},
        "bodies": [
            {"id": "e", "kind": "ellipsoid", "matrix": [[1 / 9, 0.0], [0.0, 1.0]], "center": [0, 0]}
        ],
        "resolution": 1024,
        "grid": {"bounds": [[-3.5, 3.5], [-1.3, 1.3]], "cells": [350, 130]},
        "seed": 7,
        "suites": ["steiner", "reach"],
    }
    scene = tmp_path / "ellipse.json"
    scene.write_text(json.dumps(raw))
    assert main(["all", "--scene", str(scene), "--out", str(tmp_path / "out")]) == 0
    parsed = load_scene(scene)
    source = suites.RunCache(parsed).complement_source(parsed.bodies[0][1])
    assert len(source.points) == 2048 and source.spacing <= parsed.grid.h
    # a resolution the scene sets stays as given
    raw["steiner"] = {"source_resolution": 1024}
    scene.write_text(json.dumps(raw))
    assert main(["all", "--scene", str(scene), "--out", str(tmp_path / "given")]) == 1


def _wulff_scene(tmp_path, name, radius):
    raw = json.loads((SCENES / f"{name}.json").read_text())
    raw["bodies"][0]["radius"] = radius
    scene = tmp_path / f"{name}.json"
    scene.write_text(json.dumps(raw))
    return scene


def test_a_source_above_the_node_bound_exits_1_in_one_line(tmp_path, capsys):
    # the automatic complement source of a ball of radius 1e20 takes 2^77
    # nodes, and np.arange raised a raw ValueError
    scene = _wulff_scene(tmp_path, "wulff_d2", 1e20)
    assert main(["all", "--scene", str(scene), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: d=2 surface sampling takes at most {2**20} nodes, got (")
    assert err.count("\n") == 1 and err.endswith("\n")


OVERFLOW = "error: floating-point overflow in the run\n"
BOUND = f"error: d=2 surface sampling takes at most {2**20} nodes, got "


@pytest.mark.parametrize(
    "name,radius,expected",
    [
        # the node bound refuses steiner's source before var overflows
        ("wulff_d2", 1e100, BOUND + "(1.79e+103)\n"),
        ("wulff_d2", 1e150, BOUND + "(1.67e+153)\n"),
        ("wulff_d2", 1e200, OVERFLOW),
        ("wulff_d2", 1e300, OVERFLOW),
        ("wulff_d3", 1e100, OVERFLOW),
        ("wulff_d3", 1e150, OVERFLOW),
        ("wulff_d3", 1e200, OVERFLOW),
        ("wulff_d3", 1e300, OVERFLOW),
    ],
    ids=[f"d{d}-1e{e}" for d in (2, 3) for e in (100, 150, 200, 300)],
)
def test_a_float_overflow_exits_1_in_one_line(tmp_path, capsys, name, radius, expected):
    # numpy warned of the overflow and the run went on: radius 1e200 ended
    # in 'vanishing boundary gradient', 1e150 in 3D in 'non-finite input
    # components', and the node bound printed a count of 104 or 154 digits
    scene = _wulff_scene(tmp_path, name, radius)
    before = np.geterr(), np.geterrcall()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["all", "--scene", str(scene), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == expected
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    # the setting holds for the run alone
    assert (np.geterr(), np.geterrcall()) == before


@pytest.mark.parametrize("radius", [1e-110, 1e-150])
def test_a_volume_that_underflows_exits_1_in_one_line(tmp_path, capsys, radius):
    # the volume r^3 |W| underflowed to 0.0, both volume formulas agreed on
    # it, and p / v in criticality_residual raised a raw ZeroDivisionError
    scene = _wulff_scene(tmp_path, "wulff_d3", radius)
    assert main(["all", "--scene", str(scene), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: enclosed volume 0.0 is not positive and finite\n"


def test_steiner_passes_on_a_scaled_down_wulff_scene(tmp_path):
    # wulff_d2 scaled whole by 1e-20 was refused as a degenerate t grid:
    # the tube fit's design held raw powers of radii near 1e-20
    raw = json.loads((SCENES / "wulff_d2.json").read_text())
    raw["bodies"][0]["radius"] *= 1e-20
    raw["grid"]["bounds"] = [[lo * 1e-20, hi * 1e-20] for lo, hi in raw["grid"]["bounds"]]
    raw["steiner"]["reference_radius"] *= 1e-20
    scene = tmp_path / "wulff_d2.json"
    scene.write_text(json.dumps(raw))
    assert main(["steiner", "--scene", str(scene), "--out", str(tmp_path / "out")]) == 0


def test_curv_on_a_huge_wulff_ball_passes(tmp_path, capsys):
    # at radius 1e12, an absolute |lambda| < 1e-10 made the fit
    # hyperplane-like, with no centre or radius, and curv exited 4
    scene = _wulff_scene(tmp_path, "wulff_d3", 1e12)
    assert main(["curv", "--scene", str(scene), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    [curv] = json.loads((tmp_path / "out" / "report.json").read_text())["suites"]
    assert all(c["passed"] for c in curv["checks"])
    assert "wulff_radius_recovery[w3]" in {c["name"] for c in curv["checks"]}
    umb = curv["metrics"]["umbilicity[w3]"]
    assert umb["verdict"] == "wulff"
    assert umb["radius"] == pytest.approx(1e12, rel=1e-10)


def test_hk_command_on_wulff_scene(tmp_path):
    out = tmp_path / "out"
    code = run("hk", SCENES / "wulff_d2.json", out)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["exit_code"] == 0
    suite = report["suites"][0]
    assert suite["name"] == "hk"
    assert suite["verifies"]
    assert suite["metrics"]["ratio"] == pytest.approx(1.0, abs=1e-3)
    assert suite["metrics"]["class_verdict"] == "wulff-union"


def test_hk_command_on_ellipse_scene_strict_is_success(tmp_path):
    out = tmp_path / "out"
    code = run("hk", SCENES / "ellipse_d2.json", out)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["suites"][0]["metrics"]["hk_verdict"] == "strict"
    assert report["suites"][0]["metrics"]["ratio"] == pytest.approx(32.0 / 59.0, abs=1e-3)


def test_reports_are_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run("curv", SCENES / "wulff_d2.json", out1)
    run("curv", SCENES / "wulff_d2.json", out2)
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_seed_override_changes_report(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run("dual", SCENES / "wulff_d2.json", out1)
    run("dual", SCENES / "wulff_d2.json", out2, seed=123)
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    assert r1["seed"] == 7 and r2["seed"] == 123


def test_csv_artifacts_written(tmp_path):
    out = tmp_path / "out"
    run("wulff", SCENES / "wulff_d2.json", out)
    assert (out / "wulff_w1.csv").exists()
    run("var", SCENES / "wulff_d2.json", out)
    header = (out / "var_residuals.csv").read_text().splitlines()[0]
    assert header == "field_id,residual"


def test_exit_code_encodes_first_failing_suite(tmp_path):
    # tube radii up to 0.9 * 1.9 pass the reach of the Wulff ball of radius
    # 1, so the tube curve is no polynomial and the steiner suite (index 5 ->
    # exit 7) fails its fit_residual check
    scene = tmp_path / "past_reach.json"
    raw = json.loads((SCENES / "wulff_d2.json").read_text())
    raw["steiner"] = {"reference_radius": 1.9}
    scene.write_text(json.dumps(raw))
    code = run("steiner", scene, tmp_path / "out")
    assert code == 7
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    checks = {c["name"]: c for c in report["suites"][0]["checks"]}
    assert not checks["fit_residual[w1]"]["passed"]


def test_bad_command_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["mystery", "--scene", "x", "--out", str(tmp_path)])


def test_scene_override_flags_are_usage_errors(tmp_path, capsys):
    # the scene file is the whole run: only --seed overrides a field of it
    scene = str(SCENES / "wulff_d2.json")
    for flag in (["--suite", "dual"], ["--resolution", "512"], ["--grid", "100"]):
        with pytest.raises(SystemExit) as exc:
            main(["dual", "--scene", scene, "--out", str(tmp_path / "out"), *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert list(inspect.signature(run).parameters) == ["command", "scene_path", "out_dir", "seed"]


def test_refused_runs_leave_no_output_directory(tmp_path):
    with pytest.raises(InputError, match="unknown command"):
        run("mystery", SCENES / "wulff_d2.json", tmp_path / "a")
    with pytest.raises(SceneError, match="not found"):
        run("all", tmp_path / "missing.json", tmp_path / "b")
    with pytest.raises(SceneError, match="seed"):
        run("all", SCENES / "wulff_d2.json", tmp_path / "c", seed=1.5)
    assert list(tmp_path.iterdir()) == []


def test_unknown_suite_is_refused_before_the_run_starts(tmp_path):
    # the names are checked before out is created and before any suite runs
    scene = load_scene(SCENES / "wulff_d2.json")
    with pytest.raises(WulffkitError, match="^unknown suite 'nope'$"):
        suites.run_suites(["dual", "steiner", "nope"], scene, tmp_path / "out")
    assert list(tmp_path.iterdir()) == []


def test_run_suites_refuses_an_output_directory_it_cannot_create(tmp_path):
    # a path under a regular file raised a raw NotADirectoryError
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "out"
    scene = load_scene(SCENES / "wulff_d2.json")
    with pytest.raises(InputError, match=f"^cannot create output directory {re.escape(str(out))}: "):
        suites.run_suites(["dual"], scene, out)


def test_hk_lists_radii_and_centres_by_body(tmp_path):
    # with the ellipsoid listed first, the Wulff ball's radius sat at index 0
    raw = json.loads((SCENES / "weighted_d3.json").read_text())
    raw["bodies"].reverse()
    scene = tmp_path / "reversed.json"
    scene.write_text(json.dumps(raw))
    assert run("hk", scene, tmp_path / "out") == 0
    (report,) = json.loads((tmp_path / "out" / "report.json").read_text())["suites"]
    metrics = report["metrics"]
    assert metrics["radii"][0] is None and metrics["centers"][0] is None
    assert metrics["radii"][1] == pytest.approx(1.0, rel=1e-10)
    assert metrics["centers"][1] == pytest.approx([0.0, 0.0, 0.0], abs=1e-10)
    assert metrics["equal_radii"] is None


WEIGHTED_SCENE = {
    "integrand": {
        "family": "weighted-sum",
        "terms": [
            {"weight": 0.5, "integrand": {"family": "euclidean", "dimension": 2}},
            {"weight": 1.0, "integrand": {"family": "quadratic", "matrix": [[4, 0], [0, 1]]}},
        ],
    },
    "bodies": [{"id": "w", "kind": "wulff", "center": [0.0, 0.0], "radius": 1.0}],
    "resolution": 512,
    "seed": 3,
}


def test_weighted_sum_scene(tmp_path):
    scene = tmp_path / "ws.json"
    scene.write_text(json.dumps(WEIGHTED_SCENE))
    out = tmp_path / "out"
    assert run("curv", scene, out) == 0
    report = json.loads((out / "report.json").read_text())
    umb = report["suites"][0]["metrics"]["umbilicity[w]"]
    assert umb["verdict"] == "wulff"
    assert umb["radius"] == pytest.approx(1.0, abs=1e-6)


def test_dual_suite_pairs_the_polygon_with_newton(tmp_path):
    # only integrands without a closed form run the polygon check
    scene = tmp_path / "ws.json"
    scene.write_text(json.dumps(WEIGHTED_SCENE))
    checks = {}
    for path in (scene, SCENES / "wulff_d2.json"):
        out = tmp_path / path.stem
        assert run("dual", path, out) == 0
        report = json.loads((out / "report.json").read_text())
        checks[path.stem] = {c["name"]: c for c in report["suites"][0]["checks"]}
    polygon = checks["ws"]["polygon_vs_newton"]
    assert polygon["passed"] and 0.0 < polygon["value"] <= 1e-6
    assert "polygon_vs_newton" not in checks["wulff_d2"]


@pytest.mark.parametrize("name", ["wulff_d2", "wulff_d3"])
def test_every_wulff_check_moves_under_a_scaled_gradient(tmp_path, monkeypatch, name):
    # grad F off by 1 + 1e-7 moves every check of the wulff suite and fails
    # it; a check that reads the same under this defect cannot guard it
    scene = load_scene(SCENES / f"{name}.json")
    exact = suites.run_suites(["wulff"], scene, tmp_path / "exact")[0]
    grad = QuadraticNorm.grad
    monkeypatch.setattr(QuadraticNorm, "grad", lambda self, x: (1.0 + 1e-7) * grad(self, x))
    scaled = suites.run_suites(["wulff"], scene, tmp_path / "scaled")[0]
    assert exact.passed and not scaled.passed
    for a, b in zip(exact.checks, scaled.checks, strict=True):
        assert a["name"] == b["name"] and a["value"] != b["value"], a["name"]


def test_a_curvature_defect_fails_curv_not_the_scene(tmp_path, monkeypatch):
    # with kappa, H and sigma_k off by 1 + 1e-7 the tables' H_max exceeds
    # n/r of body w1; hk reads no curvature bound that could refuse the
    # scene, so the defect can only fail curv (exit 4)
    table = suites.curvature_table

    def scaled(body, f, quad):
        t = table(body, f, quad)
        k = 1.0 + 1e-7
        return dataclasses.replace(t, kappa=k * t.kappa, mean=k * t.mean, sigma=k * t.sigma)

    monkeypatch.setattr(suites, "curvature_table", scaled)
    out = tmp_path / "out"
    assert run("all", SCENES / "two_wulff_d2.json", out) == 4
    report = {s["name"]: s for s in json.loads((out / "report.json").read_text())["suites"]}
    checks = {c["name"]: c for c in report["curv"]["checks"]}
    assert not checks["wulff_constant_curvature[w1]"]["passed"]
    assert checks["wulff_constant_curvature[w1]"]["value"] == pytest.approx(1e-7, rel=1e-6)
    assert report["hk"]["passed"] and report["hk"]["metrics"]["H_max"] > 1.0


def _checks_under(monkeypatch, tmp_path, suite, name, defect):
    """The exit code and checks of ``suite`` on scene ``name`` with every
    curvature table passed through ``defect``."""
    table = suites.curvature_table
    monkeypatch.setattr(suites, "curvature_table", lambda *args: defect(table(*args)))
    out = tmp_path / name
    code = run(suite, SCENES / f"{name}.json", out)
    (report,) = json.loads((out / "report.json").read_text())["suites"]
    return code, {c["name"]: c for c in report["checks"]}


WULFF_SCENES = ["wulff_d2", "two_wulff_d2", "wulff_d3"]


@pytest.mark.parametrize("name", WULFF_SCENES)
def test_scaled_curvatures_fail_wulff_radius_recovery(tmp_path, monkeypatch, name):
    # kappa, H and sigma_k off by 1 + 1e-7 move each fitted radius by about
    # 1e-7 r, which a tolerance of 1e-3 let pass
    def scaled(t):
        k = 1.0 + 1e-7
        return dataclasses.replace(t, kappa=k * t.kappa, mean=k * t.mean, sigma=k * t.sigma)

    code, checks = _checks_under(monkeypatch, tmp_path, "curv", name, scaled)
    assert code == 4
    for bid, body in load_scene(SCENES / f"{name}.json").bodies:
        check = checks[f"wulff_radius_recovery[{bid}]"]
        assert not check["passed"]
        assert check["value"] == pytest.approx(1e-7 * body.radius, rel=1e-5)


@pytest.mark.parametrize("name", WULFF_SCENES)
def test_shifted_points_fail_wulff_center_recovery(tmp_path, monkeypatch, name):
    # the table's points off by 1e-7 e_1 move each fitted centre by 1e-7 and
    # no other check of curv; a tolerance of 1e-3 let every run exit 0
    def shifted(t):
        shift = np.eye(t.quad.dim)[0] * 1e-7
        return dataclasses.replace(t, quad=dataclasses.replace(t.quad, points=t.quad.points + shift))

    code, checks = _checks_under(monkeypatch, tmp_path, "curv", name, shifted)
    assert code == 4
    failed = {c for c, check in checks.items() if not check["passed"]}
    ids = [bid for bid, _ in load_scene(SCENES / f"{name}.json").bodies]
    assert failed == {f"wulff_center_recovery[{bid}]" for bid in ids}
    for bid in ids:
        assert checks[f"wulff_center_recovery[{bid}]"]["value"] == pytest.approx(1e-7, rel=1e-5)


@pytest.mark.parametrize("name", WULFF_SCENES)
def test_scaled_sigma_1_fails_am_gm_tight_on_wulff(tmp_path, monkeypatch, name):
    # sigma_1 off by 1 + 1e-7 moves each Wulff body's tube integral by
    # n (n + 1) / 2 * 1e-7 of the AM-GM bound and no other check of mr; a
    # tolerance of 1e-6 let every run exit 0
    def scaled(t):
        sigma = t.sigma.copy()
        sigma[:, 1] *= 1.0 + 1e-7
        return dataclasses.replace(t, sigma=sigma)

    code, checks = _checks_under(monkeypatch, tmp_path, "mr", name, scaled)
    assert code == 6
    scene = load_scene(SCENES / f"{name}.json")
    failed = {c for c, check in checks.items() if not check["passed"]}
    assert failed == {f"am_gm_tight_on_wulff[{bid}]" for bid, _ in scene.bodies}
    n = scene.dim - 1
    for bid, _ in scene.bodies:
        value = checks[f"am_gm_tight_on_wulff[{bid}]"]["value"]
        assert value == pytest.approx(n * (n + 1) / 2 * 1e-7, rel=1e-5)


@pytest.mark.parametrize(
    "name", ["wulff_d2", "ellipse_d2", "superellipse_d2", "two_wulff_d2", "wulff_d3", "ball_d2"]
)
def test_scaled_f_normal_fails_dilation_matches_perimeter(tmp_path, monkeypatch, name):
    # F(nu) off by 1 + 1e-7 moves each body's perimeter, and not its first
    # variation along the position field, by 1e-7; a tolerance of 1e-6 let
    # every run exit 0
    code, checks = _checks_under(
        monkeypatch, tmp_path, "var", name,
        lambda t: dataclasses.replace(t, f_normal=(1.0 + 1e-7) * t.f_normal),
    )
    assert code == 9
    ids = [bid for bid, _ in load_scene(SCENES / f"{name}.json").bodies]
    failed = {c for c, check in checks.items() if not check["passed"]}
    assert failed == {f"dilation_matches_perimeter[{bid}]" for bid in ids}
    for bid in ids:
        assert checks[f"dilation_matches_perimeter[{bid}]"]["value"] == pytest.approx(1e-7, rel=1e-5)


@pytest.mark.parametrize("name", ["ellipse_d2", "superellipse_d2"])
def test_one_scaled_kappa_fails_trace_vs_eigensum(tmp_path, monkeypatch, name):
    # one node's kappa off by 1 + 1e-7, at the node whose mean curvature is
    # nearest a twentieth of 1 + max |H|: the check reads 5e-9 to 8.4e-9
    # there, which a tolerance of 1e-8 let pass
    def scaled(t):
        scale = 1.0 + np.abs(t.mean).max()
        i = int(np.argmin(np.abs(np.abs(t.mean) - 0.05 * scale)))
        kappa = t.kappa.copy()
        kappa[i] *= 1.0 + 1e-7
        return dataclasses.replace(t, kappa=kappa)

    code, checks = _checks_under(monkeypatch, tmp_path, "curv", name, scaled)
    assert code == 4
    (bid, _), = load_scene(SCENES / f"{name}.json").bodies
    failed = {c for c, check in checks.items() if not check["passed"]}
    assert failed == {f"trace_vs_eigensum[{bid}]"}
    assert 1e-10 < checks[f"trace_vs_eigensum[{bid}]"]["value"] < 1e-8


def test_all_skips_grid_suites_without_grid(tmp_path):
    code = run("all", SCENES / "wulff_d3.json", tmp_path / "out")
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    names = {s["name"]: s for s in report["suites"]}
    assert "steiner" not in names and "reach" not in names  # deselected by scene
    assert all(s["passed"] for s in report["suites"])


def test_d3_scene_with_grid_skips_field_suites(tmp_path):
    # distance sources are sampled curves, so a 3D grid must not end the run
    # in a "source sample too sparse" refusal measured across the lat-long seam
    raw = json.loads((SCENES / "wulff_d3.json").read_text())
    raw["grid"] = {"bounds": [[-1.3, 1.3]] * 3, "cells": 16}
    raw["suites"] = raw["suites"] + ["steiner", "reach"]
    scene = tmp_path / "d3_grid.json"
    scene.write_text(json.dumps(raw))
    assert run("all", scene, tmp_path / "out") == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    names = {s["name"]: s for s in report["suites"]}
    for name in ("steiner", "reach"):
        assert names[name]["skipped"]
        assert names[name]["skip_reason"] == "sources are sampled curves; scene has d=3"

