import json
import pathlib

import pytest

from ternalg.cli import main
from ternalg.serialization import (
    ModuleBundle,
    StructureFileError,
    dump_file,
    dump_text,
    load_file,
)
from ternalg.trimodule import regular_actions

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def fx(name):
    return str(FIXTURES / name)


def test_all_fixtures_round_trip():
    for path in sorted(FIXTURES.glob("*.json")):
        obj = load_file(path)
        assert dump_text(obj) == path.read_text()


def test_check_exit_codes(capsys):
    assert main(["check", fx("pb2.json"), "--mode", "partial"]) == 0
    assert main(["check", fx("t2.json"), "--mode", "partial",
                 "--law", "assoc"]) == 1
    out = capsys.readouterr().out
    assert "(1, 1, 1, 1, 1)" in out
    assert main(["check", "nonexistent.json"]) == 2


def test_check_law_kind_mismatch(capsys):
    assert main(["check", fx("ep1.json"), "--law", "coassoc"]) == 2
    assert "does not apply" in capsys.readouterr().err


def test_check_json_report_is_deterministic(capsys):
    argv = ["check", fx("t2h1.json"), "--mode", "total", "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    doc = json.loads(first)
    assert doc["tool"] == "ternalg"
    assert len(doc["input"]["sha256"]) == 64
    assert doc["passed"] is True
    assert all(len(lr["violations"]) <= 10 for lr in doc["laws"])


def test_twist_reproduces_fixtures(capsys):
    assert main(["twist", fx("t2.json"), "--endo", fx("rho1.json")]) == 0
    assert capsys.readouterr().out == \
        pathlib.Path(fx("t2h1.json")).read_text()
    assert main(["twist", fx("t2.json"), "--endo", fx("rho2.json")]) == 0
    assert capsys.readouterr().out == \
        pathlib.Path(fx("t2h2.json")).read_text()
    assert main(["twist", fx("ep1.json"),
                 "--endo", fx("rho_a2b3.json")]) == 0
    assert capsys.readouterr().out == pathlib.Path(fx("p2h.json")).read_text()


def test_twist_rejects_non_endomorphism(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "kind": "map", "dim": 2, "radicand": 1,
        "matrix": [["1", "1"], ["1", "1"]]}))
    assert main(["twist", fx("t2.json"), "--endo", str(bad)]) == 2


@pytest.mark.parametrize("alg", ["p2h.json", "t2h1.json", "t2h2.json"])
@pytest.mark.parametrize("endo", ["rho1.json", "rho2.json", "rho_a2b3.json"])
def test_twist_rejects_non_classical_input(capsys, alg, endo):
    assert main(["twist", fx(alg), "--endo", fx(endo)]) == 2
    assert capsys.readouterr().err == \
        "error: Yau twist requires identity twist maps on the input\n"


@pytest.mark.parametrize("alg, endo, message", [
    # a map of another size
    (fx("ep1.json"),
     {"kind": "map", "dim": 3,
      "matrix": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
     "error: dimension mismatch\n"),
    # a map over another radicand
    ({"kind": "algebra", "dim": 1,
      "product": [{"args": [1, 1, 1], "out": {"1": "sqrt(2)"}}],
      "alpha1": [["1"]], "alpha2": [["1"]]},
     {"kind": "map", "dim": 1, "matrix": [["sqrt(3)"]]},
     "error: sqrt(2) vs sqrt(3)\n"),
], ids=["another size", "another radicand"])
def test_twist_refuses_an_unusable_map(tmp_path, capsys, alg, endo, message):
    paths = []
    for name, doc in (("alg.json", alg), ("endo.json", endo)):
        if isinstance(doc, dict):
            (tmp_path / name).write_text(json.dumps(doc))
            doc = str(tmp_path / name)
        paths.append(doc)
    out = tmp_path / "out.json"
    assert main(["twist", paths[0], "--endo", paths[1],
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert main(["dualize", fx("t2.json"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert not out.exists()


def test_dualize_nilpotent_bialgebra(capsys):
    assert main(["dualize", fx("pb2.json")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "bialgebra"
    assert doc["product"] == [{"args": [2, 2, 2], "out": {"1": "1"}}]
    assert doc["coproduct"] == [
        {"arg": 2, "out": [{"into": [1, 1, 1], "coeff": "1"}]}]
    assert doc["alpha1"] == [["1", "1"], ["0", "1"]]


def test_signflip_verdict_preserved(capsys, tmp_path):
    out = tmp_path / "flipped.json"
    assert main(["signflip", fx("pb2.json"), "--mu", "--delta",
                 "--out", str(out)]) == 0
    assert main(["check", str(out), "--mode", "partial"]) == 0
    assert main(["signflip", fx("pb2.json")]) == 2


def test_semidirect_and_doublecross(tmp_path, capsys):
    alg = load_file(fx("t2h1.json"))
    mod, act = regular_actions(alg, "lmr")
    bundle = tmp_path / "bundle.json"
    dump_file(ModuleBundle(alg, mod, act), bundle)
    assert main(["check", str(bundle), "--mode", "total",
                 "--law", "trimodule"]) == 0
    prod = tmp_path / "prod.json"
    assert main(["semidirect", str(bundle), "--out", str(prod)]) == 0
    assert main(["check", str(prod), "--mode", "total",
                 "--law", "assoc"]) == 0
    # the degenerate matched pair reproduces the semidirect product
    mp = tmp_path / "mp.json"
    mp_doc = json.loads(bundle.read_text())
    mp_doc.update({
        "kind": "matched_pair", "product_b": [],
        "a_left": mp_doc.pop("left"), "a_right": mp_doc.pop("right"),
        "a_middle": mp_doc.pop("middle"),
        "b_left": [], "b_right": [], "b_middle": []})
    mp.write_text(json.dumps(mp_doc))
    dx = tmp_path / "dx.json"
    assert main(["doublecross", str(mp), "--out", str(dx)]) == 0
    assert json.loads(dx.read_text()) == json.loads(prod.read_text())
    assert main(["check", str(mp), "--mode", "total",
                 "--law", "matchedpair"]) == 0


def test_weak_mode_rejected_for_trimodule(tmp_path, capsys):
    alg = load_file(fx("t2h1.json"))
    mod, act = regular_actions(alg, "lmr")
    bundle = tmp_path / "bundle.json"
    dump_file(ModuleBundle(alg, mod, act), bundle)
    assert main(["check", str(bundle), "--mode", "weak",
                 "--law", "trimodule"]) == 2


def test_malformed_scalar_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "kind": "algebra", "dim": 1, "radicand": 1,
        "product": [{"args": [1, 1, 1], "out": {"1": "-sqrt(5)"}}],
        "alpha1": [["1"]], "alpha2": [["1"]]}))
    with pytest.raises(StructureFileError):
        load_file(bad)
    assert main(["check", str(bad)]) == 2


def test_non_square_free_radicand_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "kind": "algebra", "dim": 1, "radicand": 4,
        "product": [{"args": [1, 1, 1], "out": {"1": "1"}}],
        "alpha1": [["1"]], "alpha2": [["1"]]}))
    with pytest.raises(StructureFileError, match="square-free"):
        load_file(bad)
    assert main(["check", str(bad)]) == 2


_ALGEBRA = {"kind": "algebra", "dim": 1, "radicand": 1,
            "product": [{"args": [1, 1, 1], "out": {"1": "1"}}],
            "alpha1": [["1"]], "alpha2": [["1"]]}
_COALGEBRA = {"kind": "coalgebra", "dim": 1, "radicand": 1,
              "coproduct": [{"arg": 1,
                             "out": [{"into": [1, 1, 1], "coeff": "1"}]}],
              "alpha1": [["1"]], "alpha2": [["1"]]}

_MODULE = dict(_ALGEBRA, kind="module", dim_v=1, beta1=[["1"]],
               beta2=[["1"]], left=[], right=[], middle=[])
_KINDS = {
    "algebra": _ALGEBRA,
    "coalgebra": _COALGEBRA,
    "bialgebra": dict(_ALGEBRA, kind="bialgebra",
                      coproduct=_COALGEBRA["coproduct"]),
    "module": _MODULE,
    "matched_pair": dict(_ALGEBRA, kind="matched_pair", dim_v=1,
                         product_b=[], beta1=[["1"]], beta2=[["1"]],
                         a_left=[], a_right=[], a_middle=[],
                         b_left=[], b_right=[], b_middle=[]),
    "map": {"kind": "map", "dim": 1, "radicand": 1, "matrix": [["1"]]},
}

# each construction: the kinds it accepts, and its message for any other
_BUILDS = {
    "twist": ({"algebra"}, "twist expects an algebra file"),
    "dualize": ({"algebra", "coalgebra", "bialgebra"},
                "dualize expects an algebra, coalgebra, or bialgebra"),
    "semidirect": ({"module"}, "semidirect expects a module file"),
    "doublecross": ({"matched_pair"},
                    "doublecross expects a matched_pair file"),
    "signflip": ({"bialgebra"}, "signflip expects a bialgebra file"),
}


@pytest.mark.parametrize("command, kind", [
    (command, kind) for command, (accepted, _) in _BUILDS.items()
    for kind in _KINDS if kind not in accepted])
def test_construction_kind_mismatch(tmp_path, capsys, command, kind):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(_KINDS[kind]))
    endo = tmp_path / "endo.json"
    endo.write_text(json.dumps(_KINDS["map"]))
    load_file(path)  # a well-formed file of the wrong kind
    argv = [command, str(path)] + (
        ["--endo", str(endo)] if command == "twist" else [])
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {_BUILDS[command][1]}\n"


def test_repeated_calls_share_no_state(capsys):
    check = ["check", fx("t2h1.json"), "--mode", "total", "--json"]
    assert main(check) == 0
    first = capsys.readouterr().out
    assert main(["signflip", fx("pb2.json"), "--mu"]) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "bialgebra"
    with pytest.raises(SystemExit):
        main(["check", fx("t2h1.json"), "--law", "bogus"])
    assert "invalid choice" in capsys.readouterr().err
    assert main(check) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("doc", [
    dict(_ALGEBRA, product=5),
    dict(_ALGEBRA, product=[1]),
    dict(_ALGEBRA, product={"a": 1}),
    dict(_ALGEBRA, product=[{"args": [1, 1, 1], "out": ["1"]}]),
    dict(_ALGEBRA, product=[{"args": [1, 1, 1], "out": {"x": "1"}}]),
    dict(_ALGEBRA, product=[{"args": [1, 1, 1], "out": {"1.0": "1"}}]),
    # an output index has one spelling: ASCII digits, no leading zero
    dict(_ALGEBRA, product=[{"args": [1, 1, 1], "out": {"1": "1", "01": "5"}}]),
    dict(_ALGEBRA, product=[{"args": [1, 1, 1], "out": {"01": "1"}}]),
    dict(_ALGEBRA, product=[{"args": [1, 1, 1], "out": {"\u0661": "1"}}]),
    dict(_MODULE, middle=[{"args": [1, 1, 1], "out": {"01": "1"}}]),
    dict(_COALGEBRA, coproduct=["x"]),
    dict(_COALGEBRA, coproduct=[{"arg": 1, "out": [7]}]),
    dict(_COALGEBRA, coproduct=[{"arg": 1, "out": {"into": [1, 1, 1]}}]),
    # the same 'into' twice in one entry
    dict(_COALGEBRA, coproduct=[{"arg": 1, "out": [
        {"into": [1, 1, 1], "coeff": "1"},
        {"into": [1, 1, 1], "coeff": "2"}]}]),
    # JSON booleans are not counts, although Python's True is the int 1
    dict(_ALGEBRA, product=[{"args": [True, 1, 1], "out": {"1": "1"}}]),
    dict(_COALGEBRA, coproduct=[{"arg": True, "out": [
        {"into": [1, 1, 1], "coeff": "1"}]}]),
    dict(_ALGEBRA, dim=True),
    dict(_ALGEBRA, radicand=True),
    # every key of the kind's layout, and no other, must be present
    {key: _ALGEBRA[key] for key in ("kind", "dim", "alpha1", "alpha2")},
    {key: _COALGEBRA[key] for key in ("kind", "dim", "alpha1", "alpha2")},
    dict(_ALGEBRA, prodcut=_ALGEBRA["product"]),
    dict(_ALGEBRA, dim_v=1),
    # a repeated entry is refused even where one copy is all zero
    dict(_ALGEBRA, product=[{"args": [1, 1, 1], "out": {"1": "1"}},
                            {"args": [1, 1, 1], "out": {"1": "0"}}]),
    dict(_ALGEBRA, product=[{"args": [1, 1, 1], "out": {}},
                            {"args": [1, 1, 1], "out": {"1": "1"}}]),
    dict(_COALGEBRA, coproduct=[_COALGEBRA["coproduct"][0],
                                {"arg": 1, "out": []}]),
    dict(_MODULE, middle=[{"args": [1, 1, 1], "out": {"1": "0"}},
                          {"args": [1, 1, 1], "out": {"1": "2"}}]),
    # an output index is checked even under a zero coefficient
    dict(_ALGEBRA, product=[{"args": [1, 1, 1], "out": {"9": "0"}}]),
    # a file that leaves the radicand 1 still holds one square root only
    {key: value for key, value in dict(
        _ALGEBRA, product=[{"args": [1, 1, 1], "out": {"1": "sqrt(2)"}}],
        alpha1=[["sqrt(3)"]]).items() if key != "radicand"},
    dict(_ALGEBRA, product=[{"args": [1, 1, 1], "out": {"1": "sqrt(2)"}}],
         alpha1=[["sqrt(3)"]]),
], ids=["product-int", "product-list-of-int", "product-object",
        "out-list", "out-key-name", "out-key-float", "out-key-spelled-twice",
        "out-key-leading-zero", "out-key-arabic-indic",
        "action-out-key-leading-zero", "coproduct-list-of-str",
        "coproduct-term-int", "coproduct-out-object", "duplicate-into",
        "args-bool", "arg-bool", "dim-bool", "radicand-bool",
        "missing-product", "missing-coproduct", "unknown-key",
        "dim-v-in-algebra", "repeated-zero-entry", "repeated-empty-entry",
        "repeated-empty-coproduct-entry", "repeated-zero-action-entry",
        "zero-output-out-of-range", "mixed-radicands-undeclared",
        "mixed-radicands-radicand-1"])
def test_malformed_tensor_rejected(tmp_path, capsys, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(StructureFileError):
        load_file(bad)
    assert main(["check", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("key", ["01", "00", "\u0661"])
def test_noncanonical_output_index_is_named(tmp_path, capsys, key):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        dict(_ALGEBRA, product=[{"args": [1, 1, 1], "out": {key: "1"}}])))
    assert main(["check", str(bad)]) == 2
    assert f"product output index {key!r} " in capsys.readouterr().err


_ALGEBRA_TEXT = json.dumps(_ALGEBRA)


@pytest.mark.parametrize("raw", [
    _ALGEBRA_TEXT.replace('"out": {"1": "1"}', '"out": {"1": "1", "1": "0"}'),
    _ALGEBRA_TEXT.replace('"dim": 1', '"dim": 1, "dim": 1'),
    "[" * 200000 + "]" * 200000,
    b"\xff\xfe{}",
], ids=["repeated-out-key", "repeated-dim", "nested-too-deep", "not-utf8"])
def test_malformed_json_rejected(tmp_path, raw):
    bad = tmp_path / "bad.json"
    if isinstance(raw, str):
        bad.write_text(raw, encoding="utf-8")
    else:
        bad.write_bytes(raw)
    with pytest.raises(StructureFileError):
        load_file(bad)
    assert main(["check", str(bad)]) == 2


# more digits than Python converts between int and str by default (4,300)
_HUGE = "1" * 5000


@pytest.mark.parametrize("old, new", [
    ('"args": [1, 1, 1]', f'"args": [{_HUGE}, 1, 1]'),
    ('"out": {"1": "1"}', f'"out": {{"{_HUGE}": "1"}}'),
    ('"dim": 1', f'"dim": {_HUGE}'),
    ('"radicand": 1', f'"radicand": {_HUGE}'),
], ids=["args", "out-key", "dim", "radicand"])
def test_oversized_integer_is_an_error(tmp_path, capsys, old, new):
    assert _ALGEBRA_TEXT.count(old) == 1
    bad = tmp_path / "bad.json"
    bad.write_text(_ALGEBRA_TEXT.replace(old, new), encoding="utf-8")
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err) < 400
