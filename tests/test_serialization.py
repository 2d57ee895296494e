"""The structure-file writer and loader.

``dump_text`` writes indent-2 JSON with its own emitter; the stdlib's
``json.dumps(doc, indent=2)`` is the oracle it must match byte for byte.
"""

import itertools
import json
import pathlib
import random

import pytest

from ternalg.algebra import TernaryHomAlgebra
from ternalg.bialgebra import TernaryBialgebra
from ternalg.cli import main
from ternalg.coalgebra import TernaryHomCoalgebra
from ternalg.matched_pair import MatchedPairData
from ternalg.scalars import ONE, ZERO, QuadScalar
from ternalg.serialization import (
    LAYOUT,
    ModuleBundle,
    StructureFileError,
    dump_structure,
    dump_text,
    load_file,
    load_structure,
)
from ternalg.trimodule import BihomModule, TrimoduleActions

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def oracle(obj) -> str:
    return json.dumps(dump_structure(obj), indent=2) + "\n"


def scalar(rng, radicand):
    """Zero, integers, negative fractions and, over a radicand, irrationals."""
    rat = f"{rng.choice([0, 1, -1, 2, -3, 5, -7])}/{rng.choice([1, 2, 3])}"
    if radicand == 1 or rng.random() < 0.4:
        return QuadScalar(rat)
    irr = f"{rng.choice([1, -1, 3, -2])}/{rng.choice([1, 2, 5])}"
    return QuadScalar(rat, irr, radicand)


def matrix(rng, n, radicand):
    return [[scalar(rng, radicand) for _ in range(n)] for _ in range(n)]


def tensor(rng, shape, out_dim, radicand, density):
    return {key: {l: scalar(rng, radicand) for l in range(out_dim)
                  if rng.random() < 0.6}
            for key in itertools.product(*map(range, shape))
            if rng.random() < density}


def algebra(rng, n, radicand, density):
    return TernaryHomAlgebra(n, tensor(rng, (n,) * 3, n, radicand, density),
                             matrix(rng, n, radicand),
                             matrix(rng, n, radicand), radicand)


def coalgebra(rng, n, radicand, density, twists):
    delta = {l: {key: scalar(rng, radicand)
                 for key in itertools.product(range(n), repeat=3)
                 if rng.random() < 0.3}
             for l in range(n) if rng.random() < density}
    return TernaryHomCoalgebra(n, delta, *twists, radicand)


def actions(rng, n, m, radicand, density):
    return TrimoduleActions(*(tensor(rng, shape, m, radicand, density)
                              for shape in ((n, n, m), (m, n, n), (n, m, n))))


def structure(rng, kind, n, radicand, density):
    if kind == "map":
        return matrix(rng, n, radicand)
    alg = algebra(rng, n, radicand, density)
    if kind == "algebra":
        return alg
    if kind == "coalgebra":
        return coalgebra(rng, n, radicand, density,
                         (matrix(rng, n, radicand), matrix(rng, n, radicand)))
    if kind == "bialgebra":
        return TernaryBialgebra(alg, coalgebra(
            rng, n, radicand, density, (alg.alpha1, alg.alpha2)))
    m = rng.randint(1, 3)
    if kind == "module":
        return ModuleBundle(alg, BihomModule(m, matrix(rng, m, radicand),
                                             matrix(rng, m, radicand)),
                            actions(rng, n, m, radicand, density))
    return MatchedPairData(alg, algebra(rng, m, radicand, density),
                           actions(rng, n, m, radicand, density),
                           actions(rng, m, n, radicand, density))


KINDS = ("map", "algebra", "coalgebra", "bialgebra", "module", "matched_pair")
CORPUS = [(kind, n, radicand, density)
          for kind in KINDS for n in (1, 2, 3) for radicand in (1, 2, 5)
          for density in (0.0, 0.5)]


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")),
                         ids=lambda p: p.stem)
def test_writer_matches_stdlib_on_fixtures(path):
    obj = load_file(path)
    assert dump_text(obj) == oracle(obj) == path.read_text()


@pytest.mark.parametrize("kind, n, radicand, density", CORPUS)
def test_writer_matches_stdlib_on_random_structures(kind, n, radicand,
                                                    density):
    rng = random.Random(f"{kind}-{n}-{radicand}-{density}")
    for _ in range(3):
        obj = structure(rng, kind, n, radicand, density)
        text = dump_text(obj)
        assert text == oracle(obj)
        # dumps are canonical: reloading and dumping again is the identity
        assert dump_text(load_structure(json.loads(text))) == text


def test_writer_matches_stdlib_on_empty_parts():
    ident = [[ONE]]
    alg = TernaryHomAlgebra(1, {}, ident, ident)
    coalg = TernaryHomCoalgebra(1, {}, ident, ident)
    assert '"product": []' in dump_text(alg)
    assert '"coproduct": []' in dump_text(coalg)
    coalg.delta = {0: {}}  # an entry with an empty 'out' list
    for obj in (alg, coalg, TernaryBialgebra(alg, coalg),
                ModuleBundle(alg, BihomModule(1, ident, ident),
                             TrimoduleActions())):
        assert dump_text(obj) == oracle(obj)


def test_action_dump_drops_zero_coefficients():
    ident = [[ONE]]
    alg = TernaryHomAlgebra(1, {(0, 0, 0): {0: ONE}}, ident, ident)
    beta = [[ONE, ZERO], [ZERO, ONE]]
    bundle = ModuleBundle(alg, BihomModule(2, beta, beta),
                          TrimoduleActions(L={(0, 0, 0): {0: ZERO}},
                                           R={(1, 0, 0): {0: ZERO, 1: ONE}}))
    text = dump_text(bundle)
    assert json.loads(text)["left"] == []
    assert json.loads(text)["right"] == [{"args": [2, 1, 1],
                                          "out": {"2": "1"}}]
    assert dump_text(load_structure(json.loads(text))) == text


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_literal_memo_lives_for_one_load(tmp_path, capsys):
    doc = {"kind": "algebra", "dim": 1, "radicand": 2,
           "product": [{"args": [1, 1, 1], "out": {"1": "sqrt(2)"}}],
           "alpha1": [["sqrt(2)"]], "alpha2": [["1"]]}
    assert main(["check", _write(tmp_path / "r2.json", doc)]) in (0, 1)
    capsys.readouterr()
    assert main(["check", _write(tmp_path / "r3.json",
                                 dict(doc, radicand=3))]) == 2
    assert "does not match context radicand 3" in capsys.readouterr().err


@pytest.mark.parametrize("literal, radicand, message", [
    ("1/0", 1, "bad scalar '1/0': denominator must be positive: '1/0'"),
    ("sqrt(2)", 3, "bad scalar 'sqrt(2)': radicand 2 does not match context "
                   "radicand 3"),
    ("one", 1, "bad scalar 'one': bad scalar term: 'one'"),
])
def test_repeated_bad_literal_message(literal, radicand, message):
    doc = {"kind": "map", "dim": 10, "radicand": radicand,
           "matrix": [[literal] * 10 for _ in range(10)]}
    with pytest.raises(StructureFileError) as info:
        load_structure(doc)
    assert str(info.value) == message


def test_non_string_literals_are_not_memoised():
    # JSON true equals 1 as a dict key, yet is no literal
    doc = {"kind": "map", "dim": 2, "matrix": [["1", 1], ["0", 0]]}
    assert load_structure(doc) == [[ONE, ONE], [ZERO, ZERO]]
    with pytest.raises(StructureFileError, match="bad scalar True"):
        load_structure(dict(doc, matrix=[["1", True], ["0", 0]]))


def test_misspelled_tensor_key_refused(tmp_path, capsys):
    doc = json.loads((FIXTURES / "t2.json").read_text())
    assert main(["check", str(FIXTURES / "t2.json"), "--mode",
                 "partial"]) == 1
    doc["prodcut"] = doc.pop("product")
    assert main(["check", _write(tmp_path / "t2.json", doc), "--mode",
                 "partial"]) == 2
    err = capsys.readouterr().err
    assert "missing key(s) ['product']" in err


def _dim1_doc(kind, root_key):
    """A dim-1 document of ``kind`` with no radicand, whose only square root
    is in ``root_key``."""
    doc = {"kind": kind, "dim": 1}
    for key in LAYOUT[kind]:
        if key == "dim_v":
            doc[key] = 1
        elif key == "coproduct":
            coeff = "sqrt(2)" if key == root_key else "1"
            doc[key] = [{"arg": 1, "out": [{"into": [1, 1, 1],
                                            "coeff": coeff}]}]
        elif key.startswith(("alpha", "beta")):
            doc[key] = [["1"]]
        else:
            out = "sqrt(2)" if key == root_key else "1"
            doc[key] = [{"args": [1, 1, 1], "out": {"1": out}}]
    return doc


# the parts of each kind that carry a radicand
PARTS = {"algebra": lambda a: [a], "coalgebra": lambda c: [c],
         "bialgebra": lambda b: [b.alg, b.coalg],
         "module": lambda m: [m.algebra],
         "matched_pair": lambda mp: [mp.A, mp.B]}


@pytest.mark.parametrize("kind, root_key", [
    ("algebra", "product"), ("coalgebra", "coproduct"),
    ("bialgebra", "coproduct"), ("module", "middle"),
    ("matched_pair", "product_b")])
def test_loaded_parts_carry_the_pinned_radicand(kind, root_key):
    obj = load_structure(_dim1_doc(kind, root_key))
    assert [part.radicand for part in PARTS[kind](obj)] == \
        [2] * len(PARTS[kind](obj))
    text = dump_text(obj)
    assert json.loads(text)["radicand"] == 2
    assert dump_text(load_structure(json.loads(text))) == text


def test_dualize_writes_the_pinned_radicand(tmp_path, capsys):
    path = _write(tmp_path / "a.json", _dim1_doc("algebra", "product"))
    assert main(["dualize", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["radicand"] == 2
    assert doc["coproduct"][0]["out"][0]["coeff"] == "1*sqrt(2)"
