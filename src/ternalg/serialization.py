"""JSON structure files with string-encoded exact scalars.

Every tensor is stored sparsely with 1-based indices, matching how the
tables are written down by hand; matrices are dense row lists.  Dumps are
canonical: entries sorted by index, scalars rendered in canonical form, so
a load/dump round trip is the identity on canonical files and output is
byte-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .algebra import MuTensor, TernaryHomAlgebra
from .bialgebra import TernaryBialgebra
from .coalgebra import DeltaTensor, TernaryHomCoalgebra
from .linalg import Matrix
from .matched_pair import MatchedPairData
from .scalars import MAX_RADICAND, format_scalar, parse_scalar, square_free
from .trimodule import BihomModule, TrimoduleActions

KINDS = ("algebra", "coalgebra", "bialgebra", "module", "matched_pair", "map")


class StructureFileError(ValueError):
    """Malformed or inconsistent structure file."""


@dataclass
class ModuleBundle:
    """An algebra, a bihom-module, and action tensors in one file."""
    algebra: TernaryHomAlgebra
    module: BihomModule
    actions: TrimoduleActions


def _require(cond, msg):
    if not cond:
        raise StructureFileError(msg)


def _scalar(text, radicand):
    try:
        return parse_scalar(str(text), radicand)
    except ValueError as exc:
        raise StructureFileError(f"bad scalar {text!r}: {exc}") from exc


def _index(value, dim, what):
    _require(isinstance(value, int) and 1 <= value <= dim,
             f"{what} index {value!r} out of range 1..{dim}")
    return value - 1


def _load_matrix(rows, dim, radicand, name) -> Matrix:
    _require(isinstance(rows, list) and len(rows) == dim,
             f"{name} must have {dim} rows")
    out = []
    for row in rows:
        _require(isinstance(row, list) and len(row) == dim,
                 f"{name} must have {dim} columns")
        out.append([_scalar(x, radicand) for x in row])
    return out


def _entries(entries, what):
    """The entries of a tensor, each checked to be a JSON object."""
    _require(entries is None or isinstance(entries, list),
             f"{what} must be a list of entries")
    for entry in entries or []:
        _require(isinstance(entry, dict), f"{what} entry must be an object")
        yield entry


def _load_product(entries, dims, out_dim, radicand) -> MuTensor:
    """dims gives the admissible range per argument slot."""
    mu: MuTensor = {}
    for entry in _entries(entries, "product"):
        args = entry.get("args")
        _require(isinstance(args, list) and len(args) == 3,
                 "product entry needs 3 args")
        key = tuple(_index(a, d, "product") for a, d in zip(args, dims))
        out = entry.get("out", {})
        _require(isinstance(out, dict), "product 'out' must be an object")
        vec = {}
        for l, text in out.items():
            _require(l.isdecimal(), f"product output index {l!r} is not "
                     "an integer")
            coeff = _scalar(text, radicand)
            if coeff:
                vec[_index(int(l), out_dim, "product output")] = coeff
        if vec:
            _require(key not in mu, f"duplicate product entry {args}")
            mu[key] = vec
    return mu


def _load_coproduct(entries, dim, radicand) -> DeltaTensor:
    delta: DeltaTensor = {}
    for entry in _entries(entries, "coproduct"):
        l = _index(entry.get("arg"), dim, "coproduct")
        terms = entry.get("out", [])
        _require(isinstance(terms, list), "coproduct 'out' must be a list")
        tens = {}
        for item in terms:
            _require(isinstance(item, dict), "coproduct term must be an object")
            into = item.get("into")
            _require(isinstance(into, list) and len(into) == 3,
                     "coproduct term needs a 3-index 'into'")
            key = tuple(_index(i, dim, "coproduct") for i in into)
            _require(key not in tens,
                     f"duplicate coproduct term {into} in entry {l + 1}")
            tens[key] = _scalar(item.get("coeff"), radicand)
        tens = {key: coeff for key, coeff in tens.items() if coeff}
        if tens:
            _require(l not in delta, f"duplicate coproduct entry {l + 1}")
            delta[l] = tens
    return delta


def _dump_matrix(m: Matrix):
    return [[format_scalar(x) for x in row] for row in m]


def _dump_product(mu: MuTensor):
    return [
        {"args": [i + 1 for i in key],
         "out": {str(l + 1): format_scalar(v)
                 for l, v in sorted(mu[key].items())}}
        for key in sorted(mu)
    ]


def _dump_coproduct(delta: DeltaTensor):
    return [
        {"arg": l + 1,
         "out": [{"into": [i + 1 for i in key],
                  "coeff": format_scalar(delta[l][key])}
                 for key in sorted(delta[l])]}
        for l in sorted(delta)
    ]


def _common(doc):
    _require(isinstance(doc, dict), "structure file must be a JSON object")
    kind = doc.get("kind")
    _require(kind in KINDS, f"unknown kind {kind!r}")
    dim = doc.get("dim")
    _require(isinstance(dim, int) and dim >= 1, "dim must be a positive int")
    radicand = doc.get("radicand", 1)
    _require(isinstance(radicand, int) and 1 <= radicand <= MAX_RADICAND
             and square_free(radicand)[0] == 1,
             f"radicand {radicand!r} is not a square-free int in "
             f"1..{MAX_RADICAND}")
    return kind, dim, radicand


def load_structure(doc):
    """Parse a structure document into the matching library object."""
    kind, dim, radicand = _common(doc)
    if kind == "map":
        return _load_matrix(doc.get("matrix"), dim, radicand, "matrix")
    if kind == "algebra":
        return TernaryHomAlgebra(
            dim, _load_product(doc.get("product"), (dim,) * 3, dim, radicand),
            _load_matrix(doc.get("alpha1"), dim, radicand, "alpha1"),
            _load_matrix(doc.get("alpha2"), dim, radicand, "alpha2"),
            radicand)
    if kind == "coalgebra":
        return TernaryHomCoalgebra(
            dim, _load_coproduct(doc.get("coproduct"), dim, radicand),
            _load_matrix(doc.get("alpha1"), dim, radicand, "alpha1"),
            _load_matrix(doc.get("alpha2"), dim, radicand, "alpha2"),
            radicand)
    if kind == "bialgebra":
        a1 = _load_matrix(doc.get("alpha1"), dim, radicand, "alpha1")
        a2 = _load_matrix(doc.get("alpha2"), dim, radicand, "alpha2")
        return TernaryBialgebra(
            TernaryHomAlgebra(
                dim, _load_product(doc.get("product"), (dim,) * 3, dim,
                                   radicand), a1, a2, radicand),
            TernaryHomCoalgebra(
                dim, _load_coproduct(doc.get("coproduct"), dim, radicand),
                a1, a2, radicand))
    if kind == "module":
        dim_v = doc.get("dim_v")
        _require(isinstance(dim_v, int) and dim_v >= 1,
                 "dim_v must be a positive int")
        alg = TernaryHomAlgebra(
            dim, _load_product(doc.get("product"), (dim,) * 3, dim, radicand),
            _load_matrix(doc.get("alpha1"), dim, radicand, "alpha1"),
            _load_matrix(doc.get("alpha2"), dim, radicand, "alpha2"),
            radicand)
        mod = BihomModule(
            dim_v,
            _load_matrix(doc.get("beta1"), dim_v, radicand, "beta1"),
            _load_matrix(doc.get("beta2"), dim_v, radicand, "beta2"))
        act = TrimoduleActions(
            _load_product(doc.get("left"), (dim, dim, dim_v), dim_v,
                          radicand),
            _load_product(doc.get("right"), (dim_v, dim, dim), dim_v,
                          radicand),
            _load_product(doc.get("middle"), (dim, dim_v, dim), dim_v,
                          radicand))
        return ModuleBundle(alg, mod, act)
    # matched pair: dim is the first factor, dim_v the second
    dim_v = doc.get("dim_v")
    _require(isinstance(dim_v, int) and dim_v >= 1,
             "dim_v must be a positive int")
    a = TernaryHomAlgebra(
        dim, _load_product(doc.get("product"), (dim,) * 3, dim, radicand),
        _load_matrix(doc.get("alpha1"), dim, radicand, "alpha1"),
        _load_matrix(doc.get("alpha2"), dim, radicand, "alpha2"),
        radicand)
    b = TernaryHomAlgebra(
        dim_v,
        _load_product(doc.get("product_b"), (dim_v,) * 3, dim_v, radicand),
        _load_matrix(doc.get("beta1"), dim_v, radicand, "beta1"),
        _load_matrix(doc.get("beta2"), dim_v, radicand, "beta2"),
        radicand)
    act_a = TrimoduleActions(
        _load_product(doc.get("a_left"), (dim, dim, dim_v), dim_v, radicand),
        _load_product(doc.get("a_right"), (dim_v, dim, dim), dim_v, radicand),
        _load_product(doc.get("a_middle"), (dim, dim_v, dim), dim_v,
                      radicand))
    act_b = TrimoduleActions(
        _load_product(doc.get("b_left"), (dim_v, dim_v, dim), dim, radicand),
        _load_product(doc.get("b_right"), (dim, dim_v, dim_v), dim, radicand),
        _load_product(doc.get("b_middle"), (dim_v, dim, dim_v), dim,
                      radicand))
    return MatchedPairData(a, b, act_a, act_b)


def dump_structure(obj) -> dict:
    """Render a library object as a canonical structure document.

    A bare matrix takes its radicand from its entries; every other object
    carries its own.
    """
    if isinstance(obj, list):  # a bare matrix
        radicand = 1
        for row in obj:
            for x in row:
                if x.d != 1:
                    radicand = x.d
        return {"kind": "map", "dim": len(obj), "radicand": radicand,
                "matrix": _dump_matrix(obj)}
    if isinstance(obj, TernaryHomAlgebra):
        return {"kind": "algebra", "dim": obj.dim, "radicand": obj.radicand,
                "product": _dump_product(obj.mu),
                "alpha1": _dump_matrix(obj.alpha1),
                "alpha2": _dump_matrix(obj.alpha2)}
    if isinstance(obj, TernaryHomCoalgebra):
        return {"kind": "coalgebra", "dim": obj.dim, "radicand": obj.radicand,
                "coproduct": _dump_coproduct(obj.delta),
                "alpha1": _dump_matrix(obj.alpha1),
                "alpha2": _dump_matrix(obj.alpha2)}
    if isinstance(obj, TernaryBialgebra):
        return {"kind": "bialgebra", "dim": obj.dim,
                "radicand": obj.alg.radicand,
                "product": _dump_product(obj.alg.mu),
                "coproduct": _dump_coproduct(obj.coalg.delta),
                "alpha1": _dump_matrix(obj.alpha1),
                "alpha2": _dump_matrix(obj.alpha2)}
    if isinstance(obj, ModuleBundle):
        return {"kind": "module", "dim": obj.algebra.dim,
                "dim_v": obj.module.dim, "radicand": obj.algebra.radicand,
                "product": _dump_product(obj.algebra.mu),
                "alpha1": _dump_matrix(obj.algebra.alpha1),
                "alpha2": _dump_matrix(obj.algebra.alpha2),
                "beta1": _dump_matrix(obj.module.beta1),
                "beta2": _dump_matrix(obj.module.beta2),
                "left": _dump_product(obj.actions.L),
                "right": _dump_product(obj.actions.R),
                "middle": _dump_product(obj.actions.M)}
    if isinstance(obj, MatchedPairData):
        return {"kind": "matched_pair", "dim": obj.A.dim, "dim_v": obj.B.dim,
                "radicand": obj.A.radicand,
                "product": _dump_product(obj.A.mu),
                "alpha1": _dump_matrix(obj.A.alpha1),
                "alpha2": _dump_matrix(obj.A.alpha2),
                "product_b": _dump_product(obj.B.mu),
                "beta1": _dump_matrix(obj.B.alpha1),
                "beta2": _dump_matrix(obj.B.alpha2),
                "a_left": _dump_product(obj.actA.L),
                "a_right": _dump_product(obj.actA.R),
                "a_middle": _dump_product(obj.actA.M),
                "b_left": _dump_product(obj.actB.L),
                "b_right": _dump_product(obj.actB.R),
                "b_middle": _dump_product(obj.actB.M)}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def load_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise StructureFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StructureFileError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}"
        ) from exc
    return load_structure(doc)


def dump_text(obj) -> str:
    return json.dumps(dump_structure(obj), indent=2) + "\n"


def dump_file(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_text(obj))
