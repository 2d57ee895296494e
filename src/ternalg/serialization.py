"""JSON structure files with string-encoded exact scalars.

Every tensor is stored sparsely with 1-based indices, matching how the
tables are written down by hand; matrices are dense row lists.  Dumps are
canonical: entries sorted by index, scalars rendered in canonical form, so
a load/dump round trip is the identity on canonical files and output is
byte-stable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .algebra import MuTensor, TernaryHomAlgebra
from .bialgebra import TernaryBialgebra
from .coalgebra import DeltaTensor, TernaryHomCoalgebra
from .linalg import Matrix, mat_radicand
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


def _is_count(value, top=math.inf) -> bool:
    """A JSON integer, not a boolean, in 1..top."""
    return type(value) is int and 1 <= value <= top


def _index(value, dim, what):
    _require(_is_count(value, dim),
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


def _load_coproduct(doc, dim, radicand) -> DeltaTensor:
    delta: DeltaTensor = {}
    for entry in _entries(doc.get("coproduct"), "coproduct"):
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


def _dump_coproduct(delta: DeltaTensor) -> dict:
    return {"coproduct": [
        {"arg": l + 1,
         "out": [{"into": [i + 1 for i in key],
                  "coeff": format_scalar(delta[l][key])}
                 for key in sorted(delta[l])]}
        for l in sorted(delta)
    ]}


def _load_header(doc):
    _require(isinstance(doc, dict), "structure file must be a JSON object")
    kind = doc.get("kind")
    _require(kind in KINDS, f"unknown kind {kind!r}")
    dim, dim_v = doc.get("dim"), doc.get("dim_v")
    _require(_is_count(dim), "dim must be a positive int")
    _require(kind not in ("module", "matched_pair") or _is_count(dim_v),
             "dim_v must be a positive int")
    radicand = doc.get("radicand", 1)
    _require(_is_count(radicand, MAX_RADICAND)
             and square_free(radicand)[0] == 1,
             f"radicand {radicand!r} is not a square-free int in "
             f"1..{MAX_RADICAND}")
    return kind, dim, dim_v, radicand


# -- the document layout.  A document is a header and a run of parts: an
# algebra block (a product and its twists), an action triple, a twist pair
# or a coproduct.  Loading and dumping take a part's keys from one tuple.

ALGEBRA = ("product", "alpha1", "alpha2")
ALGEBRA_B = ("product_b", "beta1", "beta2")
ACTIONS = ("left", "right", "middle")
ACTIONS_A = ("a_left", "a_right", "a_middle")
ACTIONS_B = ("b_left", "b_right", "b_middle")


def _load_twists(doc, keys, dim, radicand) -> list[Matrix]:
    return [_load_matrix(doc.get(key), dim, radicand, key) for key in keys]


def _dump_twists(keys, twists) -> dict:
    return {key: _dump_matrix(m) for key, m in zip(keys, twists)}


def _load_algebra(doc, keys, dim, radicand) -> TernaryHomAlgebra:
    return TernaryHomAlgebra(
        dim, _load_product(doc.get(keys[0]), (dim,) * 3, dim, radicand),
        *_load_twists(doc, keys[1:], dim, radicand), radicand)


def _dump_algebra(keys, alg: TernaryHomAlgebra) -> dict:
    return {keys[0]: _dump_product(alg.mu),
            **_dump_twists(keys[1:], (alg.alpha1, alg.alpha2))}


def _load_actions(doc, keys, n, m, radicand) -> TrimoduleActions:
    """The actions of an n-dimensional algebra on an m-dimensional space."""
    shapes = ((n, n, m), (m, n, n), (n, m, n))
    return TrimoduleActions(*(_load_product(doc.get(key), shape, m, radicand)
                              for key, shape in zip(keys, shapes)))


def _dump_actions(keys, act: TrimoduleActions) -> dict:
    return {key: _dump_product(t)
            for key, t in zip(keys, (act.L, act.R, act.M))}


def _dump_header(kind, obj, dim_v=None) -> dict:
    head = {"kind": kind, "dim": obj.dim, "dim_v": dim_v,
            "radicand": obj.radicand}
    return {key: value for key, value in head.items() if value is not None}


def load_structure(doc):
    """Parse a structure document into the matching library object."""
    kind, dim, dim_v, radicand = _load_header(doc)
    if kind == "map":
        return _load_matrix(doc.get("matrix"), dim, radicand, "matrix")
    if kind == "coalgebra":
        return TernaryHomCoalgebra(
            dim, _load_coproduct(doc, dim, radicand),
            *_load_twists(doc, ALGEBRA[1:], dim, radicand), radicand)
    alg = _load_algebra(doc, ALGEBRA, dim, radicand)
    if kind == "algebra":
        return alg
    if kind == "bialgebra":
        return TernaryBialgebra(alg, TernaryHomCoalgebra(
            dim, _load_coproduct(doc, dim, radicand), alg.alpha1, alg.alpha2,
            radicand))
    if kind == "module":
        return ModuleBundle(
            alg, BihomModule(dim_v, *_load_twists(doc, ALGEBRA_B[1:], dim_v,
                                                  radicand)),
            _load_actions(doc, ACTIONS, dim, dim_v, radicand))
    # matched pair: dim is the first factor, dim_v the second
    return MatchedPairData(
        alg, _load_algebra(doc, ALGEBRA_B, dim_v, radicand),
        _load_actions(doc, ACTIONS_A, dim, dim_v, radicand),
        _load_actions(doc, ACTIONS_B, dim_v, dim, radicand))


def dump_structure(obj) -> dict:
    """Render a library object as a canonical structure document; a bare
    matrix takes its radicand from its entries."""
    if isinstance(obj, list):  # a bare matrix
        return {"kind": "map", "dim": len(obj), "radicand": mat_radicand(obj),
                "matrix": _dump_matrix(obj)}
    if isinstance(obj, TernaryHomAlgebra):
        return _dump_header("algebra", obj) | _dump_algebra(ALGEBRA, obj)
    if isinstance(obj, TernaryHomCoalgebra):
        return (_dump_header("coalgebra", obj) | _dump_coproduct(obj.delta)
                | _dump_twists(ALGEBRA[1:], (obj.alpha1, obj.alpha2)))
    if isinstance(obj, TernaryBialgebra):
        return (_dump_header("bialgebra", obj.alg)
                | {ALGEBRA[0]: _dump_product(obj.alg.mu)}
                | _dump_coproduct(obj.coalg.delta)
                | _dump_twists(ALGEBRA[1:], (obj.alpha1, obj.alpha2)))
    if isinstance(obj, ModuleBundle):
        mod = obj.module
        return (_dump_header("module", obj.algebra, mod.dim)
                | _dump_algebra(ALGEBRA, obj.algebra)
                | _dump_twists(ALGEBRA_B[1:], (mod.beta1, mod.beta2))
                | _dump_actions(ACTIONS, obj.actions))
    if isinstance(obj, MatchedPairData):
        return (_dump_header("matched_pair", obj.A, obj.B.dim)
                | _dump_algebra(ALGEBRA, obj.A) | _dump_algebra(ALGEBRA_B, obj.B)
                | _dump_actions(ACTIONS_A, obj.actA)
                | _dump_actions(ACTIONS_B, obj.actB))
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _unique_keys(pairs) -> dict:
    """A JSON object, refused if it names a key twice."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            _require(key not in seen, f"duplicate key {key!r} in an object")
            seen.add(key)
    return obj


def load_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise StructureFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StructureFileError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}"
        ) from exc
    except (UnicodeDecodeError, RecursionError) as exc:
        raise StructureFileError(f"{path}: not decodable: {exc}") from exc
    return load_structure(doc)


def dump_text(obj) -> str:
    return json.dumps(dump_structure(obj), indent=2) + "\n"


def dump_file(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_text(obj))
