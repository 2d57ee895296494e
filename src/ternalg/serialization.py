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
from .bialgebra import TernaryBialgebra, bialgebra
from .coalgebra import DeltaTensor, TernaryHomCoalgebra
from .linalg import Matrix, mat_radicand
from .matched_pair import MatchedPairData
from .scalars import MAX_RADICAND, format_scalar, parse_scalar, square_free
from .trimodule import BihomModule, TrimoduleActions

# -- the document layout: parts whose keys loading and dumping take from one
# tuple, and for each kind every key it needs besides "kind" and "dim"
# ("radicand" may be left out).

ALGEBRA = ("product", "alpha1", "alpha2")
ALGEBRA_B = ("product_b", "beta1", "beta2")
ACTIONS = ("left", "right", "middle")
ACTIONS_A = ("a_left", "a_right", "a_middle")
ACTIONS_B = ("b_left", "b_right", "b_middle")

LAYOUT = {
    "algebra": ALGEBRA,
    "coalgebra": ("coproduct", *ALGEBRA[1:]),
    "bialgebra": (*ALGEBRA, "coproduct"),
    "module": ("dim_v", *ALGEBRA, *ALGEBRA_B[1:], *ACTIONS),
    "matched_pair": ("dim_v", *ALGEBRA, *ALGEBRA_B, *ACTIONS_A, *ACTIONS_B),
    "map": ("matrix",),
}
KINDS = tuple(LAYOUT)


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


def _reader(radicand):
    """``read(text)``: a literal's scalar, each distinct string parsed once.
    Where the file leaves the radicand 1, the first irrational literal pins
    it, so one file cannot mix square roots; ``read.radicand`` is the
    radicand so far.  The memo lives for one load, so that another file's
    radicand still judges the same literal."""
    memo = {}

    def read(text):
        if type(text) is str and text in memo:
            return memo[text]
        try:
            x = parse_scalar(str(text), read.radicand)
        except ValueError as exc:
            raise StructureFileError(f"bad scalar {text!r}: {exc}") from exc
        if x.d != 1:
            read.radicand = x.d
        if type(text) is str:
            memo[text] = x
        return x

    read.radicand = radicand
    return read


def _is_count(value, top=math.inf) -> bool:
    """A JSON integer, not a boolean, in 1..top."""
    return type(value) is int and 1 <= value <= top


def _index(value, dim, what):
    if not _is_count(value, dim):
        raise StructureFileError(
            f"{what} index {value!r} out of range 1..{dim}")
    return value - 1


def _triple(idx, dims, what, shape):
    """A list of three indices, each in 1..dims[k], as a 0-based key;
    ``shape`` is the message for anything but a list of three."""
    _require(isinstance(idx, list) and len(idx) == 3, shape)
    a, b, c = idx
    n1, n2, n3 = dims
    if not (type(a) is int and type(b) is int and type(c) is int
            and 1 <= a <= n1 and 1 <= b <= n2 and 1 <= c <= n3):
        for i, n in zip(idx, dims):
            _index(i, n, what)  # raises for the first bad index
    return a - 1, b - 1, c - 1


def _load_matrix(rows, dim, read, name) -> Matrix:
    _require(isinstance(rows, list) and len(rows) == dim,
             f"{name} must have {dim} rows")
    out = []
    for row in rows:
        _require(isinstance(row, list) and len(row) == dim,
                 f"{name} must have {dim} columns")
        out.append([read(x) for x in row])
    return out


def _entries(entries, what):
    """The entries of a tensor, each checked to be a JSON object."""
    _require(entries is None or isinstance(entries, list),
             f"{what} must be a list of entries")
    for entry in entries or []:
        _require(isinstance(entry, dict), f"{what} entry must be an object")
        yield entry


def _load_product(entries, dims, out_dim, read) -> MuTensor:
    """dims bounds each argument slot and out_dim each output index, under a
    zero coefficient too; no entry may repeat, even as zero."""
    mu: MuTensor = {}
    for entry in _entries(entries, "product"):
        args = entry.get("args")
        key = _triple(args, dims, "product", "product entry needs 3 args")
        out = entry.get("out", {})
        _require(isinstance(out, dict), "product 'out' must be an object")
        vec = {}
        for l, text in out.items():
            # one spelling per index: ASCII digits, no leading zero
            if not (l.isascii() and l.isdecimal()
                    and (l[0] != "0" or l == "0")):
                raise StructureFileError(
                    f"product output index {l!r} is not a canonical integer")
            coeff = read(text)
            # out of range, and maybe too long for int() to convert
            if len(l) > len(str(out_dim)):
                shown = l if len(l) <= 20 else f"{l[:10]}... ({len(l)} digits)"
                raise StructureFileError(
                    f"product output index {shown} out of range 1..{out_dim}")
            index = _index(int(l), out_dim, "product output")
            if coeff:
                vec[index] = coeff
        if key in mu:
            raise StructureFileError(f"duplicate product entry {args}")
        mu[key] = vec
    return {key: vec for key, vec in mu.items() if vec}


def _load_coproduct(entries, dim, read) -> DeltaTensor:
    delta: DeltaTensor = {}
    dims = (dim,) * 3
    for entry in _entries(entries, "coproduct"):
        l = _index(entry.get("arg"), dim, "coproduct")
        terms = entry.get("out", [])
        _require(isinstance(terms, list), "coproduct 'out' must be a list")
        tens = {}
        for item in terms:
            _require(isinstance(item, dict), "coproduct term must be an object")
            into = item.get("into")
            key = _triple(into, dims, "coproduct",
                          "coproduct term needs a 3-index 'into'")
            if key in tens:
                raise StructureFileError(
                    f"duplicate coproduct term {into} in entry {l + 1}")
            tens[key] = read(item.get("coeff"))
        _require(l not in delta, f"duplicate coproduct entry {l + 1}")
        delta[l] = tens
    return delta  # the coalgebra drops its zeros


class _Literals(dict):
    """Canonical literals by scalar, each formatted once per dump."""

    def __missing__(self, x):
        text = self[x] = format_scalar(x)
        return text


def _dump_matrix(m: Matrix, lit: _Literals):
    return [[lit[x] for x in row] for row in m]


def _dump_product(mu: MuTensor, lit: _Literals):
    """Entries by index, without zero coefficients or empty entries."""
    entries = []
    for key in sorted(mu):
        out = {str(l + 1): text for l, v in sorted(mu[key].items())
               if (text := lit[v]) != "0"}
        if out:
            entries.append({"args": [i + 1 for i in key], "out": out})
    return entries


def _dump_coproduct(delta: DeltaTensor, lit: _Literals) -> dict:
    return {"coproduct": [
        {"arg": l + 1,
         "out": [{"into": [i + 1 for i in key], "coeff": lit[delta[l][key]]}
                 for key in sorted(delta[l])]}
        for l in sorted(delta)
    ]}


def _load_header(doc):
    """(kind, dim, dim_v, radicand) of a document with its kind's keys."""
    _require(isinstance(doc, dict), "structure file must be a JSON object")
    kind = doc.get("kind")
    _require(kind in KINDS, f"unknown kind {kind!r}")
    keys = {"kind", "dim", *LAYOUT[kind]}
    for what, bad in (("missing", keys - doc.keys()),
                      ("unknown", doc.keys() - keys - {"radicand"})):
        _require(not bad, f"{what} key(s) {sorted(bad)} in a {kind} file")
    _require(_is_count(doc["dim"]), "dim must be a positive int")
    _require("dim_v" not in doc or _is_count(doc["dim_v"]),
             "dim_v must be a positive int")
    radicand = doc.get("radicand", 1)
    _require(_is_count(radicand, MAX_RADICAND)
             and square_free(radicand)[0] == 1,
             f"radicand {radicand!r} is not a square-free int in "
             f"1..{MAX_RADICAND}")
    return kind, doc["dim"], doc.get("dim_v"), radicand


def _load_twists(doc, keys, dim, read) -> list[Matrix]:
    return [_load_matrix(doc[key], dim, read, key) for key in keys]


def _dump_twists(keys, twists, lit: _Literals) -> dict:
    return {key: _dump_matrix(m, lit) for key, m in zip(keys, twists)}


def _load_algebra(doc, keys, dim, read) -> tuple:
    """The product and the two twists of an algebra part."""
    return (_load_product(doc[keys[0]], (dim,) * 3, dim, read),
            *_load_twists(doc, keys[1:], dim, read))


def _dump_algebra(keys, alg: TernaryHomAlgebra, lit: _Literals) -> dict:
    return {keys[0]: _dump_product(alg.mu, lit),
            **_dump_twists(keys[1:], (alg.alpha1, alg.alpha2), lit)}


def _load_actions(doc, keys, n, m, read) -> TrimoduleActions:
    """The actions of an n-dimensional algebra on an m-dimensional space."""
    shapes = ((n, n, m), (m, n, n), (n, m, n))
    return TrimoduleActions(*(_load_product(doc[key], shape, m, read)
                              for key, shape in zip(keys, shapes)))


def _dump_actions(keys, act: TrimoduleActions, lit: _Literals) -> dict:
    return {key: _dump_product(t, lit)
            for key, t in zip(keys, (act.L, act.R, act.M))}


def _dump_header(kind, obj, dim_v=None) -> dict:
    head = {"kind": kind, "dim": obj.dim, "dim_v": dim_v,
            "radicand": obj.radicand}
    return {key: value for key, value in head.items() if value is not None}


def load_structure(doc):
    """Parse a structure document into the matching library object.  Every
    literal is read before a part is built, so that each part carries the
    radicand that the file's first square root pinned."""
    kind, dim, dim_v, radicand = _load_header(doc)
    read = _reader(radicand)
    if kind == "map":
        return _load_matrix(doc["matrix"], dim, read, "matrix")
    if kind == "coalgebra":
        delta = _load_coproduct(doc["coproduct"], dim, read)
        twists = _load_twists(doc, ALGEBRA[1:], dim, read)
        return TernaryHomCoalgebra(dim, delta, *twists, read.radicand)
    alg = _load_algebra(doc, ALGEBRA, dim, read)
    if kind == "algebra":
        return TernaryHomAlgebra(dim, *alg, read.radicand)
    if kind == "bialgebra":
        delta = _load_coproduct(doc["coproduct"], dim, read)
        return bialgebra(dim, alg[0], delta, *alg[1:], read.radicand)
    if kind == "module":
        mod = BihomModule(dim_v, *_load_twists(doc, ALGEBRA_B[1:], dim_v,
                                               read))
        act = _load_actions(doc, ACTIONS, dim, dim_v, read)
        return ModuleBundle(TernaryHomAlgebra(dim, *alg, read.radicand), mod,
                            act)
    # matched pair: dim is the first factor, dim_v the second
    alg_b = _load_algebra(doc, ALGEBRA_B, dim_v, read)
    act_a = _load_actions(doc, ACTIONS_A, dim, dim_v, read)
    act_b = _load_actions(doc, ACTIONS_B, dim_v, dim, read)
    return MatchedPairData(TernaryHomAlgebra(dim, *alg, read.radicand),
                           TernaryHomAlgebra(dim_v, *alg_b, read.radicand),
                           act_a, act_b)


def dump_structure(obj) -> dict:
    """Render a library object as a canonical structure document; a bare
    matrix takes its radicand from its entries."""
    lit = _Literals()
    if isinstance(obj, list):  # a bare matrix
        return {"kind": "map", "dim": len(obj), "radicand": mat_radicand(obj),
                "matrix": _dump_matrix(obj, lit)}
    if isinstance(obj, TernaryHomAlgebra):
        return _dump_header("algebra", obj) | _dump_algebra(ALGEBRA, obj, lit)
    if isinstance(obj, TernaryHomCoalgebra):
        return (_dump_header("coalgebra", obj)
                | _dump_coproduct(obj.delta, lit)
                | _dump_twists(ALGEBRA[1:], (obj.alpha1, obj.alpha2), lit))
    if isinstance(obj, TernaryBialgebra):
        return (_dump_header("bialgebra", obj.alg)
                | {ALGEBRA[0]: _dump_product(obj.alg.mu, lit)}
                | _dump_coproduct(obj.coalg.delta, lit)
                | _dump_twists(ALGEBRA[1:], (obj.alpha1, obj.alpha2), lit))
    if isinstance(obj, ModuleBundle):
        mod = obj.module
        return (_dump_header("module", obj.algebra, mod.dim)
                | _dump_algebra(ALGEBRA, obj.algebra, lit)
                | _dump_twists(ALGEBRA_B[1:], (mod.beta1, mod.beta2), lit)
                | _dump_actions(ACTIONS, obj.actions, lit))
    if isinstance(obj, MatchedPairData):
        return (_dump_header("matched_pair", obj.A, obj.B.dim)
                | _dump_algebra(ALGEBRA, obj.A, lit)
                | _dump_algebra(ALGEBRA_B, obj.B, lit)
                | _dump_actions(ACTIONS_A, obj.actA, lit)
                | _dump_actions(ACTIONS_B, obj.actB, lit))
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# -- the writer: ``json.dumps(doc, indent=2)`` for the values a document
# holds (header scalars, matrices, product and coproduct entries), an entry
# one template at a fixed depth.  Literals, keys and kinds need no escaping.

_PRODUCT = ('    {{\n      "args": [\n        {},\n        {},\n        {}\n'
            '      ],\n      "out": {}\n    }}')
_COPRODUCT = '    {{\n      "arg": {},\n      "out": {}\n    }}'
_TERM = ('        {{\n          "into": [\n            {},\n            {},\n'
         '            {}\n          ],\n          "coeff": "{}"\n        }}')


def _block(items: list[str], brackets: str, pad: str) -> str:
    """The items one a line between brackets, the closing one at ``pad``."""
    if not items:
        return brackets
    return f"{brackets[0]}\n" + ",\n".join(items) + f"\n{pad}{brackets[1]}"


def _render(key, value) -> str:
    if not isinstance(value, list):  # a header scalar
        return f'"{value}"' if isinstance(value, str) else str(value)
    if key == "coproduct":
        items = [_COPRODUCT.format(e["arg"], _block(
            [_TERM.format(*t["into"], t["coeff"]) for t in e["out"]],
            "[]", "      ")) for e in value]
    elif value and isinstance(value[0], list):  # a matrix
        items = ["    " + _block([f'      "{x}"' for x in row], "[]", "    ")
                 for row in value]
    else:
        items = [_PRODUCT.format(*e["args"], _block(
            [f'        "{l}": "{x}"' for l, x in e["out"].items()],
            "{}", "      ")) for e in value]
    return _block(items, "[]", "  ")


def render(doc: dict) -> str:
    """A structure document as indent-2 JSON text."""
    return _block([f'  "{key}": {_render(key, value)}'
                   for key, value in doc.items()], "{}", "")


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
    except StructureFileError:
        raise
    except ValueError as exc:  # an integer past Python's digit limit
        raise StructureFileError(f"{path}: not readable: {exc}") from exc
    return load_structure(doc)


def dump_text(obj) -> str:
    return render(dump_structure(obj)) + "\n"


def dump_file(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_text(obj))
