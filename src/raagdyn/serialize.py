"""JSON schemas: rationals as "p/q" strings, versioned documents, exact roundtrips."""

from __future__ import annotations

import dataclasses
import itertools
import json
import re
import sys
from fractions import Fraction
from typing import Union

from .actions import ActionAssignment, FaithfulAction
from .cotree import Classification, EmbeddingWitness
from .graphs import SimplicialGraph
from .intervals import IntervalSet
from .plmaps import PLMapCircle, PLMapInterval, PLMap, RotationResult
from .words import format_word

SCHEMA_VERSION = 1

# Fraction's string grammar without its exponent, digit-group underscores,
# non-ASCII digits and surrounding whitespace
_RATIONAL = re.compile(r"[+-]?(?:[0-9]+(?:/[0-9]+|\.[0-9]*)?|\.[0-9]+)")


def frac_to_str(x) -> str:
    """Exact text of a computed rational, past the int-to-str digit limit that guards input."""
    x = Fraction(x)
    try:
        return str(x)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(x)
        finally:
            sys.set_int_max_str_digits(limit)


class PayloadError(ValueError):
    """A JSON document does not have the shape its schema asks for."""


def str_to_frac(s: str) -> Fraction:
    """The rational a "p/q" string names; a JSON number or boolean is refused, never rounded.

    Exponent notation is refused too: "1e4000000" names a 4,000,001-digit integer.
    """
    if not isinstance(s, str) or not _RATIONAL.fullmatch(s):
        raise PayloadError(f'a rational must be a "p/q" string, got {s!r}')
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as e:
        raise PayloadError(f"not a rational: {s!r}") from e


def map_to_obj(m: PLMap) -> dict:
    return {
        "domain": m.DOMAIN,
        "points": [[frac_to_str(x), frac_to_str(y)] for x, y in m.points],
    }


_MAP_CLASSES = {kind.DOMAIN: kind for kind in (PLMapInterval, PLMapCircle)}


def obj_to_map(obj: dict, kind: type[PLMap] = PLMap) -> PLMap:
    """The map an object holds; its 'domain' must name a `kind`."""
    pts = obj.get("points") if isinstance(obj, dict) else None
    if not isinstance(pts, list) or not all(
        isinstance(p, list) and len(p) == 2 for p in pts
    ):
        raise PayloadError("a map needs an object whose 'points' is a list of [x, y] pairs")
    pts = [(str_to_frac(x), str_to_frac(y)) for x, y in pts]
    domain = obj.get("domain")
    cls = _MAP_CLASSES.get(domain) if isinstance(domain, str) else None
    if cls is None or not issubclass(cls, kind):
        allowed = " or ".join(repr(d) for d, c in _MAP_CLASSES.items() if issubclass(c, kind))
        raise PayloadError(f"a map's 'domain' must be {allowed}, got {domain!r}")
    try:
        return cls.from_points(pts)
    except ValueError as e:  # the points are not one period of an increasing lift
        raise PayloadError(f"{domain} map: {e}") from e


def payload_maps(payload: dict, keys, kind: type[PLMap] = PLMap) -> list[PLMap]:
    """The maps named by `keys` in the payload's `maps` object, each a `kind`."""
    maps = payload.get("maps")
    if not isinstance(maps, dict) or not all(k in maps for k in keys):
        raise PayloadError(f"'maps' must be an object holding maps {', '.join(keys)}")
    return [obj_to_map(maps[k], kind) for k in keys]


def payload_list(payload: dict, key: str, item_ok=lambda s: isinstance(s, str), what="strings") -> list:
    """The payload's optional list `key`, every item passing `item_ok`."""
    items = payload.get(key, [])
    if not isinstance(items, list) or not all(map(item_ok, items)):
        raise PayloadError(f"'{key}' must be a list of {what}")
    return items


def set_to_obj(s: IntervalSet) -> list:
    """Verbatim interval parts with openness flags, for report payloads."""
    return [
        [frac_to_str(a), bool(ac), frac_to_str(b), bool(bc)] for a, ac, b, bc in s.parts
    ]


def assignment_to_obj(asg: ActionAssignment) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "kind": "action",
        "maps": {
            "a": map_to_obj(asg.a),
            "b": map_to_obj(asg.b),
            "t": map_to_obj(asg.t),
        },
        "x0": frac_to_str(asg.basepoint),
    }


def obj_to_assignment(obj: dict) -> ActionAssignment:
    a, b, t = payload_maps(obj, "abt", PLMapInterval)
    return ActionAssignment(a=a, b=b, t=t, basepoint=str_to_frac(obj.get("x0")))


def faithful_to_obj(fa: FaithfulAction) -> dict:
    doc = assignment_to_obj(fa.assignment)
    doc["words"] = [format_word(w) for w in fa.words]
    doc["witnesses"] = [frac_to_str(x) for x in fa.witnesses]
    return doc


def graph_to_obj(g: SimplicialGraph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [[u, v] for u, v in g.sorted_edges()],
    }


def obj_to_graph(obj: dict) -> SimplicialGraph:
    return SimplicialGraph.build(obj["vertices"], [tuple(e) for e in obj["edges"]])


def _fields(x) -> Union[dict, None]:
    """A dataclass's fields by name, shallow: its field names are its JSON keys."""
    return None if x is None else {f.name: getattr(x, f.name) for f in dataclasses.fields(x)}


def classification_to_obj(
    g: SimplicialGraph,
    cls: Classification,
    witness: Union[EmbeddingWitness, None] = None,
) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "kind": "classification",
        "graph": graph_to_obj(g),
        "cograph": cls.cograph,
        "level": cls.level,
        "cotree": cls.cotree.to_nested() if cls.cotree is not None else None,
        "p4_witness": list(cls.p4_witness) if cls.p4_witness else None,
        "verdict": _fields(cls.verdict),
        "witness": _fields(witness),
    }


def rotation_to_obj(res: RotationResult) -> dict:
    if res.is_exact():
        return {"kind": "exact", "value": frac_to_str(res.value)}
    return {"kind": "bounds", "lo": frac_to_str(res.lo), "hi": frac_to_str(res.hi)}


_encode = json.JSONEncoder().encode


def dumps_doc(doc: dict) -> str:
    """`json.dumps(doc, indent=2, sort_keys=True)` plus a newline, for string keys.

    Written on an explicit stack: the standard indenting encoder recurses once
    per nesting level, and a deep cotree would exceed the recursion limit.
    """
    out = []
    stack = []  # per open container: its (key text, value) pairs left, closing bracket
    value = doc
    while True:
        if isinstance(value, dict) and value:
            out.append("{")
            stack.append((((_encode(k) + ": ", v) for k, v in sorted(value.items())), "}"))
        elif isinstance(value, (list, tuple)) and value:
            out.append("[")
            stack.append((zip(itertools.repeat(""), value), "]"))
        else:
            out.append(_encode(value))
        while stack:
            items, close = stack[-1]
            pad = "\n" + "  " * len(stack)
            sep = pad if out[-1] in ("{", "[") else "," + pad
            for key, value in items:  # resumes where the last nested value left it
                out.append(sep + key)
                if isinstance(value, (dict, list, tuple)) and value:
                    break
                out.append(_encode(value))
                sep = "," + pad
            else:
                stack.pop()
                out.append(pad[:-2] + close)
                continue
            break
        else:
            return "".join(out) + "\n"
