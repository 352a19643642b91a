"""JSON parsing and deterministic serialization for the CLI.

Inputs use plain JSON objects: matrices as {"m": int, "rows": [[...]]},
complementarity problems as {"q": [...], "M": <matrix>}, games as
{"X": [...], "P": [...], "G": <matrix>}, trees as {"T", "m", "nodes",
"G"?}. Wherever a matrix is accepted, {"alpha": [...]} stands for the
proportional-redistribution matrix built from those weights.

Serialization is hand-rolled because the stdlib encoder does not allow
overriding float formatting. The contract of `dump_json`:

- It accepts None, bool, int, float, str, list, tuple, Mapping and
  numpy arrays, integers and floats; anything else (a set, np.bool_)
  raises TypeError.
- Floats print with 17 significant digits, which round-trips every
  double, and always carry a '.' or an exponent; -0.0 prints as 0.0 so
  reruns cannot differ on sign noise; nan and infinities raise
  ValueError, and so does data nested too deep to recurse through.
- Strings and mapping keys (keys through str()) are encoded as
  json.dumps(..., ensure_ascii=False) encodes them.
- Scalar-only lists print on one line; other containers print one item
  a line, indented by INDENT spaces a level. Identical data therefore
  gives identical bytes across runs.

A float-only list (a numpy array's, say) is formatted by one %-format call,
with one "%.17g, ..." string kept per length; only the tokens that come out
with neither '.' nor 'e' (integers below 1e17, zeros, nan and infinities)
go through _float_fixup. A lone float uses the same "%.17g".
"""

from __future__ import annotations

import json
from functools import lru_cache
from json.encoder import encode_basestring
from typing import Any, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from .lcp import LcpProblem
from .matrices import SquareMatrix
from .redistribution import dhat_matrix
from .single_period import GameSpec
from .tree import ScenarioTree, TreeNode

__all__ = [
    "InputFormatError",
    "parse_vector",
    "parse_matrix",
    "parse_lcp",
    "parse_game",
    "parse_tree",
    "vector_json",
    "matrix_json",
    "game_json",
    "tree_json",
    "dump_json",
    "load_json",
]

# Spaces per nesting level in dump_json's output.
INDENT = 2


class InputFormatError(ValueError):
    """The input JSON does not match any accepted shape."""


def load_json(text: str) -> Any:
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise InputFormatError(f"not valid JSON: {e}") from e


def _require_mapping(obj: Any, what: str) -> Mapping:
    if not isinstance(obj, Mapping):
        raise InputFormatError(f"{what} must be a JSON object")
    return obj


_NUMBER_TYPES = frozenset({int, float})


def parse_vector(obj: Any, what: str, m: Optional[int] = None) -> np.ndarray:
    if not isinstance(obj, (list, tuple)) or not (
        set(map(type, obj)) <= _NUMBER_TYPES
        or all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in obj)
    ):
        raise InputFormatError(f"{what} must be an array of numbers")
    v = np.asarray(obj, dtype=float)
    if not np.isfinite(v).all():
        raise InputFormatError(f"{what} has non-finite entries")
    if m is not None and v.shape != (m,):
        raise InputFormatError(f"{what} must have length {m}")
    return v


def parse_matrix(obj: Any, what: str = "matrix") -> SquareMatrix:
    mp = _require_mapping(obj, what)
    if "alpha" in mp and "rows" not in mp:
        alpha = parse_vector(mp["alpha"], f"{what}.alpha")
        return dhat_matrix(alpha)
    rows = mp.get("rows")
    if rows is None:
        raise InputFormatError(f"{what} needs either 'rows' or 'alpha'")
    if not isinstance(rows, list) or not rows:
        raise InputFormatError(f"{what}.rows must be a nonempty array")
    m = len(rows)
    entries = np.vstack([parse_vector(r, f"{what}.rows[{i}]", m) for i, r in enumerate(rows)])
    declared = mp.get("m")
    if declared is not None:
        if not isinstance(declared, int) or isinstance(declared, bool):
            raise InputFormatError(f"{what}.m must be an integer")
        if declared != m:
            raise InputFormatError(f"{what} declares m={declared} but has {m} rows")
    try:
        return SquareMatrix(entries)
    except ValueError as e:
        raise InputFormatError(f"{what}: {e}") from e


def parse_lcp(obj: Any) -> LcpProblem:
    mp = _require_mapping(obj, "problem")
    if "q" not in mp or "M" not in mp:
        raise InputFormatError("problem needs 'q' and 'M'")
    M = parse_matrix(mp["M"], "M")
    q = parse_vector(mp["q"], "q", M.m)
    try:
        return LcpProblem(q=q, M=M)
    except ValueError as e:
        raise InputFormatError(str(e)) from e


def parse_game(obj: Any) -> GameSpec:
    mp = _require_mapping(obj, "game")
    if "X" not in mp or "P" not in mp:
        raise InputFormatError("game needs 'X' and 'P'")
    if "G" in mp:
        G = parse_matrix(mp["G"], "G")
    elif "alpha" in mp:
        G = parse_matrix({"alpha": mp["alpha"]}, "G")
    else:
        raise InputFormatError("game needs 'G' or 'alpha'")
    X = parse_vector(mp["X"], "X", G.m)
    P = parse_vector(mp["P"], "P", G.m)
    frozen = mp.get("non_exercising", [])
    if not isinstance(frozen, list) or not all(
        isinstance(i, int) and not isinstance(i, bool) for i in frozen
    ):
        raise InputFormatError("non_exercising must be an array of player numbers")
    if any(i < 1 or i > G.m for i in frozen):
        raise InputFormatError("non_exercising player numbers must be in 1..m")
    try:
        return GameSpec(
            X=X, P=P, G=G, non_exercising=frozenset(i - 1 for i in frozen)
        )
    except ValueError as e:
        raise InputFormatError(str(e)) from e


def parse_tree(obj: Any) -> ScenarioTree:
    mp = _require_mapping(obj, "tree")
    for key in ("T", "m", "nodes"):
        if key not in mp:
            raise InputFormatError(f"tree needs '{key}'")
    T, m = mp["T"], mp["m"]
    if not isinstance(T, int) or isinstance(T, bool) or T < 0:
        raise InputFormatError("tree.T must be a nonnegative integer")
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise InputFormatError("tree.m must be a positive integer")
    shared = parse_matrix(mp["G"], "tree.G") if mp.get("G") is not None else None
    raw_nodes = mp["nodes"]
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise InputFormatError("tree.nodes must be a nonempty array")
    nodes: List[TreeNode] = []
    for i, raw in enumerate(raw_nodes):
        nm = _require_mapping(raw, f"nodes[{i}]")
        if "id" not in nm or "t" not in nm:
            raise InputFormatError(f"nodes[{i}] needs 'id' and 't'")
        t = nm["t"]
        if not isinstance(t, int) or isinstance(t, bool):
            raise InputFormatError(f"nodes[{i}].t must be an integer")
        p = nm.get("p", 1.0)
        if isinstance(p, bool) or not isinstance(p, (int, float)):
            raise InputFormatError(f"nodes[{i}].p must be a number")
        X = parse_vector(nm.get("X"), f"nodes[{i}].X", m)
        G = parse_matrix(nm["G"], f"nodes[{i}].G") if nm.get("G") is not None else None
        parent = nm.get("parent")
        nodes.append(
            TreeNode(
                id=str(nm["id"]),
                t=t,
                parent=None if parent is None else str(parent),
                p=float(p),
                X=X,
                G=G,
            )
        )
    return ScenarioTree(T=T, m=m, nodes=tuple(nodes), G=shared)


def vector_json(v: Iterable[float]) -> List[float]:
    return np.asarray(v, dtype=float).tolist()


def matrix_json(M: SquareMatrix) -> dict:
    return {"m": M.m, "rows": np.asarray(M.entries, dtype=float).tolist()}


def game_json(spec: GameSpec) -> dict:
    out = {
        "X": vector_json(spec.X),
        "P": vector_json(spec.P),
        "G": matrix_json(spec.G),
    }
    if spec.non_exercising:
        out["non_exercising"] = sorted(i + 1 for i in spec.non_exercising)
    return out


def tree_json(tree: ScenarioTree) -> dict:
    out: dict = {"T": tree.T, "m": tree.m}
    if tree.G is not None:
        out["G"] = matrix_json(tree.G)
    nodes = []
    for n in tree.nodes:
        nd: dict = {
            "id": n.id,
            "t": n.t,
            "parent": n.parent,
            "p": float(n.p),
            "X": vector_json(n.X),
        }
        if n.G is not None:
            nd["G"] = matrix_json(n.G)
        nodes.append(nd)
    out["nodes"] = nodes
    return out


# The one float format: 17 significant digits round-trip every double.
_FLOAT_FORMAT = "%.17g"


def _float_fixup(s: str) -> str:
    """Finish a 17g string that has neither '.' nor 'e'.

    Only integer-valued floats below 1e17, zeros and non-finite values
    format that way.
    """
    if s in ("nan", "inf", "-inf"):
        raise ValueError("cannot serialize non-finite numbers")
    if s == "-0":
        return "0.0"  # normalize -0.0 so reruns cannot differ on sign noise
    return s + ".0"


def _float_repr(x: float) -> str:
    s = _FLOAT_FORMAT % x
    return s if "." in s or "e" in s else _float_fixup(s)


@lru_cache(maxsize=256)
def _list_format(n: int) -> str:
    """The format string of a float-only list of length n, built once per length."""
    return "[" + ", ".join([_FLOAT_FORMAT] * n) + "]"


def _float_list(items: Sequence[float]) -> str:
    """A float-only list in one format call. A token holds at most one '.', so
    when the '.' count equals the length, every token is finished; otherwise
    only the tokens with neither '.' nor 'e' go through _float_fixup."""
    s = _list_format(len(items)) % tuple(items)
    if s.count(".") == len(items):
        return s
    tokens = s[1:-1].split(", ")
    return "[" + ", ".join([t if "." in t or "e" in t else _float_fixup(t) for t in tokens]) + "]"


_FLOAT_ONLY = frozenset({float})
_FLOAT64 = np.dtype(np.float64)
_SCALAR_TYPES = frozenset({type(None), bool, int, float, str})


def _is_scalar(x: Any) -> bool:
    return x is None or isinstance(x, (bool, int, float, str, np.integer, np.floating))


def _serialize_list(items: Sequence[Any], level: int) -> str:
    if not items:
        return "[]"
    types = set(map(type, items))
    if types == _FLOAT_ONLY:
        return _float_list(items)
    if types <= _SCALAR_TYPES or all(map(_is_scalar, items)):
        return "[" + ", ".join([_serialize(x, 0) for x in items]) + "]"
    inner = " " * (INDENT * (level + 1))
    body = (",\n" + inner).join([_serialize(x, level + 1) for x in items])
    return "[\n" + inner + body + "\n" + " " * (INDENT * level) + "]"


def _serialize_mapping(obj: Mapping, level: int) -> str:
    if not obj:
        return "{}"
    inner = " " * (INDENT * (level + 1))
    body = (",\n" + inner).join(
        [
            encode_basestring(k if type(k) is str else str(k)) + ": " + _serialize(v, level + 1)
            for k, v in obj.items()
        ]
    )
    return "{\n" + inner + body + "\n" + " " * (INDENT * level) + "}"


def _serialize(obj: Any, level: int) -> str:
    t = type(obj)
    if t is float:
        return _float_repr(obj)
    if t is dict:
        return _serialize_mapping(obj, level)
    if t is list or t is tuple:
        return _serialize_list(obj, level)
    if t is str:
        return encode_basestring(obj)
    if t is np.ndarray and obj.ndim:
        if obj.ndim == 1 and obj.dtype is _FLOAT64:
            return _float_list(obj.tolist())
        return _serialize_list(obj.tolist(), level)
    if t is int:
        return str(obj)
    # None, bools, numpy scalars, 0-d arrays and subclasses
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _float_repr(float(obj))
    if isinstance(obj, str):
        return encode_basestring(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return _serialize_list(list(obj), level)
    if isinstance(obj, Mapping):
        return _serialize_mapping(obj, level)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dump_json(obj: Any) -> str:
    """Deterministic JSON text with 17-significant-digit floats."""
    try:
        return _serialize(obj, 0) + "\n"
    except RecursionError as e:
        raise ValueError(f"too deeply nested to serialise: {e}") from e
