import json
import math
from typing import Any, Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from affinegames.jsonio import (
    InputFormatError,
    dump_json,
    game_json,
    load_json,
    matrix_json,
    parse_game,
    parse_lcp,
    parse_matrix,
    parse_tree,
    parse_vector,
    tree_json,
    vector_json,
)
from affinegames.matrices import SquareMatrix
from affinegames.single_period import GameSpec
from affinegames.tree import ScenarioTree, TreeNode


class TestParseVector:
    def test_accepts_ints_and_floats(self):
        assert parse_vector([1, 2.5], "v") == pytest.approx([1.0, 2.5])

    @pytest.mark.parametrize("bad", ["x", [1, "a"], [True, 1], {"a": 1}, [1, None]])
    def test_rejects_non_numeric(self, bad):
        with pytest.raises(InputFormatError):
            parse_vector(bad, "v")

    def test_rejects_wrong_length_and_nan(self):
        with pytest.raises(InputFormatError, match="length 3"):
            parse_vector([1, 2], "v", 3)
        with pytest.raises(InputFormatError, match="non-finite"):
            parse_vector([1, float("nan")], "v")


class TestParseMatrix:
    def test_rows_form(self):
        M = parse_matrix({"m": 2, "rows": [[1, 2], [3, 4]]})
        assert M.entries == pytest.approx(np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_m_is_optional(self):
        assert parse_matrix({"rows": [[7]]}).m == 1

    def test_alpha_shorthand(self):
        M = parse_matrix({"alpha": [0.25, 0.25]})
        assert M.entries == pytest.approx(
            np.array([[3 / 16, -1 / 16], [-1 / 16, 3 / 16]])
        )

    @pytest.mark.parametrize(
        "bad",
        [
            [],
            {"rows": []},
            {"rows": [[1, 2]]},
            {"m": 3, "rows": [[1, 2], [3, 4]]},
            {"m": 2},
            {"m": 2.7, "rows": [[1, 0], [0, 1]]},
            {"m": 2.0, "rows": [[1, 0], [0, 1]]},
            {"m": "2", "rows": [[1, 0], [0, 1]]},
            {"m": True, "rows": [[1]]},
        ],
    )
    def test_rejected_shapes(self, bad):
        with pytest.raises(InputFormatError):
            parse_matrix(bad)


class TestParseLcpAndGame:
    def test_lcp(self):
        p = parse_lcp({"q": [1, -2], "M": {"rows": [[1, 0], [0, 1]]}})
        assert p.q == pytest.approx([1.0, -2.0])
        assert p.m == 2

    def test_lcp_requires_both_fields(self):
        with pytest.raises(InputFormatError, match="'q' and 'M'"):
            parse_lcp({"q": [1.0]})

    def test_lcp_length_mismatch(self):
        with pytest.raises(InputFormatError, match="length 1"):
            parse_lcp({"q": [1, 2], "M": {"rows": [[1]]}})

    def test_game_with_alpha_and_frozen_players(self):
        spec = parse_game(
            {"X": [1, 2], "P": [0, 0], "alpha": [0.2, 0.2], "non_exercising": [2]}
        )
        assert spec.non_exercising == frozenset({1})
        assert spec.G.entries[0, 0] == pytest.approx(0.2 - 0.04)

    @pytest.mark.parametrize(
        "bad",
        [
            {"X": [1], "P": [0]},
            {"X": [1], "G": {"rows": [[1]]}},
            {"X": [1], "P": [0], "G": {"rows": [[1]]}, "non_exercising": [0]},
            {"X": [1], "P": [0], "G": {"rows": [[1]]}, "non_exercising": [2]},
            {"X": [1], "P": [0], "G": {"rows": [[1]]}, "non_exercising": "1"},
            {"X": [1, 2], "P": [0], "G": {"rows": [[1]]}},
        ],
    )
    def test_rejected_games(self, bad):
        with pytest.raises(InputFormatError):
            parse_game(bad)

    def test_invalid_diagonal_becomes_format_error(self):
        with pytest.raises(InputFormatError):
            parse_game({"X": [1], "P": [0], "G": {"rows": [[-1]]}})


class TestParseTree:
    BASE = {
        "T": 1,
        "m": 1,
        "G": {"rows": [[1.0]]},
        "nodes": [
            {"id": "r", "t": 0, "parent": None, "p": 1.0, "X": [0.0]},
            {"id": "a", "t": 1, "parent": "r", "p": 1.0, "X": [2.0]},
        ],
    }

    def test_round_trip(self):
        tree = parse_tree(self.BASE)
        assert tree.T == 1 and tree.m == 1
        again = parse_tree(tree_json(tree))
        assert tree_json(again) == tree_json(tree)

    def test_probability_defaults_to_one(self):
        raw = json.loads(json.dumps(self.BASE))
        del raw["nodes"][1]["p"]
        assert parse_tree(raw).node("a").p == 1.0

    @pytest.mark.parametrize(
        "patch",
        [
            {"T": -1},
            {"T": True},
            {"m": 0},
            {"nodes": []},
            {"nodes": [{"id": "r"}]},
            {"nodes": [{"id": "r", "t": 0.5, "X": [0.0]}]},
            {"nodes": [{"id": "r", "t": 0, "p": "x", "X": [0.0]}]},
            {"nodes": [{"id": "r", "t": 0, "X": [0.0, 1.0]}]},
        ],
    )
    def test_rejected_trees(self, patch):
        raw = json.loads(json.dumps(self.BASE))
        raw.update(patch)
        with pytest.raises(InputFormatError):
            parse_tree(raw)

    def test_missing_top_level_field(self):
        with pytest.raises(InputFormatError, match="'nodes'"):
            parse_tree({"T": 0, "m": 1})


class TestEmitters:
    def test_game_round_trip_with_frozen_player(self):
        spec = GameSpec(
            X=np.array([1.0, 2.0]),
            P=np.array([0.0, 0.0]),
            G=SquareMatrix(np.array([[1.0, -0.5], [-0.5, 1.0]])),
            non_exercising=frozenset({0}),
        )
        out = game_json(spec)
        assert out["non_exercising"] == [1]
        back = parse_game(out)
        assert back.non_exercising == spec.non_exercising
        assert back.X == pytest.approx(spec.X)

    def test_vector_json_plain_floats(self):
        out = vector_json(np.array([1.0, 0.5]))
        assert out == [1.0, 0.5]
        assert all(type(x) is float for x in out)

    def test_node_matrix_survives_round_trip(self):
        override = SquareMatrix(np.array([[2.0]]))
        tree = ScenarioTree(
            T=0,
            m=1,
            nodes=(TreeNode(id="r", t=0, parent=None, p=1.0, X=np.array([0.0]), G=override),),
        )
        back = parse_tree(tree_json(tree))
        assert back.node("r").G.entries == pytest.approx(np.array([[2.0]]))
        assert back.G is None


class TestDumpJson:
    def test_layout(self):
        text = dump_json({"a": [1.0, 2.0], "b": {"c": []}, "d": [[1.0], [2.0]]})
        assert text == (
            '{\n  "a": [1.0, 2.0],\n  "b": {\n    "c": []\n  },\n'
            '  "d": [\n    [1.0],\n    [2.0]\n  ]\n}\n'
        )

    def test_floats_keep_a_marker(self):
        assert dump_json(3.0) == "3.0\n"
        assert dump_json(0.5).strip() == "0.5"
        assert dump_json(-0.0).strip() == "0.0"
        assert dump_json(np.array([-0.0, 1e16, 1e17])) == "[0.0, 10000000000000000.0, 1e+17]\n"

    def test_scalars_and_null(self):
        assert dump_json({"x": None, "y": True, "z": 3}) == (
            '{\n  "x": null,\n  "y": true,\n  "z": 3\n}\n'
        )

    def test_non_finite_rejected(self):
        for x in (float("nan"), float("inf"), -float("inf")):
            for bad in (x, [1.0, x], np.array([1.0, x]), np.array([[1.0], [x]]), np.float32(x)):
                with pytest.raises(ValueError):
                    dump_json({"x": bad})

    def test_unknown_type_rejected(self):
        for bad in ({1, 2}, np.bool_(True), [1.0, np.bool_(False)]):
            with pytest.raises(TypeError):
                dump_json({"x": bad})

    def test_numpy_values_accepted(self):
        text = dump_json({"v": np.array([1.5, 2.0]), "n": np.int64(3)})
        assert json.loads(text) == {"v": [1.5, 2.0], "n": 3}

    @settings(max_examples=200, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_floats_round_trip_exactly(self, x):
        parsed = json.loads(dump_json({"x": x}))["x"]
        if x == 0.0:
            assert parsed == 0.0 and not math.copysign(1.0, parsed) < 0
        else:
            assert parsed == x

    def test_load_json_wraps_decode_errors(self):
        with pytest.raises(InputFormatError, match="not valid JSON"):
            load_json("{")

    def test_matrix_json_shape(self):
        out = matrix_json(SquareMatrix(np.array([[1.0, 2.0], [3.0, 4.0]])))
        assert out == {"m": 2, "rows": [[1.0, 2.0], [3.0, 4.0]]}


# The serialiser as it was before its exact-type fast paths, kept verbatim
# (with its INDENT) as the reference that dump_json must match byte for byte.
INDENT = 2


def _float_repr(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("cannot serialize non-finite numbers")
    if x == 0.0:
        x = 0.0  # normalize -0.0 so reruns cannot differ on sign noise
    s = format(x, ".17g")
    if not any(c in s for c in ".eE"):
        s += ".0"
    return s


def _is_scalar(x: Any) -> bool:
    return x is None or isinstance(x, (bool, int, float, str, np.integer, np.floating))


def _serialize(obj: Any, level: int) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _float_repr(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        items = list(obj)
        if not items:
            return "[]"
        if all(_is_scalar(x) for x in items):
            return "[" + ", ".join(_serialize(x, 0) for x in items) + "]"
        inner = " " * (INDENT * (level + 1))
        body = ",\n".join(inner + _serialize(x, level + 1) for x in items)
        return "[\n" + body + "\n" + " " * (INDENT * level) + "]"
    if isinstance(obj, Mapping):
        if not obj:
            return "{}"
        inner = " " * (INDENT * (level + 1))
        parts = []
        for k, v in obj.items():
            parts.append(
                inner + json.dumps(str(k), ensure_ascii=False) + ": "
                + _serialize(v, level + 1)
            )
        return "{\n" + ",\n".join(parts) + "\n" + " " * (INDENT * level) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


_EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 1.0, -3.0, 1e16, -1e16, 1e17, 1e300, 5e-324, -5e-324])
_FLOATS = _EDGE_FLOATS | st.floats(allow_nan=False, allow_infinity=False)
# Escapes, control characters and non-ASCII text, for values and keys alike.
_TEXT = st.text(alphabet=st.characters(), max_size=8) | st.sampled_from(
    ['"', "\\", "\n\t\x00\x7f", "caf\u00e9", "\u2028", "\U0001f600"]
)
_SCALARS = (
    _FLOATS
    | _FLOATS.map(np.float64)
    | st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.integers()
    | st.booleans()
    | st.none()
    | _TEXT
)
_ARRAYS = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4), elements=_FLOATS
)
_DOCUMENTS = st.recursive(
    _SCALARS | _ARRAYS | st.lists(_FLOATS, max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(_TEXT | st.integers(), children, max_size=4),
    max_leaves=20,
)


class TestDumpJsonMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(_DOCUMENTS)
    def test_bytes_equal_the_reference_serialiser(self, doc):
        assert dump_json(doc) == _serialize(doc, 0) + "\n"


def _per_float_list(items) -> str:
    """A float-only list formatted one float at a time with "{:.17g}": the
    reference for dump_json's one format call per list."""
    out = []
    for x in items:
        s = "{:.17g}".format(x)
        if s == "-0":
            s = "0"
        out.append(s if "." in s or "e" in s else s + ".0")
    return "[" + ", ".join(out) + "]\n"


# Integers around 1e16 and 1e17 (where %.17g switches to an exponent), 1e20,
# the subnormals and the largest doubles, beside any finite double.
_LIST_FLOATS = (
    st.sampled_from(
        [0.0, -0.0, 1e20, -1e20, 5e-324, -5e-324, 2.225073858507201e-308,
         1.7976931348623157e308, -1.7976931348623157e308, 1e-5, 123456789.0]
    )
    | st.integers(-(10**18), 10**18).filter(lambda k: abs(k) < 10**4 or 10**15 < abs(k)).map(float)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True, max_value=1e-300, min_value=-1e-300)
)


class TestFloatListFormat:
    """dump_json formats a float-only list in one call; %.17g and {:.17g} must
    agree on every double, which this shows rather than assumes."""

    @settings(max_examples=500, deadline=None)
    @given(st.lists(_LIST_FLOATS, min_size=1, max_size=40))
    def test_equals_the_per_float_reference(self, items):
        assert dump_json(items) == _per_float_list(items)
        assert dump_json(np.array(items)) == _per_float_list(items)

    def test_edge_values(self):
        items = [0.0, -0.0, 1e16, 1e16 + 2, 1e17, 1e17 + 16, 1e20, 5e-324,
                 1.7976931348623157e308, -1.7976931348623157e308, 3.0]
        assert dump_json(items) == _per_float_list(items)
        assert dump_json(items) == (
            "[0.0, 0.0, 10000000000000000.0, 10000000000000002.0, 1e+17, "
            "1.0000000000000002e+17, 1e+20, 4.9406564584124654e-324, "
            "1.7976931348623157e+308, -1.7976931348623157e+308, 3.0]\n"
        )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("at", [0, 1, 3])
    def test_non_finite_raises(self, bad, at):
        items = [1.0, 2.5, -0.0, 4.0]
        items[at] = bad
        for doc in (items, np.array(items), {"x": items}):
            with pytest.raises(ValueError, match="non-finite"):
                dump_json(doc)
