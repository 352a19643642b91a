import json
from importlib import resources

import jsonschema
import numpy as np
import pytest

from affinegames import cli
from affinegames.cli import _HANDLERS, gen_game, gen_tree, main
from affinegames.jsonio import dump_json, game_json, matrix_json, tree_json
from affinegames.matrices import SquareMatrix, gen_p_matrix
from affinegames.tree import validate as validate_tree
from affinegames.jsonio import parse_tree
from affinegames.lcp import LcpProblem, solve_enum, solve_lemke

K2_JSON = '{"m": 2, "rows": [[1, -0.5], [-0.5, 1]]}'
HAND_GAME = '{"X": [2, 0], "P": [0, 3], "G": {"m": 2, "rows": [[1, -0.5], [-0.5, 1]]}}'
NEAR_SINGULAR_TREE = {
    "T": 1,
    "m": 2,
    "G": {"m": 2, "rows": [[1, -1], [-1, 0.99999999]]},
    "nodes": [
        {"id": "r", "t": 0, "parent": None, "p": 1.0, "X": [1, 0]},
        {"id": "l", "t": 1, "parent": "r", "p": 1.0, "X": [0, 0]},
    ],
}


# Its shared G = diag(1e-10, 1) has a diagonal entry far below the default
# tolerance times the largest entry, and is a K-matrix at that tolerance.
SMALL_DIAGONAL_TREE = {
    "T": 1,
    "m": 2,
    "G": {"m": 2, "rows": [[1e-10, 0.0], [0.0, 1.0]]},
    "nodes": [
        {"id": "r", "t": 0, "parent": None, "p": 1.0, "X": [1.0, -1.0]},
        {"id": "a", "t": 1, "parent": "r", "p": 0.5, "X": [0.0, 2.0]},
        {"id": "b", "t": 1, "parent": "r", "p": 0.5, "X": [2.0, 0.0]},
    ],
}

# G is K0' at the default tolerance, and its first diagonal entry is far below
# tol times the largest entry of its row.
NEAR_ZERO_DIAGONAL_TREE = {
    "T": 1,
    "m": 2,
    "G": {"m": 2, "rows": [[1e-13, -1e-3], [0.0, 1.0]]},
    "nodes": [
        {"id": "r", "t": 0, "parent": None, "p": 1.0, "X": [1.0, 0.5]},
        {"id": "a", "t": 1, "parent": "r", "p": 1.0, "X": [2.0, 1.0]},
    ],
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out), err


def check_schema(report):
    name = report["command"]
    ref = resources.files("affinegames") / "schemas" / f"{name}.json"
    schema = json.loads(ref.read_text(encoding="utf-8"))
    jsonschema.validate(report, schema)


class TestEnvelope:
    def test_common_fields_and_defaults(self, capsys):
        report, err = run_json(capsys, "classify", "--input", K2_JSON)
        assert report["command"] == "classify"
        assert report["tolerance"] == 1e-9
        assert report["seed"] is None
        assert "elapsed_ms=" in err
        check_schema(report)

    def test_seed_and_tolerance_echoed(self, capsys):
        report, _ = run_json(
            capsys, "classify", "--input", K2_JSON, "--seed", "5",
            "--tolerance", "1e-7",
        )
        assert report["seed"] == 5
        assert report["tolerance"] == 1e-7

    def test_reruns_are_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "equilibria", "--input", HAND_GAME)
        _, out2, _ = run(capsys, "equilibria", "--input", HAND_GAME)
        assert out1 == out2
        assert out1.endswith("\n")

    def test_output_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, err = run(
            capsys, "classify", "--input", K2_JSON, "--output", str(target)
        )
        assert code == 0 and out == ""
        _, direct, _ = run(capsys, "classify", "--input", K2_JSON)
        assert target.read_text(encoding="utf-8") == direct


class TestExitCodes:
    def test_domain_error_is_one(self, capsys):
        # positive diagonal but neither P nor almost-P: no covered solver
        game = '{"X": [0, 0], "P": [1, 1], "G": {"m": 2, "rows": [[1, 2], [2, 1]]}}'
        code, out, err = run(capsys, "solve", "--input", game)
        assert code == 1
        assert out == "" and err.startswith("error:")
        assert "elapsed_ms=" in err

    @pytest.mark.parametrize("message", ["", "Unable to allocate 8.00 EiB"])
    def test_memory_error_is_one(self, capsys, monkeypatch, message):
        def exhausted(args):
            raise MemoryError(message)

        monkeypatch.setitem(cli._HANDLERS, "equilibria", (exhausted, "out of memory"))
        code, out, err = run(capsys, "equilibria", "--input", "{}")
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 2 and lines[1].startswith("elapsed_ms=")
        assert lines[0] == f"error: out of memory {message}".rstrip()

    def test_malformed_json_is_two(self, capsys):
        code, _, err = run(capsys, "classify", "--input", '{"m": 2')
        assert code == 2
        assert err.startswith("malformed input:")

    def test_too_deeply_nested_json_is_two(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        code, out, err = run(capsys, "tree-solve", "--input", str(path))
        assert code == 2
        assert out == "" and err.startswith("malformed input: not valid JSON")

    def test_deeply_nested_recipe_is_two(self, capsys):
        # json.loads accepts 600 levels, but gen echoes the recipe, and the
        # serialiser recurses once a level
        recipe = '{"kind": "k-matrix", "m": 1, "x": ' + "[" * 600 + "]" * 600 + "}"
        code, out, err = run(capsys, "gen", "--input", recipe)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 2 and lines[0].startswith("malformed input:")
        assert lines[1].startswith("elapsed_ms=")

    def test_missing_file_is_two(self, capsys):
        code, _, err = run(capsys, "classify", "--input", "no/such/file.json")
        assert code == 2

    def test_missing_input_is_two(self, capsys):
        code, _, _ = run(capsys, "classify")
        assert code == 2

    def test_bad_tolerance_is_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as shot:
            main(["classify", "--input", K2_JSON, "--tolerance", "-1"])
        assert shot.value.code == 2

    def test_unknown_command_is_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as shot:
            main(["frobnicate"])
        assert shot.value.code == 2

    def test_no_solution_is_still_success(self, capsys):
        lcp = '{"q": [-1], "M": {"m": 1, "rows": [[-1]]}}'
        report, _ = run_json(capsys, "solve", "--input", lcp)
        assert report["result"]["status"] == "no_solution"
        assert report["result"]["z"] is None
        check_schema(report)

    def test_lemke_ray_past_the_cutoff_is_refused(self, capsys):
        # 13 x 13: a 4 x 4 block that is neither Z nor P, then the identity.
        # Lemke's method ends on a ray; enumeration finds support {2, 3, 4}.
        M = np.eye(13)
        M[:4, :4] = [
            [0.684, 1.004, -0.618, 1.822],
            [-1.32, -0.662, 0.935, 0.049],
            [2.002, 0.189, -0.633, -0.378],
            [-1.091, -1.278, 0.63, 0.581],
        ]
        q = np.array([1.295, -0.755, 1.689, -0.287] + [1.0] * 9)
        problem = LcpProblem(q=q, M=SquareMatrix(M))
        assert solve_lemke(problem) is None
        found = solve_enum(problem)
        assert found is not None and found.support == (1, 2, 3)
        doc = dump_json({"q": q, "M": {"m": 13, "rows": M.tolist()}})
        code, out, err = run(capsys, "solve", "--input", doc)
        assert code == 1 and out == ""
        assert "Lemke's method stopped on a ray without deciding the problem" in err

    def test_lemke_answer_refused_by_the_check_exits_1(self, capsys, monkeypatch):
        # The check is made to refuse every answer: no natural input was found
        # whose pivots end on one it refuses.
        from affinegames import lcp

        real = lcp._judged

        def refuse(q, M, z, tol):
            z, w, ok = real(q, M, z, tol)
            return z, w, np.zeros_like(ok)

        monkeypatch.setattr(lcp, "_judged", refuse)
        M = gen_p_matrix(3, 13)
        q = np.random.default_rng(3).uniform(-5.0, 5.0, 13)
        code, out, err = run(capsys, "solve", "--input", dump_json({"q": q, "M": matrix_json(M)}))
        assert code == 1 and out == ""
        assert "Lemke's method ended on an answer that fails the check" in err

    def test_lemke_solves_a_small_scale_p_matrix_past_the_cutoff(self, capsys):
        # A P-matrix times 1e-12 has a solution for every q; the ratio test's
        # fixed threshold must not read its pivot entries as zero.
        M = gen_p_matrix(1, 13).entries * 1e-12
        q = np.array([(-1) ** i * (i + 1) for i in range(13)], dtype=float)
        doc = dump_json({"q": q, "M": {"m": 13, "rows": M.tolist()}})
        code, out, _ = run(capsys, "solve", "--input", doc)
        assert code == 0
        result = json.loads(out)["result"]
        assert result["status"] == "solved"
        z, w = np.array(result["z"]), np.array(result["w"])
        assert z.min() >= 0.0 and w.min() >= 0.0
        assert np.abs(w - (q + M @ z)).max() <= 1e-9 * np.abs(q).max()
        assert float(z @ w) <= 1e-9 * float(np.abs(z).max())

    def test_bsde_rejects_singular_matrix(self, capsys):
        code, _, err = run(capsys, "bsde", "--input", "paper-counterexample")
        assert code == 1 and err.startswith("error:")

    def test_arithmetic_error_is_one(self, capsys, monkeypatch):
        def ray(tree, tol):
            raise ArithmeticError("complementarity problem ended on a ray")

        monkeypatch.setattr("affinegames.cli.solve_reflected_bsde", ray)
        tree = dump_json(tree_json(gen_tree(2, 2, T=1)))
        code, out, err = run(capsys, "bsde", "--input", tree)
        assert code == 1 and out == ""
        assert err.startswith("error: complementarity problem ended on a ray")

    def test_bsde_checks_its_answer(self, capsys, monkeypatch):
        from affinegames.bsde import solve_reflected_bsde

        def shifted(tree, tol):
            sol = solve_reflected_bsde(tree, tol=tol)
            sol.Z.values[tree.root.id] = sol.Z[tree.root.id] + 1e-3
            return sol

        monkeypatch.setattr("affinegames.cli.solve_reflected_bsde", shifted)
        tree = dump_json(tree_json(gen_tree(2, 2, T=1)))
        code, out, err = run(capsys, "bsde", "--input", tree)
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 2 and lines[1].startswith("elapsed_ms=")
        assert lines[0] == (
            "error: reflected equation fails its check: "
            "backward recursion fails on edge 'r' -> 'r0'; "
            "backward recursion fails on edge 'r' -> 'r1'"
        )


class TestClassify:
    def test_k_matrix(self, capsys):
        report, _ = run_json(capsys, "classify", "--input", K2_JSON)
        res = report["result"]
        assert res["is_K"] and res["is_P"] and res["is_Z"]
        assert res["column_sums_nonneg"]

    def test_alpha_shorthand_expands(self, capsys):
        report, _ = run_json(capsys, "classify", "--input", '{"alpha": [0.5, 0.5]}')
        res = report["result"]
        assert res["is_K0prime"] and not res["is_P"]
        assert report["input"]["rows"][0] == [0.25, -0.25]
        check_schema(report)


class TestSolve:
    def test_game_hand_values(self, capsys):
        report, _ = run_json(capsys, "solve", "--input", HAND_GAME)
        res = report["result"]
        assert res["status"] == "solved"
        assert res["V_star"] == pytest.approx([2.0, 2.0])
        assert res["equilibrium"] == [0, 1]
        check_schema(report)

    def test_lcp_hand_values(self, capsys):
        lcp = '{"q": [-2, 3], "M": {"m": 2, "rows": [[1, -0.5], [-0.5, 1]]}}'
        report, _ = run_json(capsys, "solve", "--input", lcp)
        res = report["result"]
        assert res["status"] == "solved"
        assert res["z"] == pytest.approx([2.0, 0.0])
        assert res["w"] == pytest.approx([0.0, 2.0])
        assert res["support"] == [1]
        check_schema(report)

    def test_unsolvable_certificate(self, capsys):
        game = '{"X": [1, 1], "P": [0, 0], "alpha": [0.5, 0.5]}'
        report, _ = run_json(capsys, "solve", "--input", game)
        res = report["result"]
        assert res["status"] == "unsolvable_certificate"
        assert res["V_star"] == pytest.approx([1.0, 1.0])
        assert res["equilibrium"] == [0, 0]
        assert res["certificate"] == pytest.approx([1.0, 1.0])
        check_schema(report)

    def test_lcp_past_the_enumeration_cutoff_pivots(self, capsys, monkeypatch):
        # 13 players: a raw problem goes to Lemke's method, not to enumeration
        calls = []
        monkeypatch.setattr(
            "affinegames.cli.solve_lemke",
            lambda problem, tol: calls.append(problem.m) or solve_lemke(problem, tol),
        )
        M = gen_p_matrix(3, 13)
        q = np.random.default_rng(3).uniform(-5.0, 5.0, 13)
        doc = dump_json({"q": q, "M": matrix_json(M)})
        report, _ = run_json(capsys, "solve", "--input", doc)
        assert calls == [13]
        res = report["result"]
        assert res["status"] == "solved"
        z, w = np.array(res["z"]), np.array(res["w"])
        assert np.all(z >= 0.0) and np.all(w >= 0.0)
        assert np.allclose(w, q + M.entries @ z, atol=1e-9)
        assert float(z @ w) == pytest.approx(0.0, abs=1e-9)
        assert res["support"] == [i + 1 for i in np.flatnonzero(z > 0.0)]
        expected = solve_enum(LcpProblem(q=q, M=M))
        assert z == pytest.approx(expected.z, abs=1e-9)
        assert w == pytest.approx(expected.w, abs=1e-9)
        check_schema(report)

    def test_frozen_players_rejected(self, capsys):
        game = (
            '{"X": [2, 0], "P": [0, 3], '
            '"G": {"m": 2, "rows": [[1, -0.5], [-0.5, 1]]}, "non_exercising": [1]}'
        )
        code, _, err = run(capsys, "solve", "--input", game)
        assert code == 2


class TestGameReports:
    def test_equilibria_hand_game(self, capsys):
        report, _ = run_json(capsys, "equilibria", "--input", HAND_GAME)
        res = report["result"]
        assert res["nash_profiles"] == [[0, 1]]
        assert res["nash_payoff"] == pytest.approx([2.0, 2.0])
        assert res["optimal_profiles"] == [[0, 1]]
        assert res["value"] == pytest.approx([2.0, 2.0])
        assert res["wuc"] is True
        check_schema(report)

    def test_wuc(self, capsys):
        report, _ = run_json(capsys, "wuc", "--input", HAND_GAME)
        assert report["result"] == {"wuc": True}
        check_schema(report)

    def test_coalition_grand_value(self, capsys):
        report, _ = run_json(
            capsys, "coalition", "--input", "grg-demo", "--coalition", "1,2"
        )
        res = report["result"]
        assert res["coalition"] == [1, 2]
        assert res["value"] == pytest.approx(2.0 + 7.0 / 3.0)
        check_schema(report)

    def test_coalition_flag_required(self, capsys):
        code, _, _ = run(capsys, "coalition", "--input", "grg-demo")
        assert code == 2

    @pytest.mark.parametrize("flag", ["0,1", "3", "a,b", ","])
    def test_coalition_flag_validated(self, capsys, flag):
        code, _, _ = run(
            capsys, "coalition", "--input", "grg-demo", "--coalition", flag
        )
        assert code == 2

    def test_dummy_hand_game(self, capsys):
        report, _ = run_json(capsys, "dummy", "--input", HAND_GAME)
        game = report["result"]["game"]
        assert game["X"] == pytest.approx([-2.0, 2.0, 0.0])
        assert game["P"] == pytest.approx([-3.0, 0.0, 3.0])
        assert game["G"]["rows"][0] == pytest.approx([0.0, -0.5, -0.5])
        assert [r[0] for r in game["G"]["rows"]] == [0.0, 0.0, 0.0]
        assert game["non_exercising"] == [1]
        check_schema(report)

    def test_grg_builtin(self, capsys):
        report, _ = run_json(capsys, "grg")
        res = report["result"]
        assert res["status"] == "solved"
        assert res["V_star"] == pytest.approx([2.0, 7.0 / 3.0])
        assert res["equilibrium"] == [0, 1]
        assert res["det_Dhat"] == pytest.approx(res["det_closed_form"], rel=1e-9)
        assert res["det_closed_form"] == pytest.approx(1.0 / 32.0)
        check_schema(report)

    @pytest.mark.parametrize("instance", ["[0.25, 0.25]", '{"X": [1, 1], "P": [0, 0]}'])
    def test_grg_needs_an_object_with_alpha(self, capsys, instance):
        code, out, err = run(capsys, "grg", "--input", instance)
        assert code == 2 and out == ""
        assert err.startswith("malformed input: grg needs {'X', 'P', 'alpha'}")

    def test_grg_unsolvable(self, capsys):
        instance = '{"X": [1, 1], "P": [0, 0], "alpha": [0.5, 0.5]}'
        report, _ = run_json(capsys, "grg", "--input", instance)
        res = report["result"]
        assert res["status"] == "unsolvable_certificate"
        assert res["certificate"] == pytest.approx([1.0, 1.0])
        check_schema(report)


class TestTreeCommands:
    def test_tree_solve_builtin(self, capsys):
        report, _ = run_json(capsys, "tree-solve", "--input", "paper-counterexample")
        res = report["result"]
        assert res["root_value"] == pytest.approx([-1.0, -1.0, 2.0])
        assert res["U"]["n1"] == pytest.approx([-2.0, -2.0, 4.0])
        assert res["tau_star"] == {
            "1": ["n0", "n1"],
            "2": ["n0", "n1"],
            "3": ["n1"],
        }
        check_schema(report)

    def test_tree_verify_builtin(self, capsys):
        report, _ = run_json(capsys, "tree-verify", "--input", "paper-counterexample")
        res = report["result"]
        assert res["valid"] is True
        assert res["violations"] == []
        assert res["optimal_equilibrium"] is True
        check_schema(report)

    def test_tree_verify_reports_violations(self, capsys):
        bad = {
            "T": 1,
            "m": 1,
            "nodes": [
                {"id": "a", "t": 0, "parent": None, "p": 1.0, "X": [0.0]},
                {"id": "b", "t": 1, "parent": "a", "p": 0.5, "X": [1.0]},
            ],
        }
        report, _ = run_json(capsys, "tree-verify", "--input", json.dumps(bad))
        res = report["result"]
        assert res["valid"] is False
        assert res["optimal_equilibrium"] is None
        assert any("summing to" in v for v in res["violations"])
        check_schema(report)

    def test_missing_matrix_is_a_violation(self, capsys):
        doc = {
            "T": 1,
            "m": 1,
            "nodes": [
                {"id": "a", "t": 0, "parent": None, "p": 1.0, "X": [0.0]},
                {"id": "b", "t": 1, "parent": "a", "p": 1.0, "X": [1.0]},
            ],
        }
        report, _ = run_json(capsys, "tree-verify", "--input", json.dumps(doc))
        assert report["result"] == {
            "valid": False,
            "violations": ["node 'a' has no matrix and no shared default"],
            "optimal_equilibrium": None,
        }
        check_schema(report)
        for command in ("tree-solve", "bsde"):
            code, out, err = run(capsys, command, "--input", json.dumps(doc))
            assert code == 2 and out == ""
            assert "no matrix and no shared default" in err

    def test_zero_diagonal_is_a_violation(self, capsys):
        doc = {
            "T": 1,
            "m": 1,
            "G": {"m": 1, "rows": [[0.0]]},
            "nodes": [
                {"id": "a", "t": 0, "parent": None, "p": 1.0, "X": [0.0]},
                {"id": "b", "t": 1, "parent": "a", "p": 1.0, "X": [1.0]},
            ],
        }
        report, _ = run_json(capsys, "tree-verify", "--input", json.dumps(doc))
        assert report["result"] == {
            "valid": False,
            "violations": ["matrix at '<shared>' has a diagonal entry that is not positive"],
            "optimal_equilibrium": None,
        }
        check_schema(report)
        code, out, err = run(capsys, "tree-solve", "--input", json.dumps(doc))
        assert code == 2 and out == ""
        assert err.startswith("malformed input: invalid tree")

    def test_tree_is_validated_at_the_callers_tolerance(self, capsys):
        # det = -1e-8: singular P0' at tolerance 1e-6, outside P0' at 1e-9.
        doc = json.dumps(NEAR_SINGULAR_TREE)
        loose = ("--input", doc, "--tolerance", "1e-6")
        solved, _ = run_json(capsys, "tree-solve", *loose)
        assert solved["result"]["root_value"] == pytest.approx([1.0, 0.0])
        verified, _ = run_json(capsys, "tree-verify", *loose)
        assert verified["result"]["valid"] is True
        for report in (solved, verified):
            check_schema(report)
        code, _, err = run(capsys, "tree-solve", "--input", doc)
        assert code == 2 and err.startswith("malformed input: invalid tree")
        refused, _ = run_json(capsys, "tree-verify", "--input", doc)
        assert refused["result"]["valid"] is False

    def test_small_positive_diagonal_is_judged_at_the_callers_tolerance(self, capsys):
        # 1e-10 is positive at 1e-12 as at the default tolerance: a diagonal
        # entry is positive when it is above 0, at any tolerance.
        doc = json.dumps(SMALL_DIAGONAL_TREE)
        tight = ("--input", doc, "--tolerance", "1e-12")
        solved, _ = run_json(capsys, "tree-solve", *tight)
        assert solved["result"]["root_value"] == pytest.approx([1.0, 1.0])
        verified, _ = run_json(capsys, "tree-verify", *tight)
        assert verified["result"]["valid"] is True
        assert verified["result"]["optimal_equilibrium"] is True
        for report in (solved, verified):
            check_schema(report)

    def test_small_positive_diagonal_validates_where_solve_does(self, capsys):
        # The tree's root game is solved at the default tolerance; its tree
        # must then validate too, and give the same root value.
        root_game = json.dumps(
            {"X": [1.0, -1.0], "P": [1.0, 1.0], "G": SMALL_DIAGONAL_TREE["G"]}
        )
        solved, _ = run_json(capsys, "solve", "--input", root_game)
        doc = json.dumps(SMALL_DIAGONAL_TREE)
        tree_solved, _ = run_json(capsys, "tree-solve", "--input", doc)
        assert tree_solved["result"]["root_value"] == solved["result"]["V_star"]
        verified, _ = run_json(capsys, "tree-verify", "--input", doc)
        assert verified["result"]["valid"] is True
        assert verified["result"]["optimal_equilibrium"] is True

    def test_near_zero_diagonal_tree_solves_where_solve_does(self, capsys):
        # The one-shot game of the T = 1 tree: its stay-in payoff is the leaf's.
        G = NEAR_ZERO_DIAGONAL_TREE["G"]
        root_game = json.dumps({"X": [1.0, 0.5], "P": [2.0, 1.0], "G": G})
        solved, _ = run_json(capsys, "solve", "--input", root_game)
        assert solved["result"]["V_star"] == [2.0, 1.0]
        doc = json.dumps(NEAR_ZERO_DIAGONAL_TREE)
        tree_solved, _ = run_json(capsys, "tree-solve", "--input", doc)
        assert tree_solved["result"]["root_value"] == solved["result"]["V_star"]
        verified, _ = run_json(capsys, "tree-verify", "--input", doc)
        assert verified["result"]["valid"] is True
        assert verified["result"]["optimal_equilibrium"] is True
        for report in (solved, tree_solved, verified):
            check_schema(report)

    def test_near_zero_diagonal_is_positive_to_classify(self, capsys):
        G = json.dumps(NEAR_ZERO_DIAGONAL_TREE["G"])
        classified, _ = run_json(capsys, "classify", "--input", G)
        assert classified["result"]["has_positive_diagonal"] is True
        assert classified["result"]["is_K0prime"] is True
        check_schema(classified)

    def test_naive_counterexample_builtin(self, capsys):
        report, _ = run_json(capsys, "naive-counterexample")
        res = report["result"]
        assert res["nash_profile_count"] == 4
        assert res["nash_payoff_count"] == 2
        assert res["optimal_profile_count"] == 0
        assert res["optimal_equilibrium_exists"] is False
        payoffs = sorted(tuple(np.round(v, 9)) for v in res["nash_payoffs"])
        assert payoffs == [(-1.0, 0.5, 0.5), (0.5, -1.0, 0.5)]
        check_schema(report)

    def test_bsde_on_generated_tree(self, capsys, tmp_path):
        tree = gen_tree(2, 2, T=2)
        path = tmp_path / "tree.json"
        path.write_text(dump_json(tree_json(tree)), encoding="utf-8")
        report, _ = run_json(capsys, "bsde", "--input", str(path))
        res = report["result"]
        root = tree.root.id
        assert res["K"][root] == pytest.approx([0.0, 0.0])
        assert res["J"][root] == pytest.approx([0.0, 0.0])
        for n in tree.nodes:
            if tree.is_leaf(n):
                assert res["Z"][n.id] == pytest.approx(list(n.X))
        check_schema(report)


class TestGen:
    def test_matrix_recipe_deterministic(self, capsys):
        argv = ("gen", "--input", '{"kind": "k-matrix", "m": 3}', "--seed", "7")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2
        report = json.loads(out1)
        assert report["result"]["matrix"]["m"] == 3
        check_schema(report)

    def test_p_matrix_recipe(self, capsys):
        report, _ = run_json(
            capsys, "gen", "--input", '{"kind": "p-matrix", "m": 3}', "--seed", "7"
        )
        made = json.loads(dump_json(matrix_json(gen_p_matrix(7, 3))))
        assert report["result"]["matrix"] == made
        check_schema(report)

    def test_game_recipe(self, capsys):
        report, _ = run_json(
            capsys, "gen", "--input", '{"kind": "p-game", "m": 4}', "--seed", "3"
        )
        game = report["result"]["game"]
        assert len(game["X"]) == 4 and len(game["P"]) == 4
        check_schema(report)

    def test_tree_recipe_roundtrips(self, capsys):
        report, _ = run_json(
            capsys,
            "gen",
            "--input",
            '{"kind": "k-tree", "m": 2, "T": 2, "branching": 2}',
            "--seed",
            "1",
        )
        tree = parse_tree(report["result"]["tree"])
        assert validate_tree(tree) == []
        assert tree.T == 2 and tree.m == 2
        check_schema(report)

    def test_wide_tree_has_distinct_ids_and_solves(self, capsys, tmp_path):
        report, _ = run_json(
            capsys, "gen", "--input", '{"kind": "k-tree", "m": 2, "T": 2, "branching": 11}'
        )
        doc = report["result"]["tree"]
        ids = [n["id"] for n in doc["nodes"]]
        assert len(ids) == len(set(ids)) == 1 + 11 + 121
        assert {"r00", "r10", "r0010", "r1000"} <= set(ids)
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        solved, _ = run_json(capsys, "tree-solve", "--input", str(path))
        assert len(solved["result"]["U"]) == len(ids)

    def test_narrow_tree_ids_are_unpadded(self):
        ids = [n.id for n in gen_tree(0, 2, T=2, branching=10).nodes]
        assert ids[:3] == ["r", "r0", "r1"] and ids[-1] == "r99"

    @pytest.mark.parametrize(
        "recipe",
        [
            '{"kind": "mystery", "m": 2}',
            '{"kind": "k-matrix"}',
            '{"kind": "k-matrix", "m": 0}',
            '{"kind": "k-tree", "m": 2, "T": -1}',
            '{"kind": "k-tree", "m": 2, "branching": 0}',
            '{"m": 2}',
        ],
    )
    def test_bad_recipes(self, capsys, recipe):
        code, _, _ = run(capsys, "gen", "--input", recipe)
        assert code == 2


class TestGenSizeGuard:
    """gen refuses a recipe whose floats pass GEN_MAX_FLOATS before it builds
    anything; the guard is tested, not a huge instance."""

    @pytest.fixture
    def nothing_built(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("an oversized recipe reached a generator")

        for name in ("gen_k_matrix", "gen_p_matrix", "gen_game", "gen_tree"):
            monkeypatch.setattr(cli, name, boom)

    @pytest.mark.parametrize(
        "recipe, floats",
        [
            # 2^61 - 1 nodes; counting stops at the first level past the cap
            ('{"kind": "k-tree", "m": 2, "T": 60, "branching": 2}', 4 + 2 * (2**19 - 1)),
            ('{"kind": "k-tree", "m": 1, "T": 1000000000000, "branching": 1}', 2**20 + 1),
            ('{"kind": "k-matrix", "m": 100000}', 10**10),
            ('{"kind": "p-matrix", "m": 1025}', 1025**2),
            ('{"kind": "p-game", "m": 1024}', 1024**2 + 2048),
        ],
    )
    def test_refused_before_allocation(self, capsys, nothing_built, recipe, floats):
        code, out, err = run(capsys, "gen", "--input", recipe)
        assert code == 2 and out == ""
        assert f"at least {floats} floats; the cap is {cli.GEN_MAX_FLOATS}" in err

    def test_count_at_the_cap(self, capsys, monkeypatch):
        # m = 2, T = 2, branching 2: 4 matrix entries and 7 nodes of 2 payoffs
        recipe = '{"kind": "k-tree", "m": 2, "T": 2, "branching": 2}'
        assert cli._recipe_floats("k-tree", 2, 2, 2) == 18
        assert cli._recipe_floats("k-matrix", 1024, 2, 2) == cli.GEN_MAX_FLOATS
        assert cli._recipe_floats("k-game", 3, 0, 1) == 15
        monkeypatch.setattr(cli, "GEN_MAX_FLOATS", 18)
        assert run(capsys, "gen", "--input", recipe)[0] == 0
        monkeypatch.setattr(cli, "GEN_MAX_FLOATS", 17)
        code, _, err = run(capsys, "gen", "--input", recipe)
        assert code == 2 and "at least 18 floats; the cap is 17" in err


class TestFixedLimits:
    """Enumeration limits are constants: no flag moves them."""

    @pytest.mark.parametrize("command", sorted(_HANDLERS))
    def test_cap_flag_is_rejected(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--input", HAND_GAME, "--cap", "40"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --cap 40" in captured.err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("wuc",), "competitiveness check enumerates 2^13 profiles; cap is 12"),
            (
                ("coalition", "--coalition", "1"),
                "coalition value enumerates 2^13 profiles; cap is 12",
            ),
        ],
    )
    def test_brute_force_cap(self, capsys, argv, message):
        doc = dump_json(game_json(gen_game(0, 13)))
        code, out, err = run(capsys, *argv, "--input", doc)
        assert code == 1 and out == ""
        assert err.splitlines()[0] == f"error: {message}"

    def test_classification_sweep_cap(self, capsys):
        doc = dump_json(matrix_json(gen_p_matrix(0, 17)))
        code, out, err = run(capsys, "classify", "--input", doc)
        assert code == 1 and out == ""
        assert err.splitlines()[0] == "error: classification sweeps 2^17 minors; cap is 16"
