import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import illoc
import illoc.cli
import illoc.matrix_mb
from illoc.boolalg import AlgebraMismatch, AlgebraSpec
from illoc.cli import main
from illoc.hyper import HyperValue, StandardInput, hyper_to_json, standard
from illoc.matrix_m import MissingAtom
from illoc.matrix_mb import (
    MBMode, MBValuation, MissingAssignment, NotCyclic, StandardAssignment, default_signatures,
    unfold_cyclic, valuation_from_json,
)
from illoc.search import DEFAULT_BUDGET
from illoc.syntax import (
    ActRef, And, Atom, CyclicAct, Force, Implies, Not, Or, UnknownActRef, format_formula, parse,
)
from m_oracle import oracle_assignments, oracle_entails, oracle_eval, oracle_tautology
import mb_oracle
from test_cli_surface import ARGS
from test_matrix_m import formulas

CYCLIC = "act x = [promise](~x);\n"
DEEP_PARENTHESES = "(" * 300 + "p" + ")" * 300
DEEP_FORCES = "[f](" * 300 + "p" + ")" * 300
DEEP_NEGATIONS = "~" * 300 + "p"
# deeper than the recursion limit lets the printer or the lowering go
TOO_DEEP_FORCES = "[f](" * 3000 + "p" + ")" * 3000
TOO_DEEP_NEGATIONS = "~" * 3000 + "p"
THINK_P = "act x = [think](p);\n"


@pytest.fixture
def cyclic_defs(tmp_path):
    path = tmp_path / "cyclic.illoc"
    path.write_text(CYCLIC, encoding="utf-8")
    return str(path)


@pytest.fixture
def think_defs(tmp_path):
    path = tmp_path / "think.illoc"
    path.write_text(THINK_P, encoding="utf-8")
    return str(path)


@pytest.fixture
def mb_valuation(tmp_path):
    path = tmp_path / "v.json"
    path.write_text(
        json.dumps(
            {
                "algebra": {"atoms": ["a", "b"]},
                "mode": "free",
                "atom_values": {"p": ["a"]},
                "act_values": {"[f](p)": {"on_true": ["b"], "on_false": ["a", "b"]}},
            }
        ),
        encoding="utf-8",
    )
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_matrix_m_successful_performance(self, capsys):
        code, out, _ = run(capsys, "eval", "--matrix", "m", "--assign", "p=1", "[think](p)")
        assert code == 0
        assert out.strip() == "1/2 successful-performance"

    def test_matrix_m_json(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--matrix", "m", "--assign", "p=0",
            "--output", "json", "[think](p)",
        )
        assert code == 0
        data = json.loads(out)
        assert data["value"] == "-1/2"
        assert data["classification"] == "unsuccessful-performance"

    def test_matrix_mb_detachment_instance(self, capsys, mb_valuation):
        code, out, _ = run(
            capsys, "eval", "--matrix", "mb", "--valuation", mb_valuation, "[f](p) -> p"
        )
        assert code == 0
        assert out.strip() == "*1 admissible"

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "eval", "--matrix", "m", "[think](p")
        assert code == 2
        assert "parse error" in err and ":" in err

    def test_semantic_error_exit_code(self, capsys):
        code, _, err = run(capsys, "eval", "--matrix", "m", "[think](p)")
        assert code == 3  # missing atom assignment

    def test_missing_atom_is_named_as_an_atom(self, capsys):
        code, out, err = run(capsys, "eval", "--matrix", "m", "--assign", "p=1", "p & q")
        assert (code, out, err) == (3, "", "error: no value for atom 'q'\n")

    def test_cyclic_act_is_semantic_error(self, capsys, cyclic_defs):
        code, _, err = run(
            capsys, "eval", "--matrix", "mb", "--defs", cyclic_defs, "x"
        )
        assert code == 3
        assert err == "error: act 'x' is cyclic: its definition refers back to it\n"


class TestDefinitionBinding:
    """A formula argument reads the --defs file's acts and may define its own."""

    def test_defs_file_act_is_not_an_atom(self, capsys, think_defs):
        code, out, err = run(capsys, "taut", "--matrix", "m", "--defs", think_defs, "x -> p")
        assert (code, out, err) == (0, "tautology\n", "")

    def test_inline_definitions_are_kept(self, capsys):
        code, out, err = run(capsys, "taut", "--matrix", "m", "act x = [think](p); x -> p")
        assert (code, out, err) == (0, "tautology\n", "")

    def test_inline_definitions_join_the_file(self, capsys, think_defs):
        code, out, _ = run(
            capsys, "taut", "--matrix", "m", "--defs", think_defs, "act y = ~x; y -> ~p",
        )
        assert (code, out) == (0, "tautology\n")

    def test_eval_reads_the_defs_file(self, capsys, think_defs):
        code, out, err = run(
            capsys, "eval", "--matrix", "m", "--defs", think_defs, "--assign", "p=1", "x"
        )
        assert (code, out, err) == (0, "1/2 successful-performance\n", "")

    def test_table_reads_the_defs_file(self, capsys, think_defs):
        code, out, _ = run(capsys, "table", "--matrix", "m", "--defs", think_defs, "x")
        assert code == 0
        assert out.splitlines() == [
            "p=0  -1/2  unsuccessful-performance",
            "p=1  1/2  successful-performance",
        ]

    def test_entail_sides_read_the_defs_file(self, capsys, think_defs):
        code, out, _ = run(capsys, "entail", "--matrix", "m", "--defs", think_defs, "x", "p")
        assert (code, out) == (0, "entails\n")

    def test_entail_side_may_define_an_act(self, capsys):
        code, out, _ = run(capsys, "entail", "--matrix", "m", "act y = [think](p); y", "p")
        assert (code, out) == (0, "entails\n")

    def test_fmt_reads_the_defs_file(self, capsys, think_defs):
        code, out, err = run(capsys, "fmt", "--output", "json", "--defs", think_defs, "x")
        assert (code, err) == (0, "")
        assert json.loads(out) == {"definitions": {"x": "[think](p)"}, "formula": "x",
                                   "ast": {"kind": "actref", "name": "x"}}
        code, out, _ = run(capsys, "fmt", "--defs", think_defs, "x & q")
        assert (code, out) == (0, "act x = [think](p);\nx & q\n")

    def test_redefining_a_file_act_is_a_duplicate(self, capsys, think_defs):
        code, out, err = run(
            capsys, "taut", "--matrix", "m", "--defs", think_defs, "act x = p; x",
        )
        assert (code, out) == (2, "")
        assert err == "parse error: duplicate act definition 'x' at 1:5\n"


class TestTaut:
    def test_detachment_tautology(self, capsys):
        code, out, _ = run(capsys, "taut", "--matrix", "m", "[think](p) -> p")
        assert code == 0
        assert out.strip() == "tautology"

    def test_warped_modus_ponens_refuted(self, capsys):
        code, out, _ = run(
            capsys, "taut", "--matrix", "m", "--output", "json",
            "([think](p) & [think](p -> q)) -> [think](q)",
        )
        assert code == 1
        data = json.loads(out)
        assert data["status"] == "refuted"
        assert data["witness"] == {"atom_values": {"p": 0, "q": 0}}
        assert data["value"] == "0"

    def test_mb_detachment_all_modes(self, capsys):
        for mode in ("free", "pointwise", "connective"):
            code, out, _ = run(
                capsys, "taut", "--matrix", "mb", "--mode", mode, "[f](p) -> p"
            )
            assert code == 0, mode

    def test_mb_and_split_free_refuted_with_witness(self, capsys):
        code, out, _ = run(
            capsys, "taut", "--matrix", "mb", "--mode", "free", "--output", "json",
            "[f](p & q) -> ([f](p) & [f](q))",
        )
        assert code == 1
        data = json.loads(out)
        assert data["status"] == "refuted"
        assert set(data["witness"]["act_values"]) == {"[f](p & q)", "[f](p)", "[f](q)"}

    def test_budget_exit_code(self, capsys):
        code, _, err = run(
            capsys, "taut", "--matrix", "mb", "--mode", "free", "--budget", "5",
            "[f](p & q) -> ([f](p) & [f](q))",
        )
        assert code == 4
        assert "budget" in err

    def test_budget_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("ILLOC_BUDGET", "5")
        code, _, _ = run(
            capsys, "taut", "--matrix", "mb", "--mode", "free",
            "[f](p & q) -> ([f](p) & [f](q))",
        )
        assert code == 4

    def test_negative_budget_env_is_a_semantic_error(self, capsys, monkeypatch):
        monkeypatch.setenv("ILLOC_BUDGET", "-1")
        code, out, err = run(capsys, "taut", "--matrix", "m", "p")
        assert code == 3 and not out and "ILLOC_BUDGET" in err

    def test_matrix_m_budget_exit_code(self, capsys):
        code, out, err = run(capsys, "taut", "--matrix", "m", "--budget", "3", "p | q | r")
        assert code == 4 and not out
        assert "budget" in err

    def test_over_budget_space_refused_before_any_domain_is_built(self, capsys, monkeypatch):
        def unreachable(spec):
            raise AssertionError("a nonstandard domain was built before the budget check")

        monkeypatch.setattr(illoc.matrix_mb, "_nonstandard_codes", unreachable)
        algebra = ",".join(f"a{i}" for i in range(12))
        code, _, err = run(
            capsys, "taut", "--matrix", "mb", "--algebra", algebra, "--budget", "10",
            "[f](p) -> p",
        )
        assert code == 4
        assert "budget" in err

    def test_quantified_square_honours_the_budget(self, capsys, monkeypatch):
        def unreachable(spec):
            raise AssertionError("the generators were listed before the budget check")

        monkeypatch.setattr(illoc.matrix_mb, "_nonstandard_codes", unreachable)
        code, out, err = run(
            capsys, "square", "--matrix", "mb", "--algebra", "a,b,c,d,e", "--budget", "10",
            "--output", "json",
        )
        assert code == 4 and not out
        assert "budget" in err

    def test_jobs_give_identical_output(self, capsys):
        results = []
        for jobs in ("1", "8"):
            code, out, _ = run(
                capsys, "taut", "--matrix", "mb", "--mode", "free", "--output", "json",
                "--jobs", jobs, "[f](p & q) -> ([f](p) & [f](q))",
            )
            results.append((code, out))
        assert results[0] == results[1]


class TestCheckMatrix:
    def test_six_pass_one_fail(self, capsys):
        code, out, _ = run(capsys, "check-matrix")
        lines = out.strip().splitlines()
        assert len(lines) == 7
        assert sum(line.startswith("PASS") for line in lines) == 6
        assert any(
            line.startswith("FAIL imp-superdistributes (15/16") for line in lines
        )
        assert code == 1

    def test_json_reports_the_violation(self, capsys):
        code, out, _ = run(capsys, "check-matrix", "--output", "json")
        data = json.loads(out)
        by_id = {p["id"]: p for p in data["properties"]}
        assert by_id["imp-superdistributes"]["violations"] == [["1/2", "0"]]
        assert not data["all_hold"]


class TestSquare:
    def test_matrix_m_square_holds(self, capsys):
        code, out, _ = run(capsys, "square", "--matrix", "m")
        assert code == 0
        assert "square holds: yes" in out
        assert "✓" in out

    def test_mb_generator_square(self, capsys):
        code, out, _ = run(
            capsys, "square", "--matrix", "mb", "--force", "f",
            "--gen", "on_true=a;on_false=",
        )
        assert code == 0
        assert "square holds: yes" in out

    def test_gen_implies_nonstandard_matrix(self, capsys):
        code, out, _ = run(capsys, "square", "--gen", "on_true=a;on_false=")
        assert code == 0
        assert "square holds: yes" in out

    def test_mb_failing_generator(self, capsys):
        code, out, _ = run(
            capsys, "square", "--matrix", "mb", "--gen", "on_true=a,b;on_false=b",
        )
        assert code == 1
        assert "square holds: no" in out
        assert "✗" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "square", "--matrix", "mb", "--gen", "on_true=a;on_false=",
            "--output", "json",
        )
        data = json.loads(out)
        assert data["square_holds"] is True
        assert set(data["relations"]) == {
            "contrary", "contradictory", "subcontrary", "subaltern_left", "subaltern_right",
        }


class TestEntail:
    def test_holds(self, capsys):
        code, out, _ = run(capsys, "entail", "--matrix", "m", "[think](p)", "p")
        assert code == 0
        assert out.strip() == "entails"

    def test_fails_with_witness(self, capsys):
        code, out, _ = run(
            capsys, "entail", "--matrix", "m", "--output", "json", "p", "[think](p)"
        )
        assert code == 1
        data = json.loads(out)
        assert data["holds"] is False
        assert data["witness"]["atom_values"] == {"p": 0}


class TestUnfold:
    def test_seeds_diverge_at_depth_four(self, capsys, cyclic_defs):
        outputs = []
        for seed in ("standard:0", "standard:1"):
            code, out, _ = run(
                capsys, "unfold", "--matrix", "mb", "--defs", cyclic_defs,
                "--act", "x", "--steps", "4", "--seed", seed,
            )
            assert code == 0
            outputs.append(out.strip())
        assert outputs[0] != outputs[1]

    def test_not_cyclic_is_semantic_error(self, capsys, tmp_path):
        path = tmp_path / "plain.illoc"
        path.write_text("act x = [promise](p);\n", encoding="utf-8")
        code, _, err = run(
            capsys, "unfold", "--defs", str(path), "--act", "x",
            "--steps", "2", "--seed", "standard:0",
        )
        assert code == 3
        assert err == "error: act 'x' is in no cycle of definitions\n"

    def test_undefined_act_is_named(self, capsys, cyclic_defs):
        code, out, err = run(
            capsys, "unfold", "--defs", cyclic_defs, "--act", "nosuch",
            "--steps", "2", "--seed", "standard:0",
        )
        assert (code, out, err) == (3, "", "error: no definition for act 'nosuch'\n")

    def test_json_output(self, capsys, cyclic_defs):
        code, out, _ = run(
            capsys, "unfold", "--defs", cyclic_defs, "--act", "x",
            "--steps", "0", "--seed", "standard:1", "--output", "json",
        )
        data = json.loads(out)
        assert data["value"] == {"standard": ["a", "b"]}

    def test_a_seed_may_name_an_element(self, capsys, cyclic_defs):
        code, out, _ = run(
            capsys, "unfold", "--defs", cyclic_defs, "--act", "x",
            "--steps", "1", "--seed", "standard:a", "--output", "json",
        )
        seed = standard(AlgebraSpec(("a", "b")).element(["a"]))
        expected = unfold_cyclic(parse(CYCLIC).definitions, "x", 1, seed)
        assert code == 0
        assert json.loads(out)["seed"] == hyper_to_json(seed) == {"standard": ["a"]}
        assert json.loads(out)["value"] == hyper_to_json(expected)

    def test_a_valuation_file_gives_the_algebra_and_the_signatures(self, capsys, cyclic_defs,
                                                                   tmp_path):
        data = {"algebra": {"atoms": ["a"]},
                "signatures": {"promise": {"on_true": [], "on_false": ["a"]}}}
        path = tmp_path / "v.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run(
            capsys, "unfold", "--defs", cyclic_defs, "--act", "x",
            "--steps", "1", "--seed", "standard:1", "--valuation", str(path),
        )
        defs, seed = parse(CYCLIC).definitions, standard(AlgebraSpec(("a",)).top())
        expected = unfold_cyclic(defs, "x", 1, seed, valuation=valuation_from_json(data))
        assert (code, out, err) == (0, f"{expected}\n", "")
        assert expected != unfold_cyclic(defs, "x", 1, seed)  # the file's signature counts


class TestFmt:
    def test_canonicalizes(self, capsys):
        code, out, _ = run(capsys, "fmt", "((p)) & (q | r)")
        assert code == 0
        assert out.strip() == "p & (q | r)"

    def test_formats_programs(self, capsys, cyclic_defs):
        code, out, _ = run(capsys, "fmt", "--defs", cyclic_defs)
        assert code == 0
        assert out.strip() == "act x = [promise](~x);"

    def test_json_exposes_ast(self, capsys):
        code, out, _ = run(capsys, "fmt", "--output", "json", "[promise](p) -> p")
        data = json.loads(out)
        assert data["ast"]["kind"] == "implies"
        assert data["ast"]["left"] == {
            "kind": "force",
            "force": "promise",
            "content": {"kind": "atom", "name": "p"},
        }

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "fmt", "p ->")
        assert code == 2


class TestTable:
    def test_matrix_m_rows(self, capsys):
        code, out, _ = run(capsys, "table", "--matrix", "m", "[think](p)")
        lines = out.strip().splitlines()
        assert lines == [
            "p=0  -1/2  unsuccessful-performance",
            "p=1  1/2  successful-performance",
        ]

    def test_matrix_mb_counts_admissible_rows(self, capsys):
        code, out, _ = run(
            capsys, "table", "--matrix", "mb", "--mode", "pointwise",
            "--output", "json", "[f](p) -> p",
        )
        data = json.loads(out)
        # four atom values times twelve generators, all admissible here
        assert len(data["rows"]) == 4 * 12
        code, out, _ = run(
            capsys, "table", "--matrix", "mb", "--mode", "pointwise",
            "--output", "json", "[f](p)",
        )
        data = json.loads(out)
        # the atom only occurs inside the act content, so it needs no slot
        assert len(data["rows"]) == 12

    @pytest.mark.parametrize("all_valuations", [False, True])
    def test_matrix_mb_lists_inadmissible_rows_only_when_asked(self, all_valuations):
        formula, atoms = Force("f", Force("g", Atom("p"))), ("a",)
        slots = mb_oracle.oracle_slots(formula, atoms, "pointwise")
        code, payload = _json_call("table", *_mb_options(atoms, "pointwise", all_valuations),
                                   "[f]([g](p))")
        expected = []
        for index in range(_space(slots)):
            subvalues = []
            value = mb_oracle.oracle_eval(formula, atoms, "pointwise",
                                          _assignment(slots, index), subvalues)
            admissible = not any(map(mb_oracle.is_const, subvalues))
            if admissible or all_valuations:
                expected.append((index, value, admissible))
        rows = [(_index_of(slots, atoms, row["valuation"]), _table(atoms, row["value"]),
                 row["admissible"]) for row in payload["rows"]]
        assert code == 0
        assert rows == expected
        assert len(rows) == (4 if all_valuations else 2)

    def test_matrix_mb_lists_slots_in_scan_order(self, capsys):
        code, out, _ = run(capsys, "table", "--matrix", "mb", "--algebra", "a", "[f](p) -> p")
        assert out.splitlines()[:2] == ["p={} [f]@p=<{},{a}>  *1", "p={} [f]@p=<{a},{}>  *1"]


class TestBadInput:
    @pytest.mark.parametrize(
        "option,value", [("--jobs", "0"), ("--jobs", "-3"), ("--budget", "-1")]
    )
    def test_out_of_range_options_exit_2(self, capsys, option, value):
        with pytest.raises(SystemExit) as exit_:
            main(["taut", "--matrix", "m", option, value, "p"])
        assert exit_.value.code == 2
        assert "must be at least" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,option",
        [(["taut", "--budget", "x", "p"], "--budget"),
         (["unfold", "--act", "x", "--steps", "x", "--seed", "standard:0"], "--steps")],
        ids=["budget", "steps"],
    )
    def test_a_count_that_is_no_integer_exits_2(self, capsys, argv, option):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        captured = capsys.readouterr()
        assert (exit_.value.code, captured.out) == (2, "")
        assert captured.err.startswith(f"usage: illoc {argv[0]} ")
        assert captured.err.endswith(f"error: argument {option}: expected an integer, got 'x'\n")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["eval"], "no formula given"),
            (["table"], "no formula given"),
            (["taut"], "no formula given"),
            (["taut", "act x = p;"], "empty formula"),
            (["taut", "# only a comment"], "empty formula"),
            (["entail", "act x = p;", "q"], "both sides must be formulas"),
            (["fmt"], "nothing to format"),
            (["eval", "--assign", "p=2", "p"], "--assign expects name=0 or name=1, got 'p=2'"),
            (["square", "--gen", "bogus"], 'generators look like "on_true=a,b;on_false=b"'),
        ],
        ids=["eval-no-formula", "table-no-formula", "taut-no-formula", "taut-only-a-definition",
             "taut-only-a-comment", "entail-definition-side", "fmt-nothing", "eval-assign-2",
             "square-bad-gen"],
    )
    def test_input_the_command_cannot_use_exits_3(self, capsys, argv, message):
        assert run(capsys, *argv) == (3, "", f"error: {message}\n")

    def test_a_valuation_file_must_hold_an_object(self, capsys, tmp_path):
        path = tmp_path / "v.json"
        path.write_text("[]", encoding="utf-8")
        assert run(capsys, "eval", "--matrix", "mb", "--valuation", str(path), "p") == (
            3, "", f"error: {path}: a valuation must be a JSON object\n")

    def test_a_budget_variable_that_is_no_integer_exits_3(self, capsys, monkeypatch):
        monkeypatch.setenv("ILLOC_BUDGET", "abc")
        assert run(capsys, "taut", "p") == (
            3, "", "error: ILLOC_BUDGET: expected an integer, got 'abc'\n")

    @pytest.mark.parametrize("seed", ["nonsense", "on_true=a", "standard"])
    def test_a_bad_seed_names_the_seed_forms(self, capsys, cyclic_defs, seed):
        assert run(capsys, "unfold", "--defs", cyclic_defs, "--act", "x", "--steps", "1",
                   "--seed", seed) == (
            3, "", 'error: seeds look like "standard:0", "standard:1", "standard:<atoms>" '
                   'or "on_true=a,b;on_false=b"\n')

    @pytest.mark.parametrize(
        "option,value",
        [("--atom", ""), ("--atom", "P"), ("--atom", "p q"), ("--force", "F"),
         ("--force", "think]"), ("--force", "")],
    )
    @pytest.mark.parametrize("matrix", ["m", "mb"])
    def test_square_takes_only_names_of_the_language(self, capsys, option, value, matrix):
        with pytest.raises(SystemExit) as exit_:
            main(["square", "--matrix", matrix, f"{option}={value}"])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {option}: expected a name" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [["fmt", TOO_DEEP_NEGATIONS], ["taut", "--matrix", "m", TOO_DEEP_FORCES]],
        ids=["fmt-negations", "taut-forces"],
    )
    def test_deep_nesting_is_refused_without_a_traceback(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err == "error: formula nests too deeply\n"

    @pytest.mark.parametrize(
        "argv,exit_code,first_line",
        [
            (["fmt", DEEP_NEGATIONS], 0, DEEP_NEGATIONS),
            (["taut", "--matrix", "m", DEEP_NEGATIONS], 1, "refuted at p=0 with value 0"),
            (["taut", "--matrix", "mb", "--algebra", "a", DEEP_NEGATIONS], 1,
             "refuted with value *0"),
            (["eval", "--matrix", "m", "--assign", "p=1", DEEP_NEGATIONS], 0, "1 true-sentence"),
            (["table", "--matrix", "m", DEEP_NEGATIONS], 0, "p=0  0  false-sentence"),
            (["fmt", DEEP_PARENTHESES], 0, "p"),
            (["taut", "--matrix", "m", DEEP_FORCES], 1, "refuted at p=0 with value -1/2"),
            (["taut", "--matrix", "mb", "--algebra", "a", DEEP_FORCES], 1,
             "refuted with value <{},{a}>"),
        ],
        ids=["fmt", "taut-m", "taut-mb", "eval-m", "table-m", "fmt-parentheses",
             "taut-forces", "taut-mb-forces"],
    )
    def test_deep_negation_is_answered(self, capsys, argv, exit_code, first_line):
        code, out, err = run(capsys, *argv)
        assert (code, out.splitlines()[0], err) == (exit_code, first_line, "")

    @pytest.mark.parametrize(
        "content",
        [[1, 2], {"atom_values": {"p": 7}}, {"atom_values": {"p": [["a"]]}},
         {"atom_values": [1]}, {"generators": {"f": 3}}, "p"],
        ids=["list", "element-int", "element-nested", "atom-values-list", "generators-int",
             "string"],
    )
    def test_malformed_valuation_file_is_a_semantic_error(self, capsys, tmp_path, content):
        path = tmp_path / "v.json"
        path.write_text(json.dumps(content), encoding="utf-8")
        code, out, err = run(
            capsys, "eval", "--matrix", "mb", "--algebra", "a", "--valuation", str(path), "p"
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("error", [
        MissingAtom("p"), MissingAssignment("no value for atom 'p'"),
        StandardAssignment("act '[f](p)' must be nonstandard"), CyclicAct("x"),
        UnknownActRef("y"), AlgebraMismatch("algebra mismatch"), StandardInput("standard"),
        NotCyclic("x"),
    ], ids=lambda error: type(error).__name__)
    def test_package_errors_are_semantic_errors(self, capsys, monkeypatch, error):
        def raises(args):
            raise error

        monkeypatch.setattr(illoc.cli, "_cmd_fmt", raises)
        code, out, err = run(capsys, "fmt", "p")
        assert (code, out, err) == (3, "", f"error: {error}\n")

    def test_uncaught_exception_is_an_internal_error(self, capsys, monkeypatch):
        def broken(args):
            raise KeyError("slot")

        monkeypatch.setattr(illoc.cli, "_cmd_fmt", broken)
        code, out, err = run(capsys, "fmt", "p")
        assert code == 70
        assert out == ""
        assert err == "internal error: KeyError: 'slot'\n"


class TestDispatch:
    @pytest.mark.parametrize("command", ARGS)
    def test_the_handler_is_looked_up_when_called(self, capsys, monkeypatch, command):
        seen = []

        def handler(args):
            seen.append(args.command)
            return 42

        monkeypatch.setattr(illoc.cli, "_cmd_" + command.replace("-", "_"), handler)
        assert run(capsys, command, *ARGS[command]) == (42, "", "")
        assert seen == [command]

    def test_every_command_has_a_handler(self):
        handlers = {name for name in vars(illoc.cli) if name.startswith("_cmd_")}
        assert set(ARGS) == set(illoc.cli._COMMANDS)
        assert handlers == {"_cmd_" + name.replace("-", "_") for name in illoc.cli._COMMANDS}
        assert all(callable(getattr(illoc.cli, name)) for name in handlers)

    def test_calls_share_no_parsed_state(self, monkeypatch):
        budgets = []

        def handler(args):
            budgets.append(illoc.cli._budget(args))
            return 0

        monkeypatch.setattr(illoc.cli, "_cmd_taut", handler)
        monkeypatch.delenv("ILLOC_BUDGET", raising=False)
        main(["taut", "--budget", "5", "p"])
        main(["taut", "p"])
        monkeypatch.setenv("ILLOC_BUDGET", "7")
        main(["taut", "p"])
        assert budgets == [5, DEFAULT_BUDGET, 7]

    def test_a_call_adds_only_its_own_commands_arguments(self, capsys, monkeypatch):
        def unreachable(sub):
            raise AssertionError("fmt takes none of the common options")

        monkeypatch.setattr(illoc.cli, "_add_common", unreachable)
        assert run(capsys, "fmt", "p & q") == (0, "p & q\n", "")

    @pytest.fixture
    def inits(self, monkeypatch):
        """How many times `ArgumentParser.__init__` ran, as a one-item list."""
        count = [0]
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            count[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        return count

    def test_the_top_level_parser_builds_no_command(self, inits):
        illoc.cli.build_parser()
        assert inits == [1]

    @pytest.mark.parametrize("command", ARGS)
    def test_a_call_builds_only_its_own_commands_parser(self, capsys, monkeypatch, inits,
                                                        command):
        monkeypatch.setattr(illoc.cli, "_cmd_" + command.replace("-", "_"), lambda args: 0)
        assert run(capsys, command, *ARGS[command]) == (0, "", "")
        assert inits == [2]

    @pytest.mark.parametrize("command", ARGS)
    def test_a_commands_help_builds_only_its_own_parser(self, capsys, inits, command):
        with pytest.raises(SystemExit):
            main([command, "-h"])
        assert capsys.readouterr().out.startswith(f"usage: illoc {command} ")
        assert inits == [2]

    @pytest.mark.parametrize("argv", [[], ["-h"], ["frob"]], ids=["none", "help", "unknown"])
    def test_a_call_without_a_command_builds_no_command(self, capsys, inits, argv):
        with pytest.raises(SystemExit):
            main(argv)
        capsys.readouterr()
        assert inits == [1]


M_ATOMS = ("p", "q", "r", "s")
M_CLASSIFICATION = {"1": "true-sentence", "0": "false-sentence",
                    "1/2": "successful-performance", "-1/2": "unsuccessful-performance"}


def _text(f) -> str:
    """A formula written out with every operand in parentheses, not by the package's printer."""
    if isinstance(f, (Atom, ActRef)):
        return f.name
    if isinstance(f, Not):
        return f"~({_text(f.body)})"
    if isinstance(f, Force):
        return f"[{f.force}]({_text(f.content)})"
    op = {And: "&", Or: "|", Implies: "->"}[type(f)]
    return f"({_text(f.left)}) {op} ({_text(f.right)})"


def _json_call(*argv):
    """A call's exit code and JSON payload; exit 70 or any stderr fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--output", "json"])
    assert code != 70 and err.getvalue() == "", (argv, code, err.getvalue())
    return code, json.loads(out.getvalue())


class TestMatrixMDifferential:
    """`cli.main` on random formulas of at most four atoms, against `tests/m_oracle.py`.

    `table` is the one command that reads every valuation of a scan.
    """

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(formula=formulas(4, M_ATOMS))
    def test_taut(self, formula):
        code, payload = _json_call("taut", _text(formula))
        status, witness, value = oracle_tautology(formula)
        assert code == {"tautology": 0, "refuted": 1}[status]
        assert payload["status"] == status and payload["value"] == value
        assert payload["witness"] == (None if witness is None else {"atom_values": witness})

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(formula=formulas(4, M_ATOMS), bits=st.tuples(*[st.sampled_from((0, 1))] * len(M_ATOMS)))
    def test_eval(self, formula, bits):
        assignment = dict(zip(M_ATOMS, bits))
        assigns = [f"--assign={name}={bit}" for name, bit in assignment.items()]
        code, payload = _json_call("eval", *assigns, _text(formula))
        value = oracle_eval(formula, assignment)
        assert code == 0
        assert (payload["value"], payload["classification"]) == (value, M_CLASSIFICATION[value])

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(left=formulas(3, M_ATOMS), right=formulas(3, M_ATOMS))
    def test_entail(self, left, right):
        code, payload = _json_call("entail", _text(left), _text(right))
        holds, witness, lhs, rhs = oracle_entails(left, right)
        assert code == (0 if holds else 1)
        assert payload["holds"] == holds
        assert (payload["left_value"], payload["right_value"]) == (lhs, rhs)
        assert payload["witness"] == (None if witness is None else {"atom_values": witness})

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(formula=formulas(4, M_ATOMS))
    def test_table(self, formula):
        code, payload = _json_call("table", "--matrix", "m", _text(formula))
        values = [(a, oracle_eval(formula, a)) for a in oracle_assignments(formula)]
        assert code == 0
        assert payload["rows"] == [
            {"atom_values": a, "value": v, "classification": M_CLASSIFICATION[v]} for a, v in values
        ]


class TestConsoleScript:
    def test_installed_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "illoc.cli"],
            capture_output=True, text=True,
        )
        # module has no __main__ guard; use the console script instead
        result = subprocess.run(
            ["illoc", "eval", "--matrix", "m", "--assign", "p=1", "[think](p)"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert result.stdout.strip() == "1/2 successful-performance"

    def test_exit_codes_through_the_shell(self):
        result = subprocess.run(
            ["illoc", "taut", "--matrix", "m", "p -> [think](p)"],
            capture_output=True, text=True,
        )
        assert result.returncode == 1


class TestModuleEntryPoint:
    @pytest.mark.parametrize(
        "formula,exit_code,stdout",
        [
            ("p -> [think](p)", 1, "refuted at p=0 with value 1/2\n"),
            ("[think](p) -> p", 0, "tautology\n"),
            (TOO_DEEP_FORCES, 3, ""),
        ],
        ids=["refuted", "tautology", "deep-forces"],
    )
    def test_python_dash_m_illoc(self, formula, exit_code, stdout):
        src = os.path.dirname(os.path.dirname(os.path.abspath(illoc.__file__)))
        result = subprocess.run(
            [sys.executable, "-m", "illoc", "taut", "--matrix", "m", formula],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        assert result.returncode == exit_code
        assert result.stdout == stdout
        assert "Traceback" not in result.stderr

    def test_closed_stdout_exits_like_sigpipe(self):
        # about 258 KB of JSON: more than a pipe buffer holds, so the writer
        # meets the closed pipe while it is still printing
        src = os.path.dirname(os.path.dirname(os.path.abspath(illoc.__file__)))
        process = subprocess.Popen(
            [sys.executable, "-m", "illoc", "square", "--matrix", "mb",
             "--algebra", "a,b,c,d,e", "--output", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
        )
        try:
            assert len(process.stdout.read(100)) == 100
            process.stdout.close()
            assert process.wait(timeout=60) == 141
            stderr = process.stderr.read().decode()
        finally:
            process.kill()
            process.stderr.close()
        assert "error:" not in stderr
        assert "Traceback" not in stderr
        assert "Exception ignored" not in stderr


# --- matrix mb through the CLI, against tests/mb_oracle.py ---

MB_ALGEBRAS = (("a",), ("a", "b"))
MB_MODES = ("free", "pointwise", "connective")
MB_SPACE_CAP = 400  # the oracle scans in pure Python: keep each space small


def _mb_formulas(depth, acts=()):
    leaf = st.sampled_from([Atom("p"), Atom("q"), *map(ActRef, acts)])
    if depth == 0:
        return leaf
    sub = _mb_formulas(depth - 1, acts)
    return st.one_of(
        leaf,
        st.builds(Not, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Implies, sub, sub),
        st.builds(Force, st.sampled_from(["f", "g"]), sub),
    )


@st.composite
def _mb_programs(draw, formulas=1):
    """Acyclic definitions (act i refers only to earlier acts) and formulas over them."""
    defs = {}
    for name in ("x", "y")[:draw(st.integers(0, 2))]:
        defs[name] = draw(_mb_formulas(2, tuple(defs)))
    return defs, [draw(_mb_formulas(2, tuple(defs))) for _ in range(formulas)]


def _program_text(defs, formula):
    return "".join(f"act {name} = {_text(body)}; " for name, body in defs.items()) + _text(formula)


def _expand(f, defs):
    """f with every act reference replaced by its definition, by the test's own walk."""
    if isinstance(f, ActRef):
        return _expand(defs[f.name], defs)
    if isinstance(f, Atom):
        return f
    if isinstance(f, Not):
        return Not(_expand(f.body, defs))
    if isinstance(f, Force):
        return Force(f.force, _expand(f.content, defs))
    return type(f)(_expand(f.left, defs), _expand(f.right, defs))


def _table(atoms, data):
    """The oracle's function table of a JSON hypervalue."""
    if "standard" in data:
        return mb_oracle.const_table(atoms, frozenset(data["standard"]))
    return mb_oracle.term_table(atoms, frozenset(data["on_true"]), frozenset(data["on_false"]))


def _shown(atoms, table):
    """A table printed as the package prints a value (`HyperValue.__str__`)."""
    on_true, on_false = table[-1], table[0]  # f(1) and f(0)
    text = lambda e: "{" + ",".join(a for a in atoms if a in e) + "}"  # noqa: E731
    if on_true == on_false:
        return "*0" if not on_true else "*1" if on_true == frozenset(atoms) else "*" + text(on_true)
    return f"<{text(on_true)},{text(on_false)}>"


def _assignment(slots, index):
    """The oracle's assignment at a mixed-radix index of its slots."""
    assignment = {}
    for key, domain in reversed(slots):
        index, choice = divmod(index, len(domain))
        assignment[key] = domain[choice]
    return assignment


def _slot_json(atoms, key, witness):
    """The value a JSON valuation gives one oracle slot, as the oracle's domain value."""
    if key[0] == "atom":
        return frozenset(witness["atom_values"][key[1]])
    if key[0] == "act":
        return _table(atoms, witness["act_values"][format_formula(key[1])])
    if key[0] == "gen":
        return _table(atoms, witness["generators"][key[1]][key[2]])
    return _table(atoms, witness["signatures"][key[1]])


def _index_of(slots, atoms, witness):
    index = 0
    for key, domain in slots:
        index = index * len(domain) + domain.index(_slot_json(atoms, key, witness))
    return index


def _valuation_json(atoms, mode, assignment):
    """A valuation file for the CLI holding exactly an oracle assignment."""
    pair = lambda t: {"on_true": [a for a in atoms if a in t[-1]],  # noqa: E731
                      "on_false": [a for a in atoms if a in t[0]]}
    data = {"algebra": {"atoms": list(atoms)}, "mode": mode, "atom_values": {},
            "act_values": {}, "generators": {}, "signatures": {}}
    for key, value in assignment.items():
        if key[0] == "atom":
            data["atom_values"][key[1]] = [a for a in atoms if a in value]
        elif key[0] == "act":
            data["act_values"][format_formula(key[1])] = pair(value)
        elif key[0] == "gen":
            data["generators"].setdefault(key[1], {})[key[2]] = pair(value)
        else:
            data["signatures"][key[1]] = pair(value)
    return data


def _postorder_forces(f):
    if isinstance(f, Not):
        yield from _postorder_forces(f.body)
    elif isinstance(f, (And, Or, Implies)):
        yield from _postorder_forces(f.left)
        yield from _postorder_forces(f.right)
    elif isinstance(f, Force):
        yield from _postorder_forces(f.content)
        yield f


def _space(slots):
    size = 1
    for _, domain in slots:
        size *= len(domain)
    return size


def _mb_options(atoms, mode, all_valuations):
    return ["--matrix", "mb", "--algebra", ",".join(atoms), "--mode", mode,
            *(["--all-valuations"] if all_valuations else [])]


class TestMatrixMBDifferential:
    """`cli.main --matrix mb` on programs with act definitions, against tests/mb_oracle.py."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(program=_mb_programs(), atoms=st.sampled_from(MB_ALGEBRAS),
           mode=st.sampled_from(MB_MODES), all_valuations=st.booleans())
    def test_taut(self, program, atoms, mode, all_valuations):
        defs, (formula,) = program
        expanded = _expand(formula, defs)
        slots = mb_oracle.oracle_slots(expanded, atoms, mode)
        if _space(slots) > MB_SPACE_CAP:
            return
        code, payload = _json_call("taut", *_mb_options(atoms, mode, all_valuations),
                                   _program_text(defs, formula))
        status, index, total = mb_oracle.oracle_status(expanded, atoms, mode,
                                                       admissible_only=not all_valuations)
        assert code == {"tautology": 0, "refuted": 1}[status]
        assert (payload["status"], payload["checked"]) == (status, total)
        if status == "tautology":
            assert payload["witness"] is None and payload["value"] is None
            return
        assert _index_of(slots, atoms, payload["witness"]) == index
        expected = mb_oracle.oracle_eval(expanded, atoms, mode, _assignment(slots, index), [])
        assert _table(atoms, payload["value"]) == expected

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(program=_mb_programs(), atoms=st.sampled_from(MB_ALGEBRAS),
           mode=st.sampled_from(MB_MODES), pick=st.integers(0, 10 ** 6))
    def test_eval(self, program, atoms, mode, pick):
        defs, (formula,) = program
        expanded = _expand(formula, defs)
        slots = mb_oracle.oracle_slots(expanded, atoms, mode)
        assignment = _assignment(slots, pick % _space(slots))
        with tempfile.TemporaryDirectory() as folder:
            path = os.path.join(folder, "valuation.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(_valuation_json(atoms, mode, assignment), handle)
            code, payload = _json_call("eval", *_mb_options(atoms, mode, False),
                                       "--valuation", path, _program_text(defs, formula))
        subvalues: list = []
        value = mb_oracle.oracle_eval(expanded, atoms, mode, assignment, subvalues)
        assert code == 0
        assert _table(atoms, payload["value"]) == value
        assert payload["admissible"] == (not any(map(mb_oracle.is_const, subvalues)))
        expected = {format_formula(node): table
                    for node, table in zip(_postorder_forces(expanded), subvalues)}
        assert list(payload["subvalues"]) == list(expected)
        assert {key: _table(atoms, v) for key, v in payload["subvalues"].items()} == expected

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(program=_mb_programs(formulas=2), atoms=st.sampled_from(MB_ALGEBRAS),
           mode=st.sampled_from(MB_MODES), all_valuations=st.booleans())
    def test_entail(self, program, atoms, mode, all_valuations):
        defs, (left, right) = program
        lhs, rhs = _expand(left, defs), _expand(right, defs)
        slots = mb_oracle.oracle_slots(And(lhs, rhs), atoms, mode)  # both, first seen first
        if _space(slots) > MB_SPACE_CAP:
            return
        code, payload = _json_call("entail", *_mb_options(atoms, mode, all_valuations),
                                   _program_text(defs, left), _text(right))
        for index in range(_space(slots)):
            assignment = _assignment(slots, index)
            left_subvalues, right_subvalues = [], []
            lv = mb_oracle.oracle_eval(lhs, atoms, mode, assignment, left_subvalues)
            rv = mb_oracle.oracle_eval(rhs, atoms, mode, assignment, right_subvalues)
            admissible = not any(map(mb_oracle.is_const, left_subvalues + right_subvalues))
            if not mb_oracle.t_leq(atoms, lv, rv) and (all_valuations or admissible):
                break
        else:
            assert code == 0
            assert payload["holds"] is True and payload["witness"] is None
            return
        assert code == 1 and payload["holds"] is False
        assert _index_of(slots, atoms, payload["witness"]) == index
        assert (payload["left_value"], payload["right_value"]) == (
            _shown(atoms, lv), _shown(atoms, rv))


def _exit_code(*argv):
    """A call's exit code; a traceback-free error line, and never 70."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exit_:
            code = exit_.code
    assert code != 70 and "Traceback" not in err.getvalue(), (argv, err.getvalue())
    return code


class TestMatrixMBExitCodes:
    """0 and 1 come only from verdicts, 2 from parsing, 3 from semantics, 4 from the budget."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(program=_mb_programs(), atoms=st.sampled_from(MB_ALGEBRAS),
           mode=st.sampled_from(MB_MODES), cut=st.integers(1, 6))
    def test_a_truncated_program_is_a_parse_error(self, program, atoms, mode, cut):
        defs, (formula,) = program
        body = _text(Not(formula))
        # the definitions, then the formula without at least its last ")" but with its "~"
        text = _program_text(defs, Atom("p"))[:-1] + body[:max(len(body) - cut, 1)]
        for command in ("taut", "eval"):
            assert _exit_code(command, *_mb_options(atoms, mode, False), text) == 2

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(program=_mb_programs(), atoms=st.sampled_from(MB_ALGEBRAS),
           mode=st.sampled_from(MB_MODES), force=st.sampled_from(["f", "g"]))
    def test_a_cyclic_reference_is_a_semantic_error(self, program, atoms, mode, force):
        defs, (formula,) = program
        cycle = f"act c = [{force}](d); act d = ~c & p; "
        text = cycle + _program_text(defs, Or(formula, ActRef("c")))
        for command in ("taut", "eval"):
            assert _exit_code(command, *_mb_options(atoms, mode, False), text) == 3
        assert _exit_code("entail", *_mb_options(atoms, mode, False), text, "p") == 3

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(program=_mb_programs(formulas=2), atoms=st.sampled_from(MB_ALGEBRAS),
           mode=st.sampled_from(MB_MODES))
    def test_a_space_over_the_budget_is_refused(self, program, atoms, mode):
        defs, (left, right) = program
        text = _program_text(defs, left)
        budget = ["--budget", "1"]  # every formula has a slot, and every slot two values
        assert _exit_code("taut", *_mb_options(atoms, mode, False), *budget, text) == 4
        assert _exit_code("entail", *_mb_options(atoms, mode, False), *budget, text,
                          _text(right)) == 4


# --- unfold through acyclic acts, against unfold_cyclic ---

UNFOLD_SEEDS = {
    "standard:0": lambda algebra: standard(algebra.bottom()),
    "standard:1": lambda algebra: standard(algebra.top()),
    "on_true=a;on_false=": lambda algebra: HyperValue(algebra.element(["a"]), algebra.bottom()),
}


def _ref_formulas(names, depth=2):
    """Formulas whose leaves are references to names, so every force reads its signature."""
    leaf = st.sampled_from([ActRef(name) for name in names])
    if depth == 0:
        return leaf
    sub = _ref_formulas(names, depth - 1)
    return st.one_of(
        leaf,
        st.builds(Not, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Implies, sub, sub),
        st.builds(Force, st.sampled_from(["f", "g"]), sub),
    )


@st.composite
def _bridged_cycles(draw):
    """Two cycles joined by acyclic acts, and the names of the cyclic acts.

    The first cycle's acts (x, y) refer to each other and to the bridges
    (v, w), x to a bridge always; a bridge refers only to earlier bridges and
    to the second cycle (z, u), which refers only to itself. No act mentions
    an atom, so the default signatures value every unfolding.
    """
    first, bridges, second = (
        names[:draw(st.integers(1, 2))] for names in (("x", "y"), ("v", "w"), ("z", "u")))
    defs = {}

    def cycle(names, others):
        for i, name in enumerate(names):
            following = ActRef(names[(i + 1) % len(names)])
            step = draw(st.sampled_from([following, Not(following), Force("h", following)]))
            rest = draw(_ref_formulas(others(i)))
            parts = (step, rest) if draw(st.booleans()) else (rest, step)
            defs[name] = draw(st.sampled_from([And, Or, Implies]))(*parts)

    cycle(first, lambda i: bridges if i == 0 else first + bridges)
    for i, name in enumerate(bridges):
        defs[name] = draw(_ref_formulas(second + bridges[:i]))
    cycle(second, lambda i: second)
    return defs, first + second


class TestUnfoldThroughAcyclicActs:
    """`unfold` where inlining an acyclic act reaches a cycle the tree does not show."""

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(program=_bridged_cycles(), atoms=st.sampled_from(MB_ALGEBRAS),
           mode=st.sampled_from(MB_MODES), seed=st.sampled_from(sorted(UNFOLD_SEEDS)))
    def test_every_cyclic_act_unfolds_at_every_depth(self, program, atoms, mode, seed):
        defs, cyclic = program
        algebra = AlgebraSpec(atoms)
        valuation = MBValuation(algebra, MBMode(mode),
                                signatures=default_signatures(defs, algebra))
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "cycles.illoc")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("".join(f"act {name} = {_text(body)};\n"
                                     for name, body in defs.items()))
            for act in cyclic:
                for steps in range(6):
                    code, payload = _json_call(
                        "unfold", *_mb_options(atoms, mode, False), "--defs", path,
                        "--act", act, "--steps", str(steps), "--seed", seed)
                    value = unfold_cyclic(defs, act, steps, UNFOLD_SEEDS[seed](algebra),
                                          valuation=valuation)
                    assert code == 0 and payload["value"] == hyper_to_json(value)
