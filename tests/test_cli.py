import json
import os
import subprocess
import sys

import pytest

import illoc
import illoc.cli
import illoc.matrix_mb
from illoc.boolalg import AlgebraMismatch
from illoc.cli import main
from illoc.hyper import StandardInput
from illoc.matrix_m import MissingAtom
from illoc.matrix_mb import MissingAssignment, NotCyclic, StandardAssignment
from illoc.search import DEFAULT_BUDGET
from illoc.syntax import CyclicAct, UnknownActRef
from test_cli_surface import ARGS

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
