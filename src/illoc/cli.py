"""Command-line interface: evaluate, tabulate, check, and report.

Commands: eval, table, taut, check-matrix, square, entail, unfold, fmt.
Exit codes: 0 success/tautology/holds, 1 refuted/does-not-hold, 2 parse
error or bad option, 3 semantic error or a formula nested too deeply, 4 budget
exceeded, 70 internal error, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .boolalg import AlgebraSpec, Element
from .hyper import HyperValue, hyper_to_json, standard
from .matrix_m import (
    CARRIER,
    MScan,
    check_matrix_properties,
    classify,
    eval_m,
    is_tautology_m,
    scan_m,
)
from .matrix_mb import (
    MBMode,
    MBScan,
    MBValuation,
    default_signatures,
    eval_mb,
    is_tautology_mb,
    scan_mb,
    unfold_cyclic,
    valuation_from_json,
    valuation_to_json,
)
from .opposition import CheckSpace, entails, square_for_force
from .search import DEFAULT_BUDGET, BudgetExceeded
from .syntax import (
    IDENT_RE,
    ParseError,
    format_formula,
    format_program,
    formula_to_json,
    parse,
)

_MARK = {True: "✓", False: "✗"}  # ✓ / ✗


def _int_at_least(low: int):
    def integer(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def _identifier(text: str) -> str:
    if not IDENT_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected a name such as p or think, got {text!r}")
    return text


def _budget(args) -> int:
    if args.budget is not None:
        return args.budget
    raw = os.environ.get("ILLOC_BUDGET")
    if not raw:
        return DEFAULT_BUDGET
    try:
        return _int_at_least(0)(raw)
    except argparse.ArgumentTypeError as error:
        raise ValueError(f"ILLOC_BUDGET: {error}") from None


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--matrix", choices=("m", "mb"), default="m")
    sub.add_argument("--algebra", default="a,b", help="comma-separated atom names (mb)")
    sub.add_argument(
        "--mode", choices=[m.value for m in MBMode], default="pointwise",
        help="how act values relate to their contents (mb)",
    )
    sub.add_argument(
        "--all-valuations", action="store_true",
        help="include valuations with standard act subvalues (mb)",
    )
    sub.add_argument("--budget", type=_int_at_least(0), default=None)
    sub.add_argument(
        "--jobs", type=_int_at_least(1), default=1,
        help="accepted for compatibility; scans run in one thread",
    )
    sub.add_argument("--output", choices=("text", "json"), default="text")
    sub.add_argument("--defs", help="path to an .illoc file with act definitions")
    sub.add_argument("--valuation", help="path to a valuation JSON file (mb)")


def _algebra_of(args) -> AlgebraSpec:
    return AlgebraSpec(tuple(name.strip() for name in args.algebra.split(",") if name.strip()))


def _load_program(args, formula_text: Optional[str]):
    defs = {}
    file_formula = None
    if args.defs:
        with open(args.defs, "r", encoding="utf-8") as handle:
            result = parse(handle.read())
        defs = result.definitions
        file_formula = result.formula
    if formula_text is not None:
        formula = _parse_argument(formula_text, defs)
        if formula is None:
            raise ValueError("empty formula")
    else:
        formula = file_formula
    return defs, formula


def _parse_argument(text: str, defs: dict):
    """The formula of an argument that may reference the acts of defs.

    The argument's own definitions join defs; defining an act that defs
    already holds is a parse error, as within one program.
    """
    result = parse(text, defs)
    defs.update(result.definitions)
    return result.formula


def _space(args, algebra: Optional[AlgebraSpec]) -> CheckSpace:
    return CheckSpace(
        matrix=args.matrix,
        algebra=algebra,
        mode=MBMode(args.mode),
        admissible_only=not args.all_valuations,
        budget=_budget(args),
        jobs=args.jobs,
    )


def _parse_assignments(pairs) -> dict[str, int]:
    assignment = {}
    for pair in pairs or ():
        name, _, raw = pair.partition("=")
        if not name or raw not in ("0", "1"):
            raise ValueError(f"--assign expects name=0 or name=1, got {pair!r}")
        assignment[name.strip()] = int(raw)
    return assignment


def _parse_element(algebra: AlgebraSpec, text: str) -> Element:
    names = [n.strip() for n in text.split(",") if n.strip()]
    return algebra.element(names)


_GENERATOR_FORM = '"on_true=a,b;on_false=b"'


def _parse_gen(algebra: AlgebraSpec, text: str) -> Optional[HyperValue]:
    """The value `text` writes as on_true=...;on_false=..., or None if it has another form."""
    parts = dict(part.partition("=")[::2] for part in text.split(";") if part.strip())
    if parts.keys() != {"on_true", "on_false"}:
        return None
    return HyperValue(
        _parse_element(algebra, parts["on_true"]),
        _parse_element(algebra, parts["on_false"]),
    )


def _parse_seed(algebra: AlgebraSpec, text: str) -> HyperValue:
    if text.startswith("standard:"):
        payload = text[len("standard:"):].strip()
        if payload == "0":
            return standard(algebra.bottom())
        if payload == "1":
            return standard(algebra.top())
        return standard(_parse_element(algebra, payload))
    seed = _parse_gen(algebra, text)
    if seed is None:
        raise ValueError('seeds look like "standard:0", "standard:1", "standard:<atoms>" or '
                         + _GENERATOR_FORM)
    return seed


def _load_valuation(args, algebra: AlgebraSpec) -> MBValuation:
    if not args.valuation:
        return MBValuation(algebra, MBMode(args.mode))
    import json  # here and below, not at the top: `json` is for JSON input and output only

    with open(args.valuation, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"{args.valuation}: a valuation must be a JSON object")
    data.setdefault("algebra", {"atoms": list(algebra.atoms)})
    return valuation_from_json(data, default_mode=MBMode(args.mode))


def _emit(args, payload: dict, text: str) -> None:
    if args.output == "json":
        import json

        print(json.dumps(payload, indent=2))
    else:
        print(text)


# --- commands ---

def _cmd_eval(args) -> int:
    defs, formula = _load_program(args, args.formula)
    if formula is None:
        raise ValueError("no formula given")
    if args.matrix == "m":
        assignment = _parse_assignments(args.assign)
        value = eval_m(formula, assignment, defs)
        payload = {
            "formula": format_formula(formula),
            "matrix": "m",
            "value": str(value),
            "classification": classify(value),
        }
        _emit(args, payload, f"{value} {classify(value)}")
        return 0
    if args.assign:
        raise ValueError("--assign values atoms in matrix m; in mb, give a --valuation file")
    valuation = _load_valuation(args, _algebra_of(args))
    outcome = eval_mb(formula, valuation, defs)
    payload = {
        "formula": format_formula(formula),
        "matrix": "mb",
        "mode": valuation.mode.value,
    }
    payload.update(outcome.to_json())
    flag = "admissible" if outcome.admissible else "inadmissible"
    _emit(args, payload, f"{outcome.value} {flag}")
    return 0


def _cmd_table(args) -> int:
    defs, formula = _load_program(args, args.formula)
    if formula is None:
        raise ValueError("no formula given")
    rows, lines = [], []
    if args.matrix == "m":

        def m_row(scan: MScan, codes: list[int]) -> None:
            assignment, value = scan.assignment(), CARRIER[codes[0]]
            rows.append({"atom_values": assignment, "value": str(value),
                         "classification": classify(value)})
            lines.append(" ".join(f"{k}={v}" for k, v in assignment.items())
                         + f"  {value}  {classify(value)}")

        scan_m([formula], m_row, defs=defs, budget=_budget(args))
    else:
        admissible_only = not args.all_valuations

        def mb_row(scan: MBScan, _) -> None:
            if admissible_only and not scan.admissible(0):
                return
            valuation, outcome = scan.valuation(), scan.outcome(0)
            rows.append({"valuation": valuation_to_json(valuation), **outcome.to_json()})
            lines.append(f"{_describe(valuation)}  {outcome.value}")

        scan_mb([formula], _algebra_of(args), MBMode(args.mode), mb_row,
                defs=defs, budget=_budget(args))
    payload = {"formula": format_formula(formula), "rows": rows}
    _emit(args, payload, "\n".join(lines) if lines else "(no valuations)")
    return 0


def _describe(v: MBValuation) -> str:
    """A valuation's slots in scan order: atoms, acts, generators, signatures."""
    labelled = [
        *v.atom_values.items(),
        *v.act_values.items(),
        *((f"[{force}]@{atom}", h) for (force, atom), h in v.generators.items()),
        *((f"sig:{name}", h) for name, h in v.signatures.items()),
    ]
    return " ".join(f"{label}={value}" for label, value in labelled)


def _cmd_taut(args) -> int:
    defs, formula = _load_program(args, args.formula)
    if formula is None:
        raise ValueError("no formula given")
    if args.matrix == "m":
        result = is_tautology_m(formula, defs, budget=_budget(args))
        payload = {"formula": format_formula(formula), "matrix": "m"}
        payload.update(result.to_json())
        if result.status == "tautology":
            _emit(args, payload, "tautology")
            return 0
        witness = " ".join(f"{k}={v}" for k, v in sorted(result.witness.items()))
        _emit(args, payload, f"refuted at {witness} with value {result.witness_value}")
        return 1
    result = is_tautology_mb(
        formula, _algebra_of(args), MBMode(args.mode), defs=defs,
        admissible_only=not args.all_valuations, budget=_budget(args),
    )
    payload = {
        "formula": format_formula(formula),
        "matrix": "mb",
        "mode": args.mode,
    }
    payload.update(result.to_json())
    if result.status == "tautology":
        _emit(args, payload, "tautology")
        return 0
    import json

    _emit(
        args, payload,
        f"refuted with value {result.witness_value}\n"
        f"witness: {json.dumps(valuation_to_json(result.witness))}",
    )
    return 1


def _cmd_check_matrix(args) -> int:
    report = check_matrix_properties()
    payload = {
        "properties": [
            {
                "id": p.prop_id,
                "statement": p.statement,
                "holds": p.holds,
                "checked": p.checked,
                "violations": [[str(v) for v in t] for t in p.violations],
            }
            for p in report
        ],
        "all_hold": all(p.holds for p in report),
    }
    lines = []
    for p in report:
        ok = p.checked - len(p.violations)
        lines.append(f"{'PASS' if p.holds else 'FAIL'} {p.prop_id} ({ok}/{p.checked} tuples)")
    _emit(args, payload, "\n".join(lines))
    return 0 if payload["all_hold"] else 1


def _cmd_square(args) -> int:
    if args.gen:
        args.matrix = "mb"  # a generator only makes sense in the nonstandard matrix
    algebra = _algebra_of(args) if args.matrix == "mb" else None
    space = _space(args, algebra)
    generator = None
    if args.gen:
        generator = _parse_gen(algebra, args.gen)
        if generator is None:
            raise ValueError("generators look like " + _GENERATOR_FORM)
    report = square_for_force(args.force, args.atom, space, generator=generator)
    payload = report.to_json()
    f, a = args.force, args.atom
    lines = [
        f"  [{f}]({a}) ----contrary {_MARK[report.contrary.holds]}---- [{f}](~{a})",
        f"     |      \\                    /      |",
        f"subaltern {_MARK[report.subaltern_left.holds]}  contradictory {_MARK[report.contradictory.holds]}  subaltern {_MARK[report.subaltern_right.holds]}",
        f"     |      /                    \\      |",
        f" ~[{f}](~{a}) --subcontrary {_MARK[report.subcontrary.holds]}-- ~[{f}]({a})",
        f"criterion holds: {'yes' if report.criterion_holds else 'no'}",
        f"square holds: {'yes' if report.square_holds else 'no'}",
    ]
    for row in report.laws.rows[:8]:
        lines.append(
            f"law values [{row.label}]: tertium-non-datur={row.excluded_middle} "
            f"law-of-contrary={row.contrariety}"
        )
    _emit(args, payload, "\n".join(lines))
    return 0 if report.square_holds else 1


def _cmd_entail(args) -> int:
    defs, _ = _load_program(args, None)
    lhs = _parse_argument(args.lhs, defs)
    rhs = _parse_argument(args.rhs, defs)
    if lhs is None or rhs is None:
        raise ValueError("both sides must be formulas")
    algebra = _algebra_of(args) if args.matrix == "mb" else None
    result = entails(lhs, rhs, _space(args, algebra), defs)
    payload = {
        "lhs": format_formula(lhs),
        "rhs": format_formula(rhs),
        "matrix": args.matrix,
    }
    payload.update(result.to_json())
    if result.holds:
        _emit(args, payload, "entails")
        return 0
    import json

    _emit(
        args, payload,
        f"does not entail ({result.left_value} > {result.right_value})\n"
        f"witness: {json.dumps(result.witness)}",
    )
    return 1


def _cmd_unfold(args) -> int:
    defs, _ = _load_program(args, None)
    algebra = _algebra_of(args)
    valuation = None
    if args.valuation:
        valuation = _load_valuation(args, algebra)
        algebra = valuation.algebra
    seed = _parse_seed(algebra, args.seed)
    if valuation is None:
        signatures = default_signatures(defs, algebra)
        valuation = MBValuation(algebra, MBMode(args.mode), signatures=signatures)
    value = unfold_cyclic(defs, args.act, args.steps, seed, valuation=valuation)
    payload = {
        "act": args.act,
        "steps": args.steps,
        "seed": hyper_to_json(seed),
        "value": hyper_to_json(value),
    }
    _emit(args, payload, str(value))
    return 0


def _cmd_fmt(args) -> int:
    if args.formula is None and not args.defs:
        raise ValueError("nothing to format")
    defs, formula = _load_program(args, None)
    if args.formula is not None:
        formula = _parse_argument(args.formula, defs)
    if args.output == "text":  # the JSON's AST nests as deeply as the formula: text needs none
        print(format_program(defs, formula))
        return 0
    _emit(args, {
        "definitions": {name: format_formula(body) for name, body in defs.items()},
        "formula": None if formula is None else format_formula(formula),
        "ast": None if formula is None else formula_to_json(formula),
    }, "")
    return 0


def _add_output(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--output", choices=("text", "json"), default="text")


def _add_formula(sub: argparse.ArgumentParser) -> None:
    _add_common(sub)
    sub.add_argument("formula", nargs="?")


def _add_eval(sub: argparse.ArgumentParser) -> None:
    _add_formula(sub)  # a positional is listed apart from the options, so it may come first
    sub.add_argument("--assign", action="append", help="atom value, e.g. p=1 (matrix m)")


def _add_square(sub: argparse.ArgumentParser) -> None:
    _add_common(sub)
    sub.add_argument("--force", type=_identifier, default="think")
    sub.add_argument("--atom", type=_identifier, default="p")
    sub.add_argument("--gen", help='generator, e.g. "on_true=a;on_false=" (mb)')


def _add_entail(sub: argparse.ArgumentParser) -> None:
    _add_common(sub)
    sub.add_argument("lhs")
    sub.add_argument("rhs")


def _add_unfold(sub: argparse.ArgumentParser) -> None:
    _add_common(sub)
    sub.add_argument("--act", required=True)
    sub.add_argument("--steps", type=_int_at_least(0), required=True)
    sub.add_argument("--seed", required=True, help='e.g. "standard:0" or "standard:1"')


def _add_fmt(sub: argparse.ArgumentParser) -> None:
    _add_output(sub)
    sub.add_argument("--defs", help="path to an .illoc file")
    sub.add_argument("formula", nargs="?")


# command name -> (help, what adds its arguments); `main` runs `_cmd_<name>`
_COMMANDS = {
    "eval": ("evaluate a formula under one valuation", _add_eval),
    "table": ("print the value of a formula on every valuation", _add_formula),
    "taut": ("exhaustive tautology check", _add_formula),
    "check-matrix": ("check the seven four-valued operator laws", _add_output),
    "square": ("square of opposition report", _add_square),
    "entail": ("does the first act entail the second?", _add_entail),
    "unfold": ("finitely unfold a cyclic act from a seed", _add_unfold),
    "fmt": ("reprint a program in canonical form", _add_fmt),
}


class _Command(argparse.ArgumentParser):
    """A command's parser, built when first used: a call uses one of eight.

    At `add_parser` time it only keeps its keyword arguments and what adds its
    arguments; its first parse, usage or help runs `ArgumentParser.__init__`
    with them and then adds the arguments.
    """

    def __init__(self, *, add_arguments, **kwargs):
        self._add_arguments, self._kwargs = add_arguments, kwargs

    def _ready(self) -> None:
        if self._add_arguments is not None:
            add, self._add_arguments = self._add_arguments, None
            super().__init__(**self._kwargs)
            add(self)

    def parse_known_args(self, args=None, namespace=None):
        self._ready()
        return super().parse_known_args(args, namespace)

    def format_usage(self) -> str:
        self._ready()
        return super().format_usage()

    def format_help(self) -> str:
        self._ready()
        return super().format_help()


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser; each command's parser is built when a call first uses it."""
    parser = argparse.ArgumentParser(prog="illoc",
                                     description="Matrix semantics for illocutionary acts")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Command)
    for name, (help_, add_arguments) in _COMMANDS.items():
        subs.add_parser(name, help=help_, add_arguments=add_arguments)
    return parser


_SIGPIPE_EXIT = 141  # 128 + SIGPIPE, what a shell reports for a producer killed by it
_INTERNAL_ERROR_EXIT = 70  # EX_SOFTWARE in sysexits.h

# the package's semantic errors (MissingAssignment, CyclicAct, ...) all subclass ValueError
_SEMANTIC_ERRORS = (OSError, ValueError)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()["_cmd_" + args.command.replace("-", "_")](args)
    except ParseError as error:
        print(f"parse error: {error}", file=sys.stderr)
        return 2
    except BudgetExceeded as error:
        print(f"budget exceeded: {error}", file=sys.stderr)
        return 4
    except RecursionError:
        print("error: formula nests too deeply", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader closed stdout (`| head`): not an error of the input, so
        # nothing is printed and the exit code is the shell's for SIGPIPE
        return _SIGPIPE_EXIT
    except _SEMANTIC_ERRORS as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    except Exception as error:
        # a fault of the program, not of the input: one line, never a traceback,
        # and never 1, which means "refuted"
        print(f"internal error: {type(error).__name__}: {error}", file=sys.stderr)
        return _INTERNAL_ERROR_EXIT


def console() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = _SIGPIPE_EXIT
    if code == _SIGPIPE_EXIT:
        # point stdout at devnull so the flush at interpreter exit cannot
        # raise again (the SIGPIPE note in the `signal` module's docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    raise SystemExit(code)
