"""Spans at the package's layer boundaries, recorded from outside the package.

`Tracer.install` replaces public functions where their callers look them up
(a module's global name) with wrappers that record a span: name, start, end,
parent span and the id of the check it belongs to. Calls into `hyper` and
`boolalg` from the layers above are counted rather than spanned. Spans stay
in memory until `write`; `layer_metrics` turns them into per-layer numbers.
A binding that a later version of the package no longer has is skipped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
from collections import Counter, defaultdict
from time import perf_counter

from illoc.search import BudgetExceeded

# span name -> the (module, global name) pairs through which callers reach it
TIMED = {
    "cli.main": [("cli", "main")],
    "cli.build_parser": [("cli", "build_parser")],
    "syntax.parse": [("cli", "parse"), ("syntax", "parse")],
    "syntax.inline_acts": [(m, "inline_acts") for m in ("cli", "matrix_m", "matrix_mb", "opposition")],
    "syntax.format": [("cli", "format_formula"), ("cli", "format_program"), ("syntax", "format_formula"),
                      ("syntax", "format_program"), ("matrix_mb", "format_formula")],
    "matrix_m.is_tautology_m": [("cli", "is_tautology_m"), ("matrix_m", "is_tautology_m")],
    "matrix_m.check_matrix_properties": [("cli", "check_matrix_properties"),
                                         ("matrix_m", "check_matrix_properties")],
    "matrix_mb.is_tautology_mb": [("cli", "is_tautology_mb"), ("matrix_mb", "is_tautology_mb")],
    "matrix_mb.find_difference": [("matrix_mb", "find_difference")],
    "matrix_mb.requirements": [(m, "requirements") for m in ("cli", "matrix_mb", "opposition")],
    "matrix_mb.slots": [(m, "_slots") for m in ("cli", "matrix_mb", "opposition")],
    "matrix_mb.eval": [("matrix_mb", "_eval_resolved"), ("opposition", "_eval_resolved")],
    "opposition.entails": [("cli", "entails"), ("opposition", "entails")],
    "opposition.square": [("cli", "square_for_force"), ("opposition", "square_for_force")],
}
# recursive evaluators: one span per outermost call
OUTERMOST = {"matrix_m.eval": [("matrix_m", "_ev"), ("opposition", "_eval_m_resolved")]}
SCANS = [("matrix_mb", "first_hit"), ("opposition", "first_hit")]
COUNTED = {
    "hyper": ("hyper", ("matrix_mb", "opposition", "cli")),
    "boolalg": ("boolalg", ("hyper", "matrix_mb", "opposition", "cli")),
}
MB_CHECKERS = ("matrix_mb.is_tautology_mb", "matrix_mb.find_difference")

# span record fields
ID, NAME, START, END, PARENT, CHECK, TAG, ERROR = range(8)


def _module(name):
    return importlib.import_module(f"illoc.{name}")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.check = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list = []

    # --- recording ---

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, args, kwargs, tag=None, parent=None):
        stack = self._stack()
        if parent is None:
            parent = stack[-1][ID] if stack else -1
        record = [next(self._ids), name, 0.0, 0.0, parent, self.check, tag, None]
        self.spans.append(record)
        stack.append(record)
        record[START] = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as error:
            record[ERROR] = type(error).__name__
            raise
        finally:
            record[END] = perf_counter()
            stack.pop()

    def check_span(self, check_id: int, fn):
        """Run one check under a root span named "check"."""
        self.check = check_id
        return self._call("check", fn, (), {})

    # --- wrappers ---

    def _timed(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._call(name, fn, args, kwargs, tag=_tag(name, args, kwargs))

        return wrapper

    def _outermost(self, name, fn):
        tracer, local = self, self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if getattr(local, name, False):
                return fn(*args, **kwargs)
            setattr(local, name, True)
            try:
                return tracer._call(name, fn, args, kwargs)
            finally:
                setattr(local, name, False)

        return wrapper

    def _scan(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(slots, predicate, *args, **kwargs):
            size = 1
            for slot in slots:
                size *= len(slot.domain)
            scan_id = [None]

            def traced_predicate(assignment):
                return tracer._call("search.predicate", predicate, (assignment,), {},
                                    parent=scan_id[0])

            def run(*a, **k):
                scan_id[0] = tracer._stack()[-1][ID]
                return fn(*a, **k)

            scanned = True
            try:
                return tracer._call("search.first_hit", run, (slots, traced_predicate) + args, kwargs)
            except BudgetExceeded:
                scanned = False  # refused before its first valuation
                raise
            finally:
                if scanned:
                    tracer.counts["search.space"] += size

        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _parse(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            roots = list(result.definitions.values()) + [result.formula]
            tracer.counts["syntax.nodes"] += sum(_nodes(r) for r in roots if r is not None)
            return result

        return wrapper

    def _patch(self, module_name, attr, make):
        try:
            module = _module(module_name)
        except ImportError:
            return
        original = getattr(module, attr, None)
        if original is None or not callable(original):
            return
        self._patches.append((module, attr, original))
        setattr(module, attr, make(original))

    def install(self) -> None:
        for key, (source, callers) in COUNTED.items():
            for caller in callers:
                for attr, obj in list(vars(_module(caller)).items()):
                    if (inspect.isfunction(obj) and obj.__module__ == f"illoc.{source}"
                            and not attr.startswith("_")):
                        self._patch(caller, attr, functools.partial(self._counted, key))
        for name, bindings in TIMED.items():
            for module_name, attr in bindings:
                self._patch(module_name, attr, functools.partial(self._timed, name))
        for module_name, attr in TIMED["syntax.parse"]:
            self._patch(module_name, attr, self._parse)  # counts nodes outside the span
        for name, bindings in OUTERMOST.items():
            for module_name, attr in bindings:
                self._patch(module_name, attr, functools.partial(self._outermost, name))
        for module_name, attr in SCANS:
            self._patch(module_name, attr, self._scan)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def _tag(name, args, kwargs):
    if name in MB_CHECKERS:
        return "mb"
    if name == "opposition.entails":
        space = args[2] if len(args) > 2 else kwargs.get("space")
        return getattr(space, "matrix", None)
    return None


def _nodes(root) -> int:
    count, todo = 0, [root]
    while todo:
        node = todo.pop()
        count += 1
        for attr in ("body", "left", "right", "content"):
            child = getattr(node, attr, None)
            if child is not None:
                todo.append(child)
    return count


# --- per-layer metrics ---

def layer_metrics(spans: list, counts: Counter, refused: set) -> dict:
    """Per-layer numbers from one traced pass.

    `refused` holds the ids of the checks that ended in a budget refusal
    (exit code 4 or BudgetExceeded).
    """
    by_id = {s[ID]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s[PARENT]].append(s)

    def duration(s):
        return s[END] - s[START]

    def nested_in_same(s):
        parent = by_id.get(s[PARENT])
        while parent is not None:
            if parent[NAME] == s[NAME]:
                return True
            parent = by_id.get(parent[PARENT])
        return False

    outer = defaultdict(list)
    for s in spans:
        if not nested_in_same(s):
            outer[s[NAME]].append(s)

    def total(*names):
        return sum(duration(s) for name in names for s in outer[name])

    def matrix_of(s):
        node = s
        while node is not None:
            if node[TAG] is not None:
                return node[TAG]
            node = by_id.get(node[PARENT])
        return None

    scans = outer["search.first_hit"]
    predicate_time = {s[ID]: sum(duration(c) for c in children[s[ID]] if c[NAME] == "search.predicate")
                      for s in scans}
    evaluated = sum(1 for c in spans if c[NAME] == "search.predicate")
    mb_scans = [s for s in scans if matrix_of(s) == "mb"]
    mb_evaluated = sum(
        1 for s in mb_scans for c in children[s[ID]] if c[NAME] == "search.predicate"
    )
    first_hit_s = total("search.first_hit")

    pre_scan = post_scan = 0.0
    checkers = [s for name in MB_CHECKERS for s in outer[name]]
    checkers += [s for s in outer["opposition.entails"] if s[TAG] == "mb"]
    for s in checkers:
        inner = [c for c in children[s[ID]] if c[NAME] == "search.first_hit"]
        if inner:
            pre_scan += inner[0][START] - s[START]
            post_scan += s[END] - inner[-1][END]
        else:
            pre_scan += duration(s)

    cli_self = sum(
        duration(s) - sum(duration(c) for c in children[s[ID]])
        for s in spans if s[NAME].startswith("cli.")
    )
    refusals = [s for s in spans if s[NAME] == "check" and s[CHECK] in refused]
    parse_s = total("syntax.parse")
    m_eval = outer["matrix_m.eval"]
    m_eval_s = total("matrix_m.eval")

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "search.first_hit_s": first_hit_s,
        "search.loop_s": sum(max(0.0, duration(s) - predicate_time[s[ID]]) for s in scans),
        "search.space": counts["search.space"],
        "search.evaluated": evaluated,
        "search.evaluated_ratio": ratio(evaluated, counts["search.space"]),
        "search.valuations_per_s": ratio(evaluated, first_hit_s),
        "search.budget_refusals": len(refusals),
        "search.refusal_s": sum(duration(s) for s in refusals),
        "matrix_mb.check_s": sum(duration(s) for s in checkers),
        "matrix_mb.predicate_s": sum(predicate_time[s[ID]] for s in mb_scans),
        "matrix_mb.requirements_s": total("matrix_mb.requirements", "matrix_mb.slots"),
        "matrix_mb.eval_s": total("matrix_mb.eval"),
        "matrix_mb.pre_scan_s": pre_scan,
        "matrix_mb.post_scan_s": post_scan,
        "hyper.ops": counts["hyper"],
        "hyper.ops_per_valuation": ratio(counts["hyper"], mb_evaluated),
        "boolalg.ops": counts["boolalg"],
        "boolalg.ops_per_valuation": ratio(counts["boolalg"], mb_evaluated),
        "syntax.parse_s": parse_s,
        "syntax.parse_calls": len(outer["syntax.parse"]),
        "syntax.nodes_parsed": counts["syntax.nodes"],
        "syntax.nodes_per_s": ratio(counts["syntax.nodes"], parse_s),
        "syntax.inline_acts_s": total("syntax.inline_acts"),
        "syntax.format_s": total("syntax.format"),
        "matrix_m.taut_s": total("matrix_m.is_tautology_m"),
        "matrix_m.assignments": len(m_eval),
        "matrix_m.assignments_per_s": ratio(len(m_eval), m_eval_s),
        "matrix_m.eval_s": m_eval_s,
        "matrix_m.check_matrix_s": total("matrix_m.check_matrix_properties"),
        "cli.main_s": total("cli.main"),
        "cli.self_s": cli_self,
        "cli.build_parser_s": total("cli.build_parser"),
        "cli.stdout_bytes": counts["cli.stdout_bytes"],
        "opposition.entails_s": total("opposition.entails"),
        "opposition.square_s": total("opposition.square"),
    }
