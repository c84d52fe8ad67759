"""Run one workload's deck against the package and report raw results.

    python3 perfbench/worker.py --deck DECK.json --seconds S [--trace-out SPANS.jsonl]

One client, closed loop: the next check starts when the previous one has
returned. Only the call into the package is timed; building its inputs and
comparing its answer with the expected one happen outside the timed region.
Without --trace-out the loop runs whole passes over the deck for at most S
seconds (at least one pass). With it, the worker runs the deck once to warm
up, once untraced and once traced, and reports per-layer numbers. The result
is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
from time import perf_counter

import formulas as F
from reference import Speedometer

import illoc.cli
import illoc.matrix_m
import illoc.matrix_mb
import illoc.opposition
import illoc.syntax
from illoc.boolalg import AlgebraSpec
from illoc.hyper import hyper_to_json
from illoc.matrix_mb import MBMode, valuation_to_json
from illoc.opposition import CheckSpace
from illoc.search import BudgetExceeded

def matches(expected, actual) -> bool:
    """Every key of an expected dict matches; lists match item by item."""
    if isinstance(expected, dict):
        return isinstance(actual, dict) and all(
            key in actual and matches(value, actual[key]) for key, value in expected.items()
        )
    if isinstance(expected, list):
        return (isinstance(actual, (list, tuple)) and len(expected) == len(actual)
                and all(matches(e, a) for e, a in zip(expected, actual)))
    return expected == actual


def _hyper(value):
    return None if value is None else hyper_to_json(value)


def _valuation(value):
    return None if value is None else valuation_to_json(value)


def _space(args):
    return AlgebraSpec(F.algebra(args["k"])), MBMode(args["mode"])


def _defs(args) -> dict:
    return {name: F.to_ast(body) for name, body in args["defs"].items()}


def prepare(check):
    """(call, answer) for a check: call() is timed, answer(result) is not."""
    kind, args = check["kind"], check["args"]
    mb, m, opp = illoc.matrix_mb, illoc.matrix_m, illoc.opposition
    if kind == "taut_mb":
        ast, (spec, mode) = F.to_ast(args["tree"]), _space(args)
        return (lambda: mb.is_tautology_mb(ast, spec, mode),
                lambda r: {"status": r.status, "witness": _valuation(r.witness),
                           "value": _hyper(r.witness_value)})
    if kind in ("idempotence", "neg_swap"):
        spec, mode = _space(args)
        if kind == "idempotence":
            call = lambda: mb.find_idempotence_counterexample(spec, mode)  # noqa: E731
        else:
            only = args["complementary_only"]
            call = lambda: mb.find_neg_swap_counterexample(spec, mode, complementary_only=only)  # noqa: E731
        return call, lambda r: {"found": r.found, "witness": _valuation(r.witness),
                                "left_value": _hyper(r.left_value),
                                "right_value": _hyper(r.right_value)}
    if kind == "entail_mb":
        spec, mode = _space(args)
        left, right = F.to_ast(args["left"]), F.to_ast(args["right"])
        space = CheckSpace("mb", spec, mode)
        return lambda: opp.entails(left, right, space), lambda r: r.to_json()
    if kind == "square_mb":
        spec, mode = _space(args)
        space = CheckSpace("mb", spec, mode)
        return lambda: opp.square_for_force("f", "p", space), lambda r: r.to_json()
    if kind == "taut_m":
        defs, main = _defs(args), F.to_ast(args["main"])
        return (lambda: m.is_tautology_m(main, defs),
                lambda r: {"status": r.status, "witness": r.witness,
                           "value": None if r.witness_value is None else str(r.witness_value)})
    if kind == "entail_m":
        defs = _defs(args)
        left, right = F.to_ast(args["left"]), F.to_ast(args["right"])
        space = CheckSpace("m")
        return lambda: opp.entails(left, right, space, defs), lambda r: {"holds": r.holds}
    if kind == "fmt_roundtrip":
        text = args["text"]
        syntax = illoc.syntax

        def round_trip():
            first = syntax.parse(text)
            printed = syntax.format_program(first.definitions, first.formula)
            return first, printed, syntax.parse(printed)

        return round_trip, lambda r: {"text": r[1], "stable": r[0] == r[2]}
    if kind == "cli":
        argv = args["argv"]

        def run_cli():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = illoc.cli.main(argv)
                except SystemExit as exit_:
                    code = exit_.code
            return code, out.getvalue(), err.getvalue()

        return run_cli, lambda r: r
    raise ValueError(f"unknown check kind {kind!r}")


def wrong_answer(check, result):
    """None when the answer is the expected one, else what differs."""
    expect = check["expect"]
    if check["kind"] == "cli":
        code, out, err = result
        if code in expect.get("refusal_exits", ()) and err.strip() and not out:
            return None
        if code != expect["exit"]:
            return f"exit code {code}, expected {expect['exit']}: {err.strip()[:200]}"
        text = out.rstrip("\n")
        if "stdout" in expect and text != expect["stdout"]:
            return f"stdout {text[:200]!r}, expected {expect['stdout'][:200]!r}"
        if "json" in expect:
            try:
                data = json.loads(out)
            except ValueError:
                return f"stdout is not JSON: {text[:200]!r}"
            if not matches(expect["json"], data):
                return f"JSON output differs: {text[:300]}"
        if "lines" in expect:
            lines = text.split("\n")
            if len(lines) != len(expect["lines"]):
                return f"{len(lines)} lines, expected {len(expect['lines'])}"
            for want, got in zip(expect["lines"], lines):
                if isinstance(want, str):
                    ok = got == want
                else:
                    prefix = want["prefix"]
                    ok = got.startswith(prefix) and _json_equal(got[len(prefix):], want["json"])
                if not ok:
                    return f"line {got[:200]!r} differs from {want!r}"[:400]
        if "has_line" in expect and expect["has_line"] not in text.split("\n"):
            return f"no line {expect['has_line']!r} in {text[:300]!r}"
        if "stderr" in expect and not err.startswith(expect["stderr"]):
            return f"stderr {err[:200]!r}, expected it to start with {expect['stderr']!r}"
        return None
    if check["kind"] == "fmt_roundtrip":
        expect = {"text": expect["text"], "stable": True}
    answer = check["answer"](result)
    wanted = {k: v for k, v in expect.items() if k not in ("index", "value_str")}
    if not matches(wanted, answer):
        return f"answer {json.dumps(answer, default=str)[:300]} differs from {json.dumps(wanted)[:300]}"
    return None


def _json_equal(text, expected) -> bool:
    try:
        return json.loads(text) == expected
    except ValueError:
        return False


class Client:
    """Sends checks one at a time and keeps latencies and failures."""

    def __init__(self, deck):
        self.deck = deck
        for check in deck:
            check["call"], check["answer"] = prepare(check)
        self.samples: list = []  # (deck position, start, seconds) per execution
        self.speed = Speedometer()
        self.failures: dict = {}
        self.incorrect = 0
        self.stdout_bytes = 0

    def run(self, index: int, tracer=None):
        check = self.deck[index % len(self.deck)]
        result = error = None
        start = perf_counter()
        try:
            if tracer is None:
                result = check["call"]()
            else:
                result = tracer.check_span(index, check["call"])
        except Exception as exc:  # a crash is a failed check, reported with its cause
            error = exc
        elapsed = perf_counter() - start
        self.samples.append((index % len(self.deck), start, elapsed))
        refused = isinstance(error, BudgetExceeded) or (
            check["kind"] == "cli" and result is not None and result[0] == 4)
        if error is not None:
            cause = f"{type(error).__name__}: {str(error)[:160]}"
            if type(error).__name__ == check.get("known_error"):
                cause = "known failure, " + cause
            else:
                self.incorrect += 1
                cause = "uncaught " + cause
        else:
            cause = wrong_answer(check, result)
            if cause is not None:
                self.incorrect += 1
                cause = "wrong answer: " + cause
        if cause is not None:
            key = (check["label"], cause)
            self.failures[key] = self.failures.get(key, 0) + 1
        if check["kind"] == "cli" and result is not None:
            self.stdout_bytes += len(result[1].encode("utf-8"))
        return refused

    def summary(self, wall: float) -> dict:
        """Metrics over every execution, each time scaled to the reference speed."""
        latencies = [seconds * self.speed.scale(start, start + seconds)
                     for _, start, seconds in self.samples]
        ms = sorted(t * 1000 for t in latencies)
        n = len(ms)
        deciles = statistics.quantiles(ms, n=10, method="inclusive") if n > 1 else ms * 9
        beyond = [position for (position, _, _), t in zip(self.samples, latencies)
                  if t * 1000 > deciles[8]]
        scanned = [(self.deck[position]["full_scan"], t)
                   for (position, _, _), t in zip(self.samples, latencies)
                   if self.deck[position]["full_scan"]]
        scan_s = sum(t for _, t in scanned)
        failed = sum(self.failures.values())
        return {
            "attempted": n,
            "failed": failed,
            "incorrect": self.incorrect,
            "wall_s": wall,
            "passes": n / len(self.deck),
            "wall_checks_per_s": n / wall,
            "raw_checks_per_s": n / sum(seconds for _, _, seconds in self.samples),
            "reference_ms": (1000 * statistics.median(self.speed.samples)
                             if self.speed.samples else None),
            "checks_per_s": n / sum(latencies),
            "verdict_p50_ms": statistics.median(ms),
            "verdict_p90_ms": deciles[8],
            "beyond_p90": len(beyond),
            "distinct_beyond_p90": len(set(beyond)),
            "full_scan_valuations": sum(v for v, _ in scanned),
            "full_scan_valuations_per_s": sum(v for v, _ in scanned) / scan_s if scan_s else 0.0,
            "failed_ratio": failed / n if n else 0.0,
            "failures": [{"check": label, "cause": cause, "count": count}
                         for (label, cause), count in sorted(self.failures.items())],
        }


def timed_run(deck, seconds: float) -> dict:
    """Whole passes over the deck, so that every run sends the same mix.

    A new pass starts only if one as long as the last still ends within
    `seconds`; the first pass always runs.
    """
    client = Client(deck)
    client.speed.sample()
    start = last_sample = perf_counter()
    index, pass_s = 0, 0.0
    while index == 0 or perf_counter() - start + pass_s <= seconds:
        pass_start = perf_counter()
        for _ in deck:
            client.run(index)
            index += 1
            if perf_counter() - last_sample >= 0.1:
                client.speed.sample()
                last_sample = perf_counter()
        pass_s = perf_counter() - pass_start
    result = client.summary(perf_counter() - start)
    result["deck_size"] = len(deck)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def traced_run(deck, trace_out: str) -> dict:
    from tracing import Tracer, layer_metrics

    client = Client(deck)
    for index in range(len(deck)):  # warm up: lazy set-up and caches
        client.run(index)
    untraced = Client(deck)
    start = perf_counter()
    for index in range(len(deck)):
        untraced.run(index)
    untraced_s = perf_counter() - start

    tracer = Tracer()
    traced = Client(deck)
    refused = set()
    tracer.install()
    try:
        start = perf_counter()
        for index in range(len(deck)):
            if traced.run(index, tracer):
                refused.add(index)
        traced_s = perf_counter() - start
    finally:
        tracer.uninstall()
    tracer.counts["cli.stdout_bytes"] = traced.stdout_bytes
    metrics = layer_metrics(tracer.spans, tracer.counts, refused)
    metrics.update({
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.spans": len(tracer.spans),
        "trace.checks": len(deck),
    })
    tracer.write(trace_out)
    result = traced.summary(traced_s)
    result["layers"] = metrics
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--deck", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args()
    with open(args.deck, encoding="utf-8") as handle:
        deck = json.load(handle)
    if args.trace_out:
        result = traced_run(deck, args.trace_out)
    else:
        result = timed_run(deck, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
