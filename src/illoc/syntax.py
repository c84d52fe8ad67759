"""Formula language for illocutionary acts: AST, parser, printer, act definitions.

Grammar (precedence ~ > & > | > ->, with -> right-associative):

    program := ("act" ident "=" formula ";")* formula?
    formula := or ("->" formula)?
    or      := and ("|" and)*
    and     := not ("&" not)*
    not     := "~" not | "[" ident "]" "(" formula ")" | ident | "(" formula ")"

Identifiers are [a-z][a-z0-9_]*; "#" starts a line comment. An identifier
parses as a reference to an act when the program defines an act of that name
(definitions may be mutually recursive) or the caller names it as defined
elsewhere, otherwise as an atom. "act" is only a keyword where a definition
can start.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Callable, Collection, Iterator, Mapping, Optional, Union

from .record import Record, setfield


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int, offset: int,
                 expected: tuple[str, ...] = ()):
        self.message = message
        self.line = line
        self.col = col
        self.offset = offset
        self.expected = expected
        suffix = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at {line}:{col}{suffix}")


class UnknownActRef(ValueError):
    """A reference names an act with no definition."""

    def __str__(self) -> str:
        return f"no definition for act {self.args[0]!r}"


class CyclicAct(ValueError):
    """A referenced act unfolds forever and has no finite inlining."""

    def __str__(self) -> str:
        return f"act {self.args[0]!r} is cyclic: its definition refers back to it"


class Atom(Record):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        _atom_name(self, name)


class Not(Record):
    __slots__ = ("body",)

    def __init__(self, body: Formula) -> None:
        _not_body(self, body)


class And(Record):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula) -> None:
        _and_left(self, left)
        _and_right(self, right)


class Or(Record):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula) -> None:
        _or_left(self, left)
        _or_right(self, right)


class Implies(Record):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula) -> None:
        _implies_left(self, left)
        _implies_right(self, right)


class Force(Record):
    __slots__ = ("force", "content")

    def __init__(self, force: str, content: Formula) -> None:
        _force_force(self, force)
        _force_content(self, content)


class ActRef(Record):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        _actref_name(self, name)


# A node's __init__ calls the `__set__` of each slot, bound here once, rather
# than setting the field by name, which looks the slot up on every node built.
((_atom_name,), (_not_body,), (_and_left, _and_right), (_or_left, _or_right),
 (_implies_left, _implies_right), (_force_force, _force_content), (_actref_name,)) = (
    node._setters for node in (Atom, Not, And, Or, Implies, Force, ActRef))

Formula = Union[Atom, Not, And, Or, Implies, Force, ActRef]
ActDefs = dict[str, Formula]

ILLOCUTIONARY_POINTS = ("assertive", "commissive", "directive", "declarative", "expressive")


class ForceDecl(Record):
    """A named force with an optional point tag; metadata only, no semantics."""

    __slots__ = ("name", "point")

    def __init__(self, name: str, point: Optional[str] = None) -> None:
        setfield(self, "name", name)
        setfield(self, "point", point)
        if not IDENT_RE.fullmatch(name):
            raise ValueError(f"bad force name: {name!r}")
        if point is not None and point not in ILLOCUTIONARY_POINTS:
            raise ValueError(
                f"unknown point {point!r}; expected one of: " + ", ".join(ILLOCUTIONARY_POINTS)
            )

    def to_json(self) -> dict:
        data: dict = {"name": self.name}
        if self.point is not None:
            data["point"] = self.point
        return data

    @staticmethod
    def from_json(data: dict) -> "ForceDecl":
        return ForceDecl(data["name"], data.get("point"))


# --- tokenizer ---

IDENT_RE = re.compile(r"[a-z][a-z0-9_]*")  # the name of an atom, act or force

# One match per token, past the whitespace and comments before it: an arrow,
# a punctuation mark, an identifier, any other character (an error), or the
# empty string at the end of the text.
_TOKEN_RE = re.compile(r"\s*(?:#[^\n]*\s*)*(->|[~&|()\[\]=;]|[a-z][a-z0-9_]*|.|)", re.S)
_SYNTAX = frozenset({"->", "~", "&", "|", "(", ")", "[", "]", "=", ";", ""})


def _tokenize(text: str) -> tuple[list[str], set[str]]:
    """The tokens of text, up to "" for the end of input, and its identifiers.

    No positions are kept: only an error needs one, and `_error` finds it.
    """
    tokens = _TOKEN_RE.findall(text)
    idents = set(tokens).difference(_SYNTAX)
    bad = [token for token in idents if not IDENT_RE.match(token)]
    if bad:
        index = min(map(tokens.index, bad))
        raise _error(text, index, f"unexpected character {tokens[index]!r}")
    return tokens, idents


def _error(text: str, index: int, message: str, expected: tuple[str, ...] = ()) -> ParseError:
    """A ParseError at the index-th token of text, located only now."""
    match = next(islice(_TOKEN_RE.finditer(text), index, None))
    offset = at = match.start(1)
    if not match.group(1):
        # the end of input: its column is that of a trailing comment's "#"
        comment = text.find("#", text.rfind("\n") + 1)
        if comment >= 0:
            at = comment
    line_start = text.rfind("\n", 0, at) + 1
    return ParseError(message, text.count("\n", 0, at) + 1, at - line_start + 1, offset,
                      expected)


def _unexpected(text: str, tokens: list[str], index: int,
                expected: tuple[str, ...]) -> ParseError:
    token = tokens[index]
    shown = repr(token) if token else "end of input"
    return _error(text, index, f"unexpected {shown}", expected)


# --- parser ---

class ParseResult(Record):
    __slots__ = ("definitions", "formula")


_BINARY = {"&": And, "|": Or, "->": Implies}
# the operators a binary operator reduces before it is pushed: "&" binds
# tightest, "&" and "|" group to the left and "->" to the right
_REDUCES = {"&": ("&",), "|": ("&", "|"), "->": ("&", "|")}
_OPERAND = ("'~'", "'['", "'('", "identifier")


def _formula(text: str, tokens: list[str], pos: int,
             leaves: Mapping[str, Formula]) -> tuple[Formula, int]:
    """The formula that starts at tokens[pos], and the position after it.

    Operator precedence over an explicit stack, so nesting costs list entries
    rather than Python frames. `stack` holds the open "~", "(", "[" (a
    force's "[f](") and binary operators above a None; `pending` holds each
    binary operator's left operand and each open force's name.
    """
    stack: list = [None]
    pending: list = []
    while True:
        token = tokens[pos]
        node = leaves.get(token)
        if node is None:
            if token == "~" or token == "(":
                stack.append(token)
                pos += 1
            elif token == "[":
                if tokens[pos + 1] not in leaves:
                    raise _unexpected(text, tokens, pos + 1, ("force name",))
                if tokens[pos + 2] != "]":
                    raise _unexpected(text, tokens, pos + 2, ("']'",))
                if tokens[pos + 3] != "(":
                    raise _unexpected(text, tokens, pos + 3, ("'(' around the force's content",))
                stack.append("[")
                pending.append(tokens[pos + 1])
                pos += 4
            else:
                raise _unexpected(text, tokens, pos, _OPERAND)
            continue
        pos += 1
        while True:  # an operand is complete: close what it completes
            while stack[-1] == "~":
                stack.pop()
                node = Not(node)
            token = tokens[pos]
            if token in _BINARY:
                reduces = _REDUCES[token]
                while stack[-1] in reduces:
                    node = _BINARY[stack.pop()](pending.pop(), node)
                stack.append(token)
                pending.append(node)
                pos += 1
                break
            while stack[-1] in _BINARY:
                node = _BINARY[stack.pop()](pending.pop(), node)
            opener = stack.pop()
            if opener is None:
                return node, pos
            if token != ")":
                raise _unexpected(text, tokens, pos, ("')'",))
            pos += 1
            if opener == "[":
                node = Force(pending.pop(), node)


def parse(text: str, acts: Collection[str] = frozenset()) -> ParseResult:
    """Parse a program: act definitions followed by an optional formula.

    `acts` names acts defined elsewhere, such as in a definitions file: they
    are referenced like the program's own, and defining one again is a
    duplicate definition.
    """
    tokens, idents = _tokenize(text)
    # in a program that parses, "=" follows exactly the names it defines
    names, i = set(acts), -1
    for _ in range(tokens.count("=")):
        i = tokens.index("=", i + 1)
        names.add(tokens[i - 1])
    # one leaf per name, shared by all its occurrences (nodes are immutable)
    leaves = {name: ActRef(name) if name in names else Atom(name) for name in idents}
    definitions: ActDefs = {}
    pos = 0
    while tokens[pos] == "act" and tokens[pos + 1] in leaves and tokens[pos + 2] == "=":
        name = tokens[pos + 1]
        if name in definitions or name in acts:
            raise _error(text, pos + 1, f"duplicate act definition {name!r}")
        body, pos = _formula(text, tokens, pos + 3, leaves)
        if tokens[pos] != ";":
            raise _unexpected(text, tokens, pos, ("';'",))
        definitions[name] = body
        pos += 1
    main = None
    if tokens[pos]:
        main, pos = _formula(text, tokens, pos, leaves)
        if tokens[pos]:
            raise _unexpected(text, tokens, pos, ("end of input", "'->'", "'&'", "'|'"))
    return ParseResult(definitions, main)


def parse_formula(text: str) -> Formula:
    """Parse a single formula (no definitions allowed)."""
    result = parse(text)
    if result.formula is None:
        tokens, _ = _tokenize(text)
        raise _error(text, tokens.index(""), "empty formula", ("a formula",))
    if result.definitions:  # definitions come first: the text starts with one
        raise _error(text, 0, "unexpected act definition", ("a formula",))
    return result.formula

# --- printer ---

_PREC_IMPLIES, _PREC_OR, _PREC_AND, _PREC_NOT, _PREC_LEAF = 1, 2, 3, 4, 5


def _fmt(f: Formula, ctx: int) -> str:
    t = type(f)
    if t is Atom or t is ActRef:
        return f.name
    if t is Force:
        return f"[{f.force}]({_fmt(f.content, 0)})"
    if t is Not:  # a run of ~ in one step, so its length costs no recursion
        run, f = 1, f.body
        while type(f) is Not:
            run, f = run + 1, f.body
        return "~" * run + _fmt(f, _PREC_NOT)
    if t is And:
        text = f"{_fmt(f.left, _PREC_AND)} & {_fmt(f.right, _PREC_AND + 1)}"
        prec = _PREC_AND
    elif t is Or:
        text = f"{_fmt(f.left, _PREC_OR)} | {_fmt(f.right, _PREC_OR + 1)}"
        prec = _PREC_OR
    elif t is Implies:
        text = f"{_fmt(f.left, _PREC_IMPLIES + 1)} -> {_fmt(f.right, _PREC_IMPLIES)}"
        prec = _PREC_IMPLIES
    else:
        raise TypeError(f"not a formula: {f!r}")
    return f"({text})" if prec < ctx else text


def format_formula(f: Formula) -> str:
    """Canonical text with minimal parentheses; parsing it back recovers f."""
    return _fmt(f, 0)


def format_program(defs: ActDefs, formula: Optional[Formula] = None) -> str:
    lines = [f"act {name} = {format_formula(body)};" for name, body in defs.items()]
    if formula is not None:
        lines.append(format_formula(formula))
    return "\n".join(lines)


# --- structural queries ---

def walk(f: Formula) -> Iterator[Formula]:
    """f and every node under it in preorder, left to right, from an explicit stack."""
    stack = [f]
    while stack:
        f = stack.pop()
        yield f
        if isinstance(f, Not):
            stack.append(f.body)
        elif isinstance(f, (And, Or, Implies)):
            stack += f.right, f.left
        elif isinstance(f, Force):
            stack.append(f.content)


def atoms_of(f: Formula) -> list[str]:
    """Atom names in first-occurrence order."""
    seen: dict[str, None] = {}
    for node in walk(f):
        if isinstance(node, Atom):
            seen.setdefault(node.name)
    return list(seen)


def refs_of(f: Formula) -> list[str]:
    seen: dict[str, None] = {}
    for node in walk(f):
        if isinstance(node, ActRef):
            seen.setdefault(node.name)
    return list(seen)


def forces_of(f: Formula, defs: Optional[Mapping[str, Formula]] = None) -> frozenset[str]:
    """Force names occurring in f, looking through act references."""
    defs = defs or {}
    found: set[str] = set()
    visited: set[str] = set()

    def visit(node: Formula) -> None:
        for sub in walk(node):
            if isinstance(sub, Force):
                found.add(sub.force)
            elif isinstance(sub, ActRef):
                if sub.name not in defs:
                    raise UnknownActRef(sub.name)
                if sub.name not in visited:
                    visited.add(sub.name)
                    visit(defs[sub.name])

    visit(f)
    return frozenset(found)


def is_force_free(f: Formula, defs: Optional[Mapping[str, Formula]] = None) -> bool:
    return not forces_of(f, defs)


def detect_cycles(defs: Mapping[str, Formula]) -> list[list[str]]:
    """Groups of definitions whose unfolding never terminates.

    An act is cyclic when it reaches itself through references (a
    self-reference included); a group is the acts that reach each other,
    members in definition order, and the groups come in the order of their
    first members.
    """
    graph: dict[str, list[str]] = {}
    for name, body in defs.items():
        targets = refs_of(body)
        for target in targets:
            if target not in defs:
                raise UnknownActRef(target)
        graph[name] = targets
    reach: dict[str, set[str]] = {}  # the acts each act reaches
    for name in graph:
        seen, todo = set(), list(graph[name])
        while todo:
            target = todo.pop()
            if target not in seen:
                seen.add(target)
                todo.extend(graph[target])
        reach[name] = seen
    groups: dict[frozenset[str], list[str]] = {}
    for name, reached in reach.items():
        if name in reached:
            group = frozenset(other for other in reached if name in reach[other])
            groups.setdefault(group, []).append(name)
    return list(groups.values())


def substitute(f: Formula, leaf: Callable[[Formula], Formula]) -> Formula:
    """f rebuilt with every `Atom`/`ActRef` leaf replaced by leaf(node).

    One Python frame per tree level, so a tree nested deeper than the
    recursion limit allows raises RecursionError here, not in the parser.
    """
    if isinstance(f, (Atom, ActRef)):
        return leaf(f)
    if isinstance(f, Not):
        return Not(substitute(f.body, leaf))
    if isinstance(f, (And, Or, Implies)):
        return type(f)(substitute(f.left, leaf), substitute(f.right, leaf))
    if isinstance(f, Force):
        return Force(f.force, substitute(f.content, leaf))
    raise TypeError(f"not a formula: {f!r}")


def inline_acts(
    f: Formula,
    defs: Mapping[str, Formula],
    keep: frozenset[str] = frozenset(),
) -> Formula:
    """Replace act references by their definitions, erroring on cycles.

    Names in `keep` stay as references (used when a reference is bound to a
    value externally).
    """
    cache: dict[str, Formula] = {}
    expanding: set[str] = set()  # the definitions on the current inlining path

    def resolve(node: Formula) -> Formula:
        if isinstance(node, Atom) or node.name in keep:
            return node
        if node.name in cache:
            return cache[node.name]
        if node.name in expanding:
            raise CyclicAct(node.name)
        if node.name not in defs:
            raise UnknownActRef(node.name)
        expanding.add(node.name)
        cache[node.name] = resolved = substitute(defs[node.name], resolve)
        expanding.remove(node.name)
        return resolved

    try:
        return substitute(f, resolve)
    finally:
        del resolve  # resolve's cell refers to resolve: break the cycle


# --- JSON export of ASTs ---

# kind -> node class and its fields in order; "name" and "force" hold
# identifiers, every other field a subformula
_JSON_KINDS = {
    "atom": (Atom, ("name",)),
    "actref": (ActRef, ("name",)),
    "not": (Not, ("body",)),
    "and": (And, ("left", "right")),
    "or": (Or, ("left", "right")),
    "implies": (Implies, ("left", "right")),
    "force": (Force, ("force", "content")),
}
_JSON_KIND_OF = {cls: kind for kind, (cls, _) in _JSON_KINDS.items()}
_JSON_NAMES = frozenset({"name", "force"})


def formula_to_json(f: Formula) -> dict:
    kind = _JSON_KIND_OF.get(type(f))
    if kind is None:
        raise TypeError(f"not a formula: {f!r}")
    data: dict = {"kind": kind}
    for name in _JSON_KINDS[kind][1]:
        value = getattr(f, name)
        data[name] = value if name in _JSON_NAMES else formula_to_json(value)
    return data


def formula_from_json(data: dict) -> Formula:
    """The formula a `formula_to_json` object describes; ValueError if malformed."""
    if not isinstance(data, dict):
        raise ValueError(f"a formula is a JSON object, not {data!r}")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _JSON_KINDS:
        raise ValueError(f"unknown formula kind: {kind!r}")
    cls, fields = _JSON_KINDS[kind]
    args = []
    for name in fields:
        if name not in data:
            raise ValueError(f"a formula of kind {kind!r} needs {name!r}")
        value = data[name]
        if name not in _JSON_NAMES:
            value = formula_from_json(value)
        elif not isinstance(value, str):
            raise ValueError(f"{name!r} of kind {kind!r} must be a string, not {value!r}")
        args.append(value)
    return cls(*args)
