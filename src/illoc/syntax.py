"""Formula language for illocutionary acts: AST, parser, printer, act definitions.

Grammar (precedence ~ > & > | > ->, with -> right-associative):

    program := ("act" ident "=" formula ";")* formula?
    formula := or ("->" formula)?
    or      := and ("|" and)*
    and     := not ("&" not)*
    not     := "~" not | "[" ident "]" "(" formula ")" | ident | "(" formula ")"

Identifiers are [a-z][a-z0-9_]*; "#" starts a line comment. An identifier
parses as a reference to an act when the program defines an act of that name
(definitions may be mutually recursive), otherwise as an atom. "act" is only
a keyword where a definition can start.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Optional, Union


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


class CyclicAct(ValueError):
    """A referenced act unfolds forever and has no finite inlining."""


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Force:
    force: str
    content: "Formula"


@dataclass(frozen=True)
class ActRef:
    name: str


Formula = Union[Atom, Not, And, Or, Implies, Force, ActRef]
ActDefs = dict[str, Formula]

ILLOCUTIONARY_POINTS = ("assertive", "commissive", "directive", "declarative", "expressive")


@dataclass(frozen=True)
class ForceDecl:
    """A named force with an optional point tag; metadata only, no semantics."""

    name: str
    point: Optional[str] = None

    def __post_init__(self) -> None:
        if not IDENT_RE.fullmatch(self.name):
            raise ValueError(f"bad force name: {self.name!r}")
        if self.point is not None and self.point not in ILLOCUTIONARY_POINTS:
            raise ValueError(
                f"unknown point {self.point!r}; expected one of: "
                + ", ".join(ILLOCUTIONARY_POINTS)
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
_PUNCT = {"~", "&", "|", "(", ")", "[", "]", "=", ";"}


@dataclass(frozen=True)
class _Token:
    kind: str   # "ident", "punct", "arrow", "eof"
    text: str
    line: int
    col: int
    offset: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("->", i):
            tokens.append(_Token("arrow", "->", line, col, i))
            i += 2
            col += 2
            continue
        if ch in _PUNCT:
            tokens.append(_Token("punct", ch, line, col, i))
            i += 1
            col += 1
            continue
        m = IDENT_RE.match(text, i)
        if m:
            word = m.group()
            tokens.append(_Token("ident", word, line, col, i))
            i = m.end()
            col += len(word)
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col, i)
    tokens.append(_Token("eof", "", line, col, n))
    return tokens


@dataclass(frozen=True)
class ParseResult:
    definitions: ActDefs
    formula: Optional[Formula]


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, text: str, expected: tuple[str, ...] = ()) -> _Token:
        tok = self.peek()
        if tok.text != text:
            self.fail(expected or (f"'{text}'",))
        return self.take()

    def fail(self, expected: tuple[str, ...]) -> None:
        tok = self.peek()
        shown = repr(tok.text) if tok.kind != "eof" else "end of input"
        raise ParseError(f"unexpected {shown}", tok.line, tok.col, tok.offset, expected)

    def at_definition(self) -> bool:
        return (
            self.peek().kind == "ident"
            and self.peek().text == "act"
            and self.peek(1).kind == "ident"
            and self.peek(2).text == "="
        )

    def program(self) -> ParseResult:
        defs: ActDefs = {}
        while self.at_definition():
            self.take()  # "act"
            name_tok = self.take()
            if name_tok.text in defs:
                raise ParseError(
                    f"duplicate act definition {name_tok.text!r}",
                    name_tok.line, name_tok.col, name_tok.offset,
                )
            self.expect("=")
            body = self.formula()
            self.expect(";", ("';'",))
            defs[name_tok.text] = body
        main = None
        if self.peek().kind != "eof":
            main = self.formula()
        if self.peek().kind != "eof":
            self.fail(("end of input", "'->'", "'&'", "'|'"))
        names = frozenset(defs)
        defs = {name: _bind_refs(body, names) for name, body in defs.items()}
        main = _bind_refs(main, names) if main is not None else None
        return ParseResult(defs, main)

    def formula(self) -> Formula:
        left = self.disjunction()
        if self.peek().text == "->":
            self.take()
            return Implies(left, self.formula())
        return left

    def disjunction(self) -> Formula:
        left = self.conjunction()
        while self.peek().text == "|":
            self.take()
            left = Or(left, self.conjunction())
        return left

    def conjunction(self) -> Formula:
        left = self.unary()
        while self.peek().text == "&":
            self.take()
            left = And(left, self.unary())
        return left

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.text == "~":
            self.take()
            return Not(self.unary())
        if tok.text == "[":
            self.take()
            name_tok = self.peek()
            if name_tok.kind != "ident":
                self.fail(("force name",))
            self.take()
            self.expect("]")
            self.expect("(", ("'(' around the force's content",))
            content = self.formula()
            self.expect(")")
            return Force(name_tok.text, content)
        if tok.text == "(":
            self.take()
            inner = self.formula()
            self.expect(")")
            return inner
        if tok.kind == "ident":
            self.take()
            return Atom(tok.text)
        self.fail(("'~'", "'['", "'('", "identifier"))
        raise AssertionError("unreachable")


def _bind_refs(f: Formula, names: frozenset[str]) -> Formula:
    return substitute(f, lambda leaf: ActRef(leaf.name) if leaf.name in names else leaf)


def parse(text: str) -> ParseResult:
    """Parse a program: act definitions followed by an optional formula."""
    return _Parser(_tokenize(text)).program()


def parse_formula(text: str) -> Formula:
    """Parse a single formula (no definitions allowed)."""
    result = parse(text)
    if result.formula is None:
        tok = _tokenize(text)[-1]
        raise ParseError("empty formula", tok.line, tok.col, tok.offset, ("a formula",))
    return result.formula


# --- printer ---

_PREC_IMPLIES, _PREC_OR, _PREC_AND, _PREC_NOT, _PREC_LEAF = 1, 2, 3, 4, 5


def _fmt(f: Formula, ctx: int) -> str:
    if isinstance(f, (Atom, ActRef)):
        return f.name
    if isinstance(f, Force):
        return f"[{f.force}]({_fmt(f.content, 0)})"
    if isinstance(f, Not):
        return "~" + _fmt(f.body, _PREC_NOT)
    if isinstance(f, And):
        text = f"{_fmt(f.left, _PREC_AND)} & {_fmt(f.right, _PREC_AND + 1)}"
        prec = _PREC_AND
    elif isinstance(f, Or):
        text = f"{_fmt(f.left, _PREC_OR)} | {_fmt(f.right, _PREC_OR + 1)}"
        prec = _PREC_OR
    elif isinstance(f, Implies):
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

def _children(f: Formula) -> Iterator[Formula]:
    if isinstance(f, Not):
        yield f.body
    elif isinstance(f, (And, Or, Implies)):
        yield f.left
        yield f.right
    elif isinstance(f, Force):
        yield f.content


def walk(f: Formula) -> Iterator[Formula]:
    yield f
    for child in _children(f):
        yield from walk(child)


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

    Each group is a strongly connected component of the reference graph with
    a cycle in it (self-references included), members in definition order.
    """
    names = list(defs)
    graph: dict[str, list[str]] = {}
    for name in names:
        targets = refs_of(defs[name])
        for target in targets:
            if target not in defs:
                raise UnknownActRef(target)
        graph[name] = targets

    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    components: list[list[str]] = []

    def connect(v: str) -> None:
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        for w in graph[v]:
            if w not in index:
                connect(w)
                low[v] = min(low[v], low[w])
            elif w in on_stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            component = []
            while True:
                w = stack.pop()
                on_stack.discard(w)
                component.append(w)
                if w == v:
                    break
            components.append(component)

    for name in names:
        if name not in index:
            connect(name)

    order = {name: i for i, name in enumerate(names)}
    cycles = []
    for component in components:
        if len(component) > 1 or component[0] in graph[component[0]]:
            cycles.append(sorted(component, key=order.__getitem__))
    cycles.sort(key=lambda c: order[c[0]])
    return cycles


def substitute(f: Formula, leaf: Callable[[Formula], Formula]) -> Formula:
    """f rebuilt with every `Atom`/`ActRef` leaf replaced by leaf(node).

    One Python frame per tree level, so the nesting it handles is what the
    parser's own recursion handles.
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

    return substitute(f, resolve)


def unfold_once(f: Formula, defs: Mapping[str, Formula]) -> Formula:
    """Replace every act reference by its definition body, one round only."""

    def body(node: Formula) -> Formula:
        if isinstance(node, Atom):
            return node
        if node.name not in defs:
            raise UnknownActRef(node.name)
        return defs[node.name]

    return substitute(f, body)


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
