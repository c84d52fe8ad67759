"""Formula trees owned by the benchmark: generation, printing, conversion.

A tree is a nested tuple (JSON turns it into nested lists, which work the
same): ("atom", name), ("ref", name), ("not", body), ("and", l, r),
("or", l, r), ("imp", l, r), ("force", verb, content).

The benchmark writes its inputs as trees so that the expected answers never
pass through the parser under test. The canonical printer follows the grammar
in the README: `->` binds loosest and nests to the right, `|` and `&` nest to
the left, `~` and forces bind tightest, and only needed parentheses are kept.
"""

from __future__ import annotations

import random

ALGEBRA_ATOMS = ("a", "b", "c", "d", "e", "f", "g")
_PREC = {"imp": 1, "or": 2, "and": 3}
_SYMBOL = {"imp": "->", "or": "|", "and": "&"}
_NOT_PREC = 4


def algebra(k: int) -> tuple:
    """Atom names of the Boolean algebra with k atoms."""
    return ALGEBRA_ATOMS[:k]


def atom(name):
    return ("atom", name)


def neg(body):
    return ("not", body)


def force(verb, content):
    return ("force", verb, content)


def conj(left, right):
    return ("and", left, right)


def disj(left, right):
    return ("or", left, right)


def imp(left, right):
    return ("imp", left, right)


def show(tree, ctx: int = 0) -> str:
    """Canonical text: the form `fmt` prints."""
    kind = tree[0]
    if kind in ("atom", "ref"):
        return tree[1]
    if kind == "force":
        return f"[{tree[1]}]({show(tree[2])})"
    if kind == "not":
        return "~" + show(tree[1], _NOT_PREC)
    prec = _PREC[kind]
    if kind == "imp":
        left, right = show(tree[1], prec + 1), show(tree[2], prec)
    else:
        left, right = show(tree[1], prec), show(tree[2], prec + 1)
    text = f"{left} {_SYMBOL[kind]} {right}"
    return f"({text})" if prec < ctx else text


def show_program(defs: dict, tree) -> str:
    lines = [f"act {name} = {show(body)};" for name, body in defs.items()]
    if tree is not None:
        lines.append(show(tree))
    return "\n".join(lines)


def show_noisy(tree, rng: random.Random) -> str:
    """Parseable text with redundant parentheses (on about 30% of nodes) and spacing."""

    def go(t, ctx):
        kind = t[0]
        if kind in ("atom", "ref"):
            text = t[1]
        elif kind == "force":
            text = f"[{t[1]}]( {go(t[2], 0)} )"
        elif kind == "not":
            text = "~" + go(t[1], _NOT_PREC)
        else:
            prec = _PREC[kind]
            if kind == "imp":
                left, right = go(t[1], prec + 1), go(t[2], prec)
            else:
                left, right = go(t[1], prec), go(t[2], prec + 1)
            text = f"{left}  {_SYMBOL[kind]} {right}"
            if prec < ctx:
                return f"({text})"
        return f"({text})" if rng.random() < 0.3 else text

    return go(tree, 0)


def size(tree) -> int:
    kind = tree[0]
    if kind in ("atom", "ref"):
        return 1
    if kind == "force":
        return 1 + size(tree[2])
    if kind == "not":
        return 1 + size(tree[1])
    return 1 + size(tree[1]) + size(tree[2])


def to_ast(tree):
    """Build the package's AST from a tree with its node constructors."""
    from illoc.syntax import ActRef, And, Atom, Force, Implies, Not, Or

    kind = tree[0]
    if kind == "atom":
        return Atom(tree[1])
    if kind == "ref":
        return ActRef(tree[1])
    if kind == "force":
        return Force(tree[1], to_ast(tree[2]))
    if kind == "not":
        return Not(to_ast(tree[1]))
    cls = {"and": And, "or": Or, "imp": Implies}[kind]
    return cls(to_ast(tree[1]), to_ast(tree[2]))


def to_json_ast(tree) -> dict:
    """The AST export shape `fmt --output json` documents."""
    kind = tree[0]
    if kind == "atom":
        return {"kind": "atom", "name": tree[1]}
    if kind == "ref":
        return {"kind": "actref", "name": tree[1]}
    if kind == "force":
        return {"kind": "force", "force": tree[1], "content": to_json_ast(tree[2])}
    if kind == "not":
        return {"kind": "not", "body": to_json_ast(tree[1])}
    name = {"and": "and", "or": "or", "imp": "implies"}[kind]
    return {"kind": name, "left": to_json_ast(tree[1]), "right": to_json_ast(tree[2])}


def random_tree(rng: random.Random, nodes: int, atoms, forces, force_rate=0.15):
    """A random formula with exactly `nodes` nodes over the given atoms.

    A node is a force with probability `force_rate`, a negation with
    probability 0.15, and otherwise a binary connective (or a leaf).
    """
    if nodes <= 1:
        return atom(rng.choice(atoms))
    roll = rng.random()
    if roll < force_rate:
        return force(rng.choice(forces), random_tree(rng, nodes - 1, atoms, forces, force_rate))
    if roll < force_rate + 0.15 or nodes == 2:
        return neg(random_tree(rng, nodes - 1, atoms, forces, force_rate))
    left = rng.randint(1, nodes - 2)
    kind = rng.choice(("and", "or", "imp"))
    return (
        kind,
        random_tree(rng, left, atoms, forces, force_rate),
        random_tree(rng, nodes - 1 - left, atoms, forces, force_rate),
    )


def contains(tree, kind: str) -> bool:
    if tree[0] == kind:
        return True
    return any(isinstance(c, (list, tuple)) and contains(c, kind) for c in tree[1:])


def nested(kind: str, depth: int):
    """`depth` nested negations or `think` forces around the atom p."""
    tree = atom("p")
    for _ in range(depth):
        tree = neg(tree) if kind == "not" else force("think", tree)
    return tree
