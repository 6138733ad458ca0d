"""Concrete syntax: parser and canonical printer.

Grammar::

    term    := "\\" term | app
    app     := atom { atom }
    atom    := primary { "[" subst "]" }
    primary := index | "(" term ")"
    index   := digit { digit }
    subst   := "shift" | "lift" "(" subst ")" | term "/"

``\\`` is the binder, application is juxtaposition (left-associative) and
the closure postfix ``[s]`` binds tighter than application.  Whitespace
only separates tokens (it is required between two adjacent numerals).

``parse_term(render_term(t)) == t`` for every term, and rendering uses
minimal parentheses with single spaces.

Rendering is iterative and handles terms of any size; the parser is a
recursive descent, so inputs nested thousands of parentheses deep may
need a raised recursion limit (the command line raises it).
"""

from __future__ import annotations

from .terms import SHIFT, Abs, App, Closure, Index, Lift, Shift, Slash, Subst, Term


class ParseError(ValueError):
    """Malformed input; carries the offset and the expected-token set."""

    def __init__(self, offset: int, expected: set[str], found: str):
        self.offset = offset
        self.expected = frozenset(expected)
        self.found = found
        wanted = ", ".join(sorted(expected))
        super().__init__(f"at offset {offset}: expected {wanted}, found {found}")


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    """Split into (kind, value, offset) triples, ending with ("eof", "", n)."""
    tokens: list[tuple[str, object, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
        elif ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            tokens.append(("index", int(text[start:i]), start))
        elif ch in "\\()[]/":
            tokens.append((ch, ch, i))
            i += 1
        elif ch.isalpha():
            start = i
            while i < n and text[i].isalpha():
                i += 1
            word = text[start:i]
            if word in ("shift", "lift"):
                tokens.append((word, word, start))
            else:
                raise ParseError(start, {"'shift'", "'lift'"}, f"{word!r}")
        else:
            raise ParseError(i, {"a term"}, f"{ch!r}")
    tokens.append(("eof", "", n))
    return tokens


_ATOM_START = ("index", "(")


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, object, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, object, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, description: str) -> tuple[str, object, int]:
        tok = self.peek()
        if tok[0] != kind:
            self.fail({description})
        return self.advance()

    def fail(self, expected: set[str]):
        kind, value, offset = self.peek()
        found = "end of input" if kind == "eof" else repr(str(value))
        raise ParseError(offset, expected, found)

    def term(self) -> Term:
        if self.peek()[0] == "\\":
            self.advance()
            return Abs(self.term())
        return self.app()

    def app(self) -> Term:
        node = self.atom()
        while self.peek()[0] in _ATOM_START:
            node = App(node, self.atom())
        return node

    def atom(self) -> Term:
        node = self.primary()
        while self.peek()[0] == "[":
            self.advance()
            sub = self.subst()
            self.expect("]", "']'")
            node = Closure(node, sub)
        return node

    def primary(self) -> Term:
        kind, value, _ = self.peek()
        if kind == "index":
            self.advance()
            return Index(value)
        if kind == "(":
            self.advance()
            node = self.term()
            self.expect(")", "')'")
            return node
        self.fail({"an index", "'('", "'\\'"})

    def subst(self) -> Subst:
        kind = self.peek()[0]
        if kind == "shift":
            self.advance()
            return SHIFT
        if kind == "lift":
            self.advance()
            self.expect("(", "'('")
            sub = self.subst()
            self.expect(")", "')'")
            return Lift(sub)
        if kind in _ATOM_START or kind == "\\":
            node = self.term()
            self.expect("/", "'/'")
            return Slash(node)
        self.fail({"'shift'", "'lift'", "a term"})


def parse_term(text: str) -> Term:
    """Parse the concrete syntax; raises ParseError on malformed input."""
    parser = _Parser(text)
    node = parser.term()
    if parser.peek()[0] != "eof":
        parser.fail({"end of input"})
    return node


# Rendering contexts: where the node sits in the grammar.
_TOP = 0  # term position: binders need no parentheses
_FUN = 1  # left operand of an application (may itself be an application)
_ARG = 2  # right operand of an application (must be an atom)
_BASE = 3  # closure base (must be a primary; closures chain)
_SUB = 4  # substitution position, inside [...] or lift(...)


def _render(node, ctx: int) -> str:
    out: list[str] = []
    stack: list = [(node, ctx)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, ctx = item
        if isinstance(node, Index):
            out.append(str(node.n))
        elif isinstance(node, Abs):
            if ctx == _TOP:
                out.append("\\")
                stack.append((node.body, _TOP))
            else:
                stack += [")", (node, _TOP), "("]
        elif isinstance(node, App):
            if ctx in (_TOP, _FUN):
                stack += [(node.arg, _ARG), " ", (node.fun, _FUN)]
            else:
                stack += [")", (node, _TOP), "("]
        elif isinstance(node, Closure):
            stack += ["]", (node.sub, _SUB), "[", (node.body, _BASE)]
        elif isinstance(node, Shift):
            out.append("shift")
        elif isinstance(node, Lift):
            stack += [")", (node.sub, _SUB), "lift("]
        elif isinstance(node, Slash):
            stack += ["/", (node.term, _TOP)]
        else:
            raise TypeError(f"not a lambda-upsilon node: {node!r}")
    return "".join(out)


def render_term(term: Term) -> str:
    """Canonical text: minimal parentheses, single spaces."""
    return _render(term, _TOP)


def render_subst(sub: Subst) -> str:
    """Canonical text of a substitution, as it appears inside ``[...]``."""
    return _render(sub, _SUB)
