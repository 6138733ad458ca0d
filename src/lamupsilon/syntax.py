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

``parse_term(render_term(t)) == t`` for every term whose indices have at
most 4300 digits, and rendering uses minimal parentheses with single
spaces.  Longer indices render, but the parser rejects them, as ``int()``
does by default.

Parsing and rendering keep explicit stacks, so input of any depth works
under the default recursion limit.
"""

from __future__ import annotations

from decimal import Decimal

from .terms import SHIFT, Abs, App, Closure, Index, Lift, Shift, Subst, Term
from .terms import _abs, _app, _closure, _index, _lift, _of_sort, _slash


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
        elif ch.isdecimal():
            start = i
            while i < n and text[i].isdecimal():
                i += 1
            try:
                tokens.append(("index", int(text[start:i]), start))
            except ValueError:  # over int()'s digit limit (4300 by default)
                raise ParseError(start, {"an index"}, f"{i - start} digits") from None
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


def _int_text(k: int) -> str:
    """Decimal digits of k at any length (str() of an int stops at 4300)."""
    return str(Decimal(k))


def _fail(token: tuple[str, object, int], expected: set[str]):
    kind, value, offset = token
    found = "end of input" if kind == "eof" else repr(str(value))
    raise ParseError(offset, expected, found)


def _expect(tokens: list, pos: int, kind: str) -> int:
    if tokens[pos][0] != kind:
        _fail(tokens[pos], {"end of input" if kind == "eof" else repr(kind)})
    return pos + 1


# The token that closes each construct left open on the parser's stack.
_CLOSER = {"(": ")", "[": "]", "lift": ")", "/": "/", "eof": "eof"}


def parse_term(text: str) -> Term:
    """Parse the concrete syntax; raises ParseError on malformed input.

    One loop keeps the open constructs on a stack, innermost last: the
    token that opened each, "/" for a slash payload and "app" for an
    application (applications and closures sit on their left part).  The
    grammar gives every child its sort, and an index token is a
    non-negative int, so the unchecked factories build the nodes.
    """
    tokens = _tokenize(text)
    pos = 0
    stack: list = ["eof"]
    in_subst = False
    while True:
        # Descend to the first index of a term, or the shift of a substitution.
        node = None
        if in_subst:
            while tokens[pos][0] == "lift":
                pos = _expect(tokens, pos + 1, "(")
                stack.append("lift")
            kind = tokens[pos][0]
            if kind == "shift":
                pos += 1
                node = SHIFT
            elif kind in ("index", "(", "\\"):
                stack.append("/")
                in_subst = False
            else:
                _fail(tokens[pos], {"'shift'", "'lift'", "a term"})
        while node is None:
            kind, value, _ = tokens[pos]
            if kind == "index":
                node = _index(value)
            elif kind in ("\\", "("):
                stack.append(kind)
            else:
                _fail(tokens[pos], {"an index", "'('", "'\\'"})
            pos += 1
        # Ascend: close constructs until one needs a new term or substitution.
        while True:
            if not in_subst:  # node is a primary, with any closures so far
                kind = tokens[pos][0]
                if kind == "[":
                    stack += [node, "["]
                    pos += 1
                    in_subst = True
                    break
                if stack[-1] == "app":
                    stack.pop()
                    node = _app(stack.pop(), node)
                if kind in ("index", "("):
                    stack += [node, "app"]
                    break
                while stack[-1] == "\\":
                    stack.pop()
                    node = _abs(node)
            frame = stack.pop()
            pos = _expect(tokens, pos, _CLOSER[frame])
            if frame == "eof":
                return node
            if frame == "[":
                node = _closure(stack.pop(), node)
            elif frame != "(":
                node = _slash(node) if frame == "/" else _lift(node)
            in_subst = frame in ("/", "lift")


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
            try:
                out.append(str(node.n))
            except ValueError:  # over str()'s digit limit; Decimal is slower
                out.append(_int_text(node.n))
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
        else:  # a slash
            stack += ["/", (node.term, _TOP)]
    return "".join(out)


def render_term(term: Term) -> str:
    """Canonical text: minimal parentheses, single spaces."""
    return _render(_of_sort(term, "Term"), _TOP)


def render_subst(sub: Subst) -> str:
    """Canonical text of a substitution, as it appears inside ``[...]``."""
    return _render(_of_sort(sub, "Subst"), _SUB)
