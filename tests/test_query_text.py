"""The query front end: scanning, parsing and formatting query text.

The scanner reads query text with one regular expression. It must give the
ASTs and error texts of the character loop it replaced, which is kept below,
with the parser of its time, as the reference. It rests on ``\\w`` and ``\\s``
in a ``str`` pattern being exactly ``str.isalnum() or "_"`` and
``str.isspace()``, which is checked over every code point, so a Unicode
database where they part is caught on the interpreter that has it.
"""

from __future__ import annotations

import random
import re
import sys
from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from onco_rewriter import pipeline
from onco_rewriter.pipeline import (
    _KEYWORDS,
    MAX_NESTING,
    And,
    ConceptRef,
    HasAssociationSome,
    HasAttributeSome,
    HasValueEquals,
    QueryNode,
    QuerySyntaxError,
    _check_structure,
    _conjoin,
    format_query,
)

# --- the reference: the scanner's earlier character loop and its parser -----


@dataclass(frozen=True)
class _Token:
    kind: str  # NAME, KEYWORD, STRING, LPAREN, RPAREN
    text: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "(":
            tokens.append(_Token("LPAREN", "(", i + 1))
            i += 1
        elif ch == ")":
            tokens.append(_Token("RPAREN", ")", i + 1))
            i += 1
        elif ch == '"':
            start = i
            i += 1
            literal = []
            while i < len(text) and text[i] != '"':
                if text[i] == "\\" and i + 1 < len(text) and text[i + 1] in ('"', "\\"):
                    literal.append(text[i + 1])
                    i += 2
                else:
                    literal.append(text[i])
                    i += 1
            if i >= len(text):
                raise QuerySyntaxError("unterminated string literal", start + 1)
            i += 1
            tokens.append(_Token("STRING", "".join(literal), start + 1))
        elif ch.isalpha() or ch == "_":
            start = i
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            kind = "KEYWORD" if word in _KEYWORDS else "NAME"
            tokens.append(_Token(kind, word, start + 1))
        else:
            raise QuerySyntaxError(f"unexpected character '{ch}'", i + 1)
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], length: int):
        self.tokens = tokens
        self.pos = 0
        self.end = length + 1
        self.depth = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> _Token:
        token = self.peek()
        if token is None:
            raise QuerySyntaxError("unexpected end of query", self.end)
        self.pos += 1
        return token

    def expect_keyword(self, word: str) -> None:
        token = self.take()
        if token.kind != "KEYWORD" or token.text != word:
            raise QuerySyntaxError(f"expected '{word}', got '{token.text}'", token.position)

    def at_keyword(self, word: str) -> bool:
        token = self.peek()
        return token is not None and token.kind == "KEYWORD" and token.text == word

    def parse_expr(self) -> QueryNode:
        terms = [self.parse_term()]
        while self.at_keyword("and"):
            self.take()
            terms.append(self.parse_term())
        return _conjoin(terms)

    def parse_term(self) -> QueryNode:
        token = self.peek()
        if token is None or token.kind != "KEYWORD":
            return self.parse_primary()
        if token.text in ("hasAssociation", "hasAttribute"):
            self.take()
            self.expect_keyword("some")
            inner = self.parse_primary()
            if token.text == "hasAssociation":
                return HasAssociationSome(inner)
            return HasAttributeSome(inner)
        if token.text == "hasValue":
            self.take()
            self.expect_keyword("value")
            literal = self.take()
            if literal.kind != "STRING":
                raise QuerySyntaxError("expected a quoted string literal", literal.position)
            return HasValueEquals(literal.text)
        raise QuerySyntaxError(f"unexpected keyword '{token.text}'", token.position)

    def parse_primary(self) -> QueryNode:
        token = self.peek()
        if token is None:
            raise QuerySyntaxError("unexpected end of query", self.end)
        if token.kind == "LPAREN":
            if self.depth == MAX_NESTING:
                raise QuerySyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING} levels", token.position
                )
            self.take()
            self.depth += 1
            expr = self.parse_expr()
            self.depth -= 1
            closing = self.take()
            if closing.kind != "RPAREN":
                raise QuerySyntaxError("expected ')'", closing.position)
            return expr
        if token.kind == "NAME":
            self.take()
            return ConceptRef(token.text)
        raise QuerySyntaxError(
            f"expected a concept name or parenthesized expression, got '{token.text}'",
            token.position,
        )



def parse_query(text: str) -> QueryNode:
    """Parse a concept-level query text into its AST."""
    parser = _Parser(_tokenize(text), len(text))
    expr = parser.parse_expr()
    trailing = parser.peek()
    if trailing is not None:
        raise QuerySyntaxError(f"unexpected trailing input '{trailing.text}'", trailing.position)
    _check_structure(expr)
    return expr


# --- the tests ----------------------------------------------------------------

NAMES = ["Gene", "Gene_Symbol", "Single_Nucleotide_Polymorphism", "_x", "x1", "é2"]
# "1abc", "22" and "²" are words no name may start with; "\x85", "\x1c" and
# "\u3000" are whitespace to str.isspace
PIECES = [*'()"\\ \t\n', *sorted(_KEYWORDS), *NAMES]
PIECES += ["1abc", "22", "²", "é", "\x85", "\x1c", "\u3000"]
NESTINGS = ["(", "Gene and hasAssociation some ("]


def random_piece(rng: random.Random) -> str:
    if rng.random() < 0.8:
        return rng.choice(PIECES)
    return chr(rng.randrange(sys.maxunicode + 1))


def random_query(rng: random.Random, depth: int = 0) -> QueryNode:
    """A query AST as the parser builds it, with literals of any characters."""

    def context(parts: list[QueryNode]) -> QueryNode:
        concept = ConceptRef(rng.choice(NAMES))
        return And((concept, *parts)) if parts else concept

    parts: list[QueryNode] = []
    for _ in range(rng.randrange(3 if depth < 3 else 1)):
        if rng.random() < 0.5:
            values = [
                HasValueEquals("".join(random_piece(rng) for _ in range(rng.randrange(6))))
                for _ in range(rng.randrange(3))
            ]
            parts.append(HasAttributeSome(context(values)))
        else:
            parts.append(HasAssociationSome(random_query(rng, depth + 1)))
    return context(parts)


def random_text(rng: random.Random) -> str:
    """Piece soup, a formatted query, or a formatted query with a piece
    spliced in; one in ten wrapped in 100 or 101 levels of parentheses."""
    roll = rng.random()
    if roll < 0.4:
        text = "".join(random_piece(rng) for _ in range(rng.randrange(30)))
    else:
        text = format_query(random_query(rng))
        if roll < 0.7:
            cut = rng.randrange(len(text) + 1)
            text = text[:cut] + random_piece(rng) + text[cut + rng.randrange(3) :]
    if rng.random() < 0.1:
        depth = rng.choice((MAX_NESTING, MAX_NESTING + 1))
        text = rng.choice(NESTINGS) * depth + text + ")" * depth
    return text


def outcome(parse, text: str):
    try:
        return parse(text)
    except QuerySyntaxError as error:
        return (str(error), error.position)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_scanner_gives_the_character_loops_asts_and_errors(seed):
    rng = random.Random(seed)
    for _ in range(100):
        text = random_text(rng)
        assert outcome(pipeline.parse_query, text) == outcome(parse_query, text), text


def test_word_and_space_classes_are_the_str_predicates():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    words = {c for c in every if c.isalnum() or c == "_"}
    spaces = {c for c in every if c.isspace()}
    assert set(re.findall(r"\w", every)) ^ words == set()
    assert set(re.findall(r"\s", every)) ^ spaces == set()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_formatted_queries_parse_back(seed):
    rng = random.Random(seed)
    for _ in range(30):
        ast = random_query(rng)
        assert pipeline.parse_query(format_query(ast)) == ast
