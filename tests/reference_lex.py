"""Character-by-character tokenizers for both readers, used as differential oracles.

These are the direct readings of the lexical rules: walk the text one
character at a time, count lines and columns as you go, and give every
token its position up front. `structind.parser` and `structind.render`
scan with one regular expression each and work out a position only when
an error needs it; on every input they must produce the same tokens, the
same positions and the same errors as these.

`parse_program` and `parse_sexpr` below run the package's own parsers on
these tokens and positions, so that comparing them with the package's
functions tests exactly the scanning and the positions.
"""

from dataclasses import dataclass

from structind import parser, render
from structind.parser import ParseError, SourcePos


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    pos: SourcePos


_KEYWORDS = {"data", "deriving"}
_SINGLES = "=|(),!{}"
_OP_CHARS = set(":#$%&*+./<>?@\\^~-")


def tokenize(text: str) -> list[Token]:
    """Declaration tokens, ending with one `eof` token."""
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        pos = SourcePos(line, col)
        if text.startswith("->", i):
            tokens.append(Token("->", "->", pos))
            i += 2
            col += 2
            continue
        if ch in _SINGLES:
            tokens.append(Token(ch, ch, pos))
            i += 1
            col += 1
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            word = text[i:j]
            if word in _KEYWORDS:
                kind = word
            elif word[0].isupper():
                kind = "upper"
            else:
                kind = "lower"
            tokens.append(Token(kind, word, pos))
            col += j - i
            i = j
            continue
        if ch in _OP_CHARS:
            j = i
            while j < n and text[j] in _OP_CHARS:
                j += 1
            tokens.append(Token("op", text[i:j], pos))
            col += j - i
            i = j
            continue
        raise ParseError(pos, f"unexpected character {ch!r}")
    tokens.append(Token("eof", "", SourcePos(line, col)))
    return tokens


def sx_tokenize(text: str) -> list[Token]:
    """S-expression tokens (`(`, `)` and `atom`), ending with one `eof` token."""
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if ch == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        pos = SourcePos(line, col)
        if ch in "()":
            tokens.append(Token(ch, ch, pos))
            i += 1
            col += 1
            continue
        j = i
        while j < n and text[j] not in " \t\r\n();":
            j += 1
        tokens.append(Token("atom", text[i:j], pos))
        col += j - i
        i = j
    tokens.append(Token("eof", "", SourcePos(line, col)))
    return tokens


class _Parser(parser._Parser):
    def __init__(self, text: str):
        self.ref = tokenize(text)
        self.words = [t.text for t in self.ref]
        self.kinds = [t.kind for t in self.ref]
        self.i = self.depth = 0

    def pos(self, index: int) -> SourcePos:
        return self.ref[index].pos


class _SxParser(render._SxParser):
    def __init__(self, text: str):
        self.ref = sx_tokenize(text)
        self.words = [t.text for t in self.ref]
        self.i = 0

    def pos(self, index: int) -> SourcePos:
        return self.ref[index].pos


def parse_program(text: str):
    """`parser.parse_program` on the reference tokens and positions."""
    return _Parser(text).program()


def parse_sexpr(text: str):
    """`render.parse_sexpr` on the reference tokens and positions."""
    return _SxParser(text).document()
