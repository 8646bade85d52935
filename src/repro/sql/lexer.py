"""Hand-written lexer for the SQL subset."""

from typing import NamedTuple

from repro.util import ParseError

KEYWORDS = frozenset(
    {
        "select",
        "from",
        "where",
        "and",
        "or",
        "not",
        "group",
        "order",
        "by",
        "asc",
        "desc",
        "limit",
        "as",
        "between",
        "in",
        "is",
        "null",
        "distinct",
        "update",
        "set",
        "insert",
        "into",
        "values",
        "delete",
    }
)

_OPERATORS = ("<=", ">=", "<>", "!=", "=", "<", ">")
_PUNCT = "(),.*+-"


class Token(NamedTuple):
    """One lexical token: ``kind`` is ``keyword``, ``ident``, ``number``,
    ``string``, ``op``, ``punct`` or ``eof``.  A named tuple, the
    cheapest immutable record to build: every statement text is lexed
    for its template key, most of them for nothing else."""

    kind: str
    value: object
    position: int


class Lexer:
    """Tokenizes an SQL string; iterate or call :meth:`tokens`."""

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def tokens(self):
        out = []
        while True:
            tok = self._next_token()
            out.append(tok)
            if tok.kind == "eof":
                return out

    def _next_token(self):
        self._skip_whitespace_and_comments()
        if self.pos >= len(self.text):
            return Token("eof", None, self.pos)
        ch = self.text[self.pos]
        start = self.pos
        if ch.isalpha() or ch == "_":
            return self._lex_word(start)
        if ch.isdigit() or (ch == "." and self._peek_is_digit(1)):
            return self._lex_number(start)
        if ch == "'":
            return self._lex_string(start)
        for op in _OPERATORS:
            if self.text.startswith(op, self.pos):
                self.pos += len(op)
                return Token("op", op, start)
        if ch in _PUNCT:
            self.pos += 1
            return Token("punct", ch, start)
        raise ParseError("unexpected character %r" % (ch,), start)

    def _skip_whitespace_and_comments(self):
        text = self.text
        while self.pos < len(text):
            if text[self.pos].isspace():
                self.pos += 1
            elif text.startswith("--", self.pos):
                end = text.find("\n", self.pos)
                self.pos = len(text) if end < 0 else end + 1
            else:
                return

    def _peek_is_digit(self, offset):
        idx = self.pos + offset
        return idx < len(self.text) and self.text[idx].isdigit()

    def _lex_word(self, start):
        text = self.text
        while self.pos < len(text) and (text[self.pos].isalnum() or text[self.pos] == "_"):
            self.pos += 1
        word = text[start:self.pos]
        lowered = word.lower()
        if lowered in KEYWORDS:
            return Token("keyword", lowered, start)
        return Token("ident", lowered, start)

    def _lex_number(self, start):
        text = self.text
        seen_dot = False
        seen_exp = False
        while self.pos < len(text):
            ch = text[self.pos]
            if ch.isdigit():
                self.pos += 1
            elif ch == "." and not seen_dot and not seen_exp:
                seen_dot = True
                self.pos += 1
            elif ch in "eE" and not seen_exp and self.pos > start:
                seen_exp = True
                self.pos += 1
                if self.pos < len(text) and text[self.pos] in "+-":
                    self.pos += 1
            else:
                break
        raw = text[start:self.pos]
        try:
            value = float(raw) if (seen_dot or seen_exp) else int(raw)
        except ValueError:
            raise ParseError("malformed number %r" % (raw,), start) from None
        return Token("number", value, start)

    def _lex_string(self, start):
        text = self.text
        self.pos += 1  # opening quote
        chunks = []
        while self.pos < len(text):
            ch = text[self.pos]
            if ch == "'":
                if text.startswith("''", self.pos):  # escaped quote
                    chunks.append("'")
                    self.pos += 2
                    continue
                self.pos += 1
                return Token("string", "".join(chunks), start)
            chunks.append(ch)
            self.pos += 1
        raise ParseError("unterminated string literal", start)
