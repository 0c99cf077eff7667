"""Unit tests for the MiniACC lexer."""

import pytest
from hypothesis import given, strategies as st

from repro.lang import LexError, tokenize
from repro.lang.tokens import KEYWORDS, TokenKind


def kinds(src):
    return [t.kind for t in tokenize(src)]


def values(src):
    return [t.value for t in tokenize(src)[:-1]]


class TestBasicTokens:
    def test_empty_source_yields_eof(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].kind is TokenKind.EOF

    def test_identifiers_and_keywords(self):
        toks = tokenize("kernel foo double bar_2")
        assert [t.kind for t in toks[:-1]] == [
            TokenKind.KEYWORD,
            TokenKind.IDENT,
            TokenKind.KEYWORD,
            TokenKind.IDENT,
        ]

    def test_integer_literal(self):
        toks = tokenize("42")
        assert toks[0].kind is TokenKind.INT_LIT
        assert toks[0].value == "42"

    def test_long_suffix(self):
        toks = tokenize("42L")
        assert toks[0].kind is TokenKind.INT_LIT
        assert toks[0].value == "42L"

    @pytest.mark.parametrize(
        "lit", ["3.14", "1.", "1e9", "2.5e-3", "1E+6", "0.5f", "7f" if False else "3.0f"]
    )
    def test_float_literals(self, lit):
        toks = tokenize(lit)
        assert toks[0].kind is TokenKind.FLOAT_LIT

    def test_float_suffix_marks_single_precision(self):
        toks = tokenize("2.5f")
        assert toks[0].value.endswith("f")

    @pytest.mark.parametrize("src", ["1.e5", "1.f", "2.x"])
    def test_dot_before_a_letter_ends_the_number(self, src):
        with pytest.raises(LexError) as exc:
            tokenize(src)
        assert exc.value.loc.column == 2

    @pytest.mark.parametrize(
        "src, kind, value",
        [("1F", TokenKind.FLOAT_LIT, "1f"), ("7l", TokenKind.INT_LIT, "7L"),
         ("1._", TokenKind.FLOAT_LIT, "1."), ("1e+", TokenKind.INT_LIT, "1")],
    )
    def test_number_forms(self, src, kind, value):
        tok = tokenize(src)[0]
        assert (tok.kind, tok.value) == (kind, value)

    def test_words_start_with_a_letter_or_underscore(self):
        assert values("é1 _x x² ٣") == ["é1", "_x", "x²", "٣"]
        assert kinds("٣")[0] is TokenKind.INT_LIT  # a Unicode decimal digit
        for src in ["½", "²"]:
            with pytest.raises(LexError, match="unexpected character"):
                tokenize(src)

    def test_member_like_dot_is_error(self):
        with pytest.raises(LexError):
            tokenize("a . b".replace(" ", ""))


class TestOperators:
    def test_multi_char_operators_maximal_munch(self):
        toks = tokenize("<= >= == != && || += -= *= /= ++ --")
        expected = [
            TokenKind.LE,
            TokenKind.GE,
            TokenKind.EQ,
            TokenKind.NE,
            TokenKind.AND_AND,
            TokenKind.OR_OR,
            TokenKind.PLUS_ASSIGN,
            TokenKind.MINUS_ASSIGN,
            TokenKind.STAR_ASSIGN,
            TokenKind.SLASH_ASSIGN,
            TokenKind.PLUS_PLUS,
            TokenKind.MINUS_MINUS,
        ]
        assert [t.kind for t in toks[:-1]] == expected

    def test_single_char_operators(self):
        toks = tokenize("+-*/%<>!&")
        assert len(toks) == 10  # 9 ops + EOF

    def test_adjacent_plus_and_assign_not_merged(self):
        # 'a+ =b' is PLUS then ASSIGN, not PLUS_ASSIGN.
        toks = tokenize("a+ =b")
        assert [t.kind for t in toks[:-1]] == [
            TokenKind.IDENT,
            TokenKind.PLUS,
            TokenKind.ASSIGN,
            TokenKind.IDENT,
        ]


class TestComments:
    def test_line_comment_skipped(self):
        assert values("a // comment\n b") == ["a", "b"]

    def test_block_comment_skipped(self):
        assert values("a /* x\n y */ b") == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("a /* oops")


class TestPragmas:
    def test_pragma_token_captures_text(self):
        toks = tokenize("#pragma acc kernels loop gang vector(64)\n x = 1;")
        assert toks[0].kind is TokenKind.PRAGMA
        assert toks[0].value == "pragma acc kernels loop gang vector(64)"

    def test_pragma_continuation_lines_joined(self):
        src = "#pragma acc kernels \\\n    small(a, b)\nx = 1;"
        toks = tokenize(src)
        assert toks[0].kind is TokenKind.PRAGMA
        assert "small(a, b)" in toks[0].value
        assert "\\" not in toks[0].value

    def test_code_after_pragma_line_lexes_normally(self):
        toks = tokenize("#pragma acc loop seq\nfor")
        assert toks[1].kind is TokenKind.KEYWORD
        assert toks[1].value == "for"


class TestLocations:
    def test_line_and_column_tracking(self):
        toks = tokenize("a\n  b")
        assert (toks[0].loc.line, toks[0].loc.column) == (1, 1)
        assert (toks[1].loc.line, toks[1].loc.column) == (2, 3)

    def test_filename_propagates(self):
        toks = tokenize("x", filename="foo.acc")
        assert toks[0].loc.filename == "foo.acc"

    def test_lex_error_has_location(self):
        with pytest.raises(LexError) as exc:
            tokenize("x @")
        assert exc.value.loc.column == 3


# -- round trip ---------------------------------------------------------------

_OPERATOR_KINDS = [k for k in TokenKind if not any(ch.isalpha() for ch in k.value)]
_EXPONENT = r"([eE][+-]?[0-9]{1,3})"


def _lexeme(kind, pattern):
    return st.from_regex(pattern, fullmatch=True).map(lambda text: (kind, text))


_words = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True)
_chunks = st.from_regex(r"[a-z0-9(),:]+( [a-z0-9(),:]+){0,3}", fullmatch=True)

_lexemes = st.one_of(
    _words.filter(lambda w: w not in KEYWORDS).map(lambda w: (TokenKind.IDENT, w)),
    st.sampled_from(sorted(KEYWORDS)).map(lambda w: (TokenKind.KEYWORD, w)),
    _lexeme(TokenKind.INT_LIT, r"[0-9]{1,6}L?"),
    _lexeme(
        TokenKind.FLOAT_LIT,
        rf"([0-9]{{1,4}}\.[0-9]{{1,4}}{_EXPONENT}?|\.[0-9]{{1,4}}{_EXPONENT}?"
        rf"|[0-9]{{1,4}}{_EXPONENT})f?|[0-9]{{1,4}}\.|[0-9]{{1,4}}f",
    ),
    st.sampled_from(_OPERATOR_KINDS).map(lambda k: (k, k.value)),
    st.lists(_chunks, min_size=1, max_size=3).map(
        lambda chunks: (TokenKind.PRAGMA, chunks)
    ),
)

#: Trivia between two lexemes.  Each starts with whitespace, so it cannot
#: merge with the lexeme before it (``/`` + ``/* */`` would open a ``//``).
_trivia = st.lists(
    st.sampled_from(
        [" ", "\t", "\n", "\r\n", "// line comment\n", "/* block */", "/* two\n lines */"]
    ),
    max_size=3,
).map(lambda pieces: " " + "".join(pieces))


@st.composite
def _rendered(draw):
    """Source text for random lexemes, plus the tokens it must lex to."""
    text, expected = "", []
    for kind, spelling in draw(st.lists(_lexemes, max_size=40)):
        offset = len(text)
        if kind is TokenKind.PRAGMA:
            # A directive runs to the end of its line; backslash-newline
            # continues it, and its chunks are joined by single spaces.
            text += "#" + " \\\n  ".join(spelling) + "\n"
            value = " ".join(spelling)
        else:
            text += spelling
            value = spelling
        line = text.count("\n", 0, offset) + 1
        column = offset - text.rfind("\n", 0, offset)
        expected.append((kind, value, line, column))
        text += draw(_trivia)
    line = text.count("\n") + 1
    expected.append((TokenKind.EOF, "", line, len(text) - text.rfind("\n")))
    return text, expected


class TestRoundTrip:
    @given(_rendered())
    def test_rendered_tokens_lex_back(self, case):
        text, expected = case
        got = [(t.kind, t.value, t.loc.line, t.loc.column) for t in tokenize(text)]
        assert got == expected
