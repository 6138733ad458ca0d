import pytest
from hypothesis import given, settings

from lamupsilon import (
    SHIFT,
    Abs,
    App,
    Closure,
    Index,
    Lift,
    ParseError,
    Rng,
    Slash,
    enumerate_terms,
    parse_term,
    render_subst,
    render_term,
    sample_term,
    size,
)

from conftest import terms


def test_parse_examples():
    assert parse_term("\\0") == Abs(Index(0))
    assert parse_term("(\\\\1) 0") == App(Abs(Abs(Index(1))), Index(0))
    assert parse_term("0[lift(0/)]") == Closure(Index(0), Lift(Slash(Index(0))))


def test_render_examples():
    assert render_term(Abs(Index(0))) == "\\0"
    assert render_term(App(App(Index(0), Index(1)), Index(0))) == "0 1 0"
    assert render_term(Closure(Index(0), SHIFT)) == "0[shift]"


def test_application_grouping():
    # left-associative: explicit grouping only on the right
    assert parse_term("0 1 0") == App(App(Index(0), Index(1)), Index(0))
    assert render_term(App(Index(0), App(Index(1), Index(0)))) == "0 (1 0)"
    assert parse_term("0 (1 0)") == App(Index(0), App(Index(1), Index(0)))


def test_lambda_body_extends_right():
    assert parse_term("\\0 0") == Abs(App(Index(0), Index(0)))
    assert render_term(App(Abs(Index(0)), Index(0))) == "(\\0) 0"


def test_closure_binds_tighter_than_application():
    assert parse_term("0 0[shift]") == App(Index(0), Closure(Index(0), SHIFT))
    chained = parse_term("0[shift][0/]")
    assert chained == Closure(Closure(Index(0), SHIFT), Slash(Index(0)))
    assert render_term(chained) == "0[shift][0/]"


def test_abstraction_under_closure_needs_parentheses():
    t = Closure(Abs(Index(0)), SHIFT)
    assert render_term(t) == "(\\0)[shift]"
    assert parse_term("(\\0)[shift]") == t


def test_slash_takes_a_full_term():
    assert parse_term("0[\\0/]") == Closure(Index(0), Slash(Abs(Index(0))))
    assert parse_term("0[0 1/]") == Closure(Index(0), Slash(App(Index(0), Index(1))))


def test_render_subst():
    assert render_subst(SHIFT) == "shift"
    assert render_subst(Lift(Slash(Abs(Index(0))))) == "lift(\\0/)"


def test_whitespace_is_insignificant_between_tokens():
    assert parse_term(" ( 0 ) [ shift ] ") == Closure(Index(0), SHIFT)
    assert parse_term("0\t1\n0") == parse_term("0 1 0")


def test_round_trip_exhaustive_small_sizes():
    for n in range(1, 9):
        for t in enumerate_terms(n):
            assert parse_term(render_term(t)) == t


def test_round_trip_random_large_terms():
    for i in range(300):
        t = sample_term(150, Rng.derived(12345, i))
        assert parse_term(render_term(t)) == t


@given(terms)
def test_round_trip_arbitrary_terms(t):
    assert parse_term(render_term(t)) == t


@given(terms)
@settings(max_examples=50)
def test_rendering_is_canonical(t):
    # parse o render is the identity, so render o parse fixes its image
    assert render_term(parse_term(render_term(t))) == render_term(t)


# The (offset, expected, found) of every malformed input.  All but the last
# three are as the recursive-descent parser reported them; "²" and a numeral
# too long for int() used to escape as ValueError.
MALFORMED = {
    "": (0, {"an index", "'('", "'\\'"}, "end of input"),
    "0[": (2, {"'shift'", "'lift'", "a term"}, "end of input"),
    "(": (1, {"an index", "'('", "'\\'"}, "end of input"),
    "(0": (2, {"')'"}, "end of input"),
    "\\": (1, {"an index", "'('", "'\\'"}, "end of input"),
    "lift": (0, {"an index", "'('", "'\\'"}, "'lift'"),
    "0)": (1, {"end of input"}, "')'"),
    "0 x": (2, {"'shift'", "'lift'"}, "'x'"),
    "0[lift(shift]": (12, {"')'"}, "']'"),
    "0[0]": (3, {"'/'"}, "']'"),
    "01a": (2, {"'shift'", "'lift'"}, "'a'"),
    "0 @": (2, {"a term"}, "'@'"),
    "²": (0, {"a term"}, "'²'"),  # a digit, but not a decimal one
    "0²": (1, {"a term"}, "'²'"),
    "9" * 5000: (0, {"an index"}, "5000 digits"),
}


def parse_error(text):
    with pytest.raises(ParseError) as info:
        parse_term(text)
    return info.value.offset, set(info.value.expected), info.value.found


@pytest.mark.parametrize(
    "text", [t if len(t) < 20 else pytest.param(t, id="9*5000") for t in MALFORMED]
)
def test_malformed_inputs_raise(text):
    assert parse_error(text) == MALFORMED[text]


def test_parse_error_carries_offset_and_expectations():
    assert parse_error("0[") == MALFORMED["0["]
    assert parse_error("0 @") == MALFORMED["0 @"]
    assert parse_error("0[lift 7") == (7, {"'('"}, "'7'")  # the index's value
    assert parse_error("0[lift(") == (7, MALFORMED["0["][1], "end of input")


def test_parse_error_on_trailing_garbage():
    assert parse_error("0)") == MALFORMED["0)"]
    assert parse_error("\\0 \\0") == (3, {"end of input"}, "'\\\\'")


@pytest.mark.parametrize("text", [{"a": 1}, b"0", ["0"], None, 0])
def test_text_that_is_not_a_str_raises_type_error(text):
    # a dict leaked "KeyError: 0", and bytes an internal TypeError
    with pytest.raises(TypeError) as raised:
        parse_term(text)
    assert str(raised.value) == f"text must be a str, not {text!r}"


def test_leading_zeros_read_as_decimal():
    assert parse_term("007") == Index(7)
    assert parse_term("1٣") == Index(13)  # any Unicode decimal digit


def test_rendered_terms_have_exact_size():
    for i in range(50):
        t = sample_term(40, Rng.derived(5150, i))
        assert size(parse_term(render_term(t))) == 40


def test_moderately_deep_nesting_parses():
    deep = Index(0)
    for _ in range(400):
        deep = Abs(deep)
    assert parse_term(render_term(deep)) == deep
    wrapped = parse_term("(" * 150 + "0" + ")" * 150)
    assert wrapped == Index(0)
    lifted = parse_term("0[" + "lift(" * 200 + "shift" + ")" * 200 + "]")
    assert size(lifted) == 203  # closure + index + 200 lifts + shift


def test_very_deep_nesting_parses(default_recursion_limit):
    depth = 100_000
    assert parse_term("(" * depth + "0" + ")" * depth) == Index(0)
    binders = Index(0)
    for _ in range(depth):
        binders = Abs(binders)
    assert parse_term("\\" * depth + "0") == binders
    lifts, payloads, args = SHIFT, Index(0), Index(0)
    for _ in range(depth):
        lifts = Lift(lifts)
        payloads = Closure(Index(0), Slash(payloads))
        args = App(Index(0), args)
    for deep in (Closure(Index(0), lifts), payloads, args):
        assert parse_term(render_term(deep)) == deep
