from dataclasses import fields

import pytest
from hypothesis import given

from lamupsilon import (
    SHIFT,
    Abs,
    App,
    Closure,
    Index,
    Lift,
    Shift,
    Slash,
    is_pure,
    iter_subterms,
    render_term,
    replace_at,
    size,
    size_sub,
    subterm_at,
)
from lamupsilon.terms import children, with_child

from conftest import substs, terms


def test_size_of_indices_is_successor_count():
    assert size(Index(0)) == 1
    assert size(Index(7)) == 8


def test_size_examples():
    assert size(Abs(Abs(Index(1)))) == 4
    assert size(Closure(Index(0), SHIFT)) == 3
    assert size_sub(SHIFT) == 1
    assert size_sub(Slash(Index(0))) == 2
    assert size_sub(Lift(Lift(SHIFT))) == 3


@given(terms, terms)
def test_size_additivity(a, b):
    assert size(App(a, b)) == 1 + size(a) + size(b)
    assert size(Abs(a)) == 1 + size(a)


@given(terms, substs)
def test_size_additivity_closures(a, s):
    assert size(Closure(a, s)) == 1 + size(a) + size_sub(s)
    assert size_sub(Slash(a)) == 1 + size(a)
    assert size_sub(Lift(s)) == 1 + size_sub(s)


@given(terms)
def test_every_term_has_positive_size(t):
    assert size(t) >= 1


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        Index(-1)


def test_non_int_index_rejected():
    for n in (2.5, 1.0, True):
        with pytest.raises(TypeError):
            Index(n)


def test_is_pure_examples():
    assert is_pure(Abs(Index(0)))
    assert not is_pure(Closure(Index(0), SHIFT))
    assert not is_pure(App(Index(0), Closure(Index(0), SHIFT)))


@given(terms)
def test_purity_is_hereditary(t):
    if is_pure(t):
        for _, node in iter_subterms(t):
            if isinstance(node, (Index, Abs, App, Closure)):
                assert is_pure(node)


def test_structural_equality_and_hashing():
    a = Closure(App(Index(0), Index(1)), Lift(Slash(Index(2))))
    b = Closure(App(Index(0), Index(1)), Lift(Slash(Index(2))))
    assert a == b and hash(a) == hash(b)
    assert a != Closure(App(Index(0), Index(1)), Lift(Slash(Index(3))))
    assert Abs(Index(0)) != App(Index(0), Index(0)) and Slash(Index(0)) != SHIFT
    assert Abs(Index(0)).__eq__("\\0") is NotImplemented


@given(terms, terms)
def test_equality_agrees_with_canonical_text(a, b):
    assert (a == b) == (render_term(a) == render_term(b))
    assert (a != b) == (render_term(a) != render_term(b))
    if a == b:
        assert hash(a) == hash(b)


def _tower(bottom):
    node = bottom
    for _ in range(100_000):
        node = Closure(Abs(node), Lift(SHIFT))
    return node


def test_very_deep_terms_compare(default_recursion_limit):
    assert _tower(Index(0)) == _tower(Index(0))
    assert _tower(Index(0)) != _tower(Index(1))


def test_very_deep_terms_hash(default_recursion_limit):
    zero, one = _tower(Index(0)), _tower(Index(1))
    assert hash(zero) == hash(_tower(Index(0)))
    seen = {zero: "zero", one: "one"}
    assert len(seen) == 2 and seen[_tower(Index(0))] == "zero"


def test_repr_is_the_dataclass_text():
    # literals taken from the dataclass-generated repr
    assert repr(Closure(App(Index(0), Index(1)), Lift(Slash(Index(2))))) == (
        "Closure(body=App(fun=Index(n=0), arg=Index(n=1)), sub=Lift(sub=Slash(term=Index(n=2))))"
    )
    assert repr(Closure(Abs(Index(3)), SHIFT)) == "Closure(body=Abs(body=Index(n=3)), sub=Shift())"
    assert repr(Index(7)) == "Index(n=7)" and repr(SHIFT) == "Shift()"


def test_very_deep_terms_repr(default_recursion_limit):
    tower = Index(0)
    for _ in range(100_000):
        tower = Abs(tower)
    assert repr(tower) == "Abs(body=" * 100_000 + "Index(n=0)" + ")" * 100_000
    text = repr(_tower(Index(0)))
    assert text.startswith("Closure(body=Abs(body=Closure(") and text.endswith("sub=Lift(sub=Shift()))")


def test_child_ordering():
    t = Closure(App(Index(0), Index(1)), Slash(Index(2)))
    assert children(t) == (App(Index(0), Index(1)), Slash(Index(2)))
    assert children(t.body) == (Index(0), Index(1))
    assert children(Index(9)) == ()
    assert children(SHIFT) == ()
    assert isinstance(with_child(t, 1, SHIFT).sub, Shift)


def test_layout_error_paths():
    with pytest.raises(TypeError):
        children(object())
    x = Index(3)
    for node, ordinal in ((Index(0), 0), (SHIFT, 0), (App(Index(0), Index(1)), 2)):
        with pytest.raises(ValueError):
            with_child(node, ordinal, x)


@pytest.mark.parametrize("node", [
    Abs(Index(0)),
    App(Index(0), Index(1)),
    Closure(Index(0), SHIFT),
    Slash(Index(2)),
    Lift(SHIFT),
])
def test_children_are_the_fields_in_order(node):
    # with_child rebuilds through the class from children(), and repr prints
    # the fields: both need the children to be the fields, in field order
    assert children(node) == tuple(getattr(node, f.name) for f in fields(node))
    assert with_child(node, 0, Index(5)) == type(node)(Index(5), *children(node)[1:])


def test_positions_resolve_and_replace():
    t = App(Abs(Index(0)), Closure(Index(1), Slash(Index(2))))
    assert subterm_at(t, ()) == t
    assert subterm_at(t, (0, 0)) == Index(0)
    assert subterm_at(t, (1, 1)) == Slash(Index(2))
    assert subterm_at(t, (1, 1, 0)) == Index(2)
    assert replace_at(t, (1, 1, 0), Index(9)) == App(
        Abs(Index(0)), Closure(Index(1), Slash(Index(9)))
    )


def test_invalid_positions_raise():
    t = Abs(Index(0))
    with pytest.raises(ValueError):
        subterm_at(t, (1,))
    with pytest.raises(ValueError):
        subterm_at(t, (0, 0))
    with pytest.raises(ValueError):
        replace_at(t, (2,), Index(0))


@given(terms)
def test_replacing_a_subterm_with_itself_is_identity(t):
    for pos, node in iter_subterms(t):
        assert replace_at(t, pos, node) == t


@given(terms)
def test_iter_subterms_positions_resolve(t):
    for pos, node in iter_subterms(t):
        assert subterm_at(t, pos) == node
