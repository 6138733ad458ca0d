import copy
import pickle
import re
from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import given

from lamupsilon import (
    SHIFT,
    Abs,
    App,
    BinTree,
    BudgetExceeded,
    Closure,
    Index,
    Lift,
    Rng,
    Shift,
    Slash,
    enumerate_terms,
    enumerate_trees,
    is_pure,
    iter_subterms,
    normalize,
    parse_term,
    phi,
    render_term,
    replace_at,
    sample_term,
    size,
    size_sub,
    subterm_at,
)
from lamupsilon.terms import _abs, _app, _closure, _index, _lift, _slash, children, with_child
from lamupsilon.trees import _bintree

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


def test_terms_never_equal_skeletons():
    # both hash their one-entry code (0,), but the classes differ
    assert hash(Index(0)) == hash(BinTree()) == hash((0,))
    assert Index(0).__eq__(BinTree()) is NotImplemented
    assert BinTree() != Index(0) and not BinTree() == Index(0)
    assert len({Index(0), BinTree()}) == 2


def test_equality_agrees_with_the_codes_on_small_terms():
    # enumerate_terms shares subterms between terms; the deep copies share none
    small = [t for n in range(1, 7) for t in enumerate_terms(n)]
    others = small + [copy.deepcopy(t) for t in small]
    codes = [t._code() for t in others]
    for a in small:
        code = a._code()
        for b, other in zip(others, codes):
            assert (a == b) == (code == other)


def test_equality_does_not_walk_a_shared_subterm(monkeypatch):
    tower = _tower(Index(0))  # every Lift of these terms lies inside the tower
    walked = []
    monkeypatch.setattr(Lift, "_children", lambda node: walked.append(node) or (node.sub,))
    assert App(tower, Index(0)) == App(tower, Index(0))
    assert App(tower, Index(0)) != App(tower, Index(1))
    assert walked == []


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
    for node in (object(), BinTree()):
        with pytest.raises(TypeError):
            children(node)
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
    new = Lift(SHIFT) if isinstance(node, Lift) else Index(5)  # the first slot's sort
    assert with_child(node, 0, new) == type(node)(new, *children(node)[1:])


@pytest.mark.parametrize("node", [
    Index(3),
    Abs(Index(0)),
    App(Index(0), Index(1)),
    Closure(Index(0), SHIFT),
    Slash(Index(2)),
    Lift(SHIFT),
    SHIFT,
    BinTree(BinTree(), None),
])
def test_nodes_are_slotted_and_frozen(node):
    assert not hasattr(node, "__dict__")
    assert pickle.loads(pickle.dumps(node)) == node
    assert copy.deepcopy(node) == node
    for name in [field.name for field in fields(node)] + ["foo", "__class__"]:
        with pytest.raises(FrozenInstanceError):
            setattr(node, name, Index(0))
        with pytest.raises(FrozenInstanceError):
            delattr(node, name)


#: The sorts of each class's children, in order, stated apart from the classes.
_CHILD_SORTS = {Index: (), Shift: (), Abs: ("T",), App: ("T", "T"), Closure: ("T", "S"),
                Slash: ("T",), Lift: ("S",)}
_SORT_OF = {Index: "T", Abs: "T", App: "T", Closure: "T", Slash: "S", Lift: "S", Shift: "S"}


#: A well-sorted example of each class with children, and a child of the wrong
#: sort for each sort: a term slot takes no substitution, a substitution slot no term.
_GOOD = [
    Abs(Index(0)), App(Index(0), Index(1)), Closure(Index(0), SHIFT), Slash(Index(2)), Lift(SHIFT),
]
_WRONG = {"Term": (SHIFT, Lift(SHIFT), Slash(Index(0)), 0, None, BinTree()),
          "Subst": (Index(0), Abs(Index(0)), Closure(Index(0), SHIFT), 0, None)}


@pytest.mark.parametrize("node", _GOOD)
def test_ill_sorted_children_raise_type_error(node):
    # the root of replace_at is a term, so a substitution sits in a closure
    root, path = (node, ()) if _SORT_OF[node.__class__] == "T" else (Closure(Index(0), node), (1,))
    name = node.__class__.__name__
    for ordinal, field in enumerate(fields(node)):
        sort = "a term" if field.type == "Term" else "a substitution"
        for wrong in _WRONG[field.type]:
            error = f"^{name} {field.name} must be {sort}, not {re.escape(repr(wrong))}$"
            kids = list(children(node))
            kids[ordinal] = wrong
            with pytest.raises(TypeError, match=error):
                node.__class__(*kids)
            with pytest.raises(TypeError, match=error):
                with_child(node, ordinal, wrong)
            with pytest.raises(TypeError, match=error):
                replace_at(root, path + (ordinal,), wrong)


def test_replace_at_checks_the_slot_below_the_root():
    # the replaced node's parent is rebuilt checked, the rest of the spine unchecked
    t = App(Abs(Index(0)), Closure(Index(1), Lift(Slash(Index(2)))))
    with pytest.raises(TypeError, match="^Abs body must be a term, not Shift"):
        replace_at(t, (0, 0), SHIFT)
    with pytest.raises(TypeError, match=r"^Slash term must be a term, not Lift\(sub=Shift\(\)\)$"):
        replace_at(t, (1, 1, 0, 0), Lift(SHIFT))
    assert replace_at(t, (1, 1, 0, 0), Abs(Index(3))) == parse_term(r"(\0) 1[lift(\3/)]")


def _assert_well_sorted(term):
    stack = [(term, "T")]
    while stack:
        node, sort = stack.pop()
        assert _SORT_OF[node.__class__] == sort, node
        if node.__class__ is Index:
            assert node.n.__class__ is int and node.n >= 0, node
        stack += zip(children(node), _CHILD_SORTS[node.__class__])


def test_parser_sampler_and_rewriter_build_well_sorted_nodes():
    # they build through the unchecked factories; every size <= 7, exhaustively
    for n in range(1, 8):
        for tree in enumerate_trees(n):
            _assert_well_sorted(phi(tree))
        for t in enumerate_terms(n):
            _assert_well_sorted(parse_term(render_term(t)))
        for k in range(20):
            _assert_well_sorted(sample_term(n, Rng.derived(n, k)))
    for n in range(1, 6):
        for t in enumerate_terms(n):
            for strategy in ("full", "upsilon"):
                try:
                    _, trace = normalize(t, strategy, 60)
                except BudgetExceeded as stop:
                    trace = stop.trace
                for step in trace.steps:
                    _assert_well_sorted(step.result)


@pytest.mark.parametrize("factory, cls, args", [
    (_index, Index, (3,)),
    (_abs, Abs, (Index(0),)),
    (_app, App, (Index(0), Abs(Index(1)))),
    (_closure, Closure, (Index(0), Lift(SHIFT))),
    (_slash, Slash, (Index(2),)),
    (_lift, Lift, (SHIFT,)),
    (_bintree, BinTree, (BinTree(), None)),
])
def test_factory_built_nodes_are_the_public_ones(factory, cls, args):
    node, public = factory(*args), cls(*args)
    assert node.__class__ is cls and not hasattr(node, "__dict__")
    assert node == public and public == node and hash(node) == hash(public)
    assert repr(node) == repr(public)
    assert pickle.dumps(node) == pickle.dumps(public)
    for copied in (pickle.loads(pickle.dumps(node)), copy.copy(node), copy.deepcopy(node)):
        assert copied == public and copied.__class__ is cls
    for name in [field.name for field in fields(node)] + ["foo"]:
        with pytest.raises(FrozenInstanceError):
            setattr(node, name, Index(0))
        with pytest.raises(FrozenInstanceError):
            delattr(node, name)


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
