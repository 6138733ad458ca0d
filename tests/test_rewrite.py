import hashlib
import json

import pytest
from hypothesis import given, settings

from lamupsilon import (
    SHIFT,
    Abs,
    App,
    BinTree,
    BudgetExceeded,
    Closure,
    Index,
    InvalidRedex,
    Lift,
    Redex,
    Rng,
    RuleKind,
    Slash,
    apply_at,
    count_all_redexes,
    count_redexes,
    enumerate_terms,
    find_redexes,
    has_nested_substitution,
    is_pure,
    is_strict_form_bounded,
    iter_subterms,
    match_redex,
    normalize,
    parse_term,
    render_term,
    sample_term,
    size,
    size_sub,
    trace_to_json,
    unsuspended_constructors,
)
from lamupsilon import rewrite
from lamupsilon.cli import main
from lamupsilon.rewrite import UPSILON_RULES, TraceStep, _upsilon_levels, rewrite_root

from conftest import bigstep_normal_form, naive_normalize, terms


def test_match_redex_examples():
    assert match_redex(App(Abs(Index(0)), Index(0))) is RuleKind.BETA
    assert match_redex(Closure(Index(0), Slash(Index(0)))) is RuleKind.FVAR
    assert match_redex(Abs(Index(0))) is None


@pytest.mark.parametrize(
    "term,kind",
    [
        (App(Abs(Index(0)), Index(1)), RuleKind.BETA),
        (Closure(App(Index(0), Index(1)), SHIFT), RuleKind.APP),
        (Closure(Abs(Index(0)), SHIFT), RuleKind.LAMBDA),
        (Closure(Index(0), Slash(Index(3))), RuleKind.FVAR),
        (Closure(Index(4), Slash(Index(3))), RuleKind.RVAR),
        (Closure(Index(0), Lift(SHIFT)), RuleKind.FVARLIFT),
        (Closure(Index(4), Lift(SHIFT)), RuleKind.RVARLIFT),
        (Closure(Index(4), SHIFT), RuleKind.VARSHIFT),
    ],
)
def test_all_eight_patterns(term, kind):
    assert match_redex(term) is kind


def test_no_rule_matches_a_closure_with_closure_body():
    assert match_redex(Closure(Closure(Index(0), SHIFT), SHIFT)) is None
    assert match_redex(App(Index(0), Abs(Index(0)))) is None


def test_rewrite_right_hand_sides():
    a, b = Index(2), Index(3)
    s = Lift(SHIFT)
    assert rewrite_root(App(Abs(a), b), RuleKind.BETA) == Closure(a, Slash(b))
    assert rewrite_root(Closure(App(a, b), s), RuleKind.APP) == App(
        Closure(a, s), Closure(b, s)
    )
    assert rewrite_root(Closure(Abs(a), s), RuleKind.LAMBDA) == Abs(Closure(a, Lift(s)))
    assert rewrite_root(Closure(Index(0), Slash(a)), RuleKind.FVAR) == a
    assert rewrite_root(Closure(Index(5), Slash(a)), RuleKind.RVAR) == Index(4)
    assert rewrite_root(Closure(Index(0), Lift(s)), RuleKind.FVARLIFT) == Index(0)
    assert rewrite_root(Closure(Index(5), Lift(s)), RuleKind.RVARLIFT) == Closure(
        Closure(Index(4), s), SHIFT
    )
    assert rewrite_root(Closure(Index(5), SHIFT), RuleKind.VARSHIFT) == Index(6)


def test_rewrite_root_returns_exactly_where_match_redex_agrees():
    # every node of every term of size <= 8, substitutions included
    returned = raised = 0
    for n in range(1, 9):
        for t in enumerate_terms(n):
            for _, node in iter_subterms(t):
                matched = match_redex(node)
                for kind in RuleKind:
                    try:
                        rewrite_root(node, kind)
                    except InvalidRedex:
                        assert matched is not kind
                        raised += 1
                    else:
                        assert matched is kind
                        returned += 1
    assert (returned, raised) == (2025, 108007)
    with pytest.raises(TypeError, match="'Beta'"):
        rewrite_root(App(Abs(Index(0)), Index(0)), "Beta")


def test_apply_at_worked_reduction_steps():
    a = Index(0)
    start = App(Abs(Abs(Index(1))), a)
    assert apply_at(start, Redex((), RuleKind.BETA)) == Closure(
        Abs(Index(1)), Slash(a)
    )
    lifted = Closure(Index(1), Lift(Slash(a)))
    assert apply_at(lifted, Redex((), RuleKind.RVARLIFT)) == Closure(
        Closure(Index(0), Slash(a)), SHIFT
    )
    assert apply_at(Closure(Index(0), SHIFT), Redex((), RuleKind.VARSHIFT)) == Index(1)


def test_apply_at_rejects_mismatches():
    t = App(Abs(Index(0)), Index(0))
    with pytest.raises(InvalidRedex):
        apply_at(t, Redex((), RuleKind.FVAR))
    with pytest.raises(InvalidRedex):
        apply_at(t, Redex((5,), RuleKind.BETA))


def test_find_redexes_examples():
    t = App(Abs(Index(0)), Closure(Index(0), SHIFT))
    assert [(r.position, r.kind) for r in find_redexes(t)] == [
        ((), RuleKind.BETA),
        ((1,), RuleKind.VARSHIFT),
    ]
    assert find_redexes(Index(5)) == []
    t = Closure(App(Index(0), Index(0)), SHIFT)
    assert find_redexes(t, {RuleKind.APP}) == [Redex((), RuleKind.APP)]


def test_find_redexes_descends_into_substitutions():
    t = Closure(Index(0), Slash(Closure(Index(0), SHIFT)))
    positions = {r.position: r.kind for r in find_redexes(t)}
    assert positions == {(): RuleKind.FVAR, (1, 0): RuleKind.VARSHIFT}


def test_kinds_that_are_not_rule_kinds_raise_type_error():
    t = parse_term("(\\0) 0")
    with pytest.raises(TypeError, match="'Beta'"):
        find_redexes(t, ["Beta"])
    with pytest.raises(TypeError, match="'Beta'"):
        count_redexes(t, "Beta")
    with pytest.raises(TypeError, match="'Beta'"):
        apply_at(t, Redex((), "Beta"))
    assert find_redexes(t, [RuleKind.BETA]) == [Redex((), RuleKind.BETA)]


def test_count_redexes_examples():
    assert count_redexes(App(Abs(Index(0)), Index(0)), RuleKind.BETA) == 1
    assert count_redexes(Abs(Closure(Index(0), Slash(Index(0)))), RuleKind.FVAR) == 1
    assert count_redexes(App(Index(0), Index(0)), RuleKind.BETA) == 0


@given(terms)
def test_count_agrees_with_find(t):
    counts = count_all_redexes(t)
    for kind in RuleKind:
        found = find_redexes(t, {kind})
        assert count_redexes(t, kind) == len(found) == counts[kind]


@given(terms)
def test_total_redexes_bounded_by_size(t):
    assert sum(count_all_redexes(t).values()) <= size(t)
    assert unsuspended_constructors(t) <= size(t)


def test_normalize_worked_reduction():
    normal, trace = normalize(parse_term("(\\\\1) 0"), "full")
    assert render_term(normal) == "\\1"
    assert trace.rules == (
        RuleKind.BETA,
        RuleKind.LAMBDA,
        RuleKind.RVARLIFT,
        RuleKind.FVAR,
        RuleKind.VARSHIFT,
    )
    assert [s.position for s in trace.steps] == [(), (), (0,), (0, 0), (0,)]


def test_normalize_single_step_and_fixed_points():
    normal, trace = normalize(Closure(Index(0), Slash(Index(7))), "upsilon")
    assert normal == Index(7) and len(trace) == 1
    for strategy in ("full", "upsilon"):
        normal, trace = normalize(Index(3), strategy)
        assert normal == Index(3) and len(trace) == 0


def test_upsilon_strategy_leaves_beta_redexes():
    t = App(Abs(Index(0)), Closure(Index(0), SHIFT))
    normal, trace = normalize(t, "upsilon")
    assert normal == App(Abs(Index(0)), Index(1))
    assert trace.rules == (RuleKind.VARSHIFT,)


def test_trace_steps_replay_with_apply_at():
    t = parse_term("(\\\\1) 0 (0[shift] 1[lift(0/)])")
    normal, trace = normalize(t, "full")
    cur = t
    for step in trace.steps:
        cur = apply_at(cur, Redex(step.position, step.rule))
        assert cur == step.result
    assert cur == normal


def test_budget_exceeded_carries_partial_result():
    t = parse_term("(\\\\1) 0")
    with pytest.raises(BudgetExceeded) as info:
        normalize(t, "full", max_steps=2)
    assert render_term(info.value.term) == "\\1[lift(0/)]"
    assert info.value.trace.rules == (RuleKind.BETA, RuleKind.LAMBDA)
    # a zero budget is fine on a normal form
    assert normalize(Index(1), "full", max_steps=0)[0] == Index(1)


def _assert_budget_stops_match_the_naive_rescan(t, strategy):
    # keep_terms=False leaves stale parents on the path at the stop, so the
    # partial result is the one the stop itself repairs
    _, trace = normalize(t, strategy, keep_terms=False)
    for k in range(len(trace)):
        want_term, want_steps, _ = naive_normalize(t, strategy, k)
        with pytest.raises(BudgetExceeded) as info:
            normalize(t, strategy, k, keep_terms=False)
        assert info.value.term == want_term
        assert [(s.rule, s.position) for s in info.value.trace.steps] == want_steps


def test_budget_stops_inside_cascades_match_the_naive_rescan():
    for n in range(1, 6):
        for t in enumerate_terms(n):
            for strategy in ("full", "upsilon"):
                _assert_budget_stops_match_the_naive_rescan(t, strategy)
    for i in range(10):
        _assert_budget_stops_match_the_naive_rescan(sample_term(30, Rng.derived(96, i)), "upsilon")


def test_normalize_argument_validation():
    with pytest.raises(ValueError):
        normalize(Index(0), "lazy")
    with pytest.raises(ValueError):
        normalize(Index(0), "full", max_steps=-1)
    for budget in (2.5, True, "3"):
        with pytest.raises(TypeError, match="max_steps must be an int"):
            normalize(Closure(Index(0), SHIFT), "full", budget)


def test_trace_json_format():
    _, trace = normalize(parse_term("0[0/]"), "upsilon")
    assert trace_to_json(trace) == [
        {"rule": "FVar", "position": [], "term": "0"}
    ]
    _, trace = normalize(parse_term("0[0/]"), "upsilon", keep_terms=False)
    with pytest.raises(ValueError):
        trace_to_json(trace)


def test_engine_matches_naive_rescan_exhaustively():
    for n in range(1, 7):
        for t in enumerate_terms(n):
            for strategy in ("full", "upsilon"):
                want_term, want_steps, done = naive_normalize(t, strategy, 300)
                assert done
                got_term, got_trace = normalize(t, strategy)
                assert got_term == want_term
                assert [(s.rule, s.position) for s in got_trace.steps] == want_steps


def test_engine_matches_naive_rescan_on_random_terms():
    for i in range(60):
        t = sample_term(30, Rng.derived(99, i))
        want_term, want_steps, done = naive_normalize(t, "upsilon", 100000)
        got_term, got_trace = normalize(t, "upsilon", keep_terms=False)
        assert done and got_term == want_term
        assert [(s.rule, s.position) for s in got_trace.steps] == want_steps


def test_upsilon_trace_golden_digest_at_size_1000():
    # Pins the rule and position of every step, the result and the
    # budget flag far beyond the sizes the naive rescan can check.
    digest = hashlib.sha256()
    for k in range(20):
        t = sample_term(1000, Rng.derived(0, k))
        try:
            normal, trace = normalize(t, "upsilon", 20000, keep_terms=False)
            stopped = False
        except BudgetExceeded as exc:
            normal, trace, stopped = exc.term, exc.trace, True
        for step in trace.steps:
            digest.update(f"{step.rule.value} {step.position}\n".encode())
        digest.update(f"{render_term(normal)}\n{stopped}\n".encode())
    assert digest.hexdigest() == (
        "9d4147c863c393c609ef3e49978252fb9abdf716afc05eb1c8ffbf542828a09e"
    )


def test_kept_trace_terms_replay_with_apply_at_at_size_200():
    for i in range(5):
        t = sample_term(200, Rng.derived(6, i))
        normal, trace = normalize(t, "upsilon")
        cur = t
        for step in trace.steps:
            cur = apply_at(cur, Redex(step.position, step.rule))
            assert cur == step.result
        assert cur == normal


def test_full_kept_results_match_the_naive_rescan_on_random_terms():
    # Beta cascades: an Abs built in function position fires its App parent
    for i in range(100):
        t = sample_term(30, Rng.derived(97, i))
        try:
            normal, trace = normalize(t, "full", 2000)
            stopped = False
        except BudgetExceeded as exc:
            normal, trace, stopped = exc.term, exc.trace, True
        want_term, want_steps, done = naive_normalize(t, "full", 2000)
        assert normal == want_term and stopped is not done
        assert [(s.rule, s.position) for s in trace.steps] == want_steps
        cur = t
        for step in trace.steps:
            cur = apply_at(cur, Redex(step.position, step.rule))
            assert cur == step.result
        assert cur == normal


def test_cascades_fire_without_rebuilding_the_parent(monkeypatch):
    # rebuilding a parent only to match it again costs about one _with_child
    # call per step; firing the cascade from the children costs a tenth
    calls, with_child = 0, rewrite._with_child

    def counting_with_child(*args):
        nonlocal calls
        calls += 1
        return with_child(*args)

    monkeypatch.setattr(rewrite, "_with_child", counting_with_child)
    steps = 0
    for k in range(20):
        t = sample_term(1000, Rng.derived(0, k))
        try:
            _, trace = normalize(t, "upsilon", 20000, keep_terms=False)
        except BudgetExceeded as exc:
            trace = exc.trace
        steps += len(trace)
    assert 0 < calls < steps / 4


def test_trace_steps_keep_their_text_and_value_semantics(capsys):
    # TraceStep is a named tuple: the repr text, immutability, equality,
    # hashing and every output format are those of the former dataclass
    assert repr(TraceStep(RuleKind.FVAR, (0, 0), None)) == (
        "TraceStep(rule=<RuleKind.FVAR: 'FVar'>, position=(0, 0), result=None)"
    )
    _, trace = normalize(parse_term("(\\\\1) 0"), "full")
    assert repr(trace) == (
        "Trace(steps=(TraceStep(rule=<RuleKind.BETA: 'Beta'>, position=(), "
        "result=Closure(body=Abs(body=Index(n=1)), sub=Slash(term=Index(n=0)))), "
        "TraceStep(rule=<RuleKind.LAMBDA: 'Lambda'>, position=(), "
        "result=Abs(body=Closure(body=Index(n=1), sub=Lift(sub=Slash(term=Index(n=0)))))), "
        "TraceStep(rule=<RuleKind.RVARLIFT: 'RVarLift'>, position=(0,), result=Abs(body="
        "Closure(body=Closure(body=Index(n=0), sub=Slash(term=Index(n=0))), sub=Shift()))), "
        "TraceStep(rule=<RuleKind.FVAR: 'FVar'>, position=(0, 0), "
        "result=Abs(body=Closure(body=Index(n=0), sub=Shift()))), "
        "TraceStep(rule=<RuleKind.VARSHIFT: 'VarShift'>, position=(0,), "
        "result=Abs(body=Index(n=1)))))"
    )
    step = trace.steps[2]
    for name in ("rule", "position", "result"):
        with pytest.raises(AttributeError):
            setattr(step, name, None)
    again = normalize(parse_term("(\\\\1) 0"), "full")[1].steps[2]
    assert again is not step and again == step and hash(again) == hash(step)
    assert step._replace(result=None) == TraceStep(RuleKind.RVARLIFT, (0,), None)
    assert step != trace.steps[4]
    # the library JSON and the streamed CLI trace, byte for byte, with and
    # without a budget stop
    text = render_term(sample_term(60, Rng.derived(3, 0)))
    for strategy, digest in [
        ("full", "a8517ad47eacc58f15aa8092b3c843c3cf734d0033ecdc61b320d27819817632"),
        ("upsilon", "9f0ae8ddcf069727357a70a49161338095e24f41817c6ca219b3feb6e18a4455"),
    ]:
        assert main(["normalize", "--term", text, "--strategy", strategy, "--trace"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        _, trace = normalize(parse_term(text), strategy)
        assert out.splitlines()[1] == json.dumps(trace_to_json(trace))
        argv = ["normalize", "--term", text, "--strategy", strategy, "--trace", "--max-steps", "7"]
        assert main(argv) == 1
        out = capsys.readouterr().out
        with pytest.raises(BudgetExceeded) as info:
            normalize(parse_term(text), strategy, 7)
        stop = info.value
        assert out == f"{render_term(stop.term)}\n{json.dumps(trace_to_json(stop.trace))}\n"


def test_bigstep_oracle_agrees_on_all_small_terms():
    for n in range(1, 9):
        for t in enumerate_terms(n):
            assert normalize(t, "upsilon", keep_terms=False)[0] == bigstep_normal_form(t)


@pytest.mark.parametrize("n,samples,seed", [(200, 300, 7), (1000, 60, 8)])
def test_bigstep_oracle_agrees_on_random_terms(n, samples, seed):
    for i in range(samples):
        t = sample_term(n, Rng.derived(seed, i))
        assert normalize(t, "upsilon", keep_terms=False)[0] == bigstep_normal_form(t)


def test_bigstep_oracle_agrees_on_deep_binder_towers(default_recursion_limit):
    inner = parse_term("(0 1 (\\2) 3)[lift(0[shift]/)]")
    tower = inner
    for _ in range(100_000):
        tower = Abs(tower)
    # binders under the substitution: one Lift per binder, then lookups
    deep = Index(2000)
    for _ in range(2000):
        deep = Abs(deep)
    for t in (tower, Closure(deep, Slash(inner))):
        normal, _ = normalize(t, "upsilon", keep_terms=False)
        assert normal == bigstep_normal_form(t)


def test_upsilon_normalization_is_pure_small_sizes():
    for n in range(1, 8):
        for t in enumerate_terms(n):
            normal, _ = normalize(t, "upsilon", keep_terms=False)
            assert is_pure(normal)


def test_upsilon_normalization_is_pure_on_random_terms():
    for i in range(100):
        t = sample_term(200, Rng.derived(5, i))
        normal, _ = normalize(t, "upsilon", keep_terms=False)
        assert is_pure(normal)


# Size change of each rule fired at the root, derived from the size rules.
def _root_delta(term, kind):
    if kind is RuleKind.BETA:
        return 0
    if kind is RuleKind.APP:
        return 1 + size_sub(term.sub)  # one new application node plus a copy of s
    if kind is RuleKind.LAMBDA:
        return 1
    if kind is RuleKind.FVAR:
        return -3
    if kind is RuleKind.RVAR:
        return -3 - size(term.sub.term)
    if kind is RuleKind.FVARLIFT:
        return -2 - size_sub(term.sub.sub)
    if kind is RuleKind.RVARLIFT:
        return 0
    return -1  # VarShift


def test_local_size_deltas_exhaustively():
    seen = set()
    for n in range(1, 8):
        for t in enumerate_terms(n):
            kind = match_redex(t)
            if kind is None:
                continue
            seen.add(kind)
            assert size(rewrite_root(t, kind)) == size(t) + _root_delta(t, kind)
    assert seen == set(RuleKind)


@given(terms)
@settings(max_examples=200)
def test_local_size_deltas_random(t):
    kind = match_redex(t)
    if kind is not None:
        assert size(rewrite_root(t, kind)) == size(t) + _root_delta(t, kind)


def test_nested_substitution_examples():
    assert has_nested_substitution(Closure(Index(0), Slash(Closure(Index(0), SHIFT))))
    assert not has_nested_substitution(Closure(Index(0), Slash(Index(0))))
    assert not has_nested_substitution(Abs(Index(0)))


def test_nested_substitution_sees_through_lifts():
    t = Closure(Index(0), Lift(Slash(Closure(Index(0), SHIFT))))
    assert has_nested_substitution(t)


def test_unsuspended_constructor_examples():
    for t in enumerate_terms(6):
        if is_pure(t):
            assert unsuspended_constructors(t) == size(t)
    assert unsuspended_constructors(Closure(Index(0), SHIFT)) == 2
    assert unsuspended_constructors(Closure(Index(0), Slash(Abs(Index(0))))) == 2


@pytest.mark.parametrize("node", [SHIFT])
def test_unsuspended_constructors_rejects_non_terms(node):
    with pytest.raises(TypeError, match="not a term"):
        unsuspended_constructors(node)


@pytest.mark.parametrize("root", [object(), None, "0", BinTree()])
def test_walks_reject_a_root_that_is_not_a_node(root):
    for walk in (normalize, count_all_redexes, find_redexes, has_nested_substitution):
        with pytest.raises(TypeError, match="not a lambda-upsilon node"):
            walk(root)


@pytest.mark.parametrize("node", [SHIFT, Slash(Index(0)), object()])
def test_match_redex_is_none_off_the_term_redexes(node):
    assert match_redex(node) is None


def test_strict_form_examples():
    assert is_strict_form_bounded(Closure(Index(0), Slash(Index(0)))) == "yes"
    assert is_strict_form_bounded(Abs(Closure(Index(0), SHIFT))) == "yes"
    assert is_strict_form_bounded(Index(0)) == "yes"


def test_strict_form_never_yes_on_nested_substitutions():
    # a nested substitution certifies lazy form, so the bounded search
    # must not claim "yes" for these
    witnesses = [
        Closure(Index(0), Slash(Closure(Index(0), SHIFT))),
        Closure(Index(0), Lift(Slash(Closure(Index(0), SHIFT)))),
    ]
    for t in witnesses:
        assert has_nested_substitution(t)
        assert is_strict_form_bounded(t, max_source_size=9, max_steps=30) == "unknown"


def test_strict_form_finds_multi_step_witnesses():
    # \(1[lift(0/)]) comes from (\1)[0/] after one Lambda step
    t = Abs(Closure(Index(1), Lift(Slash(Index(0)))))
    assert is_strict_form_bounded(t) == "yes"


def test_strict_form_bounds_are_checked():
    for bounds in ({"max_steps": -1}, {"max_source_size": -3}):
        with pytest.raises(ValueError, match="must be non-negative"):
            is_strict_form_bounded(Index(0), **bounds)
    for name in ("max_steps", "max_source_size"):
        for bound in (True, False, 2.5, "3"):
            with pytest.raises(TypeError, match=f"{name} must be an int"):
                is_strict_form_bounded(Index(0), **{name: bound})
    # zero bounds are valid: no step beyond the sources, or no source at all
    assert is_strict_form_bounded(Index(1), max_steps=0) == "unknown"
    assert is_strict_form_bounded(Closure(Index(0), Slash(Index(0))), max_source_size=0) == "yes"


def test_strict_form_answers_on_every_term_up_to_size_5():
    # pinned from the per-source breadth-first search this oracle replaced
    cases = [t for n in range(1, 6) for t in enumerate_terms(n)]
    yes = sorted(render_term(t) for t in cases if is_strict_form_bounded(t) == "yes")
    assert (len(cases), len(yes)) == (64, 47)
    digest = hashlib.sha256("\n".join(yes).encode()).hexdigest()
    assert digest == "3b53e7438d7c8027905c35ccae0bff9a4dbfd53358b4215273c33965d9253ae3"


def _upsilon_closure(term):
    """Every term that non-Beta steps reach from ``term``, as a naive fixpoint."""
    reached = {term}
    while True:
        grown = reached | {
            apply_at(t, redex) for t in reached for redex in find_redexes(t, UPSILON_RULES)
        }
        if grown == reached:
            return reached
        reached = grown


@pytest.mark.parametrize("n", range(1, 7))
def test_upsilon_levels_are_the_breadth_first_levels(n):
    for t in enumerate_terms(n):
        levels = list(_upsilon_levels([t]))
        assert levels[0] == [t]
        seen = {t}
        for level, reached in zip(levels, levels[1:]):
            # level k + 1: the one-step successors of level k not met before
            steps = {apply_at(s, r) for s in level for r in find_redexes(s, UPSILON_RULES)}
            assert len(set(reached)) == len(reached) and set(reached) == steps - seen
            seen |= steps
        assert sum(map(len, levels)) == len(seen)  # disjoint levels
        assert seen == _upsilon_closure(t)
        assert list(_upsilon_levels([t], 1)) == levels[:2]


def test_upsilon_normal_forms_of_a_long_reduction(default_recursion_limit):
    from lamupsilon.verify import upsilon_normal_forms_all_orders

    # 1500 VarShift steps, one redex each
    forms = upsilon_normal_forms_all_orders(parse_term("0" + "[shift]" * 1500))
    assert forms == {Index(1500)}


def test_upsilon_confluence_small_scope():
    from lamupsilon.verify import upsilon_normal_forms_all_orders

    for n in range(1, 7):
        for t in enumerate_terms(n):
            forms = upsilon_normal_forms_all_orders(t)
            normal, _ = normalize(t, "upsilon", keep_terms=False)
            assert forms == {normal}
