import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamupsilon import (
    SHIFT,
    Abs,
    App,
    BinTree,
    Closure,
    Index,
    InvalidSize,
    Lift,
    Rng,
    Slash,
    catalan,
    enumerate_terms,
    enumerate_trees,
    node_count,
    phi,
    phi_inv,
    remy_tree,
    render_term,
    sample_term,
    size,
    tree_from_json,
    tree_to_json,
)
from lamupsilon.trees import _BATCH, LEAF, _from_shape, _shape, _words

from conftest import chi_square_quantile, terms

skeletons = st.deferred(
    lambda: st.one_of(
        st.just(LEAF),
        st.builds(BinTree, st.none() | skeletons, st.none() | skeletons),
    )
)


def test_node_count():
    assert node_count(LEAF) == 1
    assert node_count(BinTree(LEAF, BinTree(right=LEAF))) == 4


def test_enumerate_trees_is_catalan():
    for n in range(1, 9):
        trees = enumerate_trees(n)
        assert len(trees) == catalan(n)
        assert len(set(trees)) == len(trees)
        assert all(node_count(t) == n for t in trees)


def test_phi_base_cases():
    assert phi(LEAF) == Index(0)
    assert phi(BinTree(right=LEAF)) == Abs(Index(0))
    assert phi(BinTree(left=LEAF)) == Index(1)


def test_phi_closure_cases():
    # only-left child that itself has only a right child: a shift closure
    assert phi(BinTree(left=BinTree(right=LEAF))) == Closure(Index(0), SHIFT)
    # only-left child with two children: a slash closure
    assert phi(BinTree(left=BinTree(LEAF, LEAF))) == Closure(Index(0), Slash(Index(0)))


def test_phi_left_chains_make_successors_and_lifts():
    chain = LEAF
    for _ in range(4):
        chain = BinTree(left=chain)
    assert phi(chain) == Index(4)
    lifted = BinTree(left=BinTree(left=BinTree(left=BinTree(right=LEAF))))
    assert phi(lifted) == Closure(Index(0), Lift(Lift(SHIFT)))


@pytest.mark.parametrize("node", [SHIFT])
def test_phi_inv_rejects_non_terms(node):
    with pytest.raises(TypeError, match="^not a term: "):
        phi_inv(node)


def test_phi_inv_base_cases():
    assert phi_inv(Index(0)) == LEAF
    assert phi_inv(Abs(Index(0))) == BinTree(right=LEAF)
    assert phi_inv(Closure(Index(0), SHIFT)) == BinTree(left=BinTree(right=LEAF))


def test_round_trip_terms_exhaustive():
    for n in range(1, 9):
        for t in enumerate_terms(n):
            tree = phi_inv(t)
            assert node_count(tree) == size(t)
            assert phi(tree) == t


def test_round_trip_skeletons_exhaustive():
    for n in range(1, 9):
        for tree in enumerate_trees(n):
            t = phi(tree)
            assert size(t) == n
            assert phi_inv(t) == tree


@given(terms)
def test_round_trip_arbitrary_terms(t):
    assert phi(phi_inv(t)) == t


@given(skeletons)
@settings(max_examples=300)
def test_round_trip_arbitrary_skeletons(tree):
    assert node_count(phi_inv(phi(tree))) == node_count(tree)
    assert phi_inv(phi(tree)) == tree


def test_round_trip_random_large_terms():
    for i in range(10_000):
        t = sample_term(100, Rng.derived(31337, i))
        assert phi(phi_inv(t)) == t


def test_deep_index_chains_round_trip():
    # exercises the iterative left-chain handling well past any
    # recursion limit concern
    t = Index(5000)
    tree = phi_inv(t)
    assert node_count(tree) == 5001
    assert phi(tree) == t


def _left_tower(depth):
    tree = LEAF
    for _ in range(depth):
        tree = BinTree(left=tree)
    return tree


@given(skeletons, skeletons)
def test_skeleton_equality_agrees_with_json(a, b):
    assert (a == b) == (tree_to_json(a) == tree_to_json(b))
    if a == b:
        assert hash(a) == hash(b)


def test_very_deep_skeletons_compare_and_hash(default_recursion_limit):
    tower = _left_tower(100_000)
    assert tower == _left_tower(100_000) and tower != _left_tower(99_999)
    seen = {tower: "tower", _left_tower(99_999): "shorter"}
    assert len(seen) == 2 and seen[_left_tower(100_000)] == "tower"


def test_very_deep_phi_inv(default_recursion_limit):
    # alternating binders and slash closures, 100 000 constructors deep
    t = Index(0)
    for i in range(50_000):
        t = Closure(Abs(t), Lift(Slash(Index(i % 3)))) if i % 2 else App(Abs(t), Index(0))
    tree = phi_inv(t)
    assert node_count(tree) == size(t)
    assert phi(tree) == t


def test_very_deep_tree_to_json(default_recursion_limit):
    data = tree_to_json(_left_tower(100_000))
    depth = 0
    while data["l"] is not None:
        assert data["r"] is None
        data, depth = data["l"], depth + 1
    assert depth == 100_000 and data == {"l": None, "r": None}


def test_very_deep_tree_from_json(default_recursion_limit):
    data = {"l": None, "r": None}
    for i in range(100_000):
        data = {"l": data, "r": None} if i % 2 else {"l": None, "r": data}
    tree = tree_from_json(data)
    assert node_count(tree) == 100_001
    assert phi_inv(phi(tree)) == tree


def test_a_deep_malformed_node_is_quoted_in_bounded_text(default_recursion_limit):
    # the message quotes the node itself, cut at a few levels: a full repr of
    # a 100 000-level node would exceed the recursion limit
    data = {"l": None, "r": None}
    for _ in range(100_000):
        data = {"l": data}
    with pytest.raises(ValueError) as raised:
        tree_from_json(data)
    assert str(raised.value) == (
        "each node must be an object with 'l' and 'r': " + "{'l': " * 6 + "{...}" + "}" * 6
    )


def test_shape_codes():
    # pre-order codes 2*(has left) + (has right), left subtree before right
    assert _shape(LEAF) == [0]
    assert _shape(BinTree(BinTree(right=LEAF), LEAF)) == [3, 1, 0, 0]
    assert _shape(phi_inv(Index(2))) == [2, 2, 0]
    assert _shape(phi_inv(Closure(Abs(Index(0)), Lift(Lift(SHIFT))))) == [2, 2, 2, 1, 1, 0]
    assert _shape(phi_inv(Closure(Index(0), Slash(Index(1))))) == [2, 3, 0, 2, 0]
    for n in range(1, 8):
        for tree in enumerate_trees(n):
            assert _from_shape(_shape(tree)) == tree and len(_shape(tree)) == n


def test_skeleton_repr_is_the_dataclass_text():
    # literal taken from the dataclass-generated repr
    assert repr(BinTree(BinTree(right=LEAF), LEAF)) == (
        "BinTree(left=BinTree(left=None, right=BinTree(left=None, right=None)), "
        "right=BinTree(left=None, right=None))"
    )


def test_very_deep_skeleton_repr(default_recursion_limit):
    text = repr(_left_tower(100_000))
    assert text == "BinTree(left=" * 100_000 + "BinTree(left=None, right=None)" + ", right=None)" * 100_000


def test_hashes_repeat_across_interpreters():
    code = (
        "from lamupsilon import parse_term, phi_inv\n"
        "t = parse_term('(\\\\1 0[lift(shift)]) (0[2/])')\n"
        "print(hash(t), hash(phi_inv(t)))"
    )
    outs = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(sys.path))
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        outs.add(run.stdout)
    assert len(outs) == 1


def test_tree_json_round_trip():
    tree = BinTree(BinTree(right=LEAF), LEAF)
    encoded = tree_to_json(tree)
    assert encoded == {
        "l": {"l": None, "r": {"l": None, "r": None}},
        "r": {"l": None, "r": None},
    }
    assert tree_from_json(json.loads(json.dumps(encoded))) == tree
    assert tree_to_json(None) is None and tree_from_json(None) is None


@pytest.mark.parametrize("data", [
    5, "ab", [None, None], {"l": None}, {"r": None}, {"l": 5, "r": None},
    {"l": None, "r": {"l": None}}, {"l": None, "r": []},
])
def test_tree_from_json_rejects_a_malformed_node(data):
    with pytest.raises(ValueError, match="each node must be an object with 'l' and 'r'"):
        tree_from_json(data)


# --- the random generator ----------------------------------------------


def test_rng_is_deterministic():
    a = Rng(123)
    b = Rng(123)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]
    assert Rng(1).next_u64() != Rng(2).next_u64()


def test_rng_derived_streams_are_independent_of_each_other():
    streams = [Rng.derived(7, i).next_u64() for i in range(100)]
    assert len(set(streams)) == 100
    assert Rng.derived(7, 3).next_u64() == Rng.derived(7, 3).next_u64()


def test_rng_below_is_in_range():
    rng = Rng(99)
    draws = [rng.below(7) for _ in range(2000)]
    assert set(draws) == set(range(7))
    assert all(rng.below(1) == 0 for _ in range(5))
    with pytest.raises(ValueError):
        rng.below(0)


def test_rng_below_rejects_bounds_above_two_to_the_64():
    with pytest.raises(ValueError):
        Rng(0).below(2**64 + 1)


@pytest.mark.parametrize("bound", [2.5, 2.0, True])
def test_rng_below_rejects_bounds_that_are_not_ints(bound):
    with pytest.raises(TypeError, match="must be an int"):
        Rng(0).below(bound)


def test_rng_below_accepts_two_to_the_64():
    rng, raw = Rng(5), Rng(5)
    assert [rng.below(2**64) for _ in range(3)] == [raw.next_u64() for _ in range(3)]


def test_remy_size_one_is_the_single_node():
    for seed in range(5):
        assert remy_tree(1, Rng(seed)) == LEAF


def test_remy_rejects_size_zero():
    with pytest.raises(InvalidSize):
        remy_tree(0, Rng(0))
    with pytest.raises(InvalidSize):
        sample_term(0, Rng(0))


def test_sizes_too_large_to_sample_are_rejected():
    # 10**15 passes the sys.maxsize check, but its 16 PB of arrays lie beyond
    # any address space, so the allocator refuses them without touching memory
    for n in (10**15, 2**62, 10**20):
        with pytest.raises(InvalidSize):
            remy_tree(n, Rng(0))
        with pytest.raises(InvalidSize):
            sample_term(n, Rng(0))


def test_remy_node_counts_are_exact():
    for i in range(50):
        n = 1 + (i * 17) % 64
        assert node_count(remy_tree(n, Rng.derived(2024, i))) == n


def test_remy_two_node_frequencies():
    counts = Counter()
    draws = 4000
    for i in range(draws):
        counts[remy_tree(2, Rng.derived(55, i))] += 1
    assert len(counts) == 2
    chi2 = sum((c - draws / 2) ** 2 / (draws / 2) for c in counts.values())
    assert chi2 <= chi_square_quantile(1, 0.999)


def test_remy_four_node_support_coverage():
    counts = Counter()
    for i in range(14000):
        counts[remy_tree(4, Rng.derived(77, i))] += 1
    assert len(counts) == 14
    assert min(counts.values()) > 0


@pytest.mark.parametrize("n", [4, 5, 6])
def test_sampler_uniformity_chi_square(n):
    classes = catalan(n)
    draws = 700 * classes
    counts = Counter()
    for i in range(draws):
        counts[sample_term(n, Rng.derived(1000 + n, i))] += 1
    assert set(counts) == set(enumerate_terms(n))
    expected = draws / classes
    chi2 = sum((counts[t] - expected) ** 2 / expected for t in counts)
    assert chi2 <= chi_square_quantile(classes - 1, 0.999)


def test_sample_term_size_one():
    assert all(sample_term(1, Rng(seed)) == Index(0) for seed in range(5))


def test_sample_term_determinism():
    a = [render_term(sample_term(5, Rng.derived(42, i))) for i in range(20)]
    b = [render_term(sample_term(5, Rng.derived(42, i))) for i in range(20)]
    assert a == b


def test_sample_term_sizes_exact():
    for i in range(40):
        n = 1 + (i * 37) % 240
        assert size(sample_term(n, Rng.derived(9999, i))) == n


# --- the fused sampler against its reference ---------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _reference(n, rng):
    return phi(remy_tree(n, rng))


def _unxorshift(y, shift):
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def _unmix64(value):
    """Inverse of the SplitMix64 finalizer."""
    x = _unxorshift(value, 31)
    x = x * pow(0x94D049BB133111EB, -1, 1 << 64) & _MASK64
    x = _unxorshift(x, 27)
    x = x * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & _MASK64
    return _unxorshift(x, 30)


def test_unmix64_inverts_the_generator():
    for seed in (0, 1, 2**63, _MASK64):
        word = Rng(seed).next_u64()
        assert Rng((_unmix64(word) - _GOLDEN) & _MASK64).next_u64() == word


# states 0, 1 and 2 golden steps below the 2**64 wrap, and others
@pytest.mark.parametrize("state", [(-k * _GOLDEN) & _MASK64 for k in range(3)] + [1, 2024, _MASK64])
def test_word_kernel_matches_the_scalar_generator(state):
    for count in (1, _BATCH - 1, _BATCH, _BATCH + 1):
        rng = Rng(state)
        assert _words(state, count) == [rng.next_u64() for _ in range(count)], count


@pytest.mark.parametrize("seed", [0, 1, 2024])
def test_fused_sampler_matches_reference(seed):
    # 2n > _BATCH from n = _BATCH // 2 + 1; 2 * _BATCH takes four whole batches
    for n in [*range(1, 65), 1000, _BATCH // 2 + 1, 2 * _BATCH]:
        for i in range(20):
            fused, ref = Rng.derived(seed, i), Rng.derived(seed, i)
            assert sample_term(n, fused) == _reference(n, ref), (n, i)
            assert fused.next_u64() == ref.next_u64()


def test_fused_sampler_matches_reference_on_a_shared_stream():
    for seed in (0, 77):
        fused, ref = Rng(seed), Rng(seed)
        for n in [*range(1, 65), 1000, 1000, 1, 1000]:
            assert sample_term(n, fused) == _reference(n, ref)
            assert fused._state == ref._state


def test_fused_sampler_rejects_like_the_reference():
    # Craft streams whose draw at grafting step k lands just below, at, or
    # above the rejection limit of its bound 2k-1 (draw 2(k-1) of the
    # stream when nothing was rejected before).  At k = _BATCH // 2 + 1
    # that draw is the last word of the first batch.
    for k in [*range(1, 41), 500, 999, 1000, _BATCH // 2 + 1]:
        bound = 2 * k - 1
        limit = (1 << 64) - (1 << 64) % bound
        for word in {limit - 1, limit, _MASK64} - {1 << 64}:
            start = (_unmix64(word) - (2 * k - 1) * _GOLDEN) & _MASK64
            n = max(k, 40)
            fused, ref = Rng(start), Rng(start)
            assert sample_term(n, fused) == _reference(n, ref), (k, word)
            assert fused._state == ref._state
            rejected = ref._state != (start + 2 * n * _GOLDEN) & _MASK64
            assert rejected == (word >= limit)


def test_sampler_memory_stays_bounded():
    # The scalar sampler that the batched kernel replaced peaked at 20.74 MB
    # (tracemalloc, CPython 3.11, 64-bit); bounded batches keep within 10 %
    # of that, where the 200 000 words of one unbounded batch do not.
    tracemalloc.start()
    try:
        sample_term(100_000, Rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * 20.74e6


def test_deep_samples_match_the_recursive_translation(default_recursion_limit):
    # MD5 of the rendered text (plus newline) as the recursive phi produced it
    # under a raised recursion limit; the first is `lamupsilon sample --size
    # 300000 --seed 1`.
    for rng, digest in [
        (Rng.derived(1, 0), "77ea85b4b6bc6adf7d53c9e5b19c4cd0"),
        (Rng(1), "078f4fc6ae58d17b18d0f9a9d8896ebe"),
    ]:
        text = render_term(sample_term(300_000, rng)) + "\n"
        assert hashlib.md5(text.encode()).hexdigest() == digest
