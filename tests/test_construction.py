from itertools import combinations_with_replacement, product

from gallai_ramsey import (
    TargetSpec,
    build_lower_bound_coloring,
    contains_required,
    find_mono,
    is_gallai,
    path,
    predicted_gr,
    sorted_spec,
    verify_lower,
)
from gallai_ramsey import search
from gallai_ramsey.construction import layer_sizes, layers


def family_specs(ns, ks):
    """Every sorted family spec for the given n and k, under both heads
    when the largest index is n - 1."""
    for n in ns:
        for k in ks:
            for combo in combinations_with_replacement(range(n), k):
                idx = sorted(combo, reverse=True)
                for head in ("cycle", "path") if idx[0] == n - 1 else ("cycle",):
                    yield sorted_spec(idx, n=n, k=k, head=head)


def test_two_path_targets_structure():
    # paths on 5 vertices in both colors: first block K_4 in color 1,
    # one extra vertex joined to everything in color 2
    spec = sorted_spec([1, 1], n=3)
    c = build_lower_bound_coloring(spec)
    assert c.n == 5
    assert layer_sizes(spec) == [4, 1]
    assert find_mono(c, 1, path(5)) is None
    assert find_mono(c, 2, path(5)) is None


def test_cycle_pair_example():
    spec = sorted_spec([2, 2], n=3)
    c = build_lower_bound_coloring(spec)
    assert c.n == 7
    blocks = layers(spec)
    assert [len(b) for b in blocks] == [5, 2]
    for u in blocks[0]:
        for v in blocks[0]:
            if u < v:
                assert c.color(u, v) == 1
    for u in blocks[1]:
        for v in range(c.n):
            if v not in blocks[1]:
                assert c.color(u, v) == 2
    assert contains_required(c, spec.targets()) is None


def test_three_cycles_nine_vertices():
    spec = sorted_spec([2, 2, 2], n=3)
    c = build_lower_bound_coloring(spec)
    assert c.n == 9
    assert layer_sizes(spec) == [5, 2, 2]
    assert is_gallai(c) is True
    assert contains_required(c, spec.targets()) is None


def test_empty_layer_is_skipped():
    # second color never appears: its block is empty
    spec = sorted_spec([3, 0], n=4)
    c = build_lower_bound_coloring(spec)
    assert c.n == 7
    assert set(c.colors) == {1}
    assert contains_required(c, spec.targets()) is None


def test_vertex_count_is_predicted_minus_one():
    for n in (3, 4):
        for k in (2, 3, 4):
            for idx in combinations_with_replacement(range(n), k):
                spec = sorted_spec(sorted(idx, reverse=True), n=n)
                c = build_lower_bound_coloring(spec)
                assert c.n == predicted_gr(spec) - 1


def test_lower_bound_soundness_sample():
    # full sweep lives in the acceptance suite; spot-check here
    for n, idx, head in [
        (3, (2, 1, 0), "cycle"),
        (3, (2, 2, 2, 2), "cycle"),
        (4, (3, 3, 1), "cycle"),
        (4, (3, 2, 2, 0), "path"),
        (4, (3, 3, 3, 3, 3, 3), "cycle"),
    ]:
        spec = sorted_spec(idx, n=n, head=head)
        c = build_lower_bound_coloring(spec)
        assert is_gallai(c) is True
        assert contains_required(c, spec.targets()) is None


def test_caller_color_order():
    # every order of every index multiset, under both heads: the head
    # color is the first with the largest index, and the witness avoids
    # each color's own target on predicted - 1 vertices
    for n in (3, 4):
        for k in (2, 3, 4):
            for idx in product(range(n), repeat=k):
                for head in ("cycle", "path"):
                    spec = TargetSpec(n=n, k=k, indices=idx, head=head)
                    res = verify_lower(spec)
                    assert res.ok, spec.describe()
                    assert res.witness.n == predicted_gr(spec) - 1


def test_unsorted_layers():
    spec = TargetSpec(n=3, k=3, indices=(1, 2, 2))
    assert layer_sizes(spec) == [1, 5, 2]
    assert layers(spec) == [range(5, 6), range(0, 5), range(6, 8)]
    c = build_lower_bound_coloring(spec)
    assert c.color(0, 5) == 1 and c.color(4, 6) == 3 and c.color(5, 7) == 3


def test_matching_cut_settles_every_construction(monkeypatch):
    # Color j's edges all touch its block of i_j vertices, so its class
    # holds at most i_j disjoint edges, one fewer than P_{2 i_j + 3}
    # needs; the head class has too few vertices for its target. So the
    # cuts before the search prove every class free of its target, and
    # the path and cycle kernel never runs. Without the matching cut
    # these 465 specs take 13,300 kernel calls.
    calls = 0
    kernel = search._reach_end

    def counted(*args):
        nonlocal calls
        calls += 1
        return kernel(*args)

    monkeypatch.setattr(search, "_reach_end", counted)
    specs = list(family_specs((3, 4), range(2, 7)))
    assert len(specs) == 465
    for spec in specs:
        assert verify_lower(spec).ok, spec.describe()
    assert calls == 0


def test_larger_families_avoid_their_targets():
    # the 2,148 family specs with n = 5, 6, 7 and 2 to 5 colors, on up to
    # 31 vertices
    count = 0
    for spec in family_specs((5, 6, 7), range(2, 6)):
        assert verify_lower(spec).ok, spec.describe()
        count += 1
    assert count == 2148
