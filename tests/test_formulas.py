import pytest

from gallai_ramsey import (
    IndexOutOfRangeError,
    InvalidSpecError,
    OutOfHypothesesError,
    TargetSpec,
    UnsupportedPairError,
    classical_ramsey,
    even_cycle,
    known_gr,
    matching,
    parse_spec_string,
    path,
    predicted_gr,
    sorted_spec,
)


def test_spec_validation():
    with pytest.raises(InvalidSpecError):
        TargetSpec(n=2, k=2, indices=(1, 1))
    with pytest.raises(InvalidSpecError):
        TargetSpec(n=3, k=1, indices=(1,))
    # indices keep the caller's color order
    assert TargetSpec(n=3, k=2, indices=(1, 2)).indices == (1, 2)
    with pytest.raises(IndexOutOfRangeError):
        TargetSpec(n=3, k=2, indices=(3, 1))
    with pytest.raises(InvalidSpecError):
        TargetSpec(n=3, k=2, indices=(1, 1), head="loop")


def test_sorted_spec_records_color_permutation():
    caller = TargetSpec(n=3, k=3, indices=(0, 2, 1))
    spec = sorted_spec([0, 2, 1], n=3)
    assert spec.indices == (2, 1, 0)
    # sorted color c is caller color (2, 3, 1)[c - 1]
    assert spec.targets() == [caller.target(c) for c in (2, 3, 1)]
    assert spec.head_color() == 1 and caller.head_color() == 2
    assert predicted_gr(spec) == predicted_gr(caller)


def test_sorted_spec_identity_when_sorted():
    spec = sorted_spec([2, 1, 0], n=3)
    assert spec == TargetSpec(n=3, k=3, indices=(2, 1, 0))
    assert spec.targets() == [even_cycle(6), path(5), path(3)]


def test_sorted_spec_out_of_range():
    with pytest.raises(IndexOutOfRangeError):
        sorted_spec([3, 3], n=3)
    with pytest.raises(InvalidSpecError, match="2 indices for k=3 colors"):
        sorted_spec([1, 1], n=3, k=3)


def test_spec_targets():
    spec = sorted_spec([2, 1, 0], n=3, head="cycle")
    assert spec.targets() == [even_cycle(6), path(5), path(3)]
    spec_p = sorted_spec([3, 3], n=4, head="path")
    assert spec_p.targets() == [path(9), path(9)]


def test_parse_spec_string():
    spec = parse_spec_string("n=3 k=3 head=cycle i=2,2,2")
    assert (spec.n, spec.k, spec.head, spec.indices) == (3, 3, "cycle", (2, 2, 2))
    assert parse_spec_string("n=4 i=3,1").k == 2
    assert parse_spec_string("n=4 head=path i=3,3").targets()[0] == path(9)
    with pytest.raises(InvalidSpecError):
        parse_spec_string("n=3 i=2,2 bogus=1")
    with pytest.raises(InvalidSpecError):
        parse_spec_string("k=3 head=cycle")
    for bad in ("n=x i=1,1", "n=3 i=1,x", "n=3 k=x i=1,1"):
        with pytest.raises(InvalidSpecError, match="bad spec value"):
            parse_spec_string(bad)
    # an empty entry is not a dropped color
    for bad, pos in (("n=3 i=1,,0", 2), ("n=3 i=2,1,", 3), ("n=3 i=,2,1", 1)):
        with pytest.raises(InvalidSpecError, match=f"empty index at position {pos} "):
            parse_spec_string(bad)


def test_predicted_gr_examples():
    assert predicted_gr(sorted_spec([2, 2, 2], n=3)) == 10
    assert predicted_gr(sorted_spec([3, 2, 0, 0], n=4)) == 10
    assert predicted_gr(sorted_spec([1, 1], n=3)) == 6


def test_predicted_gr_closed_forms_for_uniform_indices():
    for n in range(3, 11):
        for k in range(2, 11):
            cyc = sorted_spec([n - 1] * k, n=n, head="cycle")
            assert predicted_gr(cyc) == (n - 1) * k + n + 1
            lp = sorted_spec([n - 1] * k, n=n, head="path")
            assert predicted_gr(lp) == (n - 1) * k + n + 2


def test_classical_ramsey_cited_values():
    assert classical_ramsey(even_cycle(8), even_cycle(8)) == 11
    assert classical_ramsey(path(7), even_cycle(8)) == 10
    assert classical_ramsey(path(3), path(3)) == 3
    assert classical_ramsey(path(5), path(5)) == 6
    assert classical_ramsey(even_cycle(6), even_cycle(6)) == 8
    assert classical_ramsey(path(3), even_cycle(6)) == 6
    # argument order must not matter
    assert classical_ramsey(even_cycle(8), path(7)) == 10
    assert classical_ramsey(path(7), path(3)) == classical_ramsey(path(3), path(7)) == 7


def test_classical_ramsey_unsupported_pairs():
    with pytest.raises(UnsupportedPairError):
        classical_ramsey(even_cycle(4), even_cycle(4))
    with pytest.raises(UnsupportedPairError):
        classical_ramsey(even_cycle(6), even_cycle(8))
    with pytest.raises(UnsupportedPairError):
        classical_ramsey(path(2), even_cycle(6))
    with pytest.raises(UnsupportedPairError):
        classical_ramsey(path(8), even_cycle(6))
    with pytest.raises(UnsupportedPairError):
        classical_ramsey(matching(3), matching(3))


def test_predicted_gr_matches_classical_for_two_colors():
    for n in range(3, 7):
        for head in ("cycle", "path"):
            for i1 in range(n):
                for i2 in range(i1 + 1):
                    spec = sorted_spec([i1, i2], n=n, head=head)
                    t1, t2 = spec.targets()
                    assert predicted_gr(spec) == classical_ramsey(t1, t2), spec


def test_known_gr_triangle():
    assert known_gr("K3", 1) == 3
    assert known_gr("K3", 2) == 6
    assert known_gr("K3", 3) == 11
    assert known_gr("K3", 4) == 26
    assert known_gr("C3", 4) == 26


def test_known_gr_paths():
    # floor((n-2)/2) k + ceil(n/2) + 1 for short paths
    for k in range(1, 7):
        assert known_gr("P3", k) == 3
        assert known_gr("P4", k) == k + 3
        assert known_gr("P5", k) == k + 4
        assert known_gr("P6", k) == 2 * k + 4
        assert known_gr("P7", k) == 2 * k + 5
        assert known_gr("P8", k) == 3 * k + 5
        assert known_gr("P9", k) == 3 * k + 6


def test_known_gr_cycles():
    for k in range(1, 7):
        # one color on K_4 is itself a C4, so GR_1(C4) = 4
        assert known_gr("C4", k) == (k + 4 if k >= 2 else 4)
        assert known_gr("C5", k) == 2 ** (k + 1) + 1
        assert known_gr("C6", k) == 2 * k + 4
        assert known_gr("C8", k) == 3 * k + 5
        for half in range(3, 8):
            assert known_gr(f"C{2 * half + 1}", k) == half * 2 ** k + 1


def test_known_gr_matchings():
    for k in range(1, 7):
        assert known_gr("M3", k) == 2 * k + 4
        assert known_gr("M4", k) == 3 * k + 5


def test_known_gr_one_color_is_the_target_order():
    # with one color, K_|H| is itself a copy of H, and K_{|H|-1} holds
    # none, so GR_1(H) = |H|
    names = [f"P{m}" for m in range(3, 13)] + [f"C{m}" for m in range(4, 13)]
    names += [f"M{s}" for s in range(3, 7)] + ["K3"]
    for name in names:
        order = 2 * int(name[1:]) if name[0] == "M" else int(name[1:])
        assert known_gr(name, 1) == order, name


def test_known_gr_two_colors_is_the_ramsey_number():
    # GR_2(H) = R(H, H): every 2-coloring is Gallai
    for m in range(10, 21):
        assert known_gr(f"P{m}", 2) == classical_ramsey(path(m), path(m)), m
    for m in range(10, 21, 2):
        assert known_gr(f"C{m}", 2) == classical_ramsey(even_cycle(m), even_cycle(m)), m
    # R(M_s, M_s) = 3s - 1 (Cockayne & Lorimer 1975)
    for s in range(3, 10):
        assert known_gr(f"M{s}", 2) == 3 * s - 1, s


def test_known_gr_bounds():
    assert known_gr("C10", 3) == (4 * 3 + 6, 4 * 3 + 15)
    assert known_gr("P10", 3) == (4 * 3 + 6, 4 * 3 + 15)
    assert known_gr("P11", 3) == (4 * 3 + 7, 4 * 3 + 15)
    for name in ("C10", "C12", "P10", "P13"):
        for k in range(3, 7):
            lo, hi = known_gr(name, k)
            assert lo <= hi
    # past the exact range the lower bound is the construction's value,
    # which at k <= 2 is the value itself
    def lower(value, k):
        if k <= 2:
            assert isinstance(value, int)
            return value
        return value[0]

    for k in range(1, 7):
        for m in range(10, 16):
            h = m // 2
            assert lower(known_gr(f"P{m}", k), k) == (h - 1) * k + h + 1 + m % 2
        for m in range(10, 15, 2):
            h = m // 2
            assert lower(known_gr(f"C{m}", k), k) == (h - 1) * k + h + 1
    # every matching is exact: Cockayne & Lorimer's R_k(M_s) bounds GR_k
    # from above and meets the construction
    for k in range(1, 7):
        for s in range(1, 9):
            assert known_gr(f"M{s}", k) == (s - 1) * k + s + 1, (s, k)


def test_known_gr_out_of_hypotheses():
    for name in ("P0", "P2", "C2", "M0", "C17", "K4", "K5", "X9"):
        with pytest.raises(OutOfHypothesesError):
            known_gr(name, 3)
    with pytest.raises(OutOfHypothesesError):
        known_gr("C6", 0)


def test_known_gr_agrees_with_predicted_family_values():
    # uniform even-cycle family against the dedicated C6/C8 forms
    for k in range(2, 7):
        assert known_gr("C6", k) == predicted_gr(sorted_spec([2] * k, n=3))
        assert known_gr("C8", k) == predicted_gr(sorted_spec([3] * k, n=4))
        assert known_gr("P7", k) == predicted_gr(
            sorted_spec([2] * k, n=3, head="path")
        )


def test_hall_upper_bound_dominates_predicted():
    for n in range(3, 12):
        for k in range(1, 12):
            if k >= 2:
                value = predicted_gr(sorted_spec([n - 1] * k, n=n))
            else:
                value = (n - 1) * k + n + 1
            assert value <= (n - 1) * k + 3 * n
