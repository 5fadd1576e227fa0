"""Acceptance suite: one criterion per test, one printed PASS/FAIL line
each (run with `pytest -s tests/test_acceptance.py` to see the lines).

Every expected value here is either a quoted closed form, an output of
the layered construction checked by the independent search module, or a
desk-scale exhaustive search result.
"""

import random
import time

from brute import brute_find_sequence
from test_construction import family_specs
from gallai_ramsey import (
    ALL_FORCED,
    BAD_COLORING,
    BUDGET,
    EdgeColoring,
    GallaiPartition,
    build_lower_bound_coloring,
    classical_ramsey,
    compute_gr,
    contains_required,
    decide_upper,
    even_cycle,
    find_mono,
    gallai_partition,
    is_gallai,
    known_gr,
    matching,
    pair_index,
    parse_target_list,
    path,
    predicted_gr,
    random_gallai,
    reduced_graph,
    sorted_spec,
    validate_partition,
    verify_embedding,
)


def report(number: int, label: str, problems: list, elapsed: float, limit: float):
    ok = not problems and elapsed <= limit
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {label} "
          f"({elapsed:.1f}s, limit {limit:.0f}s)")
    assert not problems, problems[:5]
    assert elapsed <= limit, f"criterion {number} took {elapsed:.1f}s > {limit}s"


def test_criterion_1_formula_suite():
    t0 = time.perf_counter()
    problems = []

    def expect(actual, wanted, label):
        if actual != wanted:
            problems.append(f"{label}: got {actual}, wanted {wanted}")

    expect(classical_ramsey(even_cycle(8), even_cycle(8)), 11, "R2(C8)")
    expect(classical_ramsey(path(7), even_cycle(8)), 10, "R(P7,C8)")
    expect(classical_ramsey(path(5), path(5)), 6, "R(P5,P5)")
    expect(known_gr("C6", 2), 8, "GR2(C6)")
    expect(known_gr("C6", 3), 10, "GR3(C6)")
    for k in range(1, 7):
        expect(known_gr("C8", k), 3 * k + 5, f"GR{k}(C8)")
        for n in range(3, 7):
            expect(
                known_gr(f"P{n}", k),
                ((n - 2) // 2) * k + (n + 1) // 2 + 1,
                f"GR{k}(P{n})",
            )
    expect(known_gr("K3", 4), 26, "GR4(K3)")
    report(1, "formula suite", problems, time.perf_counter() - t0, 1.0)


def test_criterion_2_lower_bound_suite():
    t0 = time.perf_counter()
    problems = []
    count = 0
    for spec in family_specs((3, 4), range(2, 7)):
        witness = build_lower_bound_coloring(spec)
        if is_gallai(witness) is not True:
            problems.append(f"{spec.describe()}: rainbow triangle")
        hit = contains_required(witness, spec.targets())
        if hit is not None:
            problems.append(f"{spec.describe()}: contains {hit[1].target.name}")
        if witness.n != predicted_gr(spec) - 1:
            problems.append(f"{spec.describe()}: {witness.n} vertices")
        count += 1
    assert count >= 300  # several hundred specs, both head kinds
    report(2, f"lower-bound suite ({count} specs)", problems,
           time.perf_counter() - t0, 120.0)


REQUIRED_CASES = [
    ("P3,P3,P3", 3),
    ("P5,P3", 5),
    ("P5,P5", 6),
    ("P7,P3", 7),
    ("C6,P3", 6),
    ("P5,P5,P3", 6),
    ("P5,P3,P3", 5),
]

STRETCH_CASES = [
    ("C6,C6", 8),
    ("P5,P5,P5", 7),
]


def test_criterion_3_exhaustive_upper_bounds():
    t0 = time.perf_counter()
    problems = []
    for targets, value in REQUIRED_CASES:
        case_start = time.perf_counter()
        verdict_hi, _ = decide_upper(value, targets)
        verdict_lo, _ = decide_upper(value - 1, targets)
        case_elapsed = time.perf_counter() - case_start
        if verdict_hi.kind != ALL_FORCED:
            problems.append(f"{targets}@{value}: {verdict_hi.kind}")
        if verdict_lo.kind != BAD_COLORING:
            problems.append(f"{targets}@{value - 1}: {verdict_lo.kind}")
        elif not (
            is_gallai(verdict_lo.witness) is True
            and contains_required(verdict_lo.witness, parse_target_list(targets)) is None
        ):
            problems.append(f"{targets}@{value - 1}: invalid witness")
        if case_elapsed > 60:
            problems.append(f"{targets}: {case_elapsed:.1f}s > 60s")
    for targets, value in STRETCH_CASES:
        verdict_hi, _ = decide_upper(value, targets)
        verdict_lo, _ = decide_upper(value - 1, targets)
        if verdict_hi.kind not in (ALL_FORCED, BUDGET):
            problems.append(f"stretch {targets}@{value}: {verdict_hi.kind}")
        if verdict_lo.kind not in (BAD_COLORING, BUDGET):
            problems.append(f"stretch {targets}@{value - 1}: {verdict_lo.kind}")
    report(3, "exhaustive upper bounds", problems, time.perf_counter() - t0, 1800.0)


def test_criterion_4_partition_property_suite():
    t0 = time.perf_counter()
    problems = []
    rng = random.Random(20260810)
    for trial in range(1000):
        n = rng.randint(2, 40)
        k = rng.randint(1, 6)
        seed = rng.randrange(2 ** 32)
        c = random_gallai(n, k, seed)
        p = gallai_partition(c)
        if p is None:
            problems.append(f"trial {trial} (n={n}, k={k}): no partition")
            continue
        if not isinstance(validate_partition(c, p.parts), GallaiPartition):
            problems.append(f"trial {trial}: validation rejected the partition")
            continue
        reduced = reduced_graph(p)
        if len(reduced.used_colors()) > 2:
            problems.append(f"trial {trial}: reduced graph uses >2 colors")
        where = {}
        for i, part in enumerate(p.parts):
            for v in part:
                where[v] = i
        colors = [0] * (n * (n - 1) // 2)
        for u in range(n - 1):
            for v in range(u + 1, n):
                iu, iv = where[u], where[v]
                colors[pair_index(n, u, v)] = (
                    c.color(u, v) if iu == iv else reduced.color(iu, iv)
                )
        if EdgeColoring(n, k, colors) != c:
            problems.append(f"trial {trial}: quotient round-trip mismatch")
    report(4, "partition property suite (1000 colorings)", problems,
           time.perf_counter() - t0, 60.0)


def test_criterion_5_search_oracle_equivalence():
    t0 = time.perf_counter()
    problems = []
    rng = random.Random(555)
    targets = (
        [path(m) for m in range(2, 9)]
        + [even_cycle(length) for length in (4, 6, 8)]
        + [matching(s) for s in range(1, 5)]
    )
    for trial in range(500):
        n = rng.randint(2, 8)
        k = rng.randint(1, 4)
        colors = [rng.randint(1, k) for _ in range(n * (n - 1) // 2)]
        c = EdgeColoring(n, k, colors)
        for t in targets:
            tested = {1, rng.randint(1, k)}
            for col in tested:
                got = find_mono(c, col, t)
                want = brute_find_sequence(c, col, t)
                if (got is None) != (want is None):
                    problems.append(f"trial {trial}: {t.name} color {col} disagrees")
                elif got is not None and not verify_embedding(c, got):
                    problems.append(f"trial {trial}: {t.name} invalid embedding")
    report(5, "search oracle equivalence (500 colorings)", problems,
           time.perf_counter() - t0, 120.0)


CRITERION_3_SPECS = [
    ("P3,P3,P3", sorted_spec([0, 0, 0], n=3)),
    ("P5,P3", sorted_spec([1, 0], n=3)),
    ("P5,P5", sorted_spec([1, 1], n=3)),
    ("P7,P3", sorted_spec([2, 0], n=4)),
    ("C6,P3", sorted_spec([2, 0], n=3)),
    ("P5,P5,P3", sorted_spec([1, 1, 0], n=3)),
    ("P5,P3,P3", sorted_spec([1, 0, 0], n=3)),
    ("C6,C6", sorted_spec([2, 2], n=3)),
    ("P5,P5,P5", sorted_spec([1, 1, 1], n=3)),
]


def test_criterion_6_consistency_triangle():
    t0 = time.perf_counter()
    problems = []
    expected = dict(REQUIRED_CASES + STRETCH_CASES)
    for names, spec in CRITERION_3_SPECS:
        if [t.name for t in spec.targets()] != names.split(","):
            problems.append(f"{names}: spec targets mismatch")
        predicted = predicted_gr(spec)
        if predicted != expected[names]:
            problems.append(f"{names}: predicted {predicted} != {expected[names]}")
        result = compute_gr(spec)
        if result.status == "confirmed":
            if result.value != predicted:
                problems.append(f"{names}: compute_gr {result.value} != {predicted}")
        else:
            problems.append(f"{names}: compute_gr status {result.status}")
        if spec.k == 2:
            t1, t2 = spec.targets()
            if predicted != classical_ramsey(t1, t2):
                problems.append(f"{names}: classical mismatch")
    report(6, "consistency triangle", problems, time.perf_counter() - t0, 1800.0)
