"""Tables of the known closed-form values.

GR_k(H) is the least N such that every Gallai k-coloring of K_N has a
monochromatic H in some color. For paths and even cycles up to C8 and
for every matching the value is linear in k; for odd cycles it is
exponential; outside the settled families only a lower/upper bound
pair is available.
"""

from gallai_ramsey import classical_ramsey, known_gr, predicted_gr, sorted_spec

FAMILIES = ["P3", "P4", "P5", "P6", "P7", "P8", "P9", "C4", "C6", "C8", "M1", "M2", "M3", "M4", "M5", "K3", "C5", "C7"]
KS = range(1, 7)

if __name__ == "__main__":
    header = "target | " + " | ".join(f"k={k}" for k in KS)
    print(header)
    print("-" * len(header))
    for name in FAMILIES:
        row = [f"{name:6s}"]
        for k in KS:
            row.append(f"{known_gr(name, k):3d}")
        print(" | ".join(row))

    print()
    print("bounds where only the construction and the general upper bound apply:")
    for name in ("C10", "P10", "P11"):
        lo, hi = known_gr(name, 4)
        print(f"  {lo} <= GR_4({name}) <= {hi}")

    print()
    print("two-color values agree with the family formula:")
    for indices, n, head, label in [
        ([2, 2], 3, "cycle", "(C6, C6)"),
        ([3, 3], 4, "cycle", "(C8, C8)"),
        ([2, 1], 3, "cycle", "(C6, P5)"),
        ([1, 1], 3, "cycle", "(P5, P5)"),
    ]:
        spec = sorted_spec(indices, n=n, head=head)
        t1, t2 = spec.targets()
        print(f"  {label}: predicted {predicted_gr(spec)}, "
              f"classical {classical_ramsey(t1, t2)}")
