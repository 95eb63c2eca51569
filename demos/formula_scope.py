"""Where the bounding-box bounds for a and regularity stop being exact.

The bounds -max(m,n) and min(m,n)-1 read the bounding box alone.
Sweeping every stack polyomino up to 9 cells and comparing against the
facet complex shows those are one-sided bounds, not identities: tall
towers on a wide base beat them. The exact closed forms
a_invariant_stack_exact and regularity_stack_exact, which look at every
row, agree with the complex on the whole sweep. This script prints both
censuses and the smallest offenders of the bounds.
"""

from collections import Counter

from polyrings.generate import stack_polyominoes
from polyrings.invariants import a_invariant_stack_exact, regularity_stack_exact
from polyrings.polyomino import serialize
from polyrings.srcomplex import build_complex, hilbert_numerator


def main():
    broken = []
    exact_broken = 0
    total = 0
    for p in stack_polyominoes(9):
        total += 1
        reg = len(hilbert_numerator(build_complex(p))) - 1
        truth = (reg - (p.m + p.n - 1), reg)
        if (a_invariant_stack_exact(p), regularity_stack_exact(p)) != truth:
            exact_broken += 1
        pa, pr = -max(p.m, p.n), min(p.m, p.n) - 1
        if (pa, pr) != truth:
            assert truth[0] <= pa and truth[1] <= pr
            broken.append((p, pa, pr, truth))

    by_size = Counter(len(p.cells) for p, *_ in broken)
    print(f"stacks with <= 9 cells: {total}")
    print(f"bounds wrong on:        {len(broken)}")
    print(f"exact forms wrong on:   {exact_broken}")
    print("bounds wrong, by cell count:", dict(sorted(by_size.items())))
    print()

    smallest = min(by_size)
    print(f"all offenders of the bounds with {smallest} cells:")
    for p, pa, pr, (a, reg) in broken:
        if len(p.cells) != smallest:
            continue
        print(serialize(p))
        print(
            f"  bound a={pa} reg={pr}   "
            f"exact a={a_invariant_stack_exact(p)} reg={regularity_stack_exact(p)}   "
            f"complex a={a} reg={reg}"
        )
        print()
    print("the complex never reports a larger a or regularity than the bounds,")
    print("so they survive as upper bounds (exact below 5 cells); the exact")
    print("forms min(n-1, min_j (j-1+w_j)) and reg-(m+n-1) match every shape.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
