"""Walk one polyomino through the whole pipeline.

Run from the repo root after an editable install:

    python3 demos/tour.py
"""

from polyrings.fixtures import load
from polyrings.gorenstein import is_gorenstein_convex
from polyrings.invariants import decompose, full_report
from polyrings.polyomino import heights, serialize

p = load("ex3")
print("the shape (rows printed top down):")
print(serialize(p))
print(f"vertex box [{p.m}] x [{p.n}], cells {len(p.cells)}, heights {list(heights(p))}")
print()

rep = full_report(p)
print(f"d = {rep.d}")
print(f"a-invariant  {rep.a_invariant}  [{rep.methods['a_invariant']}]")
print(f"regularity   {rep.regularity}  [{rep.methods['regularity']}]")
print(f"multiplicity {rep.multiplicity}  [{rep.methods['multiplicity']}]")
print(f"h-vector     {list(rep.h_vector)}")
print()

verdict = is_gorenstein_convex(p)
print("gorenstein:", "yes" if verdict.gorenstein else "no")
for cert in verdict.certificates:
    print(f"  admissible T = {cert.subset}, neighbors {cert.neighbors}")
print()

dec = decompose(p)
print(f"peeling at the distinguished vertex v = {dec.v}")
print("P1 (one cell fewer):")
print(serialize(dec.p1))
print("P2 (the column block above v's level):")
print(serialize(dec.p2))
print("h_P(t) = h_P1(t) + t * h_P2(t), so the multiplicity of P is mult(P1) + mult(P2);")
print("that is the recursion every [recursion] value above rides.")
