"""Invert a single arrow and watch it become an equivalence.

The smallest interesting input: the poset 0 -> 1 viewed as a 2-category
with only identity 2-cells, localized at the class that contains the
non-identity arrow w.  After localization w acquires a quasi-inverse
span and every hom-category collapses to a single invertible cell.
"""

from twoloc import (
    build_choices,
    fixture,
    is_internal_equiv_search,
    saturate,
    u_mor,
)

c, w = fixture("F3")
print(f"objects:  {c.objects}")
print(f"1-cells:  {c.mors}")
print(f"inverted: {sorted(w)}")
print(f"saturation of W: {sorted(saturate(c, w))}  (already everything)")
print()

loc = build_choices(c, w)  # the bicategory of fractions, with its choice of fillers

span_w = u_mor(c, w, "w")
print(f"w embeds as the span {span_w}")
witness = is_internal_equiv_search(loc, span_w)
assert witness is not None
print("equivalence witness found by search:")
print(f"  reverse span: {witness.e_bar}")
print("  (no arrow 1 -> 0 exists upstairs; the reverse is the span whose")
print("   denominator is w itself, which localization makes legal)")
print(f"  unit class:   {witness.delta.canonical}")
print(f"  counit class: {witness.xi.canonical}")
print()

for a in c.objects:
    for b in c.objects:
        spans = loc.spans(a, b)
        cells = sum(len(loc.hom_cells(s, t)) for s in spans for t in spans)
        print(f"hom({a}, {b}): {len(spans)} spans, {cells} cells between them")
