"""A 2-cell that localization cannot kill.

F7 is a single arrow f: A -> B carrying an involutive 2-cell tau: f => f.
Localizing at the identities changes nothing — but running f through the
fraction calculus shows the machinery preserving genuine 2-dimensional
data: the localized hom(u(f), u(f)) has exactly two cells, the identity
and the image of tau, and tau composed with itself is the identity class.
"""

from twoloc import (
    build_choices,
    fixture,
    is_invertible_fraction_cell,
    u_cell,
    u_mor,
    vcomp_fraction,
)

c, w = fixture("F7")
loc = build_choices(c, w)

uf = u_mor(c, w, "f")
cells = loc.hom_cells(uf, uf)
print(f"cells u(f) => u(f): {len(cells)}")
for cell in cells:
    print(f"  class with numerator 2-cell {cell.canonical.beta!r} "
          f"({len(cell.members)} representative(s))")

tau = u_cell(loc, "tau_f")
ident = u_cell(loc, "i_f")
assert tau != ident, "tau must stay distinct from the identity"
assert vcomp_fraction(loc, tau, tau) == ident, "tau is an involution"
assert is_invertible_fraction_cell(loc, tau)
print()
print("u(tau) != u(i_f), u(tau) . u(tau) == u(i_f): the involution survives.")
