"""Construct generalized Alexander quandles and compute their invariants.

Q(G, psi) puts the point symmetry s_x(y) = x psi(x^-1 y) on the elements of
G.  The key invariant is P: the orbit of the identity under the group
generated by all point symmetries, which always coincides with the subgroup
generated by the translations x psi(x)^-1.
"""

from quandles import (build_named, compute_P, compute_P2, general_alexander,
                      inn_structure, is_connected, named_automorphism, profile,
                      profile_to_json, quandle_order, twisted_normalizer)
from quandles.invariants import descriptor_display, group_descriptor

g = build_named("D4")
psi = named_automorphism(g, "phi:3,1")
q = general_alexander(g, psi)
print(f"Q(D4, phi_(3,1)) on {q.size} points; symmetry table:")
for row in q.sym:
    print("  ", row)

print("\nquandle order (common order of all point symmetries):", quandle_order(q))
print("connected:", is_connected(q))

p = compute_P(g, psi)
p2 = compute_P2(g, psi)
print("P  =", p.members, " (the rotation subgroup <sigma>)")
print("P2 =", p2.members)
print("twisted normalizer of P2:", twisted_normalizer(g, psi, p2).members)
prof = profile(g, psi)
print("preconditions: normality of P2 in G:", prof.p1,
      "; P2 equals the P-translation set:", prof.p2)

rep = inn_structure(g, psi)
print(f"\n|Inn(Q)| = {rep.inn_size} = |P| * ord(psi) = {rep.p_size} * {rep.psi_order}")
print(f"Inn(Q) = P x| C{rep.psi_order} = {descriptor_display(group_descriptor(rep.semidirect))},"
      f" embedded as the {len(rep.embedding)} maps L_p psi^k on G's points")

print("\nfull invariant profile:")
print(profile_to_json(prof))

print("\nthe quaternion rotation case (precondition 2 fails):")
q8 = build_named("Q8")
psi4 = named_automorphism(q8, "psi_4")
print(profile_to_json(profile(q8, psi4)))
