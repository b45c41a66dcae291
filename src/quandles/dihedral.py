"""Closed-form machinery for dihedral groups D_n.

Aut(D_n) is the affine group of C_n: phi_{a,b}(tau^e sigma^i) =
tau^e sigma^{a i + e b} with a a unit mod n.  Conjugacy, fixed-point counts,
P and P^2, and the isomorphism deciders for Q(D_n, a, b) and Q(C_n, a)
all reduce to gcd arithmetic; the congruence helpers live here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .catalog import dihedral, build, dihedral_phi
from .errors import ContractViolation, VerificationError
from .groups import FiniteGroup, GroupMap


def solve_congruence(c: int, d: int, n: int) -> tuple[int, int, int] | None:
    """Solutions of c z = d (mod n): (z0, step, count) or None if unsolvable.

    The full solution set is {z0 + step * i : i = 0..count-1} with
    step = n / gcd(n, c) and count = gcd(n, c).
    """
    if n < 1:
        raise ContractViolation("modulus must be positive")
    c, d = c % n, d % n
    g = gcd(n, c)  # equals n when c == 0
    if d % g != 0:
        return None
    if c == 0:
        return (0, 1, n)
    ng = n // g
    z0 = ((d // g) * pow(c // g, -1, ng)) % ng
    return (z0, ng, g)


def unit_multiplier_to_gcd(c: int, m: int, n: int) -> int:
    """Some p with gcd(n, p) = 1 and p*c = gcd(m, c) (mod m), by bounded scan."""
    if m < 1 or n < 1:
        raise ContractViolation("moduli must be positive")
    target = gcd(m, c % m) % m
    for p in range(1, n * m + 2):
        if gcd(n, p) == 1 and (p * c) % m == target:
            return p
    raise VerificationError(
        f"no unit multiplier found for c={c}, m={m}, n={n} within bound")


@dataclass(frozen=True)
class DihedralAut:
    """phi_{a,b} on D_n."""

    n: int
    a: int
    b: int

    def __post_init__(self):
        if self.n < 1:
            raise ContractViolation("n must be positive")
        object.__setattr__(self, "a", self.a % self.n)
        object.__setattr__(self, "b", self.b % self.n)
        if gcd(self.a, self.n) != 1:
            raise ContractViolation(f"a={self.a} is not a unit mod {self.n}")

    @property
    def g(self) -> int:
        return gcd(self.n, 1 - self.a)

    @property
    def d(self) -> int:
        return gcd(self.n, 1 - self.a, self.b)

    def compose(self, other: DihedralAut) -> DihedralAut:
        """self after other: phi_{a,b} . phi_{a',b'} = phi_{a a', a b' + b}."""
        self._same_modulus(other)
        return DihedralAut(self.n, self.a * other.a, self.a * other.b + self.b)

    def _same_modulus(self, other: DihedralAut) -> None:
        if self.n != other.n:
            raise ContractViolation("moduli differ")

    def as_group_map(self, grp: FiniteGroup | None = None) -> GroupMap:
        if grp is not None and grp.spec != dihedral(self.n):
            raise ContractViolation(f"phi_{{a,b}} of D{self.n} is not a map of this group")
        return dihedral_phi(grp if grp is not None else build(dihedral(self.n)), self.a, self.b)


def conjugacy_reps_aut_dn(n: int) -> list[DihedralAut]:
    """One representative per conjugacy class of Aut(D_n):
    phi_{a,d} for units a and divisors d of gcd(n, 1-a) (phi_{a,g} stands in
    for phi_{a,0}: taking d = g gives b = g, and b = n collapses to 0).

    Valid for n >= 3, where Aut(D_n) is exactly the affine group of C_n;
    the degenerate abelian D_1 and D_2 have extra automorphisms and are
    handled by the generic enumeration instead."""
    if n < 1:
        raise ContractViolation("n must be positive")
    reps = []
    for a in range(n):
        if gcd(a, n) != 1:
            continue
        g = gcd(n, 1 - a)
        for d in range(1, g + 1):
            if g % d == 0:
                reps.append(DihedralAut(n, a, d % n))
    return reps


def are_conjugate_dn(x: DihedralAut, y: DihedralAut) -> bool:
    x._same_modulus(y)
    return x.a == y.a and x.d == y.d


def fix_size_dn(x: DihedralAut) -> int:
    """|Fix(phi_{a,b}, D_n)| = 2g when gcd(g, b) = g, else g."""
    g = x.g
    return 2 * g if gcd(g, x.b) == g else g


def p_subgroups_dn(x: DihedralAut) -> tuple[int, int]:
    """(d, g2): P = <sigma^d> and P^2 = <sigma^{d g2}> with g2 = gcd(n/d, 1-a)."""
    d = x.d
    g2 = gcd(x.n // d, 1 - x.a)
    return (d, g2)


def dihedral_iso_decider(x: DihedralAut, y: DihedralAut) -> bool:
    """Q(D_n, x) and Q(D_n, y) isomorphic iff equal fixed counts, equal d,
    and a = a' mod n/d."""
    x._same_modulus(y)
    if fix_size_dn(x) != fix_size_dn(y):
        return False
    dx, dy = p_subgroups_dn(x)[0], p_subgroups_dn(y)[0]
    if dx != dy:
        return False
    return (x.a - y.a) % (x.n // dx) == 0


def cyclic_to_dihedral(n: int, a: int) -> DihedralAut:
    """The dihedral twin of Q(C_{2n}, a): phi_{a~, g} with a = 2k+1,
    g = gcd(k, n), a~ = a - floor(a/n) * n, the reduction of a mod n that
    DihedralAut makes (it also refuses n < 1)."""
    if a % 2 == 0:
        raise ContractViolation("a must be odd")
    if gcd(a, 2 * n) != 1:
        raise ContractViolation(f"a={a} is not a unit mod {2 * n}")
    k = (a - 1) // 2
    return DihedralAut(n, a, gcd(k, n))  # g equals n when k == 0


def cyclic_iso_decider(n: int, a: int, a2: int) -> bool:
    """Q(C_n, a) and Q(C_n, a2) isomorphic iff gcd(n,1-a) = gcd(n,1-a2) = g
    and a = a2 mod n/g."""
    if n < 1 or gcd(a, n) != 1 or gcd(a2, n) != 1:
        raise ContractViolation("n must be positive and both multipliers units")
    g1, g2 = gcd(n, 1 - a), gcd(n, 1 - a2)
    if g1 != g2:
        return False
    return (a - a2) % (n // g1) == 0


def dihedral_aut_from_map(g: FiniteGroup, psi: GroupMap) -> DihedralAut | None:
    """Recover (a, b) from an automorphism of a catalog dihedral group.

    Returns None when the map does not follow the affine pattern (possible
    only for the degenerate n <= 2, which route to brute force)."""
    n = g.spec.params[0]
    if n <= 2:
        return None
    sigma_img = psi.images[1]
    tau_img = psi.images[n]
    if sigma_img >= n or tau_img < n:
        return None
    aut = DihedralAut(n, sigma_img, tau_img - n)
    if aut.as_group_map(g).images != psi.images:
        return None
    return aut
