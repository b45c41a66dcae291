"""Reference implementations that the tests compare the package against.

The inner group of a quandle as the closure of its point symmetries under
composition.  The package reads Inn(Q(G, psi)) off P and psi instead and
closes no permutation group this way, so the closure lives here, next to
the tests that use it as their oracle.
"""

from __future__ import annotations

import importlib
import pkgutil

import quandles
from quandles.errors import CapacityError, StructuralError

INNER_CLOSURE_BOUND = 10 ** 6


def greedy_closure(degree: int, perms, bound: int) -> set[tuple[int, ...]]:
    """The closure of ``perms`` under composition.  A member already in the
    closure built so far is skipped; one that is not joins the generators,
    and the closure grows again: the elements held so far times the new
    generator, then each new element times every generator (closing under
    right multiplication alone suffices in a finite group).  Raises
    CapacityError rather than let the closure grow past ``bound`` elements."""
    have = {tuple(range(degree))}
    gens: list[tuple[int, ...]] = []
    for p in perms:
        if p in have:
            continue
        gens.append(p)
        frontier, mults = list(have), (p,)
        while frontier:
            grown = []
            for q in frontier:
                for r in mults:
                    s = tuple(map(q.__getitem__, r))
                    if s not in have:
                        if len(have) >= bound:
                            raise CapacityError(f"closure exceeded bound {bound}")
                        have.add(s)
                        grown.append(s)
            frontier, mults = grown, gens
    return have


class PermGroup:
    """A permutation group given by generators, with its closure materialized."""

    def __init__(self, degree: int, generators, bound: int = INNER_CLOSURE_BOUND):
        self.degree = degree
        self.generators = tuple(tuple(p) for p in generators)
        for p in self.generators:
            if sorted(p) != list(range(degree)):
                raise StructuralError("generator is not a permutation")
        self.elements = frozenset(greedy_closure(degree, self.generators, bound))

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, perm) -> bool:
        return tuple(perm) in self.elements


def inner_group(q, bound: int = INNER_CLOSURE_BOUND) -> PermGroup:
    """Closure of the point symmetries {s_x} under composition; a symmetry
    already in the closure of those before it adds nothing and is skipped."""
    return PermGroup(q.size, sorted(set(q.sym)), bound=bound)


def package_definitions(*names: str) -> list[tuple[str, str]]:
    """(module, name) for each of ``names`` that the package or one of its
    submodules defines."""
    modules = [quandles, *(importlib.import_module(f"quandles.{info.name}")
                           for info in pkgutil.iter_modules(quandles.__path__))]
    return [(m.__name__, n) for m in modules for n in names if hasattr(m, n)]
