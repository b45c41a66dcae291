import hashlib
import itertools
import json
import re
import shlex
from pathlib import Path

import pytest

from quandles import catalog
from quandles.catalog import (GroupSpec, _build_uncached, _map_from_formula, _spec_order,
                              alternating, build, build_named, cyclic, dicyclic, dihedral,
                              factor_lift, groups_of_order, named_automorphism,
                              perm_conjugation, product, sl23_element_index,
                              spec_from_name, symmetric)
from quandles.errors import (CapacityError, ContractViolation, NameLookupError,
                             StructuralError)
from quandles.groups import (FiniteGroup, automorphism_group, center,
                             fixed_subgroup, groups_isomorphic, identity_map)


# the number of isomorphism types of groups of order 1..16
GROUP_COUNTS = (1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5, 1, 2, 1, 14)


@pytest.mark.parametrize("order", range(1, 17))
def test_counts_and_pairwise_distinct(order):
    specs = groups_of_order(order)
    assert len(specs) == GROUP_COUNTS[order - 1]
    groups = [build(s) for s in specs]
    for g in groups:
        assert g.order == order
        FiniteGroup(g.table, check=True)
    for g1, g2 in itertools.combinations(groups, 2):
        assert groups_isomorphic(g1, g2) is None, (g1.name, g2.name)


def test_groups_of_order_out_of_range():
    with pytest.raises(CapacityError):
        groups_of_order(17)
    with pytest.raises(CapacityError):
        groups_of_order(0)


def test_build_deterministic():
    for spec in (dihedral(5), dicyclic(2), GroupSpec("c4c2_twist", ("order3",)),
                 product(cyclic(3), cyclic(4))):
        assert _build_uncached(spec).table == _build_uncached(spec).table


def test_build_order_cap():
    with pytest.raises(CapacityError):
        build(cyclic(200))


def test_spec_order_is_the_built_order():
    specs = [s for n in range(1, 17) for s in groups_of_order(n)]
    specs += [spec_from_name(name) for name in ("A5", "S5", "SL23", "S3xS3")]
    for spec in specs:
        assert _spec_order(spec) == build(spec).order, spec


# groups the package and its tests ask for by name, beside groups_of_order(1..16)
PINNED_NAMES = ("A4", "A5", "S3", "S4", "S5", "SL23", "S3xS3", "C2xQ8", "Dic5", "D12",
                "C17", "D16", "C4rC4")


def _catalog_lines():
    """One line per catalog group: how it is asked for, the built group's
    name, its spec and the SHA-256 of its table."""
    asks = [(f"order {n}", spec) for n in range(1, 17) for spec in groups_of_order(n)]
    asks += [(name, spec_from_name(name)) for name in PINNED_NAMES]
    for ask, spec in asks:
        g = build(spec)
        digest = hashlib.sha256(repr(g.table).encode()).hexdigest()
        yield f"{ask}\t{g.name}\t{spec!r}\t{digest}"


def test_catalog_names_specs_and_tables_are_pinned():
    # any changed name, spec or table, or a reordered groups_of_order, fails
    pinned = Path(__file__).parent.joinpath("data", "catalog.txt").read_text(encoding="utf-8")
    assert list(_catalog_lines()) == pinned.splitlines()


@pytest.mark.parametrize("call,exc,message", [
    (lambda: build(GroupSpec("bogus")), StructuralError, "unknown spec kind 'bogus'"),
    (lambda: GroupSpec("bogus").name(), StructuralError, "unknown spec kind 'bogus'"),
    (lambda: build(product(cyclic(4))), CapacityError, "product needs at least two factors"),
    (lambda: build(GroupSpec("semidirect_cyclic", (8, 2, 2))), CapacityError,
     "invalid semidirect action 2 mod 8"),
    (lambda: build(dicyclic(1)), CapacityError, "dicyclic parameter must be >= 2"),
], ids=["build-bogus", "name-bogus", "one-factor", "bad-action", "dic1"])
def test_build_errors_keep_their_type_and_message(call, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is exc


@pytest.mark.parametrize("call,exc,message", [
    (lambda: sl23_element_index(((0, 0), (0, 0))), StructuralError,
     "(0, 0, 0, 0) is not in SL(2,3)"),
    (lambda: _map_from_formula(build_named("C4"), lambda x: (x + 1) % 4), ContractViolation,
     "formula is not a homomorphism: homomorphism must send identity to identity"),
    (lambda: named_automorphism(build_named("C4"), "phi:1,0"), ContractViolation,
     "phi_{a,b} maps are defined on dihedral groups only"),
    (lambda: named_automorphism(build_named("D4"), "mul:1"), ContractViolation,
     "mul maps are defined on cyclic groups only"),
    (lambda: named_automorphism(build_named("C4"), "mul:2"), ContractViolation,
     "a=2 is not a unit mod 4"),
    (lambda: named_automorphism(build_named("C2xC2"), "mat:1,0;0"), ContractViolation,
     "matrix is not square"),
    (lambda: named_automorphism(build_named("C3"), "mat:1,0;0,1"), ContractViolation,
     "group order 3 is not 2^2"),
    (lambda: factor_lift(build_named("C2xC2"), "middle", identity_map(build_named("C2"))),
     NameLookupError, "middle"),
    (lambda: named_automorphism(build_named("S3"), "conj_perm:(1 9)"), StructuralError,
     "cycle entry out of range in '(1 9)'"),
    (lambda: perm_conjugation(build_named("S3"), (0, 1)), ContractViolation,
     "permutation degree mismatch"),
    (lambda: named_automorphism(build_named("C2xC2"), "images:[0,0,0,0]"), ContractViolation,
     "image array is not bijective"),
    (lambda: named_automorphism(build_named("C4"), "classrep:99"), NameLookupError,
     "classrep index 99 out of range"),
], ids=["sl23-singular", "formula-not-a-homomorphism", "phi-on-C4", "mul-on-D4",
        "mul-not-a-unit", "mat-not-square", "mat-on-C3", "factor-lift-side", "cycle-range",
        "perm-degree", "images-not-bijective", "classrep-range"])
def test_automorphism_inputs_are_checked(call, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        call()


def test_over_capacity_spec_is_refused_before_building(monkeypatch):
    from quandles import catalog
    from quandles.quandle import quandle_from_json

    def unbuildable(spec):
        raise AssertionError(f"{spec} was built")

    monkeypatch.setattr(catalog, "_build_uncached", unbuildable)
    for name in ("C1000", "S6", "S3xS3xS3"):
        with pytest.raises(CapacityError):
            build_named(name)
    payload = {"size": 2, "sym": [[0, 1], [0, 1]],
               "provenance": {"group": "C1000", "automorphism": [0, 1]}}
    with pytest.raises(StructuralError, match="outside 1..128"):
        quandle_from_json(json.dumps(payload))


def test_dihedral_presentation():
    d4 = build(dihedral(4))
    orders = sorted(d4.element_order(x) for x in range(8))
    assert orders.count(4) == 2
    assert build(cyclic(1)).order == 1


def test_dicyclic_presentation():
    dic3 = build(dicyclic(3))
    assert dic3.order == 12
    b = 6  # index of the generator b
    bsq = dic3.table[b][b]
    assert bsq == 3  # b^2 = a^3
    assert all(dic3.table[bsq][x] == dic3.table[x][bsq] for x in range(12))
    # b^-1 a b = a^-1
    binv = dic3.inv(b)
    assert dic3.table[dic3.table[binv][1]][b] == dic3.inv(1)


def test_product_structure():
    spec = product(cyclic(3), cyclic(4))
    g = build(spec)
    assert g.order == 12
    # the embedded factor copies commute elementwise
    for a in range(3):
        for b in range(4):
            left = a * 4  # (a, 0)
            right = b     # (0, b)
            assert g.table[left][right] == g.table[right][left] == a * 4 + b
    assert groups_isomorphic(g, build(cyclic(12))) is not None


def test_quaternion_is_dicyclic_2():
    assert build_named("Q8").table == build(dicyclic(2)).table


def test_spec_names_round_trip():
    for name in ("C4xC2", "D6", "Dic3", "Q8", "A4", "S4", "C2xQ8", "SD16",
                 "SL23", "TW16", "QD16", "M16", "D8", "C15"):
        g = build_named(name)
        assert g.name == name
        assert spec_from_name(name) == g.spec
    specs = [s for n in range(1, 17) for s in groups_of_order(n)]
    specs += [symmetric(3), symmetric(4), symmetric(5), alternating(4), alternating(5),
              GroupSpec("sl2_3", ()), product(symmetric(3), symmetric(3))]
    for spec in specs:
        assert spec_from_name(spec.name()) == spec, spec
    assert spec_from_name("C4rC4") == spec_from_name("C4r3C4") == GroupSpec(
        "semidirect_cyclic", (4, 4, 3))
    assert spec_from_name("C4rC4").name() == "C4r3C4"
    for bad in ("E8", "C", "Dic", "Q", "C4r5C4", "SD", "c4", "Cx", "D4xE8", "x"):
        with pytest.raises(NameLookupError):
            spec_from_name(bad)


def test_sd16_has_order_3_automorphism_and_tw16_does_not():
    sd = build_named("SD16")
    assert any(a.map_order() == 3 for a in automorphism_group(sd))
    tw = build_named("TW16")
    assert all(a.map_order() != 3 for a in automorphism_group(tw))
    assert groups_isomorphic(sd, build_named("D4xC2")) is None
    assert groups_isomorphic(tw, build_named("D4xC2")) is None


# (name, automorphism, expected map order, expected fixed-point count)
NAMED_MAP_DATA = [
    ("C4xC2", "psi_sigma", 4, 2),
    ("C4xC2", "psi_sigma^2", 2, 4),
    ("C4xC2", "psi_tau", 2, 4),
    ("C4xC2", "psi_sigma*psi_tau", 2, 4),
    ("C6xC2", "alpha_sigma", 6, 1),
    ("C6xC2", "alpha_sigma^2", 3, 3),
    ("C6xC2", "alpha_sigma^3", 2, 4),
    ("C6xC2", "alpha_tau", 2, 2),
    ("C6xC2", "alpha_tau*alpha_sigma", 2, 6),
    ("Dic3", "beta_sigma", 6, 6),
    ("Dic3", "beta_sigma^2", 3, 6),
    ("Dic3", "beta_sigma^3", 2, 6),
    ("Dic3", "beta_tau", 2, 4),
    ("Dic3", "beta_tau*beta_sigma", 2, 2),
    ("Q8", "psi_1", 1, 8),
    ("Q8", "psi_2", 2, 4),
    ("Q8", "psi_3", 2, 2),
    ("Q8", "psi_4", 3, 2),
    ("Q8", "psi_5", 4, 4),
    ("C2xC2xC2", "mat:0,0,1;1,0,0;0,1,0", 3, 2),
    ("C2xC2xC2", "mat:0,0,1;1,0,1;0,1,1", 4, 2),
    ("C2xC2xC2", "mat:0,0,1;1,0,0;0,1,1", 7, 1),
    ("C2xC2xC2", "mat:0,0,1;1,0,1;0,1,0", 7, 1),
    ("A4", "conj_perm:(1 2)", 2, 2),
    ("A4", "conj_perm:(1 2)(3 4)", 2, 4),
    ("A4", "conj_perm:(1 2 3)", 3, 3),
    ("A4", "conj_perm:(1 2 3 4)", 4, 2),
    ("D4", "phi:3,1", 2, 2),
    ("D4", "phi:1,1", 4, 4),
    ("C15", "mul:2", 4, 1),
]


@pytest.mark.parametrize("name,aut,order,fix", NAMED_MAP_DATA)
def test_named_automorphism_invariants(name, aut, order, fix):
    g = build_named(name)
    psi = named_automorphism(g, aut)
    assert psi.is_bijective
    assert psi.map_order() == order
    assert fixed_subgroup(psi).order == fix


def test_named_automorphism_errors():
    g = build_named("C4xC2")
    with pytest.raises(NameLookupError):
        named_automorphism(g, "alpha_sigma")
    with pytest.raises(ContractViolation):
        named_automorphism(build_named("D4"), "phi:2,0")  # 2 not a unit mod 4
    with pytest.raises(ContractViolation):
        named_automorphism(build_named("C2xC2"), "mat:1,1;1,1")  # singular
    with pytest.raises(ContractViolation):
        named_automorphism(build_named("C4"), "conj_perm:(1 2)")
    with pytest.raises(ContractViolation):
        named_automorphism(g, "swap")  # not a square product


def test_composition_and_powers():
    q8 = build_named("Q8")
    psi5 = named_automorphism(q8, "psi_5")
    composed = named_automorphism(q8, "psi_3*psi_2")
    assert composed.images == psi5.images
    sq = named_automorphism(q8, "psi_4^3")
    assert sq.images == tuple(range(8))
    inv = named_automorphism(q8, "psi_4^-1")
    assert named_automorphism(q8, "psi_4").compose(inv).images == tuple(range(8))


def _composed_power(base, k):
    """base^k by square-and-multiply over plain compositions; a negative k
    uses the inverse map."""
    if k < 0:
        base, k = base.inverse(), -k
    out, square = identity_map(base.source), base
    while k:
        if k & 1:
            out = square.compose(out)
        square, k = square.compose(square), k >> 1
    return out


@pytest.mark.parametrize("gname,atom", [("Q8", "psi_4"), ("C4xC2", "psi_sigma"),
                                        ("D4", "phi:3,1")])
def test_powers_match_repeated_composition(gname, atom):
    g = build_named(gname)
    base = named_automorphism(g, atom)
    for k in [*range(-7, 8), 10 ** 6]:
        power = named_automorphism(g, f"{atom}^{k}")
        assert power.images == _composed_power(base, k).images, k


def test_integer_tokens_are_signed_ascii_digits():
    c12, s3 = build_named("C12"), build_named("S3")
    assert named_automorphism(c12, "mul: +5 ").images == \
        named_automorphism(c12, "mul:5").images
    assert named_automorphism(c12, "mul:5^ -1").images == \
        named_automorphism(c12, "mul:5").images
    assert named_automorphism(s3, "conj_perm:( 1, 2 )").images == \
        named_automorphism(s3, "conj_perm:(1 2)").images
    for name in ("mul:1_1", "mul:\u0661\u0661", "mul:5^1_0", "mul:5^\u0663"):
        with pytest.raises(NameLookupError):
            named_automorphism(c12, name)
    with pytest.raises(StructuralError):
        named_automorphism(s3, "conj_perm:(0_1 2)")
    for name in ("C\u0663", "C1_2", "D\u0664"):
        with pytest.raises(NameLookupError):
            spec_from_name(name)


def test_images_and_conj_and_classrep_atoms():
    d4 = build_named("D4")
    m = named_automorphism(d4, "images:[0,1,2,3,5,6,7,4]")
    assert m.map_order() == 4
    tau = named_automorphism(d4, "conj:4")
    assert tau.images == tuple(d4.conj(4, x) for x in range(8))
    rep = named_automorphism(d4, "classrep:0")
    assert rep.images == tuple(range(8))


def test_swap_and_factor_lift():
    s33 = build_named("S3xS3")
    sw = named_automorphism(s33, "swap")
    assert sw.map_order() == 2
    g = build_named("C2xQ8")
    lift = named_automorphism(g, "right:psi_4")
    assert lift.map_order() == 3
    assert fixed_subgroup(lift).order == 4
    left = named_automorphism(g, "left:id")
    assert left.images == tuple(range(16))


def test_center_of_twists():
    sd, _ = center(build_named("SD16")).as_group()
    assert sd.element_order_multiset() == (1, 2, 4, 4)
    tw, _ = center(build_named("TW16")).as_group()
    assert tw.element_order_multiset() == (1, 2, 2, 2)


# Reference copies of the per-group closures, the nested-loop direct product
# and the cyclic-top semidirect product that the catalog used before its named
# maps became one table and its products one builder.

def _old_named_image(gname, atom, x):
    if gname in ("C4xC2", "C6xC2"):
        i, j = divmod(x, 2)
        return {"psi_sigma": ((i + 2 * j) % 4) * 2 + (i + j) % 2,
                "psi_tau": ((-i) % 4) * 2 + (i + j) % 2,
                "alpha_sigma": ((2 * i + 3 * j) % 6) * 2 + (i + j) % 2,
                "alpha_tau": ((-i) % 6) * 2 + (i + j) % 2}[atom]
    if gname == "Dic3":
        eps, i = divmod(x, 6)
        return eps * 6 + ({"beta_sigma": i + eps, "beta_tau": -i}[atom]) % 6
    return {"psi_1": (0, 1, 2, 3, 4, 5, 6, 7), "psi_2": (0, 1, 2, 3, 6, 7, 4, 5),
            "psi_3": (0, 4, 2, 6, 1, 7, 3, 5), "psi_4": (0, 4, 2, 6, 5, 1, 7, 3),
            "psi_5": (0, 4, 2, 6, 3, 5, 1, 7)}[atom][x]


def _old_atom(g, gname, atom):
    n = g.order
    if atom == "id":
        return tuple(range(n))
    head, _, arg = atom.partition(":")
    if head == "phi":
        a, b = (int(t) for t in arg.split(","))
        m = n // 2
        return tuple((x // m) * m + (a * (x % m) + (x // m) * b) % m for x in range(n))
    if head == "mat":
        rows = [[int(t) for t in row.split(",")] for row in arg.split(";")]
        k = len(rows)

        def image(x):
            vec = [(x >> (k - 1 - j)) & 1 for j in range(k)]
            out = [sum(r * v for r, v in zip(row, vec)) % 2 for row in rows]
            return sum(bit << (k - 1 - i) for i, bit in enumerate(out))
        return tuple(image(x) for x in range(n))
    if head == "conj_perm":
        deg = g.spec.params[0]
        perm = list(range(deg))
        for cyc in arg.strip("()").split(")("):
            entries = [int(t) - 1 for t in cyc.split()]
            for idx, v in enumerate(entries):
                perm[v] = entries[(idx + 1) % len(entries)]
        elems = sorted(q for q in itertools.permutations(range(deg))
                       if sum(q[i] > q[j] for i in range(deg) for j in range(i + 1, deg)) % 2 == 0)
        pos = {q: i for i, q in enumerate(elems)}
        pinv = [perm.index(i) for i in range(deg)]
        return tuple(pos[tuple(perm[q[pinv[i]]] for i in range(deg))] for q in elems)
    return tuple(_old_named_image(gname, atom, x) for x in range(n))


def _old_named(g, gname, name):
    """Composite names: ``*`` composes (leftmost applied last), ``^k`` iterates."""
    out = tuple(range(g.order))
    for part in reversed(name.split("*")):
        atom, _, power = part.partition("^")
        base = _old_atom(g, gname, atom)
        if power.startswith("-"):
            base = tuple(base.index(v) for v in range(g.order))
        for _ in range(abs(int(power or 1))):
            out = tuple(base[v] for v in out)
    return out


NAMED_ATOMS = {"C4xC2": ("psi_sigma", "psi_tau"), "C6xC2": ("alpha_sigma", "alpha_tau"),
               "Dic3": ("beta_sigma", "beta_tau"),
               "Q8": ("psi_1", "psi_2", "psi_3", "psi_4", "psi_5")}


@pytest.mark.parametrize("gname", NAMED_ATOMS)
def test_named_atoms_match_the_per_group_closures(gname):
    g = build_named(gname)
    for atom in NAMED_ATOMS[gname]:
        for name in (atom, f"{atom}^2", f"{atom}^3", f"{atom}^-1"):
            assert named_automorphism(g, name).images == _old_named(g, gname, name), name


def test_label_composites_match_the_per_group_closures():
    from quandles.labels import ALL_LABELS
    for label, (gname, name) in ALL_LABELS.items():
        g = build_named(gname)
        assert named_automorphism(g, name).images == _old_named(g, gname, name), label


# Reference copy of the name parsing before each atom read its own suffix:
# the command line stripped one ``@n`` from a name whose last atom is phi or
# mul, and the library split composites with a bracket-depth scanner.  The
# atoms themselves come from the unchanged ``catalog._named_base``.

def _reference_split(name):
    parts, depth, cur = [], 0, ""
    for ch in name:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "*" and depth == 0:
            parts.append(cur)
            cur = ""
        else:
            cur += ch
    parts.append(cur)
    assert all(p.strip() for p in parts), name
    return parts


def _reference_named(g, name):
    body, _, suffix = name.rpartition("@")
    if body.rpartition("*")[2].lstrip().startswith(("phi:", "mul:")):
        expected = g.spec.params[0] if g.spec.kind == "dihedral" else g.order
        assert int(suffix) == expected, name
        name = body
    maps = []
    for part in _reference_split(name):
        atom, power = part.strip(), 1
        if "^" in atom and not atom.startswith("images"):
            atom, _, exp = atom.rpartition("^")
            power = int(exp)
        base = out = catalog._named_base(g, atom.strip())
        if power != 1:
            out = identity_map(g)
            for _ in range(power % base.map_order()):
                out = base.compose(out)
        maps.append(out)
    out = maps[0]
    for m in maps[1:]:
        out = out.compose(m)
    return out.images


# names the parent refused: each must give its suffix-free spelling's map
NEWLY_VALID = {"phi:1,2@4*phi:3,0", "phi:1,2@4^2", "mul:3@8*mul:5@8", "left:mul:3@4"}

# the valid names the tests spell out in literals, f-strings and loops
TEST_NAMES = (
    ("Q8", "psi_3*psi_2"), ("Q8", "psi_4^3"), ("Q8", "psi_4^-1"), ("Q8", "psi_5"),
    ("Q8", "psi_4^1000000"), ("D4", "phi:3,1^-3"), ("C4xC2", "psi_sigma^7"),
    ("C12", "mul: +5 "), ("C12", "mul:5^ -1"), ("C12", "mul:5"),
    ("S3", "conj_perm:( 1, 2 )"), ("S3", "conj_perm:(1 2)"),
    ("S5", "conj_perm:(1 2 3)(4 5)"), ("S5", "conj_perm:(1 4)(2 5 3)"),
    ("A4", "conj_perm:(1 2)(3 4)"), ("A4", "conj_perm:(1 2 3 4)"),
    ("D4", "images:[0,1,2,3,5,6,7,4]"), ("D4", "conj:4"), ("D4", "classrep:0"),
    ("S3xS3", "swap"), ("C2xQ8", "right:psi_4"), ("C2xQ8", "left:id"),
    ("Dic3", "beta_tau*beta_sigma"), ("C6xC2", "alpha_sigma^2"), ("C6xC2", "alpha_tau"),
    ("C4xC2", "psi_tau"), ("C15", "mul:2"), ("C9", "mul:4"), ("C9", "mul:7"),
    ("C7", "mul:3"), ("D6", "phi:5,3"), ("D6", "phi:1,1"), ("D8", "phi:5,2"),
    ("C2xC2xC2", "mat:0,0,1;1,0,0;0,1,1"), ("C2xC2xC2", "mat:0,0,1;1,0,1;0,1,0"),
    ("C2xC2xC2xC2xC2", "mat:0,0,0,0,1;1,0,0,0,0;0,1,0,0,1;0,0,1,0,0;0,0,0,1,0@2"),
    ("C3xC3", "mat:0,1;1,1@3"), ("C2xC2", "mat:0,1;1,1@2"), ("C10", "mul:3*mul:7@10"),
    ("D4", "phi:1,2^2@4"), ("D5", "phi:3,1@5"), ("C10", "mul:3@10"),
    ("D4", "phi:1,2@4*phi:3,0"), ("D4", "phi:1,2@4^2"), ("C8", "mul:3@8*mul:5@8"),
    ("C4xC2", "left:mul:3@4"),
)


def _repo_names():
    """(group, name) for every valid automorphism name in the package's
    labels and invariant tables, the README's command lines, the demos and
    the tests."""
    from quandles.labels import ALL_LABELS
    from quandles.verification import INVARIANT_TABLE_ROWS
    yield from ALL_LABELS.values()
    yield from ((row[2], row[3]) for row in INVARIANT_TABLE_ROWS.values() if row[3])
    root = Path(__file__).parent.parent
    readme = root.joinpath("README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```")[1]
    for line in block.splitlines():
        words = shlex.split(line.partition("#")[0])
        if words[1:2] == ["invariants"]:
            yield tuple(words[2:4])
        elif words[1:2] == ["iso"]:
            yield tuple(words[2:4])
            yield tuple(words[4:6])
    for demo in sorted(root.joinpath("demos").glob("*.py")):
        text = demo.read_text(encoding="utf-8")
        groups = dict(re.findall(r'(\w+) = build_named\("([^"]+)"\)', text))
        for var, name in re.findall(r'named_automorphism\((\w+), "([^"]+)"\)', text):
            yield groups[var], name
    yield from TEST_NAMES


def test_names_match_the_reference_parsing():
    seen = set()
    for gname, name in _repo_names():
        g = build_named(gname)
        old = re.sub(r"@[0-9]+", "", name) if name in NEWLY_VALID else name
        assert named_automorphism(g, name).images == _reference_named(g, old), name
        seen.add(name)
    assert NEWLY_VALID <= seen and len(seen) > 60


def test_cycles_are_balanced_and_disjoint():
    s4 = build_named("S4")
    assert catalog.parse_cycles(" (1 3)( 2 4 ) ", 4) == (2, 3, 0, 1)
    assert catalog.parse_cycles("", 4) == catalog.parse_cycles("()", 4) == (0, 1, 2, 3)
    for text in ("(1 (2))", "((1 2)", "(1 2)(2 3)", "(1 2)(3)(3 4)"):
        with pytest.raises(StructuralError):
            named_automorphism(s4, f"conj_perm:{text}")


def test_each_atom_reads_its_own_suffix():
    d4, c8 = build_named("D4"), build_named("C8")
    phi = named_automorphism(d4, "phi:1,2").compose(named_automorphism(d4, "phi:3,0"))
    assert named_automorphism(d4, "phi:1,2@4*phi:3,0@4") == phi
    assert named_automorphism(d4, "phi:1,2@4^3") == named_automorphism(d4, "phi:1,2^3@4")
    with pytest.raises(ContractViolation):
        named_automorphism(d4, "phi:3,0*phi:1,2@8")
    with pytest.raises(ContractViolation):
        named_automorphism(c8, "mul:3@4")
    for name in ("mul:3@", "mul:3@x", "mul:3@8@8", "mul:3^@8", "mul:3*", "*mul:3"):
        with pytest.raises(NameLookupError):
            named_automorphism(c8, name)
    with pytest.raises(NameLookupError):
        named_automorphism(build_named("C2xC2"), "mat:0,1;1,1@")


def _old_product_table(factors):
    g = factors[0].table
    for h in factors[1:]:
        na, nb = len(g), h.order
        table = [[0] * (na * nb) for _ in range(na * nb)]
        for a1 in range(na):
            for b1 in range(nb):
                for a2 in range(na):
                    for b2 in range(nb):
                        table[a1 * nb + b1][a2 * nb + b2] = g[a1][a2] * nb + h.table[b1][b2]
        g = table
    return tuple(map(tuple, g))


def _old_semidirect_table(base, act_images, m):
    powers = [tuple(range(base.order))]
    for _ in range(m - 1):
        powers.append(tuple(act_images[v] for v in powers[-1]))
    n = base.order
    table = [[0] * (n * m) for _ in range(n * m)]
    for i in range(m):
        for x in range(n):
            for j in range(m):
                for y in range(n):
                    table[i * n + x][j * n + y] = ((i + j) % m) * n + base.table[x][powers[i][y]]
    return tuple(map(tuple, table))


def _old_twist_tables():
    """The first table of each isomorphism type other than D4xC2, scanning
    the involutions of Aut(C4xC2) in order."""
    base = build(product(cyclic(4), cyclic(2)))
    types = []
    for a in automorphism_group(base):
        if a.map_order() == 2:
            g = FiniteGroup(_old_semidirect_table(base, a.images, 2))
            if all(groups_isomorphic(g, t) is None for t in types):
                types.append(g)
    d4c2 = build(product(dihedral(4), cyclic(2)))
    return {g.table for g in types if groups_isomorphic(g, d4c2) is None}


def _old_catalog_table(spec):
    k, p = spec.kind, spec.params
    if k == "product":
        return _old_product_table([FiniteGroup(_old_catalog_table(s), check=False) for s in p])
    if k == "semidirect_cyclic":
        n, m, act = p
        return _old_semidirect_table(build(cyclic(n)), [act * i % n for i in range(n)], m)
    if k in ("symmetric", "alternating"):
        perms = sorted(q for q in itertools.permutations(range(p[0]))
                       if k == "symmetric" or sum(
                           q[i] > q[j] for i in range(p[0]) for j in range(i + 1, p[0])) % 2 == 0)
        pos = {q: i for i, q in enumerate(perms)}
        return tuple(tuple(pos[tuple(a[v] for v in b)] for b in perms) for a in perms)
    if k == "sl2_3":
        mats = sorted(m for m in itertools.product(range(3), repeat=4)
                      if (m[0] * m[3] - m[1] * m[2]) % 3 == 1)
        mats.remove((1, 0, 0, 1))
        mats.insert(0, (1, 0, 0, 1))
        pos = {m: i for i, m in enumerate(mats)}
        return tuple(tuple(pos[((a * e + b * g) % 3, (a * f + b * h) % 3,
                                (c * e + d * g) % 3, (c * f + d * h) % 3)]
                           for e, f, g, h in mats) for a, b, c, d in mats)
    return build(spec).table  # cyclic, dihedral, dicyclic: builders unchanged


def test_catalog_tables_match_the_nested_loop_builders():
    specs = [s for n in range(1, 17) for s in groups_of_order(n)]
    specs += [spec_from_name(name) for name in ("S5", "A5", "SL23", "S3xS3", "C2xQ8")]
    for spec in specs:
        if spec.kind != "c4c2_twist":
            assert build(spec).table == _old_catalog_table(spec), spec
    old = _old_twist_tables()
    assert {build_named("SD16").table, build_named("TW16").table} == old
    # SD16 is the scanned table with an automorphism of order 3, TW16 the other
    has3 = {t: any(a.map_order() == 3 for a in automorphism_group(FiniteGroup(t)))
            for t in old}
    assert sorted(has3.values()) == [False, True]
    assert has3[build_named("SD16").table] and not has3[build_named("TW16").table]


def test_cyclic_action_tables_match_the_cyclic_top_builder():
    from quandles.catalog import cyclic_action, semidirect_table
    for name in ("C3", "C4xC2", "D4", "Q8", "Dic3", "A4"):
        g = build_named(name)
        for psi in automorphism_group(g):
            m = psi.map_order()
            for k in (m, 2 * m):
                table = semidirect_table(g, *cyclic_action(psi.images, k))
                assert tuple(map(tuple, table)) == _old_semidirect_table(g, psi.images, k)
