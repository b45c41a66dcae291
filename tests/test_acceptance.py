"""The acceptance gate: one test per criterion, each printing a PASS/FAIL
line, all tolerances exact.  Run with ``pytest -s tests/test_acceptance.py``
to see the lines; the same checks back the ``verify-paper`` CLI command."""

import copy
import dataclasses
import time
import types

import pytest

from quandles import verification
from quandles.classify import _pair_objects, classify_order
from quandles.dihedral import DihedralAut
from quandles.groups import Subgroup
from quandles.iso import (ISOMORPHIC, NOT_ISOMORPHIC, UNDECIDED, IsoVerdict,
                          Theorem39Report, verify_quandle_witness)
from quandles.quandle import general_alexander
from quandles.verification import (claim_boundary, claim_closed_forms,
                                   claim_cyclic_realization,
                                   claim_decider_cross_validation,
                                   claim_dihedral_formulas,
                                   claim_invariant_tables, claim_merge_lists,
                                   claim_structure, claim_table1,
                                   claim_witness_structure)

TABLE1_BUDGET_SECONDS = 120.0
DIHEDRAL_BUDGET_SECONDS = 30.0
BOUNDARY_BUDGET_SECONDS = 300.0


def _report(criterion, result, elapsed=None):
    stamp = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"{'PASS' if result.ok else 'FAIL'}  criterion {criterion}: "
          f"{result.name}{stamp}" + (f" [{result.detail}]" if result.detail else ""))
    assert result.ok, result.detail


def test_criterion_1_table1_counts():
    t0 = time.time()
    result = claim_table1()
    elapsed = time.time() - t0
    _report(1, result, elapsed)
    assert elapsed < TABLE1_BUDGET_SECONDS


def test_criterion_2_closed_forms():
    _report(2, claim_closed_forms())


def test_criterion_3_merge_lists():
    _report(3, claim_merge_lists())


def test_criterion_4_invariant_tables():
    _report(4, claim_invariant_tables())


def test_criterion_5_dihedral_formulas():
    t0 = time.time()
    result = claim_dihedral_formulas()
    elapsed = time.time() - t0
    _report(5, result, elapsed)
    assert elapsed < DIHEDRAL_BUDGET_SECONDS


def test_criterion_6_decider_cross_validation():
    _report(6, claim_decider_cross_validation())


def test_criterion_7_cyclic_realization():
    _report(7, claim_cyclic_realization())


def test_criterion_8_structural_theorems():
    _report(8, claim_structure())


def test_criterion_9_order16_boundary():
    t0 = time.time()
    result = claim_boundary()
    elapsed = time.time() - t0
    _report(9, result, elapsed)
    assert elapsed < BOUNDARY_BUDGET_SECONDS


def test_criterion_10_witness_structure():
    _report(10, claim_witness_structure())


@pytest.mark.parametrize("tamper", ["alter", "drop"])
def test_log_reading_claims_fail_on_a_bad_order8_report(monkeypatch, tamper):
    # criteria 3 and 10 read the verdict log; a report whose log has one
    # isomorphic witness altered, or one isomorphic entry dropped, must make
    # both claims fail on order 8, not raise
    report = copy.deepcopy(classify_order(8))
    k = next(k for k, e in enumerate(report.verdict_log)
             if e["verdict"]["result"] == ISOMORPHIC)
    entry = report.verdict_log[k]
    if tamper == "alter":
        w = entry["verdict"]["witness"]
        w[1], w[2] = w[2], w[1]
        maps = _pair_objects(8)[2]
        assert not verify_quandle_witness(general_alexander(*maps[entry["left"]]),
                                          general_alexander(*maps[entry["right"]]), w)
    else:
        del report.verdict_log[k]
    monkeypatch.setattr(verification, "_classify",
                        lambda order: report if order == 8 else classify_order(order))
    for claim in (claim_merge_lists, claim_witness_structure):
        result = claim()
        assert not result.ok and "order 8" in result.detail, (claim.__name__, result)


def _on_group(name, lie):
    """A stand-in for real(g, ...) that gives lie(real, g, ...) on the group of that name."""
    return lambda real: lambda g, *args: (lie(real, g, *args) if g.name == name
                                          else real(g, *args))


def _order2_subgroup(real, g, psi):
    return Subgroup(g, (0, next(x for x in range(g.order) if g.element_order(x) == 2)))


_NOT_ISO = IsoVerdict(NOT_ISOMORPHIC, "stand-in")
_BAD_BOUNDARY = {"verdicts": [{"profiles_agree": False, "verdict": {"result": UNDECIDED}},
                              {"profiles_agree": True, "verdict": {"result": ISOMORPHIC}}]}

# (claim, a name it reads, the real value -> a stand-in that lies, the failure it must report):
# one case per failure the claims can report
_LIES = [
    (claim_table1, "TABLE1_COUNTS", lambda real: (1,) * 15, "counts (1, 1, 2, 3"),
    (claim_closed_forms, "closed_form_counts", lambda real: lambda n: 0,
     "n=2: closed form 0, classified 1, table 1 1"),
    (claim_merge_lists, "EXPECTED_ORDER8_PARTITION", lambda real: [], "order 8 partition differs"),
    (claim_merge_lists, "DISPLAYED_MERGES_ORDER8", lambda real: [("Q8_1", "Q8_10")],
     "Q8_1 ~ Q8_10 not merged"),
    (claim_merge_lists, "verify_quandle_witness", lambda real: lambda *args: False,
     "order 8: some merge lacks a verified witness"),
    (claim_invariant_tables, "INVARIANT_TABLE_ROWS",
     lambda real: {"Q8_1": (2, 8, "C1", "id", None, None)}, "Q8_1: ord/fix 1,8"),
    (claim_invariant_tables, "INVARIANT_TABLE_ROWS",
     lambda real: {"Q8_1": (1, 8, "C2", "id", None, None)}, "Q8_1: P type C1 != C2"),
    (claim_invariant_tables, "INVARIANT_TABLE_ROWS",
     lambda real: {"Q8_2": (4, 2, "C2xC2", "id", None, None)}, "Q8_2: restricted class differs"),
    (claim_invariant_tables, "INVARIANT_TABLE_ROWS",
     lambda real: {"Q8_16": (1, 8, "C1", "id", False, None)}, "Q8_16: precondition-1 flag True"),
    (claim_invariant_tables, "INVARIANT_TABLE_ROWS",
     lambda real: {"Q8_19": (3, 2, "Q8", None, True, True)}, "Q8_19: precondition-2 flag False"),
    (claim_dihedral_formulas, "fix_size_dn", lambda real: lambda x: 0, "fix n=1,a=0,b=0"),
    (claim_dihedral_formulas, "p_subgroups_dn", lambda real: lambda x: (x.n + 1, 1),
     "P n=1,a=0,b=0"),
    (claim_dihedral_formulas, "compute_P2",
     lambda real: lambda g, psi: Subgroup(g, range(g.order)), "P2 n=1,a=0,b=0"),
    (claim_dihedral_formulas, "are_conjugate_dn", lambda real: lambda x, y: True,
     "conj n=3 DihedralAut(n=3, a=1, b=0) DihedralAut(n=3, a=1, b=1)"),
    (claim_dihedral_formulas, "conjugacy_reps_aut_dn", lambda real: lambda n: real(n)[1:],
     "reps n=3"),
    (claim_dihedral_formulas, "conjugacy_reps_aut_dn",  # phi_{1,2} is conjugate to phi_{1,1}
     lambda real: lambda n: [*real(n)[:-1], DihedralAut(n, 1, 2)], "rep coverage n=3"),
    (claim_decider_cross_validation, "theorem13_iso", lambda real: lambda *args: _NOT_ISO,
     "thm13 vs brute: C4/C2xC2"),
    (claim_decider_cross_validation, "abelian_decider", lambda real: lambda *args: _NOT_ISO,
     "abelian vs brute: C4/C2xC2"),
    (claim_decider_cross_validation, "cyclic_iso_decider", lambda real: lambda *args: True,
     "cyclic formula n=3 1 2"),
    (claim_decider_cross_validation, "dihedral_iso_decider", lambda real: lambda *args: True,
     "dihedral formula n=2 DihedralAut(n=2, a=1, b=0) DihedralAut(n=2, a=1, b=1)"),
    (claim_cyclic_realization, "decide", lambda real: lambda *args: _NOT_ISO, "n=1, a=1"),
    (claim_structure, "is_normal", lambda real: lambda g, h: False, "P not normal in C1"),
    (claim_structure, "is_normal", lambda real: lambda g, h: False, "P2 not normal in P for C1"),
    (claim_structure, "compute_P", _on_group("D3", _order2_subgroup),
     "P not normal in TN for D3"),
    (claim_structure, "twisted_normalizer", lambda real: lambda g, psi, h: Subgroup(g, (0,)),
     "PF not inside TN for C2"),
    (claim_structure, "inn_structure", lambda real: lambda g, psi: dataclasses.replace(
        real(g, psi), centerless_p=True, psi_p_inner=True, direct_witness=None),
     "dichotomy fails on C1 (0,)"),
    (claim_structure, "inn_structure", _on_group("S4", lambda real, g, psi: dataclasses.replace(
        real(g, psi), direct_witness=None)), "inner-branch case on S4 fails"),
    (claim_structure, "groups_isomorphic", lambda real: lambda g, h: None,
     "counterexample: P is not the quaternion group"),
    (claim_structure, "sl23_element_index", lambda real: lambda mat: 0,
     "counterexample preconditions fail"),
    (claim_structure, "groups_isomorphic", lambda real: lambda g, h: True,
     "counterexample: Inn is a direct product after all"),
    (claim_boundary, "decide", lambda real: lambda *args: IsoVerdict(ISOMORPHIC, "stand-in"),
     "dihedral boundary: isomorphic separator=None"),
    (claim_boundary, "cached_profile",
     lambda real: lambda g, psi: types.SimpleNamespace(fix_size=0), "fix sizes (0, 0)"),
    (claim_boundary, "boundary_report", lambda real: lambda: {"verdicts": []},
     "no order-3 class on the twist side"),
    (claim_boundary, "boundary_report", lambda real: lambda: _BAD_BOUNDARY,
     "boundary profiles unexpectedly separate"),
    (claim_boundary, "boundary_report", lambda real: lambda: _BAD_BOUNDARY,
     "boundary verdict undecided"),
    (claim_boundary, "boundary_report", lambda real: lambda: _BAD_BOUNDARY,
     "boundary verdict lacks witness"),
    (claim_witness_structure, "verify_quandle_witness", lambda real: lambda *args: False,
     "order 4 pair 0/2: composed witness fails"),
    (claim_witness_structure, "check_theorem39_properties",
     lambda real: lambda *args: Theorem39Report({"i": False}), "order 4 pair 0/2: {'i': False}"),
    (claim_witness_structure, "check_theorem39_properties",  # order 16 only at the boundary
     lambda real: lambda w, g1, *args: Theorem39Report({"i": g1.order != 16}),
     "boundary witness fails the structure checks"),
]


@pytest.mark.parametrize("claim, name, lie, failure", [pytest.param(*case, id=case[-1])
                                                       for case in _LIES])
def test_each_claim_can_fail(monkeypatch, claim, name, lie, failure):
    monkeypatch.setattr(verification, name, lie(getattr(verification, name)))
    result = claim()
    assert not result.ok and failure in result.detail, result


def test_witness_structure_checks_only_isomorphic_boundary_verdicts(monkeypatch):
    monkeypatch.setattr(verification, "boundary_report",
                        lambda: {"verdicts": [{"verdict": {"result": NOT_ISOMORPHIC}}]})
    result = claim_witness_structure()
    assert result.ok and result.detail == "95 witnesses checked", result


def test_the_run_memo_is_invisible():
    # a claim run alone makes what it reads; within run_all_claims the claims
    # share one memo, which is unset afterwards
    together = verification.run_all_claims()
    assert verification._memo is None
    assert [claim() for claim in verification.ALL_CLAIMS] == together
    assert verification._maps(3) is not verification._maps(3)


def test_the_run_memo_is_unset_when_a_claim_raises(monkeypatch):
    kept = []

    def failing():
        kept.append(verification._maps(3) is verification._maps(3))
        raise RuntimeError("claim failed")

    monkeypatch.setattr(verification, "ALL_CLAIMS", (failing,))
    with pytest.raises(RuntimeError, match="claim failed"):
        verification.run_all_claims()
    assert kept == [True] and verification._memo is None
