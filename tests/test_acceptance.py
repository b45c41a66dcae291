"""The acceptance gate: one test per criterion, each printing a PASS/FAIL
line, all tolerances exact.  Run with ``pytest -s tests/test_acceptance.py``
to see the lines; the same checks back the ``verify-paper`` CLI command."""

import copy
import time

import pytest

from quandles import verification
from quandles.classify import _pair_objects, classify_order
from quandles.iso import ISOMORPHIC, verify_quandle_witness
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
