import json
import re
from pathlib import Path

import pytest

from quandles import classify
from quandles.catalog import build_named, named_automorphism
from quandles.cli import main
from quandles.groups import automorphism_conjugacy_classes
from quandles.invariants import profile, profile_to_json

GOLDEN_VERIFY_PAPER = Path(__file__).parent / "data" / "verify_paper.txt"
GOLDEN_AUT_C2_4 = Path(__file__).parent / "data" / "aut_C2xC2xC2xC2.txt"


def test_groups_list(capsys):
    assert main(["groups", "list", "8"]) == 0
    out = capsys.readouterr().out
    assert "Q8" in out and "D4" in out and len(out.strip().splitlines()) == 5


def test_groups_list_out_of_range(capsys):
    assert main(["groups", "list", "40"]) == 2


@pytest.mark.parametrize("argv,code", [
    (["groups", "bogus", "4"], 3), (["classify", "abc"], 3), (["groups", "list", "0"], 3),
    (["classify", "-1"], 3), (["groups", "list", "17"], 2), (["classify", "17"], 2),
])
def test_usage_errors_and_orders_below_1_are_bad_input(argv, code, capsys):
    # exit 2 is left to capacity: argparse's own usage errors exit 3
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("usage: " if code == 3 else "capacity: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["--help"], ["classify", "--help"]])
def test_help_exits_0(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("usage: quandles")


def test_aut(capsys):
    assert main(["aut", "D4"]) == 0
    out = capsys.readouterr().out
    assert "|Aut| = 8" in out and "5 conjugacy classes" in out


def test_aut_capacity(capsys):
    assert main(["aut", "A5", "--bound", "50"]) == 2


def test_aut_is_capped_by_count(capsys):
    # C2^5 passes the order bound of 128, but |GL(5, 2)| is about 1e7
    assert main(["aut", "C2xC2xC2xC2xC2"]) == 2
    assert capsys.readouterr().err.startswith("capacity:")
    for group, count in (("C2xC2xC2xC2", 20160), ("S5", 120)):
        assert main(["aut", group]) == 0
        assert f"|Aut| = {count}," in capsys.readouterr().out


def test_aut_c2_4_matches_the_golden_file(capsys):
    assert main(["aut", "C2xC2xC2xC2"]) == 0
    out = capsys.readouterr().out
    assert out == GOLDEN_AUT_C2_4.read_text()
    # Aut(C2^4) = GL(4, 2) is isomorphic to A8, whose 14 conjugacy classes
    # have these sizes: a check that does not come from this package
    sizes = [int(line.split("size ")[1].split(",")[0]) for line in out.splitlines()[1:]]
    assert sizes == [1, 105, 210, 1260, 1120, 2520, 3360, 2880, 2880,
                     112, 1680, 1344, 1344, 1344]


def test_classrep_reaches_groups_above_order_60(capsys):
    # the default Aut order bound admits every catalog group, as `aut` does
    s5 = build_named("S5")
    assert main(["invariants", "S5", "classrep:1"]) == 0
    rep = automorphism_conjugacy_classes(s5)[1][0]
    assert capsys.readouterr().out == profile_to_json(profile(s5, rep)) + "\n"


def test_invariants(capsys):
    assert main(["invariants", "Q8", "psi_4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["psi_order"] == 3 and data["fix_size"] == 2
    assert data["p_iso_type"]["name"] == "Q8"
    assert data["p1"] is True and data["p2"] is False


def test_iso_with_modulus_suffixes(capsys):
    assert main(["iso", "C10", "mul:3@10", "D5", "phi:3,1@5"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["result"] == "isomorphic"
    assert "witness" in data


def test_iso_methods(capsys):
    assert main(["iso", "D4", "phi:1,2", "D4", "phi:3,2", "--method", "brute"]) == 0
    assert json.loads(capsys.readouterr().out)["method"] == "brute-force"
    assert main(["iso", "D4", "phi:1,2", "D4", "phi:3,2", "--method", "thm13"]) == 0
    assert json.loads(capsys.readouterr().out)["method"] == "theorem-1-3"


def test_iso_modulus_mismatch(capsys):
    assert main(["iso", "C10", "mul:3@11", "D5", "phi:3,1@5"]) == 3


@pytest.mark.parametrize("group,aut", [
    ("C3xC3", "mat:0,1;1,1@3"), ("C2xC2", "mat:0,1;1,1@2"), ("D5", "phi:3,1@5"),
    ("C10", "mul:3*mul:7@10"), ("D4", "phi:1,2@4*phi:3,0"), ("D4", "phi:1,2@4^2"),
    ("D4", "phi:1,2^2@4"), ("C8", "mul:3@8*mul:5@8"),
])
def test_invariants_read_a_prime_or_a_modulus_suffix(group, aut, capsys):
    # each atom reads its own suffix: the profile is the suffix-free name's
    assert main(["invariants", group, aut]) == 0
    g = build_named(group)
    atom = aut if aut.startswith("mat:") else re.sub(r"@[0-9]+", "", aut)
    assert json.loads(capsys.readouterr().out) == json.loads(
        profile_to_json(profile(g, named_automorphism(g, atom))))


@pytest.mark.parametrize("group,aut", [
    ("C4", "mul:x"), ("C4", "conj:x"), ("S3", "classrep:x"), ("D3", "phi:1"),
    ("C2xC2", "mat:1,x;0,1"), ("C4", "images:[0,a]"), ("S3", "conj_perm:(1_x)"),
    ("C4", "left:id"), ("C4", "left:"), ("S3", "conj_perm:(1 2"),
    ("S3", "conj_perm:garbage"), ("S4", "conj_perm:(1 2)x"), ("S4", "conj_perm:(1 2)(2 3)"),
    ("C2xC2", "mat:0,1;1,1@"), ("C10", "mul:3@11"), ("D4", "phi:1,2@5*phi:3,0"),
    ("D4", "phi:1,2@4@4"), ("C4", "conj_perm:(1 2)"), ("C4xC2", "swap"),
])
def test_malformed_automorphism_name_is_bad_input(group, aut, capsys):
    assert main(["invariants", group, aut]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["invariants", "C12", "mul:1_1"], ["invariants", "S3", "conj_perm:(0_1 2)"],
    ["invariants", "Q8", "psi_4^1_0"], ["iso", "C12", "mul:5@1_2", "C12", "mul:5"],
    ["aut", "C\u0663"], ["invariants", "C12", "mul:\u0665"],
])
def test_integers_outside_ascii_digits_are_bad_input(argv, capsys):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_bad_group_name(capsys):
    assert main(["iso", "NOPE", "id", "C4", "id"]) == 3
    assert main(["aut", "Zilch"]) == 3
    assert main(["invariants", "D4", "phi:2,1"]) == 3


@pytest.mark.parametrize("argv,err", [
    (["invariants", "Foo", "id"], "error: unknown group name 'Foo'\n"),
    (["invariants", "D4", "bogus"], "error: automorphism 'bogus' is not defined on D4\n"),
])
def test_name_errors_print_their_message_unquoted(argv, err, capsys):
    assert main(argv) == 3
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("group", ["S0", "A0"])
def test_conj_perm_on_degree_zero_is_the_identity(group, capsys):
    g = build_named(group)
    assert named_automorphism(g, "conj_perm:()").images == (0,)
    assert main(["invariants", group, "conj_perm:()"]) == 0


def test_classify(capsys):
    assert main(["classify", "8"]) == 0
    out = capsys.readouterr().out
    assert "9 classes" in out
    assert main(["classify", "9", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["classes"]) == 11
    assert main(["classify", "10", "--format", "csv"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 6


def test_classify_order16_needs_flag(capsys):
    assert main(["classify", "16"]) == 2


@pytest.mark.parametrize("argv,code", [
    (["classify", "17"], 2), (["classify", "0"], 3), (["classify", "16"], 2),
])
def test_classify_refuses_the_order_before_making_the_cache(argv, code, tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main([*argv, "--cache", str(cache)]) == code
    assert not cache.exists()


def test_classify_cache(tmp_path, capsys):
    assert main(["classify", "6", "--cache", str(tmp_path)]) == 0
    capsys.readouterr()
    assert any("order6" in f.name for f in tmp_path.iterdir())
    assert main(["classify", "6", "--cache", str(tmp_path)]) == 0


@pytest.mark.parametrize("where", ["--cache", "QF_CACHE_DIR"])
def test_classify_unusable_cache_path(where, tmp_path, capsys, monkeypatch):
    # a file, or a path under one, is bad input (exit 3), not the
    # verification mismatch of exit 1, and it is reported before any pair
    # is built
    monkeypatch.setattr(classify, "_pair_objects",
                        lambda *args: pytest.fail("a pair was built first"))
    path = tmp_path / "plain-file"
    path.write_text("not a directory")
    if where == "--cache":
        cache, argv = path, ["classify", "4", "--cache", str(path)]
    else:
        cache, argv = path / "cache", ["classify", "4"]
        monkeypatch.setenv(where, str(cache))
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(cache) in err
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_text() == "not a directory"


def test_verify_paper(capsys):
    assert main(["verify-paper"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 10
    assert all(l.startswith("PASS") for l in lines)
    assert "10/10 claims verified" in out
    assert out == GOLDEN_VERIFY_PAPER.read_text(encoding="utf-8")


def test_verify_paper_classifies_each_order_once(monkeypatch, capsys):
    # one run_all_claims shares one report per order among its claims; a
    # claim called on its own classifies afresh on every call
    from collections import Counter

    from quandles import verification
    calls, real = Counter(), verification.classify_order

    def counting(order, *args, **kwargs):
        calls[order] += 1
        return real(order, *args, **kwargs)

    monkeypatch.setattr(verification, "classify_order", counting)
    assert main(["verify-paper"]) == 0
    assert capsys.readouterr().out == GOLDEN_VERIFY_PAPER.read_text(encoding="utf-8")
    assert calls == Counter(range(1, 16))
    calls.clear()
    assert verification.claim_table1().ok and verification.claim_table1().ok
    assert calls == Counter(2 * list(range(1, 16)))
