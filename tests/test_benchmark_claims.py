"""``benchmarks/claims.py``: the claim lines the paper scripts print."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
from claims import Claims  # noqa: E402


def printed(capsys):
    return capsys.readouterr().out.splitlines()


def test_lines_give_value_relation_bound_and_margin(capsys):
    claims = Claims()
    claims.compare("x / y", 1.0123, ">", 1)
    claims.compare("x / y", 0.8, ">=", 0.95)
    claims.compare("amplification", 2.0, "in", (1.8, 2.3))
    claims.compare("checkpoints", 3, ">", 0)
    claims.compare("checkpoints", 0, "==", 0)
    claims.observe("posix mode, sync append", False, False)
    claims.observe("sync mode, sync metadata", False, True)
    assert printed(capsys) == [
        "claim ok: x / y = 1.012 > 1 (margin 1.23%)",
        "claim FAILED: x / y = 0.8 >= 0.95 (margin -15.79%)",
        "claim ok: amplification = 2 in (1.8, 2.3) (margin 11.11%)",
        "claim ok: checkpoints = 3 > 0",
        "claim ok: checkpoints = 0 == 0",
        "claim ok: posix mode, sync append = no, want no",
        "claim FAILED: sync mode, sync metadata = no, want yes",
    ]


def test_four_significant_digits_show_a_tenth_of_a_percent(capsys):
    claims = Claims()
    claims.compare("r", 1.0100, ">", 1)
    claims.compare("r", 1.0110, ">", 1)
    first, second = printed(capsys)
    assert first != second


def test_a_value_never_prints_equal_to_a_bound_it_differs_from(capsys):
    claims = Claims()
    claims.compare("r", 1.0002, ">", 1)
    claims.compare("r", 0.99999999, "<", 1)
    claims.compare("r", 1.0, ">=", 1)
    claims.compare("amplification", 2.30001, "in", (1.8, 2.3))
    assert printed(capsys) == [
        "claim ok: r = 1.0002 > 1 (margin 0.02%)",
        "claim ok: r = 0.99999999 < 1 (margin 1e-06%)",
        "claim ok: r = 1 >= 1 (margin 0%)",
        "claim FAILED: amplification = 2.30001 in (1.8, 2.3) "
        "(margin -0.0004348%)",
    ]


def test_worst_case_names_where_it_occurs(capsys):
    claims = Claims()
    claims.compare("speedup", {"a": 2.0, "b": 1.1, "c": 3.0}, ">", 1)
    claims.compare("slowdown", {"a": 1.2, "b": 1.6, "c": 1.4}, "<", 1.5)
    claims.compare("largest gain", 8.9, ">", 1.5, where="tpcc")
    claims.observe("strict mode, every column",
                   {"sync append": True, "sync metadata": False,
                    "atomic appends": False})
    claims.observe("atomic appends, every mode",
                   {"posix": True, "sync": True, "strict": True})
    assert printed(capsys) == [
        "claim ok: speedup = 1.1 > 1 (margin 10%) at b",
        "claim FAILED: slowdown = 1.6 < 1.5 (margin -6.667%) at b",
        "claim ok: largest gain = 8.9 > 1.5 (margin 493.3%) at tpcc",
        "claim FAILED: strict mode, every column = no at sync metadata, "
        "want yes",
        "claim ok: atomic appends, every mode = yes in all 3, want yes",
    ]


def test_finish_is_1_once_any_claim_failed(capsys):
    claims = Claims()
    claims.compare("a", 1, "<", 2)
    assert claims.finish() == 0
    claims.compare("b", 3, "<", 2)
    claims.compare("c", 1, "<", 2)
    assert claims.finish() == 1
    assert printed(capsys) == [
        "claim ok: a = 1 < 2 (margin 50%)",
        "claim FAILED: b = 3 < 2 (margin -50%)",
        "claim ok: c = 1 < 2 (margin 50%)",
    ]
