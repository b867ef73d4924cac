"""fsck's range claims report what the per-block loops they replaced did.

Random claim sets, inside and outside the data region, overlapping or
not, by the same owner and by others, go through ext4's and NOVA's
``_claim`` over one :class:`~repro.kernel.claims.BlockClaims` each, and
through the per-block dict loops kept in ``tests/reference_impls.py``.
The error lists, ext4's ``blocks_claimed`` and the number of blocks with
an owner must be equal.
"""

from hypothesis import given, settings, strategies as st

from repro.ext4.fsck import FsckReport, _claim as ext4_claim
from repro.kernel.claims import OUTSIDE, BlockClaims
from repro.nova.fsck import _claim as nova_claim
from tests.reference_impls import ext4_fsck_claims, nova_fsck_claims

DATA_START, TOTAL = 16, 80

claims = st.lists(
    st.tuples(st.integers(0, TOTAL + 8), st.integers(0, 24),
              st.integers(1, 4), st.sampled_from(["data", "log"])),
    max_size=12)


@settings(max_examples=300, deadline=None)
@given(claims)
def test_ext4_claims_match_the_per_block_loop(claim_set):
    report = FsckReport()
    claimed = BlockClaims(DATA_START, TOTAL)
    for block, length, ino, what in claim_set:
        ext4_claim(report, claimed, block, length, ino, what)
    assert (report.errors, report.blocks_claimed, len(claimed)) == \
        ext4_fsck_claims(claim_set, DATA_START, TOTAL)


@settings(max_examples=300, deadline=None)
@given(claims)
def test_nova_claims_match_the_per_block_loop(claim_set):
    report = FsckReport()
    claimed = BlockClaims(DATA_START, TOTAL)
    for block, length, ino, what in claim_set:
        nova_claim(report, claimed, block, length, f"ino {ino} {what}")
    assert (report.errors, len(claimed)) == \
        nova_fsck_claims(claim_set, DATA_START, TOTAL)


def test_a_claim_splits_the_run_it_lands_in():
    claimed = BlockClaims(0, 100)
    assert claimed.claim(10, 20, "a") == []
    assert claimed.claim(15, 5, "b") == [(b, "a") for b in range(15, 20)]
    assert claimed._runs == [(10, 15, "a"), (15, 20, "b"), (20, 30, "a")]
    assert len(claimed) == 20
    assert claimed.claim(98, 4, "c") == [(100, OUTSIDE), (101, OUTSIDE)]
    assert len(claimed) == 22
