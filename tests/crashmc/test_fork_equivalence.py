"""Fork-engine equivalence and pruning-soundness properties.

The CoW fork engine must be a pure optimisation: for every kind and every
enumerated crash state, the forked machine's device bytes are bit-identical
to what the replay reference engine constructs from scratch — checked here
over workloads drawn from the difftest generator (projected onto the
crashmc vocabulary), with intra-epoch and reorder states included.

Mechanism-aware pruning must be sound in the sense that a pruned sweep's
violations are a subset of the exhaustive sweep's (it never invents
states), it keeps every mechanism-phase boundary, and the known-reproducer
corpus in ``tests/difftest/repros`` reaches the same verdicts pruned as
exhaustive.
"""

import hashlib
import importlib

import pytest

import repro.crashmc.explorer as explorer_mod
from repro.crashmc import explore
from repro.crashmc.oracles import KIND_PROPS
from repro.difftest import generate_ops, run_crash_differential, to_crash_ops

KINDS = list(KIND_PROPS)


def _sweep(kind, ops, engine, **kw):
    digests = []

    def hook(state, machine):
        data = bytes(machine.pm.buf)
        digests.append((state, hashlib.sha256(data).hexdigest()))

    report = explore(kind, ops=ops, seed=2, engine=engine,
                     state_hook=hook, **kw)
    return report, digests


@pytest.mark.parametrize("kind", KINDS)
def test_fork_is_bit_identical_to_replay(kind):
    # Property source: the difftest fuzz generator, projected onto the
    # crashmc vocabulary — the same workloads `repro fuzz --crash` runs.
    ops = to_crash_ops(generate_ops(11, 30))[:8]
    assert ops, "projection produced an empty workload"
    fork_rep, fork_dig = _sweep(kind, ops, "fork",
                                intra=2, reorder=2, max_states=60)
    repl_rep, repl_dig = _sweep(kind, ops, "replay",
                                intra=2, reorder=2, max_states=60)
    assert [s for s, _ in fork_dig] == [s for s, _ in repl_dig]
    assert fork_dig == repl_dig  # device bytes identical at every state
    assert fork_rep.states_explored == repl_rep.states_explored
    assert ([v.describe() for v in fork_rep.violations]
            == [v.describe() for v in repl_rep.violations])
    assert fork_rep.cow is not None
    assert fork_rep.cow.forks == fork_rep.states_explored


def test_fork_equivalence_with_ras_and_media_faults():
    ops = to_crash_ops(generate_ops(5, 30))[:6]
    fork_rep, fork_dig = _sweep("nova-strict", ops, "fork",
                                intra=2, ras=True, media_rate=0.02)
    repl_rep, repl_dig = _sweep("nova-strict", ops, "replay",
                                intra=2, ras=True, media_rate=0.02)
    assert fork_dig == repl_dig
    assert fork_rep.ras_totals == repl_rep.ras_totals


def test_fork_equivalence_under_stride_sampling():
    ops = to_crash_ops(generate_ops(7, 30))[:8]
    fork_rep, fork_dig = _sweep("pmfs", ops, "fork", intra=3, stride=3)
    repl_rep, repl_dig = _sweep("pmfs", ops, "replay", intra=3, stride=3)
    assert fork_dig == repl_dig
    assert fork_rep.states_explored == repl_rep.states_explored


# -- pruning soundness -------------------------------------------------------


def test_prune_accounting_and_exhaustive_escape_hatch():
    for kind in ("pmfs", "nova-relaxed", "splitfs-strict"):
        full = explore(kind, nops=8, seed=4)
        pruned = explore(kind, nops=8, seed=4, prune=True)
        assert (pruned.states_explored + pruned.pruned_total
                == full.states_explored), kind
        assert pruned.prune_counters.kept_states == pruned.states_explored
        ex = explore(kind, nops=8, seed=4, prune=True, exhaustive=True)
        assert ex.states_explored == full.states_explored
        assert ex.pruned_total == 0


def test_pruned_violations_are_subset_and_boundaries_kept(monkeypatch):
    # Harden the oracle so *every* state is a violation; the pruned
    # sweep's violation set must then be exactly its state subset — it
    # must still flag the workload, and must keep phase boundaries.
    real = explorer_mod.check_state

    def broken(kind, fs_after, shadow, inflight):
        msgs = list(real(kind, fs_after, shadow, inflight))
        msgs.append("synthetic violation (pruning soundness test)")
        return msgs

    monkeypatch.setattr(explorer_mod, "check_state", broken)
    full = explore("pmfs", nops=6, seed=4)
    pruned = explore("pmfs", nops=6, seed=4, prune=True)
    full_states = {v.state for v in full.violations}
    pruned_states = {v.state for v in pruned.violations}
    assert pruned_states, "pruned sweep no longer detects the bug"
    assert pruned_states <= full_states
    assert not pruned.ok and not full.ok
    # mechanism-phase boundaries (first/last fence) always survive pruning
    assert "fence 1" in pruned_states
    assert f"fence {full.trace.fences}" in pruned_states


@pytest.mark.parametrize("mod_name", [
    "test_repro_write_after_unlink",
    "test_repro_rmdir_open_dirfd",
    "test_repro_dir_rename_stale_cache",
    "test_repro_enospc_dir_grow",
])
def test_repro_corpus_verdicts_survive_pruning(mod_name):
    mod = importlib.import_module(f"tests.difftest.repros.{mod_name}")
    kinds = ("pmfs", "splitfs-strict")
    pruned = run_crash_differential(mod.OPS, kinds=kinds, prune=True)
    full = run_crash_differential(mod.OPS, kinds=kinds)
    for kind in kinds:
        pv = {v.describe() for v in pruned[kind].violations}
        fv = {v.describe() for v in full[kind].violations}
        assert pv <= fv, f"{kind}: pruning invented violations"
        assert pruned[kind].ok == full[kind].ok, (
            f"{kind}: pruned verdict diverges from exhaustive")
