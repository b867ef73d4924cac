"""Fork-engine equivalence and pruning-soundness properties.

The CoW fork engine must be a pure optimisation: for every kind and every
enumerated crash state, the forked machine's device bytes are bit-identical
to what the replay reference engine (``tests/crashmc/replay.py``)
constructs from scratch — checked here over workloads drawn from the
difftest generator (projected onto the crashmc vocabulary), with
intra-epoch and reorder states included.

Mechanism-aware pruning must be sound in the sense that a pruned sweep's
violations are a subset of the exhaustive sweep's (it never invents
states), it keeps every mechanism-phase boundary, and the known-reproducer
corpus in ``tests/difftest/repros`` reaches the same verdicts pruned as
exhaustive.
"""

import hashlib
import importlib
from contextlib import nullcontext

import pytest

import repro.crashmc.explorer as explorer_mod
from repro.crashmc import explore
from repro.crashmc.oracles import KIND_PROPS
from repro.difftest import generate_ops, run_crash_differential, to_crash_ops
from repro.pmem.cow import SEGMENT_SHIFT
from tests.crashmc.replay import replay_engine

KINDS = list(KIND_PROPS)


def _device_digest(buf):
    """Digest of a device buffer's bytes, reading only its written segments.

    Hashes the length plus, with its index, every segment held anywhere in
    the buffer's ``base`` chain that has a nonzero byte.  Every other
    segment reads as zeros, so two buffers get equal digests exactly when
    their bytes are equal.
    """
    held = set()
    layer = buf
    while layer is not None:
        held.update(layer._own)
        layer = layer.base
    h = hashlib.sha256(len(buf).to_bytes(8, "little"))
    for seg in sorted(held):
        start = seg << SEGMENT_SHIFT
        data = buf.read(start, min(start + (1 << SEGMENT_SHIFT), len(buf)))
        if data.strip(b"\0"):
            h.update(seg.to_bytes(8, "little"))
            h.update(data)
    return h.hexdigest()


def _both_engines(kind, **kw):
    """``explore`` under the fork engine, then under the replay engine.

    Returns one ``(report, [(state, device digest)])`` pair per engine.
    """
    runs = []
    for engine in (nullcontext(), replay_engine()):
        digests = []

        def hook(state, machine):
            digests.append((state, _device_digest(machine.pm.buf)))

        with engine:
            report = explore(kind, state_hook=hook, **kw)
        runs.append((report, digests))
    return runs


@pytest.mark.parametrize("kind", KINDS)
def test_fork_is_bit_identical_to_replay(kind):
    # Property source: the difftest fuzz generator, projected onto the
    # crashmc vocabulary — the same workloads `repro fuzz --crash` runs.
    ops = to_crash_ops(generate_ops(11, 30))[:8]
    assert ops, "projection produced an empty workload"
    (fork_rep, fork_dig), (repl_rep, repl_dig) = _both_engines(
        kind, ops=ops, seed=2, intra=2, reorder=2, max_states=60)
    assert [s for s, _ in fork_dig] == [s for s, _ in repl_dig]
    assert fork_dig == repl_dig  # device bytes identical at every state
    assert fork_rep.states_explored == repl_rep.states_explored
    assert ([v.describe() for v in fork_rep.violations]
            == [v.describe() for v in repl_rep.violations])
    assert fork_rep.cow is not None
    assert fork_rep.cow.forks == fork_rep.states_explored
    assert repl_rep.cow is None


def test_fork_equivalence_with_ras_and_media_faults():
    ops = to_crash_ops(generate_ops(5, 30))[:6]
    (fork_rep, fork_dig), (repl_rep, repl_dig) = _both_engines(
        "nova-strict", ops=ops, seed=2, intra=2, ras=True, media_rate=0.02)
    assert fork_dig == repl_dig
    assert fork_rep.ras_totals == repl_rep.ras_totals


def test_engines_agree_on_the_cli_cross_check_inputs():
    # `repro crashmc --fs nova-strict --ops 8 --intra 2 --reorder 2`: the
    # reports match line for line, bar the fork engine's CoW counters.
    (fork_rep, fork_dig), (repl_rep, repl_dig) = _both_engines(
        "nova-strict", nops=8, intra=2, reorder=2)
    assert repl_rep.cow is None, "the replay engine was not swapped in"
    fork_lines = [line for line in fork_rep.format().splitlines()
                  if not line.startswith("  fork:")]
    assert fork_lines == repl_rep.format().splitlines()
    assert fork_dig == repl_dig


# -- pruning soundness -------------------------------------------------------


def test_prune_accounting_and_exhaustive_escape_hatch():
    for kind in ("pmfs", "nova-relaxed", "splitfs-strict"):
        full = explore(kind, nops=8, seed=4)
        pruned = explore(kind, nops=8, seed=4, prune=True)
        assert (pruned.states_explored + pruned.pruned_total
                == full.states_explored), kind
        assert (pruned.candidate_fence_states - pruned.pruned_total
                == pruned.states_explored), kind


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
