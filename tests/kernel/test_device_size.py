"""One device size: why every command can run on ``DEFAULT_PM_SIZE``.

The Table 1 appends, a differential fuzz run and a crash sweep give the
same simulated results on a 96 MiB device (the size the fuzz and crash
commands used to run on) as on the default one.  Only a crash report's
``fork:`` line moves, because it counts the device bytes each fork shares.

Device size is not neutral everywhere.  ext4 starts a file's first
extent on a 2 MiB boundary when one is free (huge-page eligibility, paper
Section 4), and a larger device leaves more of them free, so at 512 MiB
Figure 6's git and rsync rows and the aged-ext4 row of the aging ablation
move.  That is why the default is 192 MiB, the size the paper suite has
always run on, and not 512 MiB.
"""

import pytest

from repro.bench import harness
from repro.bench.harness import append_4k_workload
from repro.cli import main
from repro.crashmc import explore, explorer
from repro.difftest import generate_ops, run_differential
from repro.factory import SYSTEM_NAMES, make_filesystem
from repro.kernel.machine import DEFAULT_PM_SIZE
from repro.serve import ServeConfig

SMALL = 96 * 1024 * 1024


def test_default_is_the_one_device_size():
    assert DEFAULT_PM_SIZE == 192 * 1024 * 1024
    assert harness.DEFAULT_PM == DEFAULT_PM_SIZE
    machine, _ = make_filesystem("ext4dax")
    assert machine.pm.size == DEFAULT_PM_SIZE


def _table1():
    out = []
    for system in SYSTEM_NAMES:
        m = append_4k_workload(system, total_bytes=2 * 1024 * 1024)
        out.append((system, vars(m.account), vars(m.io), m.extras))
    return out


def test_table1_appends_do_not_depend_on_device_size(monkeypatch):
    default = _table1()
    sizes = []

    def small(*args, **kwargs):
        machine, fs = make_filesystem(*args, pm_size=SMALL, **kwargs)
        sizes.append(machine.pm.size)
        return machine, fs

    monkeypatch.setattr(harness, "make_filesystem", small)
    assert _table1() == default
    assert sizes == [SMALL] * len(SYSTEM_NAMES)


def test_differential_fuzz_does_not_depend_on_device_size():
    ops = generate_ops(7, 300)

    def run(size=None):
        sizes, results = [], []

        def factory(kind, pm_size):
            sizes.append(pm_size)
            machine, fs = make_filesystem(kind, pm_size=size or pm_size)
            results.append(machine)
            return machine, fs

        report = run_differential(ops, seed=7, fs_factory=factory)
        assert set(sizes) == {DEFAULT_PM_SIZE}
        assert {m.pm.size for m in results} == {size or DEFAULT_PM_SIZE}
        return report.format(), [(m.clock.now_ns, vars(m.pm.stats))
                                 for m in results]

    assert run(SMALL) == run()


def _sweep():
    """A crashmc sweep's report without its ``fork:`` line, the simulated
    time of every crash state, and the ``fork:`` line itself."""
    states = []
    report = explore("splitfs-strict", nops=8, intra=2, reorder=2,
                     state_hook=lambda label, m: states.append(
                         (label, m.clock.now_ns)))
    lines = report.format().splitlines()
    fork = [line for line in lines if line.lstrip().startswith("fork:")]
    rest = [line for line in lines if not line.lstrip().startswith("fork:")]
    return rest, states, fork


def test_crash_sweep_does_not_depend_on_device_size(monkeypatch):
    rest, states, fork = _sweep()
    fresh = explorer.fresh

    def small_fresh(kind, pm_size, **kwargs):
        assert pm_size == DEFAULT_PM_SIZE
        return fresh(kind, SMALL, **kwargs)

    monkeypatch.setattr(explorer, "fresh", small_fresh)
    small_rest, small_states, small_fork = _sweep()
    assert small_rest == rest
    assert small_states == states
    # The fork line counts shared device bytes, so it alone tells the
    # two device sizes apart.
    assert len(fork) == 1 and small_fork != fork


def test_no_device_size_parameter():
    with pytest.raises(TypeError):
        ServeConfig(pm_size=SMALL)
    with pytest.raises(TypeError):
        explore("ext4dax", nops=1, pm_size=SMALL)


@pytest.mark.parametrize("command", ["crashmc", "fuzz", "serve", "monitor"])
def test_no_device_size_flag(command, capsys):
    argv = [command, "--pm-mb", "96"]
    if command == "crashmc":
        argv += ["--fs", "ext4dax"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--pm-mb" in capsys.readouterr().err
