"""Cost-model constants for the simulated persistent-memory stack.

Every latency in this module is expressed in nanoseconds of *simulated* time.
The primary device characteristics come straight from Table 2 of the SplitFS
paper (measurements by Izraelevitz et al. on Intel Optane DC PMM).  The
software-path constants (kernel traps, allocation, journaling bookkeeping,
page faults) cannot be measured here, so they are *calibrated*: chosen once so
that the simulator lands near the paper's anchor numbers (Table 1 append
latencies and Table 6 system-call latencies) and then frozen.  Calibration
tests in ``tests/bench/test_calibration.py`` pin the anchors so accidental
drift fails the suite.

Categories: constants named ``*_CPU`` are charged as software (CPU) time;
device transfer costs are charged as ``data`` or ``meta_io`` depending on
whether the bytes are file data or file-system metadata (journal, logs,
inodes).  Software overhead, per the paper's Section 5.7 definition, is
total time minus ``data`` time.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Geometry
# ---------------------------------------------------------------------------

CACHELINE_SIZE = 64
BLOCK_SIZE = 4096  # file-system block, also small-page size
HUGE_PAGE_SIZE = 2 * 1024 * 1024
BLOCKS_PER_HUGE_PAGE = HUGE_PAGE_SIZE // BLOCK_SIZE

# ---------------------------------------------------------------------------
# Device characteristics (paper Table 2, Intel Optane DC PMM)
# ---------------------------------------------------------------------------

#: Latency of a sequential read access (ns) — charged once per read call.
PM_SEQ_READ_LATENCY_NS = 169.0
#: Latency of a random read access (ns) — charged once per read call.
PM_RAND_READ_LATENCY_NS = 305.0
#: One cache line: temporal store + clwb + sfence (ns).
PM_STORE_FLUSH_FENCE_NS = 91.0
#: Read bandwidth, bytes per nanosecond (39.4 GB/s).
PM_READ_BW_BYTES_PER_NS = 39.4
#: Raw write bandwidth, bytes per nanosecond (13.9 GB/s).
PM_WRITE_BW_BYTES_PER_NS = 13.9

#: The paper's Section 1 anchor: writing 4 KB to PM takes 671 ns with movnt
#: from a single thread.  We calibrate the effective per-byte non-temporal
#: store cost to hit this exactly (671 / 4096 ns per byte); the raw 13.9 GB/s
#: figure is the many-threaded device ceiling, not the single-stream rate.
PM_WRITE_4K_NS = 671.0
PM_WRITE_NS_PER_BYTE = PM_WRITE_4K_NS / BLOCK_SIZE

#: Effective per-byte sequential read cost derived from read bandwidth.
PM_READ_NS_PER_BYTE = 1.0 / PM_READ_BW_BYTES_PER_NS

#: Store fence (sfence) by itself.
SFENCE_NS = 15.0
#: clwb of a single (dirty) cache line, excluding the fence.
CLWB_NS = PM_STORE_FLUSH_FENCE_NS - SFENCE_NS - 10.0  # store itself ~10ns
#: A temporal store of one cache line that hits the CPU cache.
STORE_NS = 10.0

# DRAM-side costs (used by the DRAM-staging ablation, Section 4 of the paper).
DRAM_READ_NS_PER_BYTE = 1.0 / 120.0  # 120 GB/s
DRAM_WRITE_NS_PER_BYTE = 1.0 / 80.0  # 80 GB/s
DRAM_ACCESS_LATENCY_NS = 81.0

# ---------------------------------------------------------------------------
# Shared-bandwidth token bucket (pmem/devmodel.py; opt-in)
# ---------------------------------------------------------------------------

#: Sustained device write bandwidth under a mixed small-write stream, bytes
#: per nanosecond.  Per van Renen et al. (*PM I/O Primitives*), Optane DC
#: sustains far below its streaming ceiling once writes are small and
#: interleaved — ~2.3 GB/s per DIMM — which is what an open-loop server
#: actually sees.  The per-op costs above model the *uncontended* latency;
#: the token bucket adds queueing delay once offered byte-rate exceeds this
#: sustained rate.  Off by default: only machines that call
#: ``enable_device_model()`` ever charge it.
PM_SUSTAINED_WRITE_BW_BYTES_PER_NS = 2.3
#: Token-bucket burst allowance: bytes the device absorbs at full speed
#: before queueing kicks in (device-side write buffering, ~1 MB).
PM_BANDWIDTH_BURST_BYTES = 1 << 20
#: Read traffic consumes shared device bandwidth at this weight relative to
#: writes (reads stream ~4x faster than sustained small writes).
PM_BANDWIDTH_READ_WEIGHT = 0.25

# ---------------------------------------------------------------------------
# Device-model fidelity (pmem/devmodel.py; opt-in profiles, off by default)
# ---------------------------------------------------------------------------

#: Optane's internal write granularity: the media writes whole 256-byte
#: 3D-XPoint lines ("XPLines"), so a store smaller than this still consumes
#: a full line of sustained write bandwidth (van Renen et al., *PM I/O
#: Primitives*: small random writes see a steep bandwidth penalty because
#: the buffer turns them into read-modify-write of 256 B).  The calibrated
#: profiles round every write's token-bucket draw up to this granularity;
#: the fixed-cost model (no profile attached) never consults it.
PM_XPLINE_BYTES = 256

#: NUMA-remote access multipliers for PM, applied to the device-transfer
#: portion of loads/stores when the NUMA knob is on and the accessing CPU's
#: node differs from the device's.  Calibrated approximations of van Renen
#: et al.'s NUMA measurements: remote PM reads lose ~40% of bandwidth
#: (~1.65x time) and remote writes suffer harder (~2.2x) because the
#: write-combining traffic crosses the interconnect twice.
PM_NUMA_REMOTE_READ_MULT = 1.65
PM_NUMA_REMOTE_WRITE_MULT = 2.2

#: Default NUMA topology for the device model: two nodes, device on node 0.
PM_NUMA_NODES = 2

#: Sustained byte-rate and burst for the ``dram`` device profile — a
#: DRAM-class device (the paper's DRAM-emulation baseline): bandwidth so
#: far above any offered load here that contention effectively vanishes.
#: Per-op latencies stay at the PM calibration — the profile isolates the
#: *bandwidth* axis of the sensitivity family.
DRAM_SUSTAINED_WRITE_BW_BYTES_PER_NS = 40.0
DRAM_BANDWIDTH_BURST_BYTES = 4 << 20
DRAM_BANDWIDTH_READ_WEIGHT = 0.25

# ---------------------------------------------------------------------------
# Kernel-path software costs (calibrated)
# ---------------------------------------------------------------------------

#: Entering and leaving the kernel for a system call (trap + return + the
#: generic VFS prologue).  Calibrated jointly with the per-FS path costs.
KERNEL_TRAP_NS = 300.0

#: Path resolution, per path component touched in the kernel.
PATH_WALK_PER_COMPONENT_NS = 150.0

#: Taking a 4K page fault (fault entry, page-table walk/update, return).
PAGE_FAULT_4K_NS = 900.0
#: Taking a 2M huge-page fault.  More expensive per fault, vastly cheaper per
#: byte (one fault covers 512 small pages).
PAGE_FAULT_HUGE_NS = 2600.0
#: Setting up a VMA (mmap syscall body, excluding population faults).
VMA_SETUP_NS = 800.0
#: Tearing down a mapping (munmap body + TLB shootdown).
MUNMAP_NS = 1200.0

#: Block/extent allocation CPU cost in a kernel FS (bitmap scan, extent-tree
#: insert), charged per allocation call.
ALLOC_CPU_NS = 600.0

#: Lock acquisition / release pair on the kernel write path.
KERNEL_LOCK_NS = 60.0

# ---------------------------------------------------------------------------
# Scheduler model (discrete-event multi-CPU machine, kernel/sched.py)
# ---------------------------------------------------------------------------

#: Direct cost of a context switch on one CPU: register/FPU state save and
#: restore, runqueue bookkeeping, and the first-order cache/TLB disturbance
#: amortised into a single figure (Li et al. measure 1-3 us once cache
#: pollution is included; we charge the low end since tasks here share the
#: FS working set).
SCHED_CONTEXT_SWITCH_NS = 1200.0

#: Cost of an inter-processor interrupt on the receiving CPU (wakeup or
#: cache-line ownership transfer on a cross-CPU lock handoff): IPI delivery,
#: interrupt entry/exit, and the cache-coherence round trip.
SCHED_IPI_NS = 400.0

#: Cooperative timeslice: a dispatched task keeps its CPU across syscall
#: boundaries until it has consumed this much simulated time (or exits), so
#: context switches amortise over a slice instead of firing at every
#: syscall.  Tests that want per-syscall interleaving pass ``quantum_ns=0``.
SCHED_QUANTUM_NS = 10000.0

# ---------------------------------------------------------------------------
# ext4-DAX path costs (calibrated against Table 1 / Table 6)
# ---------------------------------------------------------------------------

#: ext4 DAX per-write-call CPU overhead beyond the generic trap: dax iomap
#: lookup, inode update, dirty-metadata tracking.  ext4's write path is the
#: longest of the evaluated systems (Table 1: 9 us per 4K append).
EXT4_WRITE_PATH_CPU_NS = 1850.0
#: Extra CPU on the append path (size update, extent-tree insert, transaction
#: handle start/stop).
EXT4_APPEND_EXTRA_CPU_NS = 1350.0
#: ext4 DAX read-path CPU per call (iomap + copy setup).
EXT4_READ_PATH_CPU_NS = 400.0
#: ext4 DAX read-path CPU per 4K page touched (iomap lookup + copy_to_user
#: bookkeeping per page).  Kept modest: kernel read paths are well
#: optimized, which is why the paper sees only ~27% read-side improvement.
EXT4_READ_PER_PAGE_CPU_NS = 60.0
#: inode creation CPU (inode alloc, init, dirent insert bookkeeping).
EXT4_CREATE_CPU_NS = 1200.0
#: stat(2) body beyond trap + path walk.
KERNEL_STAT_CPU_NS = 400.0
#: Per-journal-block bookkeeping CPU during a jbd2 commit.
JBD2_BLOCK_CPU_NS = 350.0
#: Fixed CPU cost of a jbd2 transaction commit (wakeups, state machine).
JBD2_COMMIT_CPU_NS = 1800.0
#: open(2) path CPU in ext4 beyond trap+walk (dentry/inode setup).
EXT4_OPEN_CPU_NS = 650.0
#: close(2) path CPU in ext4.
EXT4_CLOSE_CPU_NS = 40.0
#: unlink path CPU in ext4 (orphan list, dir entry removal bookkeeping).
EXT4_UNLINK_CPU_NS = 1650.0

# ---------------------------------------------------------------------------
# PMFS path costs (calibrated: Table 1 shows 4150 ns per 4K append)
# ---------------------------------------------------------------------------

PMFS_WRITE_PATH_CPU_NS = 1300.0
PMFS_APPEND_EXTRA_CPU_NS = 1050.0
PMFS_READ_PATH_CPU_NS = 650.0
#: PMFS journals metadata with fine-grained undo-log entries (64B each).
PMFS_JOURNAL_ENTRY_BYTES = 64

# ---------------------------------------------------------------------------
# NOVA path costs (calibrated: Table 1 shows 3021 ns per 4K append, strict)
# ---------------------------------------------------------------------------

NOVA_WRITE_PATH_CPU_NS = 800.0
NOVA_APPEND_EXTRA_CPU_NS = 350.0
NOVA_READ_PATH_CPU_NS = 600.0
#: NOVA log entry: the paper notes NOVA writes at least two cache lines and
#: issues two fences per logged operation (entry + persistent tail update).
NOVA_LOG_ENTRY_BYTES = 128

# ---------------------------------------------------------------------------
# Strata path costs
# ---------------------------------------------------------------------------

STRATA_WRITE_PATH_CPU_NS = 1500.0
STRATA_READ_PATH_CPU_NS = 500.0
#: Per-byte CPU cost of the digest coalescing pass.
STRATA_DIGEST_CPU_PER_BLOCK_NS = 300.0

# ---------------------------------------------------------------------------
# U-Split (SplitFS user-space library) costs (calibrated vs Table 1/6)
# ---------------------------------------------------------------------------

#: Intercepting a POSIX call in user space: PLT hook, fd-table lookup,
#: permission check against cached attributes.
USPLIT_INTERCEPT_NS = 90.0
#: Consulting the collection-of-mmaps for the target offset.
USPLIT_MMAP_LOOKUP_NS = 60.0
#: Book-keeping for staging-file space carve-out on an append/overwrite.
USPLIT_STAGING_BOOKKEEPING_NS = 120.0
#: Composing a 64B operation-log entry (checksum included) before the store.
USPLIT_LOG_COMPOSE_NS = 60.0
#: Per open file relinked during fsync: ioctl argument setup in user space.
USPLIT_RELINK_SETUP_NS = 200.0
#: relink kernel work per extent swapped: journaled metadata swap.
RELINK_PER_EXTENT_CPU_NS = 500.0
#: U-Split open(): stat + attribute caching + table insert (first open).
USPLIT_OPEN_EXTRA_NS = 450.0
#: U-Split open() of an already-cached file: validation against the cache.
USPLIT_REOPEN_NS = 120.0
#: Extra CPU in ext4 fsync for the synchronous jbd2 commit handshake
#: (commit-thread wakeup + completion wait), absent on the inline ioctl
#: commit path that relink uses.  Calibrated against Table 6's 29 us fsync.
EXT4_FSYNC_COMMIT_WAIT_NS = 14000.0
#: U-Split close(): tears down per-descriptor state; cached file
#: metadata is retained (so reopen stays cheap).
USPLIT_CLOSE_EXTRA_NS = 600.0
#: U-Split read/overwrite per-4K-page CPU (memcpy/movnt loop, TLB pressure).
USPLIT_PER_PAGE_CPU_NS = 150.0

# ---------------------------------------------------------------------------
# Application-level constants
# ---------------------------------------------------------------------------

#: CPU cost charged by app models per key-value operation outside the FS
#: (index probes, comparisons).  Keeps "time in application code" non-zero,
#: mirroring the paper's Section 4 observation that apps spend 50-80% of time
#: outside POSIX calls.
APP_KV_OP_CPU_NS = 400.0

# ---------------------------------------------------------------------------
# RAS layer (checksums, replication, scrubbing, degraded mode)
# ---------------------------------------------------------------------------

#: CPU cost of CRC32 over protected bytes (hardware-assisted crc32q streams
#: at ~10 GB/s on the modelled core, so ~0.1 ns/byte).  Charged on checksum
#: verification and on recomputing the CRC of a dirtied protected block.
RAS_CRC_NS_PER_BYTE = 0.1
#: Fixed CPU per media-error repair: machine-check handling, replica lookup,
#: remap bookkeeping.  The replica read/write themselves are charged as
#: ordinary PM traffic on top of this.
RAS_REPAIR_CPU_NS = 3000.0
#: Per-byte cost of a scrub sweep over a protected region (sequential reads
#: at streaming bandwidth plus the CRC check, folded into one rate).
RAS_SCRUB_NS_PER_BYTE = 0.35
#: Interval between background scrub passes on the simulated clock.
RAS_SCRUB_INTERVAL_NS = 50e6
#: Backoff charged per ENOSPC retry before U-Split gives up on carving a new
#: staging run and degrades to the kernel path (forced relink + jbd2 commit
#: latency dominates; this is the additional wait).
RAS_ENOSPC_BACKOFF_NS = 20000.0
#: Minimum simulated time U-Split stays degraded before re-probing staging
#: space (hysteresis — avoids bouncing between modes at the ENOSPC edge).
RAS_REPROMOTE_HYSTERESIS_NS = 1e6
