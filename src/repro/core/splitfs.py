"""SplitFS: the user-space library file system (U-Split).

U-Split intercepts POSIX calls (here: implements :class:`FileSystemAPI`) and

* serves **reads and overwrites** from memory-mapped file regions with
  processor loads and non-temporal stores — no kernel trap;
* redirects **appends** (and, in strict mode, overwrites) to pre-allocated
  staging files, relinking them into the target file on ``fsync``/``close``;
* routes **metadata operations** (open/create/unlink/rename/...) to the
  kernel file system, ext4-DAX (K-Split);
* in strict mode, writes one 64-byte operation-log entry with a single fence
  per operation, making every operation synchronous and atomic.

The application-visible semantics per mode are in
:class:`~repro.core.modes.Mode` (paper Table 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..ext4.filesystem import Ext4DaxFS
from ..kernel.process import Process, SharedMemoryStore
from ..pmem import constants as C
from ..pmem.timing import DATA, Category
from ..posix import flags as F
from ..posix.api import FileSystemAPI, Stat
from ..posix.errors import (
    BadFileDescriptorError,
    InvalidArgumentFSError,
    IsADirectoryFSError,
    NoSpaceFSError,
    PermissionFSError,
)
from ..ras import RASStats
from .mmap_collection import MmapCollection
from .modes import Mode
from .oplog import (
    OP_APPEND,
    OP_CREATE,
    OP_MKDIR,
    OP_OVERWRITE,
    OP_RENAME_FROM,
    OP_RENAME_TO,
    OP_RMDIR,
    OP_TRUNCATE,
    OP_UNLINK,
    DataEntry,
    LogFullError,
    NamespaceEntry,
    OperationLog,
)
from .staging import Carve, StagingManager, STAGING_DIR

#: Retry-with-backoff attempts (forced early relink to reclaim staged space)
#: before giving up on U-Split and entering degraded mode.
ENOSPC_RETRIES = 2


@dataclass
class SplitFSConfig:
    """Tunable parameters (paper Section 3.6), scaled for simulation.

    The paper's defaults are 2 MB mmaps, ten 160 MB staging files, and a
    128 MB operation log; the scaled defaults below preserve every ratio
    that matters at simulation size.
    """

    map_size: int = C.HUGE_PAGE_SIZE  # 2 MB .. 512 MB in the paper
    staging_count: int = 4  # paper: 10
    staging_size: int = 8 * 1024 * 1024  # paper: 160 MB
    carve_chunk: int = 256 * 1024
    oplog_bytes: int = 2 * 1024 * 1024  # paper: 128 MB
    want_huge_pages: bool = True
    # Ablation/breakdown toggles (Figure 3, Section 4):
    use_staging: bool = True  # False: appends fall through to the kernel
    use_relink: bool = True  # False: fsync copies staged data instead
    dram_staging: bool = False  # Section 4: stage appends in DRAM
    oplog_two_fence: bool = False  # ablation: NOVA-style 2-line/2-fence log
    #: Sync mode: commit the kernel journal on every metadata operation so
    #: metadata ops are truly synchronous (Table 3).  Off by default — the
    #: paper's Table 6 latencies imply the real system relies on ext4's
    #: periodic commit instead; see EXPERIMENTS.md.
    sync_metadata_commits: bool = False
    #: Minimum simulated time in degraded mode (a staging ENOSPC on a
    #: machine with the RAS layer) before re-probing staging.
    repromote_hysteresis_ns: float = C.RAS_REPROMOTE_HYSTERESIS_NS


@dataclass
class StagedRun:
    """A contiguous run of staged bytes destined for ``target_off``."""

    carve: Carve
    target_off: int
    length: int = 0
    is_append: bool = True
    dram_buffer: Optional[bytearray] = None  # DRAM-staging ablation only

    @property
    def staging_ino(self) -> int:
        return self.carve.staging.ino

    @property
    def staging_off(self) -> int:
        return self.carve.offset


@dataclass
class UFile:
    """U-Split's cached per-file state (kept until unlink, Section 3.5)."""

    ino: int
    path: str
    kfd: int  # the kernel fd U-Split holds for relink and metadata ops
    size: int  # logical size including staged appends
    active_run: Optional[StagedRun] = None
    staged_runs: List[StagedRun] = field(default_factory=list)
    open_count: int = 0
    #: The file's last name is gone (unlink / rename-over / rmdir) while
    #: descriptors remain open.  The kernel fd is kept — the kernel parks
    #: the inode as an orphan behind it — and teardown happens at the
    #: last user-level close.
    unlinked: bool = False

    def all_runs(self) -> List[StagedRun]:
        runs = list(self.staged_runs)
        if self.active_run is not None:
            runs.append(self.active_run)
        return runs


@dataclass
class OpenDesc:
    """An open file description (shared across dup()ed descriptors)."""

    ufile: UFile
    flags: int
    offset: int = 0
    last_read_end: Optional[int] = None


class SplitFS(FileSystemAPI):
    """A U-Split instance bound to one process and one K-Split (ext4-DAX)."""

    # Syscalls enter through the user-space interception layer, so time not
    # claimed by a deeper span (staging, relink, oplog, or the kernel path's
    # own spans) attributes to "usplit", the paper's userspace category.
    SPAN_PREFIX = "usplit"
    SPAN_CATEGORY = "usplit"

    def __init__(
        self,
        kfs: Ext4DaxFS,
        mode: Mode = Mode.POSIX,
        config: Optional[SplitFSConfig] = None,
        process: Optional[Process] = None,
        shm: Optional[SharedMemoryStore] = None,
        _defer_setup: bool = False,
    ) -> None:
        self.kfs = kfs
        self.machine = kfs.machine
        self.pm = kfs.pm
        self.clock = kfs.clock
        self.mode = mode
        self.config = config or SplitFSConfig()
        # Machine-scoped defaults: pids from the machine's counter (they key
        # /dev/shm blobs, so they must be replay/fork-deterministic) and the
        # machine-wide shm store (execve state is per-machine, not
        # per-instance).
        self.process = process or Process(machine=self.machine)
        self.shm = shm or self.machine.shm
        # Instance ids land in on-device staging/oplog file names, so they
        # must be unique within one device image (a recovered instance must
        # not collide with the pre-crash instance's leftovers) and — for
        # replay/fork determinism — a function of the machine's history, not
        # of how many SplitFS instances this *process* ever created.
        self.instance_id = self.machine.next_instance_id()
        # Names of the staging and oplog locks (``machine.lock`` makes each
        # on first use).
        self._staging_lock = f"usplit.i{self.instance_id}.staging"
        self._oplog_lock = f"usplit.i{self.instance_id}.oplog"

        self.files: Dict[int, UFile] = {}  # ino -> UFile
        self.path_cache: Dict[str, int] = {}  # path -> ino
        self.fds: Dict[int, OpenDesc] = {}
        self._next_fd = 1000
        self.mmaps = MmapCollection(
            self.machine.vm,
            map_size=self.config.map_size,
            want_huge=self.config.want_huge_pages,
        )
        self.staging: Optional[StagingManager] = None
        self.oplog: Optional[OperationLog] = None
        # Degraded mode (RAS layer): staging ENOSPC reroutes data ops to the
        # kernel path until space frees up.  RAS counters are shared with the
        # machine's controller when one is enabled, so `ras-report` sees the
        # degradation events; otherwise a private stats block records them.
        self.degraded = False
        self.degraded_since = 0.0
        self.rstats = (
            self.machine.ras.stats if self.machine.ras is not None else RASStats()
        )
        # Publish the degraded-mode/hysteresis counters through the machine's
        # metrics registry so serve reports (and any collector) see staging
        # fallback events without reaching into SplitFS internals.  The
        # field filter keeps the shared RAS stats block from leaking its
        # unrelated error-ledger fields under this prefix.
        # replace=True: a remount (or a second instance without RAS, whose
        # rstats is private) re-registers the prefix; last mount wins.
        self.machine.metrics.register_source(
            "splitfs.degrade", self.rstats,
            fields=("degraded_entries", "degraded_exits", "degraded_ops",
                    "enospc_retries"),
            replace=True)
        if not _defer_setup:
            self._setup()

    def _setup(self) -> None:
        """Startup: pre-allocate staging files and the operation log."""
        if self.config.use_staging and not self.config.dram_staging:
            self.staging = StagingManager(
                self.kfs,
                self.instance_id,
                count=self.config.staging_count,
                file_size=self.config.staging_size,
                huge_aligned=self.config.want_huge_pages,
            )
        if self.mode.logs_operations:
            self.oplog = self._create_oplog()
        # Commit the startup metadata so staging/log files survive crashes.
        self.kfs.sync()

    def _create_oplog(self) -> OperationLog:
        if not self.kfs.exists(STAGING_DIR):
            self.kfs.mkdir(STAGING_DIR)
        path = f"{STAGING_DIR}/oplog-{self.instance_id}"
        kfd = self.kfs.open(path, F.O_CREAT | F.O_RDWR)
        self.kfs.fallocate(kfd, self.config.oplog_bytes, huge_aligned=True)
        inode = self.kfs.inodes[self.kfs.fdt.get(kfd).ino]
        ext = inode.extmap.extents[0]
        if ext.length * C.BLOCK_SIZE < self.config.oplog_bytes:
            raise InvalidArgumentFSError("operation log must be contiguous")
        log = OperationLog(self.pm, ext.phys * C.BLOCK_SIZE,
                           self.config.oplog_bytes,
                           two_fence=self.config.oplog_two_fence)
        log.initialize()
        return log

    # ------------------------------------------------------------------
    # small helpers
    # ------------------------------------------------------------------

    def _intercept(self, extra: float = 0.0) -> None:
        self.clock.charge_cpu(C.USPLIT_INTERCEPT_NS + extra)

    def _desc(self, fd: int) -> OpenDesc:
        try:
            return self.fds[fd]
        except KeyError:
            raise BadFileDescriptorError(f"fd {fd} is not open") from None

    def _install(self, ufile: UFile, flags: int) -> int:
        fd = self._next_fd
        self._next_fd += 1
        self.fds[fd] = OpenDesc(ufile=ufile, flags=flags)
        ufile.open_count += 1
        return fd

    def _committed_size(self, ufile: UFile) -> int:
        return self.kfs.inodes[ufile.ino].size

    def _refresh_size(self, ufile: UFile) -> None:
        """Adopt growth another U-Split instance has relinked (Section 3.5).

        An instance's cached ``ufile.size`` goes stale when a *different*
        instance sharing the file fsyncs: its staged appends relink into the
        kernel inode, which this cache never sees.  Re-reading the committed
        size at the visibility points (read, stat, O_APPEND positioning,
        SEEK_END) makes exactly the fsync-published bytes visible — staged
        data in the other instance stays invisible because its runs are
        private.  Single-instance use is unaffected: the local size already
        includes every staged append, so ``committed <= ufile.size`` and
        this is a no-op.
        """
        committed = self._committed_size(ufile)
        if committed > ufile.size:
            ufile.size = committed

    def _log(self, entry) -> None:
        """Append to the operation log, checkpointing when full."""
        if self.oplog is None:
            return
        with self.machine.lock(self._oplog_lock), \
                self.clock.obs.span("usplit.oplog_append", cat="oplog"):
            try:
                self.oplog.append(entry)
            except LogFullError:
                self.checkpoint()
                self.oplog.append(entry)

    def _metadata_sync(self) -> None:
        """Sync mode: metadata operations are synchronous, so commit the
        kernel's running transaction before returning (strict mode gets the
        same guarantee from the operation log instead)."""
        if self.mode is Mode.SYNC and self.config.sync_metadata_commits:
            self.kfs.sync()

    def checkpoint(self) -> None:
        """Relink all staged data everywhere and reset the operation log.

        The relinks must be durably committed *before* the log is zeroed:
        afterwards the log can no longer replay them.
        """
        for ufile in list(self.files.values()):
            self._relink_file(ufile, durable=False)
        self.kfs.commit_running_txn()
        if self.oplog is not None:
            self.oplog.reset_after_checkpoint()

    # ------------------------------------------------------------------
    # open / close / unlink / rename
    # ------------------------------------------------------------------

    def open(self, path: str, flags: int = F.O_RDWR, mode: int = 0o644) -> int:
        cached = path in self.path_cache and self.path_cache[path] in self.files
        # First open sets up the attribute cache; a reopen only validates
        # against it (paper: reopening a recently closed file is faster).
        self._intercept(C.USPLIT_REOPEN_NS if cached
                        else C.USPLIT_OPEN_EXTRA_NS)
        created = flags & F.O_CREAT and not self._kernel_exists(path)
        kfd = self.kfs.open(path, flags, mode)
        kof = self.kfs.fdt.get(kfd)
        kino = kof.ino
        if not self.kfs.inodes[kino].is_dir:
            # The fd U-Split keeps is privileged: relink, hole-fill and
            # truncate go through it no matter what access mode the *user*
            # opened with (per-descriptor permissions are enforced at the
            # U-Split layer).  Directories stay read-only — the kernel
            # rightly refuses writable directory fds.
            kof.flags = (kof.flags & ~F.O_ACCMODE) | F.O_RDWR
        if kino in self.files:
            # Reopened (possibly with O_TRUNC) a file we already track.
            ufile = self.files[kino]
            old_kfd = ufile.kfd
            ufile.kfd = kfd
            if old_kfd != kfd:
                self.kfs.close(old_kfd)
            if flags & F.O_TRUNC and F.writable(flags):
                self._discard_staged(ufile)
                ufile.size = 0
        else:
            # First open: stat and cache the attributes (Section 3.5).
            st = self.kfs.fstat(kfd)
            ufile = UFile(ino=kino, path=path, kfd=kfd, size=st.st_size)
            self.files[kino] = ufile
            self.path_cache[path] = kino
        if created and self.mode.logs_operations:
            parent_ino = self._kernel_parent_ino(path)
            self._log(
                NamespaceEntry(OP_CREATE, self.oplog.next_seq(), parent_ino,
                               kino, path.rsplit("/", 1)[-1])
            )
        if created:
            self._metadata_sync()
        return self._install(ufile, flags)

    def _kernel_exists(self, path: str) -> bool:
        # U-Split peeks at the kernel namespace without a trap (the result of
        # open() itself would reveal the same information).
        try:
            parent, name = self.kfs._resolve_parent(path)
        except Exception:
            return False
        return self.kfs.dirs[parent].lookup(name) is not None

    def _kernel_parent_ino(self, path: str) -> int:
        parent, _ = self.kfs._resolve_parent(path)
        return parent

    def close(self, fd: int) -> None:
        self._intercept(C.USPLIT_CLOSE_EXTRA_NS)
        desc = self.fds.pop(fd, None)
        if desc is None:
            raise BadFileDescriptorError(f"fd {fd} is not open")
        ufile = desc.ufile
        ufile.open_count -= 1
        if ufile.open_count == 0 and ufile.unlinked:
            # Last descriptor on a name-less file: staged data dies with
            # it, and closing the kernel fd releases the kernel orphan.
            self.files.pop(ufile.ino, None)
            self._teardown_ufile(ufile)
            return
        if ufile.open_count == 0 and ufile.all_runs():
            # Appends are relinked on fsync *or close* (Section 3.4) — but
            # close makes no durability promise, so the journal commit is
            # left to the kernel's own pace (like any ext4 metadata op).
            self._relink_file(ufile, durable=False)
        # Cached metadata is retained after close (Section 3.5); the kernel
        # fd is kept so a later fsync/relink can still reach the file.

    def dup(self, fd: int) -> int:
        """Duplicate a descriptor; the offset is shared (Section 3.5)."""
        self._intercept()
        desc = self._desc(fd)
        new_fd = self._next_fd
        self._next_fd += 1
        self.fds[new_fd] = desc  # same open file description object
        desc.ufile.open_count += 1
        return new_fd

    def _teardown_ufile(self, ufile: UFile) -> None:
        """Drop every cached artifact of an unreferenced tracked file.

        All cached mappings are discarded (Section 3.5) — this is why
        unlink is SplitFS's most expensive call (Table 6).  Closing the
        kernel fd is what lets the kernel finally free an orphaned inode.
        """
        self._discard_staged(ufile)
        self.mmaps.drop_file(ufile.ino)
        for run in ufile.all_runs():
            self.mmaps.drop_file(run.staging_ino)
        self.kfs.close(ufile.kfd)

    def _forget_path(self, path: str) -> None:
        """The name ``path`` left the namespace: retire its cache entry.

        While user descriptors remain open the UFile is only *marked*
        unlinked — the kernel fd stays open, so the kernel parks the inode
        as an orphan and staged data / reads through live descriptors keep
        working, exactly like a POSIX file unlinked while open.  The last
        :meth:`close` performs the actual teardown.
        """
        ino = self.path_cache.pop(path, None)
        if ino is None or ino not in self.files:
            return
        ufile = self.files[ino]
        if ufile.open_count > 0:
            ufile.unlinked = True
            return
        del self.files[ino]
        self._teardown_ufile(ufile)

    def unlink(self, path: str) -> None:
        self._intercept()
        if self.mode.logs_operations:
            try:
                parent_ino = self._kernel_parent_ino(path)
            except Exception:
                parent_ino = 0
            self._log(
                NamespaceEntry(OP_UNLINK, self.oplog.next_seq(), parent_ino, 0,
                               path.rsplit("/", 1)[-1])
            )
        self.kfs.unlink(path)  # may raise: caches must stay intact then
        self._forget_path(path)
        self._metadata_sync()

    def rename(self, old: str, new: str) -> None:
        self._intercept()
        if self.mode.logs_operations:
            # rename is the paper's example of a multi-entry operation.
            old_parent = self._kernel_parent_ino(old)
            new_parent = self._kernel_parent_ino(new)
            seq = self.oplog.next_seq()
            self._log(NamespaceEntry(OP_RENAME_FROM, seq, old_parent, 0,
                                     old.rsplit("/", 1)[-1]))
            self._log(NamespaceEntry(OP_RENAME_TO, self.oplog.next_seq(),
                                     new_parent, 0, new.rsplit("/", 1)[-1]))
        self.kfs.rename(old, new)  # may raise: caches must stay intact then
        if old == new:
            # Kernel treated it as a no-op; the cache has nothing to move.
            self._metadata_sync()
            return
        # The destination name was replaced: retire its cached file (if
        # tracked), deferring teardown while descriptors are still open.
        self._forget_path(new)
        ino = self.path_cache.pop(old, None)
        if ino is not None:
            self.path_cache[new] = ino
            if ino in self.files:
                self.files[ino].path = new
        # Renaming a directory moves its children: rewrite every cached
        # path under the old prefix, or stat()/open() of the stale names
        # would keep answering from the attribute cache.
        prefix = old.rstrip("/") + "/"
        new_prefix = new.rstrip("/") + "/"
        moved = [p for p in self.path_cache if p.startswith(prefix)]
        for p in moved:
            child_ino = self.path_cache.pop(p)
            child_path = new_prefix + p[len(prefix):]
            self.path_cache[child_path] = child_ino
            if child_ino in self.files:
                self.files[child_ino].path = child_path
        self._metadata_sync()

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def read(self, fd: int, count: int) -> bytes:
        desc = self._desc(fd)
        if not F.readable(desc.flags):
            raise PermissionFSError(f"fd {fd} not open for reading")
        data = self._do_read(desc, count, desc.offset)
        desc.offset += len(data)
        return data

    def pread(self, fd: int, count: int, offset: int) -> bytes:
        desc = self._desc(fd)
        if not F.readable(desc.flags):
            raise PermissionFSError(f"fd {fd} not open for reading")
        return self._do_read(desc, count, offset)

    def _do_read(self, desc: OpenDesc, count: int, offset: int) -> bytes:
        self._intercept(C.USPLIT_MMAP_LOOKUP_NS)
        ufile = desc.ufile
        if self.kfs.inodes[ufile.ino].is_dir:
            raise IsADirectoryFSError(ufile.path)
        self._refresh_size(ufile)
        if offset >= ufile.size or count <= 0:
            return b""
        count = min(count, ufile.size - offset)
        npages = (count + C.BLOCK_SIZE - 1) // C.BLOCK_SIZE
        self.clock.charge_cpu(npages * C.USPLIT_PER_PAGE_CPU_NS)
        random_access = offset != desc.last_read_end
        desc.last_read_end = offset + count

        buf = bytearray(count)
        committed = self._committed_size(ufile)
        base_len = min(count, max(0, committed - offset))
        if base_len > 0:
            extmap = self.kfs.inodes[ufile.ino].extmap
            self.mmaps.ensure(ufile.ino, offset, base_len, extmap)
            pos = 0
            for addr, run in extmap.map_byte_range(offset, base_len):
                if addr is not None:
                    buf[pos : pos + run] = self.pm.load(
                        addr, run, category=Category.DATA,
                        random_access=random_access,
                    )
                pos += run
        # Overlay staged runs (later runs override earlier ones).
        end = offset + count
        for run in ufile.all_runs():
            r_start, r_end = run.target_off, run.target_off + run.length
            s = max(offset, r_start)
            e = min(end, r_end)
            if s >= e:
                continue
            inner = s - r_start
            if run.dram_buffer is not None:
                piece = bytes(run.dram_buffer[inner : inner + (e - s)])
                self.clock.charge_cpu(
                    C.DRAM_ACCESS_LATENCY_NS + (e - s) * C.DRAM_READ_NS_PER_BYTE
                )
            else:
                piece = self._staging_read(run, inner, e - s, random_access)
            buf[s - offset : e - offset] = piece
        return bytes(buf)

    def _staging_read(self, run: StagedRun, inner: int, length: int,
                      random_access: bool) -> bytes:
        staging_inode = self.kfs.inodes[run.staging_ino]
        off = run.staging_off + inner
        self.mmaps.ensure(run.staging_ino, off, length, staging_inode.extmap)
        out = []
        for addr, n in staging_inode.extmap.map_byte_range(off, length):
            if addr is None:
                out.append(b"\x00" * n)
            else:
                out.append(self.pm.load(addr, n, category=Category.DATA,
                                        random_access=random_access))
        return b"".join(out)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def write(self, fd: int, data: bytes) -> int:
        desc = self._desc(fd)
        if not F.writable(desc.flags):
            raise PermissionFSError(f"fd {fd} not open for writing")
        if desc.flags & F.O_APPEND:
            self._refresh_size(desc.ufile)
            desc.offset = desc.ufile.size
        n = self._do_write(desc, data, desc.offset)
        desc.offset += n
        return n

    def pwrite(self, fd: int, data: bytes, offset: int) -> int:
        desc = self._desc(fd)
        if not F.writable(desc.flags):
            raise PermissionFSError(f"fd {fd} not open for writing")
        return self._do_write(desc, data, offset)

    def _do_write(self, desc: OpenDesc, data: bytes, offset: int) -> int:
        self._intercept(C.USPLIT_MMAP_LOOKUP_NS)
        if not data:
            return 0
        ufile = desc.ufile
        committed = self.kfs.inodes[ufile.ino].size
        end = offset + len(data)
        if offset < committed and end > committed:
            if self.mode.stages_overwrites and self.config.use_staging:
                # Strict mode: an EOF-straddling write must stay atomic, so
                # it becomes one staged run with one log entry — splitting
                # it would let a crash between the two entries persist only
                # half the operation.
                self._stage_data(ufile, data, offset, op=OP_OVERWRITE)
            else:
                # Straddles EOF: split into overwrite + append parts.
                head = committed - offset
                self._write_overwrite(ufile, data[:head], offset)
                self._write_beyond(ufile, data[head:], committed)
        elif offset >= committed:
            self._write_beyond(ufile, data, offset)
        else:
            self._write_overwrite(ufile, data, offset)
        ufile.size = max(ufile.size, end)
        return len(data)

    # -- overwrites ----------------------------------------------------------------

    def _write_overwrite(self, ufile: UFile, data: bytes, offset: int) -> None:
        if self.mode.stages_overwrites and self.config.use_staging:
            # Strict mode: redirect to staging + log (atomic overwrites).
            self._stage_data(ufile, data, offset, op=OP_OVERWRITE)
            return
        # POSIX/sync: in-place through the memory mapping, movnt + fence.
        extmap = self.kfs.inodes[ufile.ino].extmap
        npages = (len(data) + C.BLOCK_SIZE - 1) // C.BLOCK_SIZE
        self.clock.charge_cpu(npages * C.USPLIT_PER_PAGE_CPU_NS)
        self.mmaps.ensure(ufile.ino, offset, len(data), extmap)
        pos = 0
        filled_hole = False
        for addr, run_len in extmap.map_byte_range(offset, len(data)):
            if addr is None:
                # Hole inside committed size: fall back to the kernel, which
                # allocates blocks (rare; sparse files only).
                self.kfs.pwrite(ufile.kfd, data[pos : pos + run_len], offset + pos)
                filled_hole = True
            else:
                self.pm.store(addr, data[pos : pos + run_len], category=Category.DATA)
            pos += run_len
        self.pm.sfence(category=Category.CPU)
        if filled_hole:
            # The hole fill allocated blocks whose extent-tree update is
            # only journaled; an in-place overwrite is synchronous, so
            # commit it — otherwise a crash reverts the allocation and the
            # "durable" bytes read back as zeros.
            self.kfs.fsync(ufile.kfd)

    # -- appends (and writes beyond EOF) ----------------------------------------------

    def _write_beyond(self, ufile: UFile, data: bytes, offset: int) -> None:
        if not self.config.use_staging:
            # Figure 3 "split architecture only": appends are metadata
            # operations, so without staging they go to the kernel.
            self.kfs.pwrite(ufile.kfd, data, offset)
            return
        if self.config.dram_staging:
            self._dram_stage(ufile, data, offset)
            return
        self._stage_data(ufile, data, offset, op=OP_APPEND)

    def _stage_data(self, ufile: UFile, data: bytes, offset: int, op: int) -> None:
        """Route bytes to staging, extending the active run when the write
        continues it (both appends and strict-mode sequential overwrites),
        then log the operation in strict mode."""
        with self.machine.lock(self._staging_lock), \
                self.clock.obs.span("usplit.stage_data", cat="staging"):
            if self.degraded and not self._maybe_repromote():
                self._degraded_write(ufile, data, offset)
                return
            size = len(data)
            run = ufile.active_run
            if (
                run is not None
                and run.dram_buffer is None
                and run.target_off + run.length == offset
                and run.carve.capacity - run.carve.used >= size
            ):
                self._staged_store(run, data)
            else:
                if run is not None:
                    ufile.staged_runs.append(run)
                    ufile.active_run = None
                try:
                    run = self._new_staged_run(ufile, offset,
                                               is_append=op == OP_APPEND,
                                               size=size)
                except NoSpaceFSError:
                    # Degrade to the kernel path only on a machine with the
                    # RAS layer; without it the ENOSPC surfaces.
                    if self.machine.ras is None:
                        raise
                    run = self._retry_staging(ufile, offset, op, size)
                    if run is None:
                        self._enter_degraded()
                        self._degraded_write(ufile, data, offset)
                        return
                self._staged_store(run, data)
                ufile.active_run = run
            if self.mode.sync_data or op == OP_OVERWRITE:
                self.pm.sfence(category=Category.CPU)
            if self.mode.logs_operations and run.dram_buffer is None:
                # One entry for this write: the run's last ``size`` bytes.
                oplog = self.oplog
                seq = oplog.seq
                oplog.seq = seq + 1
                carve = run.carve
                self._log(DataEntry(op, seq, ufile.ino, carve.staging.ino,
                                    size, run.target_off + run.length - size,
                                    carve.offset + run.length - size))

    def _new_staged_run(self, ufile: UFile, target_off: int, is_append: bool,
                        size: int) -> StagedRun:
        self.clock.charge_cpu(C.USPLIT_STAGING_BOOKKEEPING_NS)
        # Appends pre-carve a chunk so consecutive appends stay contiguous;
        # overwrites carve exactly what they need.
        chunk = self.config.carve_chunk if is_append else 1
        carve = self.staging.carve(size, phase=target_off % C.BLOCK_SIZE,
                                   chunk=chunk)
        return StagedRun(carve=carve, target_off=target_off, is_append=is_append)

    # -- graceful degradation (RAS layer) ------------------------------------

    def _retry_staging(self, ufile: UFile, target_off: int, op: int,
                       size: int) -> Optional[StagedRun]:
        """Staging carve hit ENOSPC: retry with backoff, forcing an early
        relink of every file first so retired staging slack is reclaimed.
        Returns a run, or ``None`` when the retries are exhausted."""
        for _ in range(ENOSPC_RETRIES):
            self.rstats.enospc_retries += 1
            self.clock.charge_cpu(C.RAS_ENOSPC_BACKOFF_NS)
            try:
                for uf in list(self.files.values()):
                    self._relink_file(uf, durable=False)
                self.kfs.commit_running_txn()
                return self._new_staged_run(ufile, target_off,
                                            is_append=op == OP_APPEND,
                                            size=size)
            except NoSpaceFSError:
                continue
        return None

    def _enter_degraded(self) -> None:
        """Fall back to routing data ops through the kernel ext4 path."""
        if not self.degraded:
            self.degraded = True
            self.rstats.degraded_entries += 1
        self.degraded_since = self.clock.now_ns

    def _maybe_repromote(self) -> bool:
        """Hysteresis-gated return to U-Split staging once space frees."""
        cfg = self.config
        if self.clock.now_ns - self.degraded_since < cfg.repromote_hysteresis_ns:
            return False
        # Re-promote only once one whole staging file fits again, so the
        # pool can actually refill.
        if self.kfs.alloc.free_blocks * C.BLOCK_SIZE < cfg.staging_size:
            self.degraded_since = self.clock.now_ns  # re-arm the hysteresis
            return False
        self.degraded = False
        self.rstats.degraded_exits += 1
        return True

    def _degraded_write(self, ufile: UFile, data: bytes, offset: int) -> None:
        """Serve one data op through the kernel while degraded.

        Sync/strict modes keep synchronous durability via a kernel fsync;
        strict-mode *atomicity* is weakened to ext4 semantics while degraded
        (the operation log cannot describe kernel-path writes) — the
        documented cost of not failing the write.
        """
        with self.clock.obs.span("usplit.kernel_fallback", cat="fallback"):
            self.rstats.degraded_ops += 1
            self.kfs.pwrite(ufile.kfd, data, offset)
            if self.mode.sync_data:
                self.kfs.fsync(ufile.kfd)

    def _staged_store(self, run: StagedRun, data: bytes) -> None:
        """movnt ``data`` into the run's staging region (no kernel trap)."""
        carve = run.carve
        ino = carve.staging.ino
        extmap = self.kfs.inodes[ino].extmap
        size = len(data)
        off = carve.offset + run.length
        npages = (size + C.BLOCK_SIZE - 1) // C.BLOCK_SIZE
        self.clock.charge_cpu(npages * C.USPLIT_PER_PAGE_CPU_NS)
        self.mmaps.ensure(ino, off, size, extmap)
        pieces = extmap.map_byte_range(off, size)
        whole = len(pieces) == 1
        pos = 0
        for addr, n in pieces:
            if addr is None:
                raise AssertionError("staging file not pre-allocated")
            self.pm.store(addr, data if whole else data[pos : pos + n], DATA)
            pos += n
        run.length += size
        carve.used = run.length

    def _dram_stage(self, ufile: UFile, data: bytes, offset: int) -> None:
        """Section 4 ablation: staging in DRAM instead of PM."""
        run = ufile.active_run
        if (
            run is None
            or run.dram_buffer is None
            or run.target_off + run.length != offset
        ):
            if run is not None:
                ufile.staged_runs.append(run)
            run = StagedRun(
                carve=Carve(staging=None, offset=0, capacity=1 << 62),  # type: ignore[arg-type]
                target_off=offset, dram_buffer=bytearray(),
            )
            ufile.active_run = run
        run.dram_buffer.extend(data)
        run.length += len(data)
        self.clock.charge_cpu(len(data) * C.DRAM_WRITE_NS_PER_BYTE)

    # ------------------------------------------------------------------
    # fsync / relink
    # ------------------------------------------------------------------

    def fsync(self, fd: int) -> None:
        self._intercept()
        desc = self._desc(fd)
        self._relink_file(desc.ufile)

    def _relink_file(self, ufile: UFile, durable: bool = True) -> None:
        """Move all staged data into the target file (Figure 2)."""
        with self.clock.obs.span("usplit.relink", cat="relink"):
            self._relink_file_locked(ufile, durable)

    def _relink_file_locked(self, ufile: UFile, durable: bool = True) -> None:
        runs = ufile.all_runs()
        ufile.active_run = None
        ufile.staged_runs = []
        if not runs:
            if not durable:
                return
            # Nothing staged: persist in-place overwrites (they are posted
            # movnt stores, one fence suffices) and commit any pending
            # metadata through the kernel.
            if self.kfs.txn or self.kfs.dirty_data.get(ufile.ino):
                self.kfs.fsync(ufile.kfd)
            else:
                self.pm.sfence(category=Category.CPU)
            return
        for run in runs:
            if run.length == 0:
                continue
            if run.dram_buffer is not None:
                # DRAM-staging ablation: the fsync pays the full PM copy.
                self.kfs.pwrite(ufile.kfd, bytes(run.dram_buffer), run.target_off)
                self.clock.charge_cpu(
                    run.length * C.DRAM_READ_NS_PER_BYTE + C.DRAM_ACCESS_LATENCY_NS
                )
                continue
            if not self.config.use_relink:
                # Figure 3 "+staging only": copy staged bytes into the file.
                data = self._staging_read(run, 0, run.length, random_access=False)
                self.kfs.pwrite(ufile.kfd, data, run.target_off)
                continue
            self.clock.charge_cpu(C.USPLIT_RELINK_SETUP_NS)
            self.kfs.ioctl_relink(
                run.carve.staging.kfd, run.staging_off,
                ufile.kfd, run.target_off, run.length,
                commit=False,  # one journal commit covers all runs below
            )
            # Mappings over the moved blocks remain valid: adopt them for
            # the target file at zero cost.
            self.mmaps.adopt(ufile.ino, run.target_off, run.length)
            # Runs (or their head/tail) that relink had to byte-copy leave
            # their staging blocks mapped; punch them in the same journal
            # txn so every relinked entry reads as a hole to recovery.
            # Otherwise a crash after this fsync replays the copied entry's
            # stale bytes over data a later (block-swapped, hence holed)
            # entry already carried into the file.  Carves are block-
            # aligned per run, so the range is exclusively this run's.
            self.kfs.punch_hole(run.carve.staging.kfd, run.staging_off,
                                run.length)
            self._rollback_carve(run)
        if durable:
            self.kfs.commit_running_txn()
        if not self.config.use_relink or any(r.dram_buffer is not None for r in runs):
            self.kfs.fsync(ufile.kfd)
        self._recycle_staging()

    def _recycle_staging(self) -> None:
        """Delete retired staging files no live run references.

        The relinked blocks already belong to target files; deleting the
        file frees only the never-used slack.  (The real SplitFS hands this
        to its background thread, Section 5.10.)
        """
        if self.staging is None or not self.staging.retired:
            return
        live = {
            id(run.carve.staging)
            for uf in self.files.values()
            for run in uf.all_runs()
            if run.carve.staging is not None
        }
        for sf in list(self.staging.retired):
            if id(sf) in live:
                continue
            self.staging.retired.remove(sf)
            self.kfs.ftruncate(sf.kfd, 0)
            self.kfs.close(sf.kfd)
            self.kfs.unlink(sf.path)

    def _rollback_carve(self, run: StagedRun) -> None:
        """Return a finalized run's unused carve tail to its staging file."""
        carve = run.carve
        staging = carve.staging
        if staging is None:
            return
        used_end = carve.offset + ((run.length + C.BLOCK_SIZE - 1)
                                   // C.BLOCK_SIZE) * C.BLOCK_SIZE
        if carve.offset + carve.capacity >= staging.cursor > used_end:
            staging.cursor = used_end

    def _discard_staged(self, ufile: UFile) -> None:
        ufile.active_run = None
        ufile.staged_runs = []

    # ------------------------------------------------------------------
    # remaining FileSystemAPI surface
    # ------------------------------------------------------------------

    def lseek(self, fd: int, offset: int, whence: int = F.SEEK_SET) -> int:
        self._intercept()
        desc = self._desc(fd)
        if whence == F.SEEK_SET:
            pos = offset
        elif whence == F.SEEK_CUR:
            pos = desc.offset + offset
        elif whence == F.SEEK_END:
            self._refresh_size(desc.ufile)
            pos = desc.ufile.size + offset
        else:
            raise InvalidArgumentFSError(f"bad whence {whence}")
        if pos < 0:
            raise InvalidArgumentFSError("negative offset")
        desc.offset = pos
        return pos

    def ftruncate(self, fd: int, length: int) -> None:
        self._intercept()
        desc = self._desc(fd)
        ufile = desc.ufile
        # Validate before mutating any U-Split state: a failing ftruncate
        # must not discard or relink staged runs.
        if not F.writable(desc.flags):
            raise PermissionFSError(f"fd {fd} not open for writing")
        if length < 0:
            raise InvalidArgumentFSError("negative length")
        # Staged data beyond the new length is discarded; below it, relink
        # first so the kernel sees the bytes it is truncating.
        if any(r.target_off < length for r in ufile.all_runs()):
            self._relink_file(ufile)
        else:
            self._discard_staged(ufile)
        self.kfs.ftruncate(ufile.kfd, length)
        ufile.size = length
        if self.mode.logs_operations:
            self._log(DataEntry(OP_TRUNCATE, self.oplog.next_seq(), ufile.ino,
                                0, length, 0, 0))
        self._metadata_sync()

    def stat(self, path: str) -> Stat:
        self._intercept()
        ino = self.path_cache.get(path)
        if ino is not None and ino in self.files:
            # Served from the user-space attribute cache.
            self._refresh_size(self.files[ino])
            st = self.kfs._stat_inode(self.kfs.inodes[ino])
            st.st_size = self.files[ino].size
            return st
        return self.kfs.stat(path)

    def fstat(self, fd: int) -> Stat:
        self._intercept()
        desc = self._desc(fd)
        self._refresh_size(desc.ufile)
        st = self.kfs._stat_inode(self.kfs.inodes[desc.ufile.ino])
        st.st_size = desc.ufile.size
        return st

    def mkdir(self, path: str, mode: int = 0o755) -> None:
        self._intercept()
        if self.mode.logs_operations:
            self._log(NamespaceEntry(OP_MKDIR, self.oplog.next_seq(),
                                     0, 0, path.rsplit("/", 1)[-1]))
        self.kfs.mkdir(path, mode)
        self._metadata_sync()

    def rmdir(self, path: str) -> None:
        self._intercept()
        if self.mode.logs_operations:
            self._log(NamespaceEntry(OP_RMDIR, self.oplog.next_seq(),
                                     0, 0, path.rsplit("/", 1)[-1]))
        self.kfs.rmdir(path)
        # A tracked directory (opened via open()) loses its name like any
        # unlinked file; cached attrs and the kernel fd go with it.
        self._forget_path(path)
        self._metadata_sync()

    def listdir(self, path: str) -> List[str]:
        self._intercept()
        names = self.kfs.listdir(path)
        return [n for n in names if not n.startswith(".splitfs")]

    # ------------------------------------------------------------------
    # process lifecycle (Section 3.5)
    # ------------------------------------------------------------------

    def fork(self) -> "SplitFS":
        """fork(): the child inherits U-Split state and open descriptors.

        Open file descriptions are shared with the parent (POSIX fork
        semantics: offsets move together), as is the staging pool — the
        library is simply copied with the address space.
        """
        child = SplitFS(
            self.kfs, mode=self.mode, config=self.config,
            process=self.process.fork(), shm=self.shm, _defer_setup=True,
        )
        child.files = self.files
        child.path_cache = self.path_cache
        child.fds = dict(self.fds)  # descriptors copied, descriptions shared
        child._next_fd = self._next_fd
        child.staging = self.staging
        child.oplog = self.oplog
        child.mmaps = self.mmaps
        return child

    def execve(self) -> "SplitFS":
        """execve(): persist fd state to /dev/shm, rebuild after exec.

        Returns the post-exec U-Split instance with the same descriptors
        usable (offsets preserved).
        """
        rows = []
        for fd, desc in self.fds.items():
            rows.append((fd, desc.ufile.path, desc.flags, desc.offset))
        blob = repr(rows).encode()
        self.shm.write(str(self.process.pid), blob)

        fresh = SplitFS(
            self.kfs, mode=self.mode, config=self.config,
            process=self.process, shm=self.shm, _defer_setup=True,
        )
        fresh.staging = self.staging
        fresh.oplog = self.oplog
        raw = fresh.shm.read(str(fresh.process.pid))
        if raw is not None:
            import ast

            for fd, path, flags, offset in ast.literal_eval(raw.decode()):
                nfd = fresh.open(path, flags & ~(F.O_TRUNC | F.O_CREAT | F.O_EXCL))
                desc = fresh.fds.pop(nfd)
                desc.offset = offset
                fresh.fds[fd] = desc
                fresh._next_fd = max(fresh._next_fd, fd + 1)
            fresh.shm.remove(str(fresh.process.pid))
        return fresh

    # ------------------------------------------------------------------
    # resource accounting (Section 5.10)
    # ------------------------------------------------------------------

    def dram_usage_bytes(self) -> int:
        """Approximate U-Split DRAM metadata footprint."""
        per_file = 200
        per_fd = 64
        per_run = 96
        runs = sum(len(u.all_runs()) for u in self.files.values())
        total = (
            len(self.files) * per_file
            + len(self.fds) * per_fd
            + runs * per_run
            + self.mmaps.dram_footprint_bytes()
        )
        if self.oplog is not None:
            total += 64  # DRAM tail + bookkeeping
        return total
