"""SQLite model: a paged embedded database in Write-Ahead-Logging mode.

The paper runs TPC-C on SQLite in WAL mode.  What matters for the file
system under test is SQLite's I/O shape, which this model reproduces:

* records live in 4 KB pages of a single database file;
* a transaction's dirty pages are *appended* to a WAL file, the final frame
  carries a commit marker, and ``COMMIT`` fsyncs the WAL (one fsync per
  transaction, all-append traffic — the pattern SplitFS accelerates);
* when the WAL exceeds a threshold the pager *checkpoints*: dirty pages are
  written back into the main file at their page offsets (random 4 KB
  overwrites), the database file is fsynced, and the WAL is truncated.

On top of the pager sits a tiny key→record layer with a persistent
directory (hash-chunked, its pages journaled through the same WAL), enough
to host the TPC-C tables.
"""

from __future__ import annotations

import struct
import zlib
from typing import Dict, List, Optional, Tuple

from ..pmem import constants as C
from ..posix import flags as F
from ..posix.api import FileSystemAPI

PAGE_SIZE = 4096
_FRAME_HDR_FMT = "<IIBxxxI"  # page_no, txn_id, commit_flag, crc
_FRAME_HDR = struct.calcsize(_FRAME_HDR_FMT)

#: Directory geometry: pages 1..NCHUNKS hold the key directory; record pages
#: start after them.
NCHUNKS = 512
FIRST_RECORD_PAGE = 1 + NCHUNKS


class TransactionError(Exception):
    """Misuse of the transaction API."""


class SQLiteWAL:
    """The modelled database engine."""

    def __init__(self, fs: FileSystemAPI, db_path: str = "/app.db",
                 checkpoint_frames: int = 512) -> None:
        self.fs = fs
        self.db_path = db_path
        self.wal_path = db_path + "-wal"
        self.checkpoint_frames = checkpoint_frames
        self.db_fd = fs.open(db_path, F.O_CREAT | F.O_RDWR)
        self.wal_fd = fs.open(self.wal_path, F.O_CREAT | F.O_RDWR | F.O_TRUNC)
        # volatile state
        self.page_cache: Dict[int, bytes] = {}
        self.wal_pages: Dict[int, bytes] = {}  # committed WAL overlay
        self.directory: Dict[bytes, int] = {}  # key -> record page
        self.next_page = FIRST_RECORD_PAGE
        self.free_pages: List[int] = []
        self._txn: Optional[Dict[int, bytes]] = None
        self._txn_undo: List[Tuple[bytes, Optional[int]]] = []
        self._txn_freed: List[int] = []
        self._txn_id = 0
        self._frames_in_wal = 0
        self.stats_commits = 0
        self.stats_checkpoints = 0
        if fs.fstat(self.db_fd).st_size == 0:
            # A new database file is allocated densely, as SQLite grows
            # its file page by page: the header and every directory page
            # exist before the first checkpoint, so no checkpoint write
            # fills a hole below the committed size.
            fs.pwrite(self.db_fd, bytes(FIRST_RECORD_PAGE * PAGE_SIZE), 0)
            fs.fsync(self.db_fd)
        else:
            self._load_directory()

    # ------------------------------------------------------------------
    # pager
    # ------------------------------------------------------------------

    def _read_page(self, page_no: int) -> bytes:
        if self._txn is not None and page_no in self._txn:
            return self._txn[page_no]
        if page_no in self.wal_pages:
            return self.wal_pages[page_no]
        if page_no in self.page_cache:
            return self.page_cache[page_no]
        raw = self.fs.pread(self.db_fd, PAGE_SIZE, page_no * PAGE_SIZE)
        if len(raw) < PAGE_SIZE:
            raw = raw + b"\x00" * (PAGE_SIZE - len(raw))
        self.page_cache[page_no] = raw
        return raw

    def _write_page(self, page_no: int, data: bytes) -> None:
        if self._txn is None:
            raise TransactionError("page write outside a transaction")
        if len(data) != PAGE_SIZE:
            raise ValueError("pages are exactly 4 KB")
        self._txn[page_no] = data

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------

    def begin(self) -> None:
        if self._txn is not None:
            raise TransactionError("nested transactions not supported")
        self._txn = {}
        self._txn_undo = []
        self._txn_freed = []
        self._txn_id += 1
        self._app_cpu()

    def rollback(self) -> None:
        # Undo in-memory directory mutations made inside the transaction.
        for key, old_page in reversed(self._txn_undo):
            if old_page is None:
                page = self.directory.pop(key, None)
                if page is not None:
                    self.free_pages.append(page)
            else:
                self.directory[key] = old_page
        self._txn_undo = []
        self._txn_freed = []
        self._txn = None

    def commit(self) -> None:
        if self._txn is None:
            raise TransactionError("commit without begin")
        pages = self._txn
        self._txn = None
        self._txn_undo = []
        # Pages freed by deletes become reusable only once the transaction
        # commits (a rollback restores the directory mapping instead).
        self.free_pages.extend(self._txn_freed)
        self._txn_freed = []
        if not pages:
            return
        items = sorted(pages.items())
        frames = []
        for i, (page_no, data) in enumerate(items):
            commit_flag = 1 if i == len(items) - 1 else 0
            crc = zlib.crc32(struct.pack("<IIB", page_no, self._txn_id,
                                         commit_flag) + data) & 0xFFFFFFFF
            frames.append(
                struct.pack(_FRAME_HDR_FMT, page_no, self._txn_id, commit_flag, crc)
                + data
            )
        self.fs.write(self.wal_fd, b"".join(frames))
        self.fs.fsync(self.wal_fd)  # the one fsync per transaction
        for page_no, data in items:
            self.wal_pages[page_no] = data
            self.page_cache[page_no] = data
        self._frames_in_wal += len(items)
        self.stats_commits += 1
        if self._frames_in_wal >= self.checkpoint_frames:
            self.checkpoint()

    def checkpoint(self) -> None:
        """Write back WAL pages into the main file and reset the WAL."""
        self.stats_checkpoints += 1
        for page_no in sorted(self.wal_pages):
            self.fs.pwrite(self.db_fd, self.wal_pages[page_no],
                           page_no * PAGE_SIZE)
        self.fs.fsync(self.db_fd)
        self.fs.ftruncate(self.wal_fd, 0)
        self.fs.fsync(self.wal_fd)
        self.wal_pages.clear()
        self._frames_in_wal = 0

    # ------------------------------------------------------------------
    # record layer
    # ------------------------------------------------------------------

    @staticmethod
    def _chunk_of(key: bytes) -> int:
        return (zlib.crc32(key) & 0x7FFFFFFF) % NCHUNKS

    def _chunk_page(self, chunk: int) -> int:
        return 1 + chunk

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or update one record (must be inside a transaction)."""
        if len(value) > PAGE_SIZE - 8:
            raise ValueError("record larger than a page")
        self._app_cpu()
        page_no = self.directory.get(key)
        if page_no is None:
            page_no = self.free_pages.pop() if self.free_pages else self.next_page
            if page_no == self.next_page:
                self.next_page += 1
            self.directory[key] = page_no
            self._txn_undo.append((key, None))
            self._rewrite_chunk(self._chunk_of(key))
        record = struct.pack("<I", len(value)) + value
        self._write_page(page_no, record + b"\x00" * (PAGE_SIZE - len(record)))

    def get(self, key: bytes) -> Optional[bytes]:
        self._app_cpu()
        page_no = self.directory.get(key)
        if page_no is None:
            return None
        raw = self._read_page(page_no)
        (length,) = struct.unpack_from("<I", raw)
        return raw[4 : 4 + length]

    def delete(self, key: bytes) -> None:
        if self._txn is None:
            raise TransactionError("delete outside a transaction")
        self._app_cpu()
        page_no = self.directory.pop(key, None)
        if page_no is not None:
            self._txn_undo.append((key, page_no))
            self._txn_freed.append(page_no)
            self._rewrite_chunk(self._chunk_of(key))

    def keys_with_prefix(self, prefix: bytes) -> List[bytes]:
        return sorted(k for k in self.directory if k.startswith(prefix))

    def _rewrite_chunk(self, chunk: int) -> None:
        """Serialize one directory chunk into its page (inside the txn)."""
        entries = [
            (k, p) for k, p in self.directory.items() if self._chunk_of(k) == chunk
        ]
        blob = [struct.pack("<I", len(entries))]
        for key, page in entries:
            blob.append(struct.pack("<HI", len(key), page) + key)
        raw = b"".join(blob)
        if len(raw) > PAGE_SIZE:
            raise ValueError("directory chunk overflow: too many keys")
        self._write_page(self._chunk_page(chunk), raw + b"\x00" * (PAGE_SIZE - len(raw)))

    def _load_directory(self) -> None:
        """Read the directory chunks (open and recovery path); ``_read_page``
        overlays committed WAL pages on the main file."""
        for chunk in range(NCHUNKS):
            raw = self._read_page(self._chunk_page(chunk))
            (count,) = struct.unpack_from("<I", raw)
            pos = 4
            for _ in range(count):
                key_len, page = struct.unpack_from("<HI", raw, pos)
                pos += 6
                key = raw[pos : pos + key_len]
                pos += key_len
                self.directory[key] = page
                self.next_page = max(self.next_page, page + 1)

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    @classmethod
    def recover(cls, fs: FileSystemAPI, db_path: str = "/app.db") -> "SQLiteWAL":
        """Open after a crash: replay committed WAL transactions."""
        db = cls.__new__(cls)
        db.fs = fs
        db.db_path = db_path
        db.wal_path = db_path + "-wal"
        db.checkpoint_frames = 512
        db.db_fd = fs.open(db_path, F.O_CREAT | F.O_RDWR)
        db.page_cache = {}
        db.wal_pages = {}
        db.directory = {}
        db.next_page = FIRST_RECORD_PAGE
        db.free_pages = []
        db._txn = None
        db._txn_undo = []
        db._txn_freed = []
        db._txn_id = 0
        db._frames_in_wal = 0
        db.stats_commits = 0
        db.stats_checkpoints = 0
        # Scan the WAL: only frames of transactions whose commit frame is
        # present and whose CRCs validate are applied.
        raw = fs.read_file(db_path + "-wal") if fs.exists(db_path + "-wal") else b""
        pos = 0
        pending: List[Tuple[int, bytes]] = []
        while pos + _FRAME_HDR + PAGE_SIZE <= len(raw):
            page_no, txn_id, commit_flag, crc = struct.unpack_from(
                _FRAME_HDR_FMT, raw, pos
            )
            data = raw[pos + _FRAME_HDR : pos + _FRAME_HDR + PAGE_SIZE]
            expect = zlib.crc32(
                struct.pack("<IIB", page_no, txn_id, commit_flag) + data
            ) & 0xFFFFFFFF
            if crc != expect:
                break
            pending.append((page_no, data))
            if commit_flag:
                for p, d in pending:
                    db.wal_pages[p] = d
                pending = []
                db._txn_id = txn_id
            pos += _FRAME_HDR + PAGE_SIZE
        db.wal_fd = fs.open(db.wal_path, F.O_CREAT | F.O_RDWR)
        db._frames_in_wal = len(db.wal_pages)
        db._load_directory()
        return db

    def close(self) -> None:
        self.checkpoint()
        self.fs.close(self.db_fd)
        self.fs.close(self.wal_fd)

    def _app_cpu(self) -> None:
        clock = getattr(self.fs, "clock", None)
        if clock is not None:
            clock.charge_cpu(C.APP_KV_OP_CPU_NS * 0.8)
