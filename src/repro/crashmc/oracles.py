"""Per-kind crash-state oracles (paper Table 3, mechanised).

Each file-system kind promises a guarantee level; after remounting a crash
state the oracle checks exactly that level — no more (false positives) and
no less (missed bugs):

``posix``  (ext4dax, splitfs-posix)
    Data fsynced before the crash survives; SplitFS additionally makes
    in-place overwrites of committed bytes durable at return.
``sync``   (pmfs, nova-relaxed, splitfs-sync)
    As above, plus (pmfs / nova-relaxed) every *completed* data op is
    durable — but an in-flight op may be half-applied (non-atomic).
``strict`` (nova-strict, strata, splitfs-strict)
    Every completed op is durable *and* the in-flight op is all-or-nothing.

All kinds must remount/recover without raising, and ext4-backed kinds must
pass fsck.  Below the strict level a recovered file must hold the durable
floor and be no longer than the longest image the workload reached.  A
floor byte may also hold the shadow's extra values for it, so bytes written
several times since the last barrier do not trip the check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from .workload import Op, Shadow


@dataclass(frozen=True)
class KindProps:
    """Crash guarantees of one file-system kind."""

    #: every completed data op is durable without fsync
    sync_data: bool
    #: the in-flight op is all-or-nothing
    atomic_ops: bool
    #: in-place overwrites of committed bytes are durable at return
    overwrites_sync: bool


KIND_PROPS = {
    "ext4dax": KindProps(sync_data=False, atomic_ops=False, overwrites_sync=False),
    "pmfs": KindProps(sync_data=True, atomic_ops=False, overwrites_sync=False),
    "nova-strict": KindProps(sync_data=True, atomic_ops=True, overwrites_sync=False),
    "nova-relaxed": KindProps(sync_data=True, atomic_ops=False, overwrites_sync=False),
    "strata": KindProps(sync_data=True, atomic_ops=True, overwrites_sync=False),
    "splitfs-posix": KindProps(sync_data=False, atomic_ops=False, overwrites_sync=True),
    "splitfs-sync": KindProps(sync_data=False, atomic_ops=False, overwrites_sync=True),
    "splitfs-strict": KindProps(sync_data=True, atomic_ops=True, overwrites_sync=False),
}


def check_state(
    kind: str,
    fs,
    shadow: "Shadow",
    inflight: "Optional[Op]",
) -> List[str]:
    """Check one remounted crash state; returns violation messages.

    ``fs`` is the freshly remounted/recovered file system, ``shadow`` the
    oracle state after the completed op prefix, ``inflight`` the operation
    (if any) that was cut short by the crash.
    """
    props = KIND_PROPS[kind]
    violations: List[str] = []
    for i in range(shadow.nfiles):
        path = f"/w{i}"
        file_inflight = inflight if inflight is not None and inflight.file == i else None
        if not fs.exists(path):
            if shadow.exists_floor[i]:
                violations.append(f"{path}: durable file missing after crash")
            continue
        data = fs.read_file(path)
        violations.extend(
            _check_file(kind, props, path, data, shadow, i, file_inflight)
        )
    return violations


def _check_file(
    kind: str,
    props: KindProps,
    path: str,
    data: bytes,
    shadow: "Shadow",
    i: int,
    inflight: "Optional[Op]",
) -> List[str]:
    out: List[str] = []
    floor = shadow.floor[i]
    expected = bytes(shadow.content[i])
    with_inflight = (
        shadow.content_after(inflight)
        if inflight is not None and inflight.kind != "fsync"
        else expected
    )

    if props.sync_data and props.atomic_ops:
        # Strict: exactly the completed image, or completed + in-flight op.
        if data not in (expected, with_inflight):
            out.append(
                f"{path}: state matches neither the completed prefix "
                f"({len(expected)}B) nor prefix+in-flight op "
                f"({len(with_inflight)}B); got {len(data)}B"
            )
        return out

    # Durable floor: never shorter, never corrupted.
    if len(data) < len(floor):
        out.append(
            f"{path}: size {len(data)} below durable floor {len(floor)}"
        )
        return out
    if data[:len(floor)] != floor:
        # A byte equal to its floor value always passes, so only a mismatch
        # needs the per-byte walk.
        extra = shadow.extra[i]
        inflight_img = with_inflight if inflight is not None else None
        for pos in range(len(floor)):
            b = data[pos]
            if b == floor[pos] or b in extra.get(pos, ()):
                continue
            if (inflight_img is not None and pos < len(inflight_img)
                    and b == inflight_img[pos]):
                # A non-atomic in-flight op may have partially persisted.
                continue
            out.append(
                f"{path}: byte {pos} = {b:#04x} outside allowed "
                f"values {sorted(shadow.allowed_values(i, pos))}"
            )
            if len(out) >= 5:  # cap the noise per file
                out.append(f"{path}: ... further byte violations elided")
                return out

    # Size must not overshoot the in-flight image, for every kind: crashmc
    # ops never shrink a file, so no image the workload reached is longer.
    if len(data) > max(len(expected), len(with_inflight)):
        out.append(
            f"{path}: size {len(data)} beyond any reachable image "
            f"(max {max(len(expected), len(with_inflight))})"
        )
    return out
