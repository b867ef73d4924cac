"""The crash oracle's verdicts on hand-built images, one guarantee group at
a time, and the shadow's allowed values against the per-byte-set reference.

Each test folds a few completed ops into a :class:`Shadow`, hands
:func:`check_state` a remounted file system reduced to the two calls it
makes, and asserts the exact violation messages.
"""

from typing import Dict, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crashmc.oracles import KIND_PROPS, check_state
from repro.crashmc.workload import NUM_FILES, Op, Shadow
from tests.reference_impls import SetShadow

A, B, C, D = 0x41, 0x42, 0x43, 0x44

NON_STRICT = [k for k, p in KIND_PROPS.items()
              if not (p.sync_data and p.atomic_ops)]
STRICT = [k for k, p in KIND_PROPS.items() if p.sync_data and p.atomic_ops]


def append(f: int, size: int, fill: int) -> Op:
    return Op("append", f, size=size, fill=fill)


def overwrite(f: int, off: int, size: int, fill: int) -> Op:
    return Op("overwrite", f, offset=off, size=size, fill=fill)


def fsync(f: int) -> Op:
    return Op("fsync", f)


class Image:
    """A remounted file system, reduced to what the oracle reads."""

    def __init__(self, files: Dict[str, bytes]) -> None:
        self.files = files

    def exists(self, path: str) -> bool:
        return path in self.files

    def read_file(self, path: str) -> bytes:
        return self.files[path]


def check(kind: str, ops, files: Dict[str, bytes],
          inflight: Optional[Op] = None):
    shadow = Shadow(KIND_PROPS[kind])
    for op in ops:
        shadow.apply(op)
    return check_state(kind, Image(files), shadow, inflight)


def with_byte(data: bytes, pos: int, value: int) -> bytes:
    out = bytearray(data)
    out[pos] = value
    return bytes(out)


# -- every kind: existence ------------------------------------------------------


@pytest.mark.parametrize("kind", sorted(KIND_PROPS))
def test_durable_file_missing(kind):
    assert check(kind, [append(0, 100, A), fsync(0)], {}) == [
        "/w0: durable file missing after crash"]


@pytest.mark.parametrize("kind", ["ext4dax", "splitfs-posix", "splitfs-sync"])
def test_unsynced_file_may_be_missing_on_barrier_kinds(kind):
    assert check(kind, [append(0, 100, A)], {}) == []


@pytest.mark.parametrize("kind", ["pmfs", "nova-relaxed", "splitfs-strict"])
def test_completed_op_makes_the_file_durable_on_sync_kinds(kind):
    assert check(kind, [append(0, 100, A)], {}) == [
        "/w0: durable file missing after crash"]


# -- strict: the completed image or completed + in-flight op ---------------------


@pytest.mark.parametrize("kind", STRICT)
def test_strict_accepts_exactly_the_two_images(kind):
    ops = [append(0, 100, A)]
    inflight = append(0, 50, B)
    assert check(kind, ops, {"/w0": bytes([A]) * 100}, inflight) == []
    assert check(kind, ops, {"/w0": bytes([A]) * 100 + bytes([B]) * 50},
                 inflight) == []


@pytest.mark.parametrize("kind", STRICT)
def test_strict_rejects_a_partial_inflight_op(kind):
    got = check(kind, [append(0, 100, A)],
                {"/w0": bytes([A]) * 100 + bytes([B]) * 20}, append(0, 50, B))
    assert got == [
        "/w0: state matches neither the completed prefix (100B) nor "
        "prefix+in-flight op (150B); got 120B"]


# -- below strict: the durable floor --------------------------------------------


@pytest.mark.parametrize("kind", NON_STRICT)
def test_size_below_durable_floor(kind):
    got = check(kind, [append(0, 100, A), fsync(0)], {"/w0": bytes([A]) * 60})
    assert got == ["/w0: size 60 below durable floor 100"]


@pytest.mark.parametrize("kind", NON_STRICT)
def test_corrupted_floor_byte(kind):
    data = with_byte(bytes([A]) * 100, 7, C)
    assert check(kind, [append(0, 100, A), fsync(0)], {"/w0": data}) == [
        "/w0: byte 7 = 0x43 outside allowed values [65]"]


def test_byte_overwritten_since_the_barrier_may_hold_either_value():
    ops = [append(0, 100, A), fsync(0), overwrite(0, 5, 10, B)]
    floor = bytes([A]) * 100
    assert check("ext4dax", ops, {"/w0": floor}) == []
    assert check("ext4dax", ops, {"/w0": with_byte(floor, 7, B)}) == []
    assert check("ext4dax", ops, {"/w0": with_byte(floor, 7, C)}) == [
        "/w0: byte 7 = 0x43 outside allowed values [65, 66]"]


def test_byte_overwritten_twice_since_the_barrier_may_hold_any_of_them():
    ops = [append(0, 100, A), fsync(0), overwrite(0, 5, 10, B),
           overwrite(0, 7, 1, C)]
    floor = bytes([A]) * 100
    for value in (A, B, C):
        assert check("ext4dax", ops, {"/w0": with_byte(floor, 7, value)}) == []
    assert check("ext4dax", ops, {"/w0": with_byte(floor, 7, D)}) == [
        "/w0: byte 7 = 0x44 outside allowed values [65, 66, 67]"]
    # Byte 8 saw only the first overwrite.
    assert check("ext4dax", ops, {"/w0": with_byte(floor, 8, C)}) == [
        "/w0: byte 8 = 0x43 outside allowed values [65, 66]"]


def test_rewriting_the_floor_value_adds_no_extra_value():
    ops = [append(0, 100, A), fsync(0), overwrite(0, 0, 100, A)]
    data = with_byte(bytes([A]) * 100, 3, B)
    assert check("ext4dax", ops, {"/w0": data}) == [
        "/w0: byte 3 = 0x42 outside allowed values [65]"]


@pytest.mark.parametrize("kind", ["splitfs-posix", "splitfs-sync"])
def test_splitfs_overwrite_of_committed_bytes_is_durable_at_return(kind):
    ops = [append(0, 100, A), fsync(0), overwrite(0, 5, 10, B)]
    floor = bytes([A]) * 5 + bytes([B]) * 10 + bytes([A]) * 85
    assert check(kind, ops, {"/w0": floor}) == []
    assert check(kind, ops, {"/w0": with_byte(floor, 7, A)}) == [
        "/w0: byte 7 = 0x41 outside allowed values [66]"]
    # A second in-place overwrite replaces the first one's value too.
    ops.append(overwrite(0, 7, 1, C))
    assert check(kind, ops, {"/w0": with_byte(floor, 7, C)}) == []
    assert check(kind, ops, {"/w0": floor}) == [
        "/w0: byte 7 = 0x42 outside allowed values [67]"]


def test_byte_violations_are_capped_at_five_per_file():
    data = bytes([A]) * 90 + bytes(10)
    got = check("ext4dax", [append(0, 100, A), fsync(0)], {"/w0": data})
    assert got == [
        f"/w0: byte {pos} = 0x00 outside allowed values [65]"
        for pos in range(90, 95)
    ] + ["/w0: ... further byte violations elided"]


# -- below strict: the in-flight op may be half-applied -------------------------


def test_partial_inflight_overwrite_passes_on_pmfs():
    data = bytes([B]) * 20 + bytes([A]) * 80
    assert check("pmfs", [append(0, 100, A)], {"/w0": data},
                 overwrite(0, 0, 50, B)) == []


def test_partial_inflight_append_passes_on_pmfs():
    data = bytes([A]) * 100 + bytes([B]) * 30
    assert check("pmfs", [append(0, 100, A)], {"/w0": data},
                 append(0, 50, B)) == []


def test_partial_inflight_append_does_not_hide_a_corrupted_floor_byte():
    data = with_byte(bytes([A]) * 100, 3, C) + bytes([B]) * 20
    assert check("pmfs", [append(0, 100, A)], {"/w0": data},
                 append(0, 50, B)) == [
        "/w0: byte 3 = 0x43 outside allowed values [65]"]


def test_inflight_op_on_another_file_excuses_nothing():
    data = with_byte(bytes([A]) * 100, 0, B)
    assert check("pmfs", [append(0, 100, A)], {"/w0": data},
                 overwrite(1, 0, 50, B)) == [
        "/w0: byte 0 = 0x42 outside allowed values [65]"]


# -- below strict: no image longer than any the workload reached ----------------


@pytest.mark.parametrize("kind", NON_STRICT)
def test_size_beyond_any_reachable_image(kind):
    data = bytes([A]) * 100 + bytes(4096)
    assert check(kind, [append(0, 100, A), fsync(0)], {"/w0": data}) == [
        "/w0: size 4196 beyond any reachable image (max 100)"]


@pytest.mark.parametrize("kind", NON_STRICT)
def test_inflight_append_bounds_the_size(kind):
    ops = [append(0, 100, A), fsync(0)]
    inflight = append(0, 50, B)
    grown = bytes([A]) * 100 + bytes([B]) * 50
    assert check(kind, ops, {"/w0": grown}, inflight) == []
    assert check(kind, ops, {"/w0": grown + b"\x00"}, inflight) == [
        "/w0: size 151 beyond any reachable image (max 150)"]


# -- the shadow's allowed values equal the per-byte-set reference ---------------

#: One kind per distinct KindProps combination.
PROPS_KINDS = ["ext4dax", "pmfs", "splitfs-posix", "splitfs-strict"]

op_st = st.one_of(
    st.builds(append, st.integers(0, NUM_FILES - 1), st.integers(1, 300),
              st.integers(1, 4)),
    st.builds(overwrite, st.integers(0, NUM_FILES - 1), st.integers(0, 600),
              st.integers(1, 300), st.integers(1, 4)),
    st.builds(fsync, st.integers(0, NUM_FILES - 1)),
)


def test_props_kinds_cover_every_combination():
    assert ({KIND_PROPS[k] for k in PROPS_KINDS}
            == set(KIND_PROPS.values()))
    assert len(PROPS_KINDS) == len(set(KIND_PROPS.values()))


@pytest.mark.parametrize("kind", PROPS_KINDS)
@given(ops=st.lists(op_st, max_size=30))
@settings(max_examples=100, deadline=None)
def test_shadow_allows_what_the_per_byte_sets_allowed(kind, ops):
    shadow = Shadow(KIND_PROPS[kind])
    ref = SetShadow(KIND_PROPS[kind])
    for op in ops:
        shadow.apply(op)
        ref.apply(op)
        for i in range(NUM_FILES):
            assert shadow.content[i] == ref.content[i]
            assert shadow.floor[i] == ref.floor[i]
            assert shadow.exists_floor[i] == ref.exists_floor[i]
            assert [shadow.allowed_values(i, pos)
                    for pos in range(len(shadow.floor[i]))] == ref.allowed[i]
            # Extra values exclude the floor byte, so an image equal to the
            # floor needs no per-byte walk.
            assert all(shadow.floor[i][pos] not in values
                       for pos, values in shadow.extra[i].items())
