"""Property test: the cached VFS resolve vs. the uncached reference.

Random mount, unmount and resolve sequences over nested mountpoints drive
:meth:`VFS.resolve` (memoised, invalidated on every mount-table change,
cleared when full) and the uncached longest-prefix scan in
``tests/reference_impls.py`` on the same VFS.  A tiny cache bound makes
the overflow path run too.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.vfs import VFS
from repro.posix.errors import FileNotFoundFSError, InvalidArgumentFSError
from tests import reference_impls as ref_impl

MOUNTPOINTS = ["/a", "/a/b", "/a/b/c", "/ab", "/b", "/a/b/"]
PATHS = ["/", "/a", "/a/", "/a/x", "/a/b", "/a/b/c/d", "/a/bc", "/ab/c",
         "/abc", "/b/a/b", "relative", ""]

step_st = st.one_of(
    st.tuples(st.just("mount"), st.sampled_from(MOUNTPOINTS)),
    st.tuples(st.just("unmount"), st.sampled_from(MOUNTPOINTS)),
    st.tuples(st.just("resolve"), st.sampled_from(PATHS)),
)


def _resolve(resolve, vfs, path):
    try:
        return resolve(vfs, path)
    except InvalidArgumentFSError:
        return "EINVAL"


@given(steps=st.lists(step_st, max_size=60), cache_max=st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_resolve_matches_reference(steps, cache_max):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(VFS, "RESOLVE_CACHE_MAX", cache_max)
        vfs = VFS(object())
        for n, (op, arg) in enumerate(steps):
            if op == "mount":
                vfs.mount(arg, object())
            elif op == "unmount":
                try:
                    vfs.unmount(arg)
                except FileNotFoundFSError:
                    pass
            else:
                assert (_resolve(VFS.resolve, vfs, arg)
                        == _resolve(ref_impl.vfs_resolve, vfs, arg)), (n, arg)
            assert len(vfs._resolve_cache) <= cache_max
