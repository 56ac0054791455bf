"""One cache root for every build-once derived store, and one way to publish one.

A derived store (IVF cells, IVF-PQ codes, the link graph, the WARC / WET /
WAT archives, the feed exports) is a pure function of its inputs, so it is
built once and reused by name.  :func:`store` builds it in a staging dir
beside its final place and publishes it with one ``os.rename``: a reader
finds either no store or a complete one carrying ``_COMPLETE``, whether the
build was killed, raced by another builder, or left over from an older
layout.  The crawl workdirs and the synthetic page corpus live under the
same root (:func:`path`) but keep their own resume protocols.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from typing import Callable

ROOT = "/tmp"
MARKER = "_COMPLETE"


def path(name: str) -> str:
    """The cache location of *name*, built or not."""
    return os.path.join(ROOT, name)


def source_key(src: str) -> str:
    """8-hex content key of a parquet file or a directory of parquet files:
    sha1 over each file's (name, size, mtime_ns).  A store named with it is
    never reused after its source is rewritten at the same path, even with
    the same row count."""
    if os.path.isfile(src):
        files = [src]
    elif os.path.isdir(src):
        files = sorted(
            os.path.join(src, f) for f in os.listdir(src) if f.endswith(".parquet")
        )
    else:
        files = []
    h = hashlib.sha1()
    for f in files:
        st = os.stat(f)
        h.update(f"{os.path.basename(f)}:{st.st_size}:{st.st_mtime_ns}".encode())
    return h.hexdigest()[:8]


def store(name: str, build: Callable[[str], None]) -> str:
    """Return ``path(name)``, first building it if it lacks ``_COMPLETE``.

    ``build(staging)`` fills an empty dir that sits beside the final one, is
    unique to this builder and is made with ``os.makedirs`` (so the published
    store gets the umask's mode).  Then ``_COMPLETE`` goes in and one
    ``os.rename`` publishes the dir.

    - ``build`` raises: the staging dir is removed and the error propagates.
    - The rename fails and the final dir is complete: another builder won
      the race with an equal store, so this copy is discarded.
    - The rename fails and the final dir is not complete: it is stale (a
      killed build of an older layout, or a half-deleted store; this
      function never publishes one), so it is removed and the rename tried
      once more.
    """
    root = path(name)
    marker = os.path.join(root, MARKER)
    if os.path.exists(marker):
        return root
    staging = f"{root}_stage_{os.getpid()}_{os.urandom(4).hex()}"
    os.makedirs(staging)
    try:
        build(staging)
        with open(os.path.join(staging, MARKER), "w") as f:
            f.write(name + "\n")
        for retry in (False, True):
            try:
                os.rename(staging, root)
                break
            except OSError:
                if os.path.exists(marker):
                    break
                if retry:
                    raise
                shutil.rmtree(root, ignore_errors=True)
    finally:
        shutil.rmtree(staging, ignore_errors=True)  # no-op once published
    return root
