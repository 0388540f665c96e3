"""Atomic artifact writes: a reader sees the old file or the new, never a
torn one.

Every file a run leaves behind - logbook dumps, Chrome traces, metric
exports, ``--perf-json``, sweep-cache entries, scenario documents, corpus
reports, minimizer artifacts, DAG spec files - is written to a temporary
sibling and moved over the target with :func:`os.replace`, so Ctrl-C or a
serialiser error part-way leaves whatever was there before, byte for byte.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO

__all__ = ["atomic_write"]


@contextmanager
def atomic_write(path) -> Iterator[TextIO]:
    """Open a UTF-8 text file that replaces *path* only on a clean exit."""
    path = Path(path)
    # ``--perf-json out/perf.json`` in a fresh checkout: make the directory
    path.parent.mkdir(parents=True, exist_ok=True)
    # pid-unique, so pool workers storing the same cache entry do not share
    # a temporary; opened normally so the artifact keeps umask permissions
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
