"""diffnb's compiled loops: ``_native.c``, built once per user and loaded with ctypes.

The library holds the training sweep's in-order pass (``diffnb_scan``),
the window check of scoring (``diffnb_score``) and the scoring pass that
takes a value matrix to a model's weighted log scores
(``diffnb_log_scores``). :func:`load` returns the library with its
functions typed, or None where it cannot be had; training and scoring
then run their numpy forms, which give the same bytes. Where a loop sums
what numpy sums, it adds in numpy's order: the order of numpy's float64
sum over a contiguous axis, pairwise past 8 terms, is written down once,
as ``pairwise_sum`` in ``_native.c``, and the tests compare its every
branch with numpy's own. The library is built on Linux only, with the ``cc`` on ``PATH``
and the interpreter's own headers, into ``$XDG_CACHE_HOME/diffnb`` (else
``~/.cache/diffnb``). Its file name carries a hash of the source, the
compiler flags and the interpreter's extension suffix, so an edited
source or another Python builds its own copy, and a warm cache starts no
compiler. A build writes a temporary file and renames it into place, so
processes building at once each leave a whole library.

Each load touches the library's modification time, so the time says when
it was last loaded. A build that installs a library deletes this
interpreter's other libraries that no process has loaded for
``STALE_AFTER`` seconds: the cache stays bounded, and two versions used in
turn, such as a base and a head checkout, keep each other's libraries.
"""

import ctypes
import functools
import importlib.machinery
import os
import shutil
import sys
import time
import zlib
from pathlib import Path

SOURCE = Path(__file__).with_name("_native.c")
# -ffp-contract=off: no multiply-add is fused, so each operation rounds as numpy's does
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
# the interpreter's EXT_SUFFIX, which names its version and ABI
_EXT_SUFFIX = importlib.machinery.EXTENSION_SUFFIXES[0]
# a library no process has loaded for this long is deleted by the next build
STALE_AFTER = 30 * 24 * 3600


def cache_dir() -> Path:
    """``$XDG_CACHE_HOME/diffnb`` if that is an absolute path, else ``~/.cache/diffnb``."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "diffnb"


def library_path(source: bytes) -> Path:
    """Where the library built from ``source`` lives in the cache.

    The key is a CRC-32, not a hashlib digest: importing hashlib loads
    OpenSSL, which added 3.5 MB of resident memory and 3 ms to every
    command's start, and the key only has to tell versions of one file apart.
    """
    key = zlib.crc32(b"\0".join([source, *map(str.encode, FLAGS), _EXT_SUFFIX.encode()]))
    return cache_dir() / f"native-{key:08x}{_EXT_SUFFIX}"


def build(path: Path) -> None:
    """Compile ``_native.c`` into ``path``, then prune the cache; raises OSError when it cannot build."""
    import subprocess
    import sysconfig
    import tempfile

    compiler = shutil.which("cc")
    if compiler is None:
        raise OSError("no C compiler on PATH")
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", dir=path.parent)
    os.close(fd)
    try:
        command = [compiler, *FLAGS, f"-I{sysconfig.get_paths()['include']}", "-o", tmp, str(SOURCE)]
        done = subprocess.run(command, capture_output=True, text=True)
        if done.returncode != 0:
            raise OSError(f"{compiler} exited with {done.returncode}: {done.stderr.strip()}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    prune(path)


def prune(keep: Path) -> None:
    """Delete the libraries beside ``keep`` for this interpreter that were last loaded ``STALE_AFTER`` ago.

    ``keep`` itself, a build's temporary files and other interpreters'
    libraries stay. A library that cannot be read or deleted is left.
    """
    cutoff = time.time() - STALE_AFTER
    for other in keep.parent.glob(f"*{_EXT_SUFFIX}"):
        if other.name == keep.name or other.name.startswith("."):
            continue
        try:
            if other.stat().st_mtime < cutoff:
                other.unlink()
        except OSError:
            pass


def open_library(path: Path) -> ctypes.PyDLL:
    """The library at ``path``, its modification time set to now to record the load."""
    library = ctypes.PyDLL(str(path))
    try:
        os.utime(path)
    except OSError:
        pass
    return library


@functools.cache
def load() -> ctypes.PyDLL | None:
    """The cached library, built first if missing, its functions' types set; None if it cannot be had.

    Nothing is printed either way: a host without a compiler or a
    writable cache trains and scores through numpy. The library is
    opened once per process.
    """
    if not sys.platform.startswith("linux"):
        return None
    try:
        path = library_path(SOURCE.read_bytes())
        try:
            library = open_library(path)
        except OSError:
            build(path)
            library = open_library(path)
    except OSError:
        return None
    library.diffnb_scan.argtypes = [ctypes.py_object] * 14 + [ctypes.c_double]
    library.diffnb_scan.restype = ctypes.c_ssize_t
    library.diffnb_score.argtypes = [ctypes.py_object] * 7 + [ctypes.c_ssize_t] * 2
    library.diffnb_score.restype = ctypes.c_int
    library.diffnb_log_scores.argtypes = [ctypes.py_object, ctypes.c_ssize_t, ctypes.c_ssize_t]
    library.diffnb_log_scores.restype = ctypes.c_int
    return library
