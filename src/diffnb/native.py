"""diffnb's compiled loops: ``_native.c``, built once per user and loaded with ctypes.

The library holds the training sweep's in-order pass (``diffnb_scan``),
the window check of scoring (``diffnb_score``), the scoring pass that
takes a value matrix to a model's weighted log scores
(``diffnb_log_scores``), the one that takes a row to its posterior
(``diffnb_posterior``), and the block parse that takes a block of text
lines to value rows and labels (``diffnb_parse_block``). The parse
converts a number token ``[+-]?digits[.digits][(e|E)[+-]?digits]`` by
Clinger's exact fast path where its significand fits in 2**53 and its
power of ten is at most 22, else by ``PyOS_string_to_double``, as
``float()`` does; it refuses a whole block it cannot take bit for bit
(see :mod:`diffnb.dataset`). :func:`load` returns the library with its
functions typed, or None where it cannot be had; training, scoring and
parsing then run their numpy and Python forms, which give the same bytes.

``exp`` and ``log`` are numpy's own: :func:`load` hands the library
``np.exp`` and ``np.log``, and it keeps the float64 inner loop each
ufunc's type table holds, the loop a call of the ufunc dispatches to on
this CPU. The passes call those loops by pointer, on the lengths and unit
strides the numpy forms hand the ufuncs, so their bits are numpy's and no
Python call runs inside a pass. Nor does numpy's error state
(``np.errstate``), which a ufunc call applies to the floating-point flags
after its loop returns: an ``exp`` that underflows in a pass neither warns
nor raises, and the bytes are those of numpy's default state. If either
ufunc has no float64 loop, :func:`load` returns None. A diffnb-owned ``exp`` and ``log`` would
replace exactly these two pointers. Where a loop sums what numpy sums, it
adds in numpy's order: the order of numpy's float64 sum over a contiguous
axis, pairwise past 8 terms, is written down once, as ``pairwise_sum`` in
``_native.c``, and the tests compare its every branch with numpy's own.

The library is built on Linux only, with the ``cc`` on ``PATH``, the
interpreter's headers and numpy's (``numpy.get_include()``), into
``$XDG_CACHE_HOME/diffnb`` (else ``~/.cache/diffnb``). Its file name
carries a hash of the source, the compiler flags, the interpreter's
extension suffix, numpy's version and its header directory, so an edited
source, another Python or another numpy builds its own copy, and a warm
cache starts no compiler. A build writes a temporary file and renames it
into place, so processes building at once each leave a whole library.

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

import numpy as np

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

    The key covers the source, the flags, the interpreter's extension
    suffix, and numpy's version and header directory, whose struct layouts
    the library reads. It is a CRC-32, not a hashlib digest: importing
    hashlib loads OpenSSL, which added 3.5 MB of resident memory and 3 ms
    to every command's start, and the key only has to tell builds apart.
    """
    parts = [source, *map(str.encode, (*FLAGS, _EXT_SUFFIX, np.__version__, np.get_include()))]
    key = zlib.crc32(b"\0".join(parts))
    return cache_dir() / f"native-{key:08x}{_EXT_SUFFIX}"


def build(path: Path) -> None:
    """Compile ``_native.c`` into ``path``, then prune the cache; raises OSError when it cannot build.

    Missing numpy headers raise OSError too, before any compiler starts.
    """
    import subprocess
    import sysconfig
    import tempfile

    numpy_include = np.get_include()
    if not os.path.isfile(os.path.join(numpy_include, "numpy", "ufuncobject.h")):
        raise OSError(f"numpy's C headers are missing from {numpy_include}")
    compiler = shutil.which("cc")
    if compiler is None:
        raise OSError("no C compiler on PATH")
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", dir=path.parent)
    os.close(fd)
    try:
        includes = [f"-I{sysconfig.get_paths()['include']}", f"-I{numpy_include}"]
        command = [compiler, *FLAGS, *includes, "-o", tmp, str(SOURCE)]
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


def typed(library: ctypes.PyDLL) -> ctypes.PyDLL:
    """``library`` with its functions' argument and result types set."""
    functions = {
        "diffnb_bind": ([ctypes.py_object] * 2, ctypes.c_int),
        "diffnb_bound_loop": ([ctypes.c_char_p], ctypes.py_object),
        "diffnb_apply": ([ctypes.c_char_p, ctypes.py_object, ctypes.py_object], ctypes.c_int),
        "diffnb_scan": ([ctypes.py_object] * 8 + [ctypes.c_ssize_t] * 2 + [ctypes.c_double], ctypes.c_ssize_t),
        "diffnb_score": ([ctypes.py_object] * 7 + [ctypes.c_ssize_t] * 2, ctypes.c_int),
        "diffnb_log_scores": ([ctypes.py_object, ctypes.c_ssize_t, ctypes.c_ssize_t], ctypes.c_int),
        "diffnb_posterior": ([ctypes.py_object, ctypes.c_ssize_t, ctypes.c_ssize_t], ctypes.py_object),
        "diffnb_parse_block": (
            [ctypes.py_object] * 2 + [ctypes.c_ssize_t] + [ctypes.py_object] * 5, ctypes.py_object
        ),
    }
    for name, (argtypes, restype) in functions.items():
        function = getattr(library, name)
        function.argtypes = argtypes
        function.restype = restype
    return library


@functools.cache
def load() -> ctypes.PyDLL | None:
    """The cached library, built first if missing, its functions typed and numpy's loops bound.

    None if it cannot be had, or if ``np.exp`` or ``np.log`` has no
    float64 loop to bind. Nothing is printed either way: a host without a
    compiler, numpy's headers or a writable cache trains and scores
    through numpy. The library is opened once per process.
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
    library = typed(library)
    if library.diffnb_bind(np.exp, np.log) != 0:
        return None
    return library
