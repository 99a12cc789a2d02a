"""The compiled training sweep: ``_sweep.c``, built once per user and loaded with ctypes.

:func:`load_sweep` returns the loop as a ctypes function, or None where it
cannot be had; training then runs its numpy pass, which gives the same
bytes. The library is built on Linux only, with the ``cc`` on ``PATH``
and the interpreter's own headers, into ``$XDG_CACHE_HOME/diffnb`` (else
``~/.cache/diffnb``). Its file name carries a hash of the source, the
compiler flags and the interpreter's extension suffix, so an edited
source or another Python builds its own copy, and a warm cache starts no
compiler. A build writes a temporary file and renames it into place, so
processes building at once each leave a whole library.
"""

import ctypes
import importlib.machinery
import os
import shutil
import sys
import zlib
from pathlib import Path

SOURCE = Path(__file__).with_name("_sweep.c")
# -ffp-contract=off: no multiply-add is fused, so each operation rounds as numpy's does
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
# the interpreter's EXT_SUFFIX, which names its version and ABI
_EXT_SUFFIX = importlib.machinery.EXTENSION_SUFFIXES[0]


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
    return cache_dir() / f"sweep-{key:08x}{_EXT_SUFFIX}"


def build(path: Path) -> None:
    """Compile ``_sweep.c`` into ``path``; raises OSError when it cannot."""
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


def load_sweep():
    """``diffnb_scan`` from the cached library, built first if missing; None if it cannot be had.

    Nothing is printed either way: a host without a compiler or a
    writable cache trains through the numpy pass.
    """
    if not sys.platform.startswith("linux"):
        return None
    try:
        path = library_path(SOURCE.read_bytes())
        try:
            library = ctypes.PyDLL(str(path))
        except OSError:
            build(path)
            library = ctypes.PyDLL(str(path))
    except OSError:
        return None
    scan = library.diffnb_scan
    scan.argtypes = [ctypes.py_object] * 14 + [ctypes.c_double]
    scan.restype = ctypes.c_ssize_t
    return scan
