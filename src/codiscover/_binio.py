"""Little-endian binary primitives and the UTF-8 line check shared by the
file codecs."""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
import struct
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from .errors import FormatError

# What errors="surrogateescape" makes of a byte that is not UTF-8.
_UNDECODED = re.compile("[\udc80-\udcff]")


def utf8_lines(lines: Iterable[str], where: str = "line ",
               error: type[Exception] = FormatError) -> Iterator[tuple[int, str]]:
    """Number lines decoded with errors="surrogateescape" from 1; a line that
    held a byte that is not UTF-8 (never an ASCII line) raises `error` naming it."""
    for lineno, line in enumerate(lines, start=1):
        if not line.isascii() and _UNDECODED.search(line):
            raise error(f"{where}{lineno}: not valid UTF-8")
        yield lineno, line


def _expect(fh: BinaryIO, count: int) -> None:
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if count > left:
        raise FormatError(f"unexpected end of file (wanted {count} bytes, {left} left)")


def _take(fh: BinaryIO, count: int) -> bytes:
    # read() allocates the requested size up front. A request larger than a
    # read buffer is first checked against the bytes left in the file, so a
    # corrupt header dimension fails here instead of exhausting memory.
    # Smaller requests skip the check, whose system calls cost more than the read.
    if count > io.DEFAULT_BUFFER_SIZE:
        _expect(fh, count)
    data = fh.read(count)
    if len(data) != count:
        raise FormatError(f"unexpected end of file (wanted {count} bytes, got {len(data)})")
    return data


def write_u32(fh: BinaryIO, value: int) -> None:
    if not 0 <= value < 2**32:
        raise ValueError(f"value {value} does not fit in u32")
    fh.write(struct.pack("<I", value))


def read_u32(fh: BinaryIO) -> int:
    return struct.unpack("<I", _take(fh, 4))[0]


def write_str(fh: BinaryIO, text: str) -> None:
    data = text.encode("utf-8")
    write_u32(fh, len(data))
    fh.write(data)


def read_str(fh: BinaryIO) -> str:
    try:
        return _take(fh, read_u32(fh)).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"string field is not valid UTF-8: {exc.reason}") from None


def write_f64_array(fh: BinaryIO, values: np.ndarray) -> None:
    fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def read_f64_array(fh: BinaryIO, count: int) -> np.ndarray:
    return np.frombuffer(_take(fh, 8 * count), dtype="<f8").astype(np.float64)


def read_records(fh: BinaryIO, count: int, shapes: list[tuple | None], read_id=read_str,
                 what: str = "image id") -> tuple[list, list[np.ndarray | None]]:
    """Read `count` records, each an id (a string, or what read_id reads) then
    float64 arrays of `shapes` (None for an absent one), straight into blocks
    (count, *shape), allocated once the file can hold `count` of the shortest
    records. A repeated id is refused."""
    _expect(fh, count * (4 + sum(8 * math.prod(shape) for shape in shapes if shape)))
    blocks = [None if shape is None else np.empty((count, *shape)) for shape in shapes]
    ids: dict = {}
    for r in range(count):
        record_id = read_id(fh)
        if record_id in ids:
            raise FormatError(f"duplicate {what} {record_id!r}")
        ids[record_id] = None
        for row in [block[r] for block in blocks if block is not None]:
            row[...] = np.frombuffer(_take(fh, row.nbytes), "<f8").reshape(row.shape)
    return list(ids), blocks


def write_records(fh: BinaryIO, ids: Iterable, blocks: list, write_id=write_str) -> None:
    """Write what read_records reads: per id, the id (as write_id writes it), then
    its row of each block that is not None. Callers pass distinct ids, as read_records needs."""
    blocks = [block for block in blocks if block is not None]
    for r, record_id in enumerate(ids):
        write_id(fh, record_id)
        for block in blocks:
            write_f64_array(fh, block[r])


@contextlib.contextmanager
def write_container(path: str, magic: bytes, version: int, header: tuple) -> Iterator[BinaryIO]:
    """atomic_writer's file, after the magic, the version and the u32 header fields."""
    with atomic_writer(path, "wb") as fh:
        fh.write(magic)
        for value in (version, *header):
            write_u32(fh, value)
        yield fh


@contextlib.contextmanager
def read_container(path: str, magic: bytes, version: int) -> Iterator[BinaryIO]:
    """Open a binary container after checking its magic and version. When the
    body has read the last record, no byte may follow it."""
    with open(path, "rb") as fh:
        got = _take(fh, len(magic))
        if got != magic:
            raise FormatError(f"bad magic: expected {magic!r}, found {got!r}")
        found = read_u32(fh)
        if found != version:
            raise FormatError(f"unsupported {magic.decode()} version {found}")
        yield fh
        if fh.read(1):
            raise FormatError("trailing bytes after the last record")


@contextlib.contextmanager
def atomic_writer(path: str, mode: str = "wb") -> Iterator:
    """Write to a temp file next to `path` (text as UTF-8) and rename it into place on success."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
