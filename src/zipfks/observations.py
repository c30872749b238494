"""Observation files: whitespace-separated positive integers, UTF-8, no header."""
from __future__ import annotations

import os

import numpy as np

from .distribution import Sample

# The byte pass reads a file in blocks of this many bytes.  Its temporaries
# take about 40 bytes per byte of a block, so larger blocks gain little
# speed for a higher peak of memory.
_BLOCK_BYTES = 1 << 14

# Longest token the byte pass converts: 10^18 - 1 still fits an int64.
_MAX_DIGITS = 18

_INT64_MAX = int(np.iinfo(np.int64).max)

# Kind of each byte value: 0 ASCII whitespace (what bytes.split() splits on),
# 1 ASCII digit, 2 anything else.
_BYTE_KINDS = np.full(256, 2, dtype=np.uint8)
_BYTE_KINDS[list(b" \t\n\v\f\r")] = 0
_BYTE_KINDS[list(b"0123456789")] = 1

# Place values 10^0 .. 10^17 of a token's digits, counted from its last.
_PLACES = 10 ** np.arange(_MAX_DIGITS, dtype=np.int64)


class ObservationParseError(ValueError):
    """Malformed observation file; the message names line and token."""


def parse_observations(path: str | os.PathLike) -> Sample:
    """Read every integer in file order, rejecting anything non-positive.

    A byte pass converts the file a block at a time.  Files it refuses (any
    byte other than an ASCII digit or whitespace, a token of more than
    _MAX_DIGITS digits, a zero, no token at all) are read again token by
    token, which accepts what str.split() and str.isdigit() accept and names
    the line and token of the first bad one.
    """
    values = _parse_bytes(path)
    if values is None:
        values = _parse_tokens(path)
    return Sample(values)


def _parse_bytes(path: str | os.PathLike) -> np.ndarray | None:
    """Every token of an all-ASCII digits-and-whitespace file, or None to refuse it."""
    with open(path, "rb") as handle:
        # a token takes a digit and, unless it is last, a separator
        out = np.empty((os.fstat(handle.fileno()).st_size + 1) // 2, dtype=np.int64)
        count = 0
        carry = b""  # a token cut by the block's end, moved to the next block
        while True:
            block = handle.read(_BLOCK_BYTES)
            data = np.frombuffer(carry + block, dtype=np.uint8)
            kinds = _BYTE_KINDS[data]
            if kinds.max(initial=0) > 1:
                return None
            digit = kinds.view(bool)
            if block and digit[-1]:
                cut = data.size - int(np.argmin(digit[::-1])) if not digit.all() else 0
                carry = data[cut:].tobytes()
                if len(carry) > _MAX_DIGITS:
                    return None
                data, digit = data[:cut], digit[:cut]
            else:
                carry = b""
            # a token starts and ends where digit flips: the flips alternate
            flips = np.flatnonzero(np.diff(digit, prepend=False, append=False))
            lengths = flips[1::2] - flips[::2]
            if lengths.size:
                if lengths.max() > _MAX_DIGITS or count + lengths.size > out.size:
                    return None
                ends = np.cumsum(lengths)  # of each token in the block's digits
                places = np.repeat(ends - 1, lengths)
                places -= np.arange(ends[-1])
                digits = _PLACES[places]
                digits *= data[digit] - ord("0")
                tokens = np.add.reduceat(digits, ends - lengths)
                if not tokens.all():
                    return None
                out[count : count + tokens.size] = tokens
                count += tokens.size
            if not block:
                break
    if not count:
        return None
    out.resize(count, refcheck=False)  # shrinks in place: no second copy of the values
    return out


def _parse_tokens(path: str | os.PathLike) -> np.ndarray:
    """Every token of the file, read line by line; the first bad one raises."""
    values: list[int] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            for token_no, token in enumerate(line.split(), start=1):
                try:
                    value = int(token) if token.isdigit() else 0
                except ValueError:  # digits int() does not read, such as '²'
                    value = 0
                if not 1 <= value <= _INT64_MAX:
                    problem = "is not a positive integer" if value < 1 else f"exceeds {_INT64_MAX}"
                    raise ObservationParseError(
                        f"{path}: line {line_no}, token {token_no}: {token!r} {problem}"
                    )
                values.append(value)
    if not values:
        raise ObservationParseError(f"{path}: no observations found")
    return np.asarray(values, dtype=np.int64)


def write_observations(sample: Sample, path: str | os.PathLike) -> None:
    """One observation per line; the format parse_observations reads back."""
    with open(path, "w", encoding="utf-8") as handle:
        for value in sample.observations:
            handle.write(f"{int(value)}\n")
