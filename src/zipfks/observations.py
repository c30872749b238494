"""Observation files: whitespace-separated positive integers, UTF-8, no header."""
from __future__ import annotations

import os

import numpy as np

from .distribution import Sample, count_distinct

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
    """The file's observations as a Sample of their distinct values and counts.

    The sample's ``observations`` are the file's multiset in sorted order, not
    in file order; the file is never held whole.  A byte pass converts the
    file a block at a time and reduces each block to (value, count) pairs.
    Files it refuses (any byte other than an ASCII digit or whitespace, a
    token of more than _MAX_DIGITS digits, a zero, no token at all) are read
    again token by token, which accepts what str.split() and str.isdigit()
    accept and names the line and token of the first bad one.  Either way
    memory grows with the distinct values, not with the observations.
    """
    pairs = _parse_bytes(path)
    if pairs is None:
        pairs = _parse_tokens(path)
    return Sample.from_counts(*pairs)


def _parse_bytes(path: str | os.PathLike) -> tuple[np.ndarray, np.ndarray] | None:
    """Sorted distinct values and counts of an all-ASCII digits-and-whitespace file,
    or None to refuse it."""
    merged = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    pending: list[tuple[np.ndarray, np.ndarray]] = []  # block reductions not yet merged
    pending_size = 0
    with open(path, "rb") as handle:
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
                if lengths.max() > _MAX_DIGITS:
                    return None
                ends = np.cumsum(lengths)  # of each token in the block's digits
                places = np.repeat(ends - 1, lengths)
                places -= np.arange(ends[-1])
                digits = _PLACES[places]
                digits *= data[digit] - ord("0")
                tokens = np.add.reduceat(digits, ends - lengths)
                if not tokens.all():
                    return None
                pending.append(count_distinct(tokens))
                pending_size += pending[-1][0].size
                # merged only once the pending pairs outnumber the merged ones,
                # so a merge's sort is paid for by the pairs it takes in, not
                # by every block over again
                if pending_size > max(merged[0].size, _BLOCK_BYTES):
                    merged = _merge([merged, *pending])
                    pending, pending_size = [], 0
            if not block:
                break
    if pending:
        merged = _merge([merged, *pending])
    return merged if merged[0].size else None


def _merge(parts: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """One sorted (value, count) reduction of several, not all empty."""
    values = np.concatenate([part[0] for part in parts])
    counts = np.concatenate([part[1] for part in parts])
    order = np.argsort(values, kind="stable")  # a merge of the parts' sorted runs
    values, counts = values[order], counts[order]
    starts = np.flatnonzero(np.diff(values, prepend=0))  # every value is at least 1
    return values[starts], np.add.reduceat(counts, starts)


def _parse_tokens(path: str | os.PathLike) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values and counts of the file, read line by line; the first
    bad token raises."""
    tally: dict[int, int] = {}
    # undecodable bytes become lone surrogates, which no token that reads holds
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for line_no, line in enumerate(handle, start=1):
            for token_no, token in enumerate(line.split(), start=1):
                try:
                    value = int(token) if token.isdigit() else 0
                except ValueError:  # digits int() does not read, such as '²'
                    value = 0
                if not 1 <= value <= _INT64_MAX:
                    where = f"{path}: line {line_no}, token {token_no}"
                    try:
                        token.encode("utf-8")
                    except UnicodeEncodeError:
                        raw = token.encode("utf-8", "surrogateescape")
                        raise ObservationParseError(f"{where}: {raw!r} is not UTF-8") from None
                    problem = "is not a positive integer" if value < 1 else f"exceeds {_INT64_MAX}"
                    raise ObservationParseError(f"{where}: {token!r} {problem}")
                tally[value] = tally.get(value, 0) + 1
    if not tally:
        raise ObservationParseError(f"{path}: no observations found")
    values, counts = zip(*sorted(tally.items()))
    return np.array(values, dtype=np.int64), np.array(counts, dtype=np.int64)


def write_observations(sample: Sample, path: str | os.PathLike) -> None:
    """One observation per line; the format parse_observations reads back."""
    with open(path, "w", encoding="utf-8") as handle:
        for value in sample.observations:
            handle.write(f"{int(value)}\n")
