"""Dense attention masks for tests: the brute-force oracle and the interval expansion.

The library only ships ``mask_intervals``. ``dense_mask`` expands its rows into
a full mask[query, key] matrix, and ``mask_oracle`` evaluates the visibility
rule literally per (query, key) pair, so tests can hold the one against the
other.
"""

import numpy as np

from dialogforge.stream import BlockKind, InvalidStream, TokenStream, mask_intervals


class StreamTooLong(ValueError):
    """The brute-force mask oracle only handles short streams."""


def dense_mask(s: TokenStream) -> np.ndarray:
    """Boolean mask[query, key] rebuilt from the ``mask_intervals`` rows."""
    dense = np.zeros((s.total_len, s.total_len), dtype=bool)
    for row in mask_intervals(s):
        lo, hi = row["start"], row["end"]
        for a, b in row["context"]:
            dense[lo:hi, a:b] = True
        if row["within"] == "bidirectional":
            dense[lo:hi, lo:hi] = True
        else:
            for q in range(lo, hi):
                dense[q, lo:q + 1] = True
    return dense


def _check_positions(s: TokenStream) -> None:
    pos = 0
    for b in s.blocks:
        if b.start != pos or b.end != b.start + b.units or b.units < 1:
            raise InvalidStream(f"inconsistent block positions near offset {pos}")
        pos = b.end
    if pos != s.total_len:
        raise InvalidStream(f"total_len {s.total_len} != position sum {pos}")


def mask_oracle(s: TokenStream) -> np.ndarray:
    """Literal per-(query, key) evaluation of the visibility rule.

    Raises:
        StreamTooLong: streams beyond 512 positions are refused.
    """
    _check_positions(s)
    n = s.total_len
    if n > 512:
        raise StreamTooLong(f"oracle handles up to 512 positions, got {n}")
    blocks = s.blocks
    block_at: list[int] = [0] * n
    for bi, b in enumerate(blocks):
        for p in range(b.start, b.end):
            block_at[p] = bi
    rows = []
    for q in range(n):
        bq = blocks[block_at[q]]
        row = []
        for k in range(n):
            bk = blocks[block_at[k]]
            same_noised = bq is bk and bq.kind is BlockKind.VAE_NOISED
            visible = (
                same_noised
                or k == q
                or (k < q and bk.kind is not BlockKind.VAE_NOISED)
            )
            row.append(visible)
        rows.append(row)
    return np.array(rows, dtype=bool).reshape(n, n)
