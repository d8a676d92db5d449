"""Summary statistics the benchmark reports."""

from __future__ import annotations

from typing import Sequence, Tuple

#: a tail percentile is only reported with at least this many samples
#: beyond it
TAIL_BEYOND = 10


def tail(values: Sequence[float]) -> Tuple[float, str]:
    """The highest percentile that has at least ten samples beyond it,
    with a label naming the percentile and the sample count.

    With sorted samples ``x[0..n-1]``, ``x[k]`` has ``n-1-k`` samples
    beyond it, so the answer is ``x[n-1-TAIL_BEYOND]``, the
    ``100*(n-TAIL_BEYOND)/n``-th percentile.  With ``TAIL_BEYOND`` or
    fewer samples no percentile qualifies and the maximum is reported,
    labelled as such.
    """
    if not values:
        raise ValueError("tail of no samples")
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], f"max of {n} samples (too few for a percentile)"
    k = n - 1 - TAIL_BEYOND
    pct = 100.0 * (k + 1) / n
    return xs[k], f"p{pct:.0f} of {n} samples ({TAIL_BEYOND} beyond it)"
