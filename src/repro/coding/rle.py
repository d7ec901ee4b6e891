"""Zero run-length pre-coding for wavelet detail coefficients.

Wavelet detail subbands of medical images are dominated by zeros (or, for
noisy modalities, near-zeros that become zeros only when the image is
genuinely smooth).  Before entropy coding it is therefore worth replacing
runs of zeros by ``(ZERO_RUN, length)`` events and leaving non-zero
coefficients as ``(LITERAL, value)`` events.

The run-length layer is optional — the codec measures both variants — and
is completely lossless: ``rle_decode(rle_encode(x)) == x`` for every integer
sequence.

Two representations are provided:

* the event-object API (:func:`rle_encode` / :func:`rle_decode`), the scalar
  reference that materialises one :class:`RleEvent` per event, and
* the array API (:func:`rle_encode_arrays` / :func:`rle_decode_arrays`),
  which produces the exact same event sequence as two NumPy arrays — the
  run-symbol stream (run length, or 0 marking a literal) and the literal
  values — without any per-event Python objects.  This is what the
  vectorised codec feeds straight into the Rice coder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

import numpy as np

__all__ = [
    "RleEvent",
    "LITERAL",
    "ZERO_RUN",
    "rle_encode",
    "rle_decode",
    "rle_encode_arrays",
    "rle_decode_arrays",
    "check_rle_size",
    "check_zero_free_size",
]

#: Event kinds.
LITERAL = "literal"
ZERO_RUN = "zero_run"

#: Default cap on a single run event (longer runs are split).
DEFAULT_MAX_RUN = 1 << 16


@dataclass(frozen=True)
class RleEvent:
    """One run-length event: a literal value or a run of zeros."""

    kind: str
    value: int

    def __post_init__(self) -> None:
        if self.kind not in (LITERAL, ZERO_RUN):
            raise ValueError(f"unknown RLE event kind {self.kind!r}")
        if self.kind == ZERO_RUN and self.value < 1:
            raise ValueError("zero runs must have length >= 1")


def rle_encode(values: Iterable[int], max_run: int = DEFAULT_MAX_RUN) -> List[RleEvent]:
    """Encode an integer sequence into literal / zero-run events.

    ``max_run`` caps the length of a single run event (longer runs are split)
    so that run lengths always fit a bounded symbol alphabet.  Scalar
    reference for :func:`rle_encode_arrays`.
    """
    if max_run < 1:
        raise ValueError("max_run must be >= 1")
    events: List[RleEvent] = []
    run = 0
    if isinstance(values, np.ndarray):
        arr = values.astype(np.int64, copy=False)
    else:
        arr = np.asarray(list(values), dtype=np.int64)
    for value in arr.ravel().tolist():
        if value == 0:
            run += 1
            if run == max_run:
                events.append(RleEvent(ZERO_RUN, run))
                run = 0
        else:
            if run:
                events.append(RleEvent(ZERO_RUN, run))
                run = 0
            events.append(RleEvent(LITERAL, int(value)))
    if run:
        events.append(RleEvent(ZERO_RUN, run))
    return events


def rle_decode(events: Iterable[RleEvent]) -> np.ndarray:
    """Inverse of :func:`rle_encode`."""
    out: List[int] = []
    for event in events:
        if event.kind == ZERO_RUN:
            out.extend([0] * event.value)
        else:
            out.append(event.value)
    return np.asarray(out, dtype=np.int64)


# ---------------------------------------------------------------------------
# Vectorised array representation
# ---------------------------------------------------------------------------

def rle_encode_arrays(
    values: np.ndarray, max_run: int = DEFAULT_MAX_RUN
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised RLE returning ``(run_symbols, literal_values)``.

    ``run_symbols`` carries one entry per event in the exact order
    :func:`rle_encode` emits them: a positive value is a zero run of that
    length, a zero marks the next literal (a literal of value 0 never occurs,
    zeros always join runs).  ``literal_values`` are the signed literals in
    order.
    """
    if max_run < 1:
        raise ValueError("max_run must be >= 1")
    x = np.asarray(values, dtype=np.int64).ravel()
    nonzero = np.flatnonzero(x)
    literals = x[nonzero]
    # Zeros before each literal, and after the last one.
    gaps = np.diff(np.concatenate([[-1], nonzero])) - 1
    tail = int(x.size - (nonzero[-1] + 1)) if nonzero.size else int(x.size)
    full_runs = gaps // max_run
    partial = gaps % max_run
    events_per_literal = full_runs + (partial > 0) + 1
    tail_full = tail // max_run
    tail_partial = tail % max_run
    body = int(events_per_literal.sum())
    total = body + tail_full + (1 if tail_partial else 0)
    run_symbols = np.full(total, max_run, dtype=np.int64)
    offsets = np.cumsum(events_per_literal) - events_per_literal
    has_partial = partial > 0
    run_symbols[offsets[has_partial] + full_runs[has_partial]] = partial[has_partial]
    run_symbols[offsets + events_per_literal - 1] = 0
    if tail_partial:
        run_symbols[body + tail_full] = tail_partial
    return run_symbols, literals


def rle_decode_arrays(run_symbols: np.ndarray, literal_values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`rle_encode_arrays`."""
    runs = np.asarray(run_symbols, dtype=np.int64).ravel()
    literals = np.asarray(literal_values, dtype=np.int64).ravel()
    if runs.size and int(runs.min()) < 0:
        raise ValueError("zero runs must have length >= 1")
    lengths = np.where(runs > 0, runs, 1)
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    out = np.zeros(total, dtype=np.int64)
    literal_positions = ends[runs == 0] - 1
    if literal_positions.size != literals.size:
        raise ValueError(
            f"run stream expects {literal_positions.size} literals, got {literals.size}"
        )
    out[literal_positions] = literals
    return out


def check_rle_size(run_symbols: np.ndarray, literal_count: int, size: int) -> None:
    """Raise ``ValueError`` unless the streams decode to exactly ``size`` values.

    A decoder calls this before it sizes anything from the run lengths:
    the runs plus one slot per literal marker must fill ``size`` values,
    and the markers must match the literals.  A hostile run stream (one
    run of ``2**27`` zeros in a ten-byte block, say) then fails in time and
    memory bounded by the stream itself.
    """
    runs = np.asarray(run_symbols, dtype=np.int64).ravel()
    if runs.size and (int(runs.min()) < 0 or int(runs.max()) > size):
        raise ValueError(f"RLE run stream holds a run outside [0, {size}]")
    markers = runs.size - int(np.count_nonzero(runs))
    _check_rle_fill(int(runs.sum()) + markers, markers, literal_count, size)


def check_zero_free_size(literal_count: int, size: int) -> None:
    """:func:`check_rle_size` of a run stream of ``size`` literal markers
    (a zero-free band), checked without the stream."""
    _check_rle_fill(size, size, literal_count, size)


def _check_rle_fill(total: int, markers: int, literal_count: int, size: int) -> None:
    if total != size or markers != literal_count:
        raise ValueError(
            f"RLE streams decode to {total} values with {markers} literal "
            f"slots ({literal_count} literals), expected {size} values"
        )


def events_to_arrays(events: Iterable[RleEvent]) -> Tuple[np.ndarray, np.ndarray]:
    """Convert an event list to the ``(run_symbols, literal_values)`` form."""
    events = list(events)
    run_symbols = np.asarray(
        [e.value if e.kind == ZERO_RUN else 0 for e in events], dtype=np.int64
    )
    literals = np.asarray(
        [e.value for e in events if e.kind == LITERAL], dtype=np.int64
    )
    return run_symbols, literals


def zero_fraction(values: Iterable[int]) -> float:
    """Fraction of zero samples (diagnostic for whether RLE will pay off)."""
    if isinstance(values, np.ndarray):
        arr = values
    else:
        arr = np.asarray(list(values), dtype=np.int64)
    if arr.size == 0:
        return 0.0
    return float(np.count_nonzero(arr == 0) / arr.size)


def compression_events_summary(events: List[RleEvent]) -> Tuple[int, int, int]:
    """``(literal count, zero-run count, total zeros covered)`` of an event list."""
    literals = sum(1 for e in events if e.kind == LITERAL)
    runs = sum(1 for e in events if e.kind == ZERO_RUN)
    zeros = sum(e.value for e in events if e.kind == ZERO_RUN)
    return literals, runs, zeros
