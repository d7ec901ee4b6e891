"""Batched (vectorised) engine over the scalar :class:`~repro.arch.datapath.Datapath`.

The scalar datapath mirrors the hardware one macro-cycle at a time: one MAC
window, one FIFO push and one counter step per Python iteration, which makes
a full image pass O(N²) Python-level work.  This module is the architecture
model's counterpart of the vectorised entropy-coding tier: it computes a
whole line pass — every row or every column of a scale at once — with the
vectorised periodic-convolution pattern of :mod:`repro.dwt.convolution`,
while reproducing the scalar model's observable state *exactly*:

* **Output words** are bit-identical.  The arithmetic is the same 32-bit
  operand wrap, exact 64-bit-wrapped accumulation (NumPy ``int64`` arithmetic
  is arithmetic modulo 2**64, exactly like the hardware accumulator), §4.3
  alignment rounding and overflow policing.
* **Statistics** (:class:`~repro.arch.datapath.DatapathStats`, MAC operation
  counters, coefficient-RAM reads, FIFO push/pop counters and the
  :class:`~repro.arch.scheduler.MacrocycleCounter`) advance by closed forms.
  Every per-sample count of the scalar model is a deterministic function of
  the line length, the filter lengths and the FIFO depth, so the batched
  pass can account a whole pass at once; the ``MacrocycleCounter`` already
  provides an exact O(1) ``step(count)``.  Even the final MAC accumulator
  value is restored, so a fast pass leaves the datapath in the same state a
  scalar pass would.

The intentional divergences are confined to the ``overflow_policy="raise"``
error path: the batched check may report a different offending sample than
the scalar order would (it scans the low-pass block before the high-pass
block), and an aborted pass leaves the counters untouched, where the scalar
model raises mid-line with partially advanced counters.  Completed passes
are state-identical; the scalar model remains the reference for
fault-injection work.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..fixedpoint.errors import OverflowPolicyError
from ..fixedpoint.qformat import QFormat
from ..fixedpoint.rounding import (
    round_half_up_shift,
    truncate_shift,
    wrap_twos_complement,
)
from .datapath import Datapath
from .output_fifo import choose_fifo_depth

__all__ = ["FastDatapath"]


class FastDatapath:
    """Whole-pass array engine sharing a scalar :class:`Datapath`'s state.

    The engine owns no arithmetic state of its own: coefficients, alignment
    configuration, counters and the FIFO all live in the wrapped datapath,
    so scalar and fast passes can be freely interleaved and their statistics
    accumulate into the same report.
    """

    def __init__(self, datapath: Datapath) -> None:
        self.datapath = datapath
        # Gather/scatter index vectors per line length (analysis) and output
        # length (synthesis); the taps are fixed for the datapath's lifetime.
        self._analysis_taps: Dict[int, Dict[str, List[Tuple[np.ndarray, int]]]] = {}
        self._synthesis_taps: Dict[int, List[Tuple[str, np.ndarray, int]]] = {}

    # -- cached index tables ---------------------------------------------------------
    def _analysis_table(self, n: int) -> Dict[str, List[Tuple[np.ndarray, int]]]:
        """Per-tap periodic gather indices for a length-``n`` analysis pass."""
        table = self._analysis_taps.get(n)
        if table is None:
            base = 2 * np.arange(n // 2)
            table = {}
            for role in ("h", "g"):
                quantized = self.datapath.coeff_ram.quantized(role)
                table[role] = [
                    (np.mod(base + idx, n), int(stored))
                    for idx, stored in zip(quantized.indices, quantized.stored_taps)
                ]
            self._analysis_taps[n] = table
        return table

    def _synthesis_table(self, out_len: int) -> List[Tuple[str, np.ndarray, int]]:
        """Per-tap periodic scatter indices for a length-``out_len`` synthesis pass."""
        table = self._synthesis_taps.get(out_len)
        if table is None:
            positions = 2 * np.arange(out_len // 2)
            table = []
            for role, branch in (("ht", "low"), ("gt", "high")):
                quantized = self.datapath.coeff_ram.quantized(role)
                for idx, stored in zip(quantized.indices, quantized.stored_taps):
                    table.append((branch, np.mod(positions + idx, out_len), int(stored)))
            self._synthesis_taps[out_len] = table
        return table

    # -- shared helpers --------------------------------------------------------------
    def _wrap_operands(self, values: np.ndarray) -> np.ndarray:
        """Mirror the MAC unit's two's-complement operand wrap (a no-op for
        any value the word-length plan admits)."""
        wrapped = wrap_twos_complement(values, self.datapath.mac.operand_bits)
        return np.asarray(wrapped, dtype=np.int64)

    def _wrap_accumulators(self, acc: np.ndarray) -> np.ndarray:
        """Reduce accumulators to the configured width, like the scalar MAC.

        int64 accumulation is already arithmetic modulo 2**64; narrower
        accumulators wrap after every MAC in the scalar unit, which is
        equivalent to one final wrap because reduction mod 2**B is a ring
        homomorphism.  Widths above 64 would need big-integer accumulation
        the array engine cannot provide, so they stay scalar-only.
        """
        bits = self.datapath.mac.accumulator_bits
        if bits > 64:
            raise ValueError(
                f"the fast engine supports accumulators up to 64 bits "
                f"(configured: {bits}); use engine='scalar'"
            )
        if bits == 64:
            return acc
        return np.asarray(wrap_twos_complement(acc, bits), dtype=np.int64)

    def _align(self, acc: np.ndarray, shift: int) -> np.ndarray:
        if self.datapath.alignment.rounding == "half_up":
            return np.asarray(round_half_up_shift(acc, shift), dtype=np.int64)
        return np.asarray(truncate_shift(acc, shift), dtype=np.int64)

    def _check_words(self, values: np.ndarray, fmt: QFormat) -> np.ndarray:
        """Vectorised counterpart of ``Datapath._check_word``."""
        policy = self.datapath.overflow_policy
        if policy == "raise":
            bad = (values < fmt.min_int) | (values > fmt.max_int)
            if bad.any():
                value = int(values[bad].flat[0])
                raise OverflowPolicyError(
                    f"aligned value {value} exceeds {fmt} range "
                    f"[{fmt.min_int}, {fmt.max_int}]"
                )
            return values
        if policy == "saturate":
            return np.clip(values, fmt.min_int, fmt.max_int)
        # wrap
        return np.asarray(
            wrap_twos_complement(values, fmt.word_length), dtype=np.int64
        )

    def _set_accumulator(self, final_acc: int) -> None:
        """Leave the MAC accumulator as the scalar model's last convolution would."""
        mac = self.datapath.mac
        mac.accumulator = int(wrap_twos_complement(int(final_acc), mac.accumulator_bits))

    # -- analysis (forward) pass -----------------------------------------------------
    def analyze_lines(
        self, lines: np.ndarray, scale: int, pass_name: str
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Run ``analyze_line`` over every row of ``lines`` in one array pass.

        ``lines`` is ``(count, n)``; returns ``(low, high)`` of shape
        ``(count, n // 2)``, bit-identical to ``count`` scalar calls, with
        all counters advanced by the equivalent closed forms.
        """
        dp = self.datapath
        lines = np.asarray(lines, dtype=np.int64)
        if lines.ndim != 2:
            raise ValueError("analyze_lines expects a (count, n) array of lines")
        count, n = lines.shape
        if n % 2:
            raise ValueError(f"line length {n} must be even")
        entry = dp.alignment.entry("forward", scale, pass_name)
        target = entry.target_format
        half = n // 2
        if count == 0:
            return (
                np.zeros((0, half), dtype=np.int64),
                np.zeros((0, half), dtype=np.int64),
            )

        data = self._wrap_operands(lines)
        table = self._analysis_table(n)
        acc_low = np.zeros((count, half), dtype=np.int64)
        acc_high = np.zeros((count, half), dtype=np.int64)
        with np.errstate(over="ignore"):
            for indices, stored in table["h"]:
                acc_low += np.int64(stored) * data[:, indices]
            for indices, stored in table["g"]:
                acc_high += np.int64(stored) * data[:, indices]
        acc_low = self._wrap_accumulators(acc_low)
        acc_high = self._wrap_accumulators(acc_high)
        # The scalar model's last convolution is the high-pass output of the
        # final sample of the final line.
        final_acc = int(acc_high[-1, -1])

        low = self._check_words(self._align(acc_low, entry.shift), target)
        high = self._check_words(self._align(acc_high, entry.shift), target)

        # -- closed-form accounting (one scalar line at a time would do the same) --
        length_h = dp.coeff_ram.filter_length("h")
        length_g = dp.coeff_ram.filter_length("g")
        taps_per_pair = length_h + length_g
        outputs = 2 * half * count
        fifo_depth = (
            choose_fifo_depth(n, dp.config.half_filter_length)
            if n > 2 * dp.config.half_filter_length
            else 0
        )
        dp.fifo.resize(min(fifo_depth, dp.fifo.capacity or fifo_depth))
        dp.fifo.pushes += half * count
        dp.fifo.pops += half * count
        dp.coeff_ram.reads += half * count * taps_per_pair
        dp.stats.coefficient_reads += half * count * taps_per_pair
        dp.stats.fifo_pushes += half * count
        dp.stats.line_passes += count
        dp.stats.samples_in += n * count
        dp.stats.samples_out += n * count
        dp.stats.dram_reads += n * count
        dp.stats.dram_writes += n * count
        dp.mac.stats.multiplies += half * count * taps_per_pair
        dp.mac.stats.load_cycles += outputs
        dp.mac.stats.accumulate_cycles += half * count * taps_per_pair - outputs
        dp.counter.step(outputs)
        self._set_accumulator(final_acc)
        return low, high

    # -- synthesis (inverse) pass ----------------------------------------------------
    def synthesize_lines(
        self, low: np.ndarray, high: np.ndarray, scale: int, pass_name: str
    ) -> np.ndarray:
        """Run ``synthesize_line`` over every row of ``low``/``high`` at once.

        ``low`` and ``high`` are ``(count, half)``; returns the ``(count,
        2 * half)`` reconstruction, bit-identical to ``count`` scalar calls.
        """
        dp = self.datapath
        low = np.asarray(low, dtype=np.int64)
        high = np.asarray(high, dtype=np.int64)
        if low.shape != high.shape or low.ndim != 2:
            raise ValueError("synthesize_lines expects two equal-shape (count, half) arrays")
        count, half = low.shape
        out_len = 2 * half
        entry = dp.alignment.entry("inverse", scale, pass_name)
        target = entry.target_format
        if count == 0:
            return np.zeros((0, out_len), dtype=np.int64)

        branches = {"low": self._wrap_operands(low), "high": self._wrap_operands(high)}
        acc = np.zeros((count, out_len), dtype=np.int64)
        with np.errstate(over="ignore"):
            for branch, positions, stored in self._synthesis_table(out_len):
                # The scatter positions of one tap are distinct (stride-2
                # plus a constant offset mod out_len), so fancy-index += is
                # exact; summation order differs from the scalar MAC order
                # but addition modulo 2**64 is commutative.
                acc[:, positions] += np.int64(stored) * branches[branch]
        acc = self._wrap_accumulators(acc)
        final_acc = int(acc[-1, -1])

        out = self._check_words(self._align(acc, entry.shift), target)

        # -- closed-form accounting --------------------------------------------------
        # Each tap of ht/gt contributes to exactly half of the out_len output
        # samples (those of matching parity), so the per-line window sizes
        # sum to half * (len(ht) + len(gt)) — the same total the cached
        # scalar synthesis plan produces.
        taps_total = dp.coeff_ram.filter_length("ht") + dp.coeff_ram.filter_length("gt")
        outputs = out_len * count
        dp.stats.coefficient_reads += half * count * taps_total
        dp.stats.line_passes += count
        dp.stats.samples_in += outputs
        dp.stats.samples_out += outputs
        dp.stats.dram_reads += outputs
        dp.stats.dram_writes += outputs
        dp.mac.stats.multiplies += half * count * taps_total
        dp.mac.stats.load_cycles += outputs
        dp.mac.stats.accumulate_cycles += half * count * taps_total - outputs
        dp.counter.step(outputs)
        self._set_accumulator(final_acc)
        return out
