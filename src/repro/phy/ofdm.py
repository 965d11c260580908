"""OFDM frame layout and symbol assembly.

A transmitted frame is a sequence of OFDM symbols:

    [ preamble | header | body ... | postamble ]

* The **preamble** carries known training symbols used for detection,
  channel estimation, and the Schmidl-Cox-style SNR estimate.
* The **header** carries the link-layer header (:mod:`repro.phy.frame`)
  coded at the lowest rate so it survives conditions that corrupt the
  body.
* The **body** carries the payload at the frame's chosen bit rate,
  convolutionally coded, punctured, and frequency-interleaved per
  symbol.
* The optional **postamble** is one more training symbol; the paper
  (section 3.2) uses it so a receiver can detect the tail of a frame
  whose preamble was destroyed by a collision.

We work at the subcarrier-symbol abstraction: each OFDM symbol is a
vector of ``n_subcarriers`` complex constellation points, and the
channel applies a complex gain per symbol plus additive noise.  The
IFFT/CP stage is omitted because it is a lossless change of basis that
no part of SoftRate observes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from repro.phy.convcode import (ConvolutionalCode, PUNCTURE_PATTERNS,
                                n_coded_bits)

__all__ = ["FrameLayout", "training_symbols", "info_bit_symbol_map",
           "RegionSymbols", "region_symbols"]

_TRAINING_SEED = 0x50F7


@lru_cache(maxsize=None)
def _training_cache(n_symbols: int, n_subcarriers: int) -> np.ndarray:
    rng = np.random.default_rng(_TRAINING_SEED)
    qpsk = (rng.integers(0, 2, size=(n_symbols, n_subcarriers)) * 2 - 1
            + 1j * (rng.integers(0, 2, size=(n_symbols, n_subcarriers))
                    * 2 - 1)) / np.sqrt(2)
    qpsk.setflags(write=False)
    return qpsk


def training_symbols(n_symbols: int, n_subcarriers: int) -> np.ndarray:
    """Deterministic unit-energy QPSK training symbols.

    The sequence is fixed (known to every receiver); the same generator
    serves preamble and postamble.
    """
    return _training_cache(n_symbols, n_subcarriers)


def info_bit_symbol_map(n_info_bits: int, n_tail_bits: int,
                        code_rate: Fraction,
                        coded_bits_per_symbol: int) -> np.ndarray:
    """Map each information bit to the body OFDM symbol carrying it.

    Bit ``k``'s mother-code bits sit at positions ``2k`` and ``2k + 1``;
    after puncturing, the first surviving one lands at a position whose
    symbol index we record.  Frequency interleaving permutes bits only
    *within* a symbol, so the symbol index is interleaving-invariant.
    This mapping realises Eq. 4 of the paper: averaging the per-bit
    error probabilities of the bits in one symbol yields the
    per-symbol BER used for interference detection.
    """
    n_steps = n_info_bits + n_tail_bits
    pattern = PUNCTURE_PATTERNS[code_rate]
    reps = -(-2 * n_steps // pattern.size)
    mask = np.tile(pattern, reps)[: 2 * n_steps]
    punctured_pos = np.cumsum(mask) - 1          # position after puncturing
    first = np.where(mask[0::2], punctured_pos[0::2], punctured_pos[1::2])
    return (first[:n_info_bits] // coded_bits_per_symbol).astype(np.int64)


@dataclass(frozen=True)
class FrameLayout:
    """Geometry of one frame's OFDM symbols.

    Built by :meth:`repro.phy.transceiver.Transceiver.frame_layout`;
    the receiver needs the same layout to slice a received frame.
    """

    n_subcarriers: int
    n_payload_bits: int
    body_rate_index: int
    body_modulation: str
    body_code_rate: Fraction
    header_modulation: str
    header_code_rate: Fraction
    n_preamble_symbols: int
    n_header_symbols: int
    n_body_symbols: int
    has_postamble: bool
    n_body_info_bits: int            # payload + CRC-32
    n_body_mother_bits: int          # before puncturing, incl. tail
    n_body_coded_bits: int           # after puncturing, before padding
    body_pad_bits: int
    n_header_mother_bits: int
    n_header_coded_bits: int
    header_pad_bits: int
    info_symbol: np.ndarray = field(repr=False, compare=False)

    @property
    def n_postamble_symbols(self) -> int:
        return 1 if self.has_postamble else 0

    @property
    def n_symbols(self) -> int:
        """Total OFDM symbols in the frame."""
        return (self.n_preamble_symbols + self.n_header_symbols
                + self.n_body_symbols + self.n_postamble_symbols)

    @property
    def preamble(self) -> slice:
        return slice(0, self.n_preamble_symbols)

    @property
    def header(self) -> slice:
        start = self.n_preamble_symbols
        return slice(start, start + self.n_header_symbols)

    @property
    def body(self) -> slice:
        start = self.n_preamble_symbols + self.n_header_symbols
        return slice(start, start + self.n_body_symbols)

    @property
    def postamble(self) -> Optional[slice]:
        if not self.has_postamble:
            return None
        return slice(self.n_symbols - 1, self.n_symbols)

    def airtime(self, symbol_time: float) -> float:
        """Frame duration in seconds."""
        return self.n_symbols * symbol_time


class RegionSymbols(NamedTuple):
    """OFDM geometry of one coded region (header or body)."""

    n_coded_bits: int       # after puncturing, before padding
    n_symbols: int
    pad_bits: int


@lru_cache(maxsize=None)
def region_symbols(n_info_bits: int, n_tail_bits: int,
                   code_rate: Fraction, block_bits: int) -> RegionSymbols:
    """Coded bits, OFDM symbols and pad bits of one coded region.

    The one place symbol counts are computed, for frame layouts and
    airtimes alike.  ``block_bits`` is the region's coded bits per OFDM
    symbol.  Memoised for the process: a simulation asks for the same
    few (size, rate) pairs again and again, from fresh transceivers.
    """
    n_coded = n_coded_bits(n_info_bits + n_tail_bits, code_rate)
    n_symbols = -(-n_coded // block_bits)
    return RegionSymbols(n_coded, n_symbols, n_symbols * block_bits - n_coded)


def build_layout(n_payload_bits: int, rate_index: int, body_modulation: str,
                 body_bits_per_symbol: int, body_code_rate: Fraction,
                 header_modulation: str, header_bits_per_symbol: int,
                 header_code_rate: Fraction, n_subcarriers: int,
                 code: ConvolutionalCode, n_preamble_symbols: int,
                 has_postamble: bool, n_header_bits: int) -> FrameLayout:
    """Compute a :class:`FrameLayout` (internal; used by the transceiver)."""
    if n_payload_bits % 8 != 0:
        raise ValueError("payload must be byte-aligned")
    n_body_info = n_payload_bits + 32          # + CRC-32
    body_block = body_bits_per_symbol * n_subcarriers
    body = region_symbols(n_body_info, code.n_tail_bits, body_code_rate,
                          body_block)
    header = region_symbols(n_header_bits, code.n_tail_bits,
                            header_code_rate,
                            header_bits_per_symbol * n_subcarriers)
    info_symbol = info_bit_symbol_map(n_body_info, code.n_tail_bits,
                                      body_code_rate, body_block)
    info_symbol.setflags(write=False)
    return FrameLayout(
        n_subcarriers=n_subcarriers,
        n_payload_bits=n_payload_bits,
        body_rate_index=rate_index,
        body_modulation=body_modulation,
        body_code_rate=body_code_rate,
        header_modulation=header_modulation,
        header_code_rate=header_code_rate,
        n_preamble_symbols=n_preamble_symbols,
        n_header_symbols=header.n_symbols,
        n_body_symbols=body.n_symbols,
        has_postamble=has_postamble,
        n_body_info_bits=n_body_info,
        n_body_mother_bits=2 * (n_body_info + code.n_tail_bits),
        n_body_coded_bits=body.n_coded_bits,
        body_pad_bits=body.pad_bits,
        n_header_mother_bits=2 * (n_header_bits + code.n_tail_bits),
        n_header_coded_bits=header.n_coded_bits,
        header_pad_bits=header.pad_bits,
        info_symbol=info_symbol,
    )
