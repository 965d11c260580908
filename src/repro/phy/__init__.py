"""Physical layer: coding, modulation, framing, and the OFDM pipeline.

This package implements an 802.11a/g-like baseband PHY, mirroring the
GNU Radio prototype of the SoftRate paper (SIGCOMM 2009, section 4):

* rate-1/2 constraint-length-7 convolutional coding with puncturing,
* Gray-mapped BPSK/QPSK/16-QAM/64-QAM over OFDM symbols,
* per-symbol frequency interleaving,
* a hard-output Viterbi decoder and a soft-output log-MAP (BCJR)
  decoder whose per-bit log-likelihood ratios are the source of the
  SoftPHY hints used by :mod:`repro.core`,
* one frame-batched pipeline (:mod:`repro.phy.batch`) that pushes a
  ``(n_frames, ...)`` stack through transmit or receive, amortising
  the Python-level trellis loops across the batch; the per-frame
  ``Transceiver.transmit``/``receive`` are it at one frame, checked
  byte for byte against the scalar oracles in the tests,
* pluggable PHY backends (:mod:`repro.phy.backend`): the bit-exact
  pipeline and a calibrated table-driven surrogate
  (:mod:`repro.phy.calibrate`) behind one frame-outcome contract, so
  simulations choose fidelity vs orders-of-magnitude throughput.
"""

from repro.phy.backend import (FullPhyBackend, PhyBackend,
                               PhyFrameOutcome, SurrogatePhyBackend,
                               UnknownBackendError, get_backend)
from repro.phy.batch import TxBatch, batch_receive, batch_transmit
from repro.phy.rates import RateTable, Rate, RATE_TABLE, OperatingMode, MODES
from repro.phy.transceiver import Transceiver, RxResult

__all__ = [
    "RateTable",
    "Rate",
    "RATE_TABLE",
    "OperatingMode",
    "MODES",
    "Transceiver",
    "RxResult",
    "TxBatch",
    "batch_transmit",
    "batch_receive",
    "PhyBackend",
    "PhyFrameOutcome",
    "FullPhyBackend",
    "SurrogatePhyBackend",
    "UnknownBackendError",
    "get_backend",
]
