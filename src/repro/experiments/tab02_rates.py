"""Tables 2 & 3: the 802.11a/g rate table and OFDM operating modes.

Deterministic (no RNG): the experiment packages the static tables the
paper reports, so the registry covers every table/figure of the
evaluation and ``repro run tab02`` renders them like the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.tables import format_table
from repro.experiments.api import register_experiment
from repro.phy.rates import MODES, RATE_TABLE

__all__ = ["RateTableData", "run_tab02"]


@dataclass
class RateTableData:
    """Rows of Tables 2 and 3 plus summary counts."""

    rate_rows: List[List[str]]          # Table 2
    mode_rows: List[List[str]]          # Table 3
    n_rates: int
    n_prototype: int
    n_modes: int
    max_mbps: float

    def render(self) -> str:
        table2 = format_table(
            ["Modulation", "Code Rate", "802.11 Rate", "Implemented"],
            self.rate_rows)
        table3 = format_table(
            ["Mode", "Bandwidth", "Tones", "Symbol time"],
            self.mode_rows)
        return f"{table2}\n\n{table3}"


def _metrics(data: RateTableData) -> dict:
    return {
        "n_rates": float(data.n_rates),
        "n_prototype": float(data.n_prototype),
        "n_modes": float(data.n_modes),
        "max_mbps": float(data.max_mbps),
    }


@register_experiment(
    "tab02",
    description="Rate table (Table 2) and OFDM modes (Table 3)",
    params={}, algorithms=(), seed_param=None,
    metrics=_metrics)
def run_tab02() -> RateTableData:
    """Build the rate/mode tables the paper's Tables 2 and 3 list."""
    rate_rows = [[r.modulation, str(r.code_rate), f"{r.mbps:g} Mbps",
                  "Yes" if r.in_prototype else "No"]
                 for r in RATE_TABLE]
    mode_rows = [[m.name, f"{m.bandwidth_hz / 1e6:g} MHz",
                  str(m.n_subcarriers), f"{m.symbol_time * 1e6:g} us"]
                 for m in MODES.values()]
    return RateTableData(
        rate_rows=rate_rows, mode_rows=mode_rows,
        n_rates=len(RATE_TABLE),
        n_prototype=len(RATE_TABLE.prototype_subset()),
        n_modes=len(MODES),
        max_mbps=max(r.mbps for r in RATE_TABLE))
