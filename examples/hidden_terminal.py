#!/usr/bin/env python3
"""Hidden-terminal scenario: why collisions must not lower the rate.

Two clients that cannot carrier-sense each other upload TCP through an
access point over a *static* channel (the paper's section 6.4 setup).
A protocol that reacts to raw loss (RRAA) drags its bit rate down on
every collision — lengthening frames and making contention worse —
while SoftRate's interference detector feeds back the collision-free
channel BER and holds the right rate.

Run:  python examples/hidden_terminal.py
"""

from repro.experiments.common import (rraa_factory, samplerate_factory,
                                      softrate_factory)
from repro.sim.topology import run_tcp_uplink
from repro.traces.workloads import link_traces

N_CLIENTS = 2
DURATION = 4.0


def main():
    up = link_traces("static", N_CLIENTS, 100, 10.0, mean_snr_db=16.0)
    down = link_traces("static", N_CLIENTS, 200, 10.0, mean_snr_db=16.0)
    protocols = [
        ("SoftRate", softrate_factory, {}),
        ("SoftRate (ideal det.)", softrate_factory,
         {"detect_prob": 1.0, "use_postambles": True}),
        ("RRAA", rraa_factory, {}),
        ("SampleRate", samplerate_factory, {}),
    ]
    print(f"{N_CLIENTS} uploading clients, static channel, "
          f"{DURATION:.0f} s TCP per run\n")
    print(f"{'protocol':22s} {'hidden':>9s} {'perfect CS':>11s}")
    for name, factory, kwargs in protocols:
        row = []
        for cs_prob in (0.0, 1.0):
            result = run_tcp_uplink(
                up, down, factory, n_clients=N_CLIENTS,
                duration=DURATION, carrier_sense_prob=cs_prob,
                seed=7, **kwargs)
            row.append(result.aggregate_mbps)
        print(f"{name:22s} {row[0]:7.2f} Mb {row[1]:9.2f} Mb")
    print("\n'hidden' = the clients never sense each other "
          "(every overlap collides).")


if __name__ == "__main__":
    main()
