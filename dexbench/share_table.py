#!/usr/bin/env python3
"""Print the host self-time share table of README.md.

    python3 dexbench/share_table.py

Runs the traced pass of every workload at the default seed and prints,
per layer, its share of the traced timed phase, one column per workload,
then the traced and untraced timed-phase seconds.
"""

from __future__ import annotations

from run import per_layer
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> None:
    metrics = {name: per_layer(name, DEFAULT_SEED)[1] for name in WORKLOADS}
    names = list(WORKLOADS)
    layers = [k for k in metrics[names[0]] if k.startswith("host_self_s.")]
    traced = {name: sum(metrics[name][k] for k in layers) for name in names}
    print("| layer | " + " | ".join(names) + " |")
    print("|---" * (len(names) + 1) + "|")
    for key in layers:
        cells = [f"{100.0 * metrics[name][key] / traced[name]:.1f}%" for name in names]
        print(f"| {key[len('host_self_s.'):]} | " + " | ".join(cells) + " |")
    print("| traced timed phase | "
          + " | ".join(f"{traced[n]:.2f} s" for n in names) + " |")
    print("| untraced timed phase | "
          + " | ".join(f"{traced[n] - metrics[n]['trace_overhead_s']:.2f} s"
                       for n in names) + " |")


if __name__ == "__main__":
    main()
