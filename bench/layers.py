"""Layer table of one traced run: seconds per entry point and ladder level or translation.

    python3 bench/layers.py bench/runs/ladder-seed1/spans-round1.json

Reads a span file written by `run.py --trace 1` and prints one column per
context (`N=<cells per side> x0=<box corner>`), one row per wrapped entry
point, and the column totals.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict

from tracing import LAYERS


def layer_table(spans: list[dict]) -> tuple[list[str], dict[str, dict[str, float]]]:
    contexts = list(dict.fromkeys(s["context"] for s in spans))
    table: dict[str, dict[str, float]] = {name: defaultdict(float) for name in LAYERS}
    for s in spans:
        table[s["name"]][s["context"]] += s["end"] - s["start"]
    return contexts, table


def main(path: str) -> None:
    spans = json.loads(open(path).read())["spans"]
    contexts, table = layer_table(spans)
    print("| entry point (s) | " + " | ".join(contexts) + " |")
    print("|---" * (len(contexts) + 1) + "|")
    for name in LAYERS:
        row = table[name]
        if any(row.values()):
            cells = " | ".join(f"{row[c]:.3f}" for c in contexts)
            print(f"| {LAYERS[name]}.{name} | {cells} |")
    totals = " | ".join(f"{sum(table[n][c] for n in LAYERS):.3f}" for c in contexts)
    print(f"| total | {totals} |")


if __name__ == "__main__":
    main(sys.argv[1])
