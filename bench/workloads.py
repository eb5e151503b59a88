"""The two benchmark workloads: their configurations, one round, and its outcome.

A round is one call of the workload's CLI command (`cmd_convergence` or
`cmd_sweep`) in the current process with one worker, optionally under a
`Tracer`.  Its outcome is read back from the CSV the command wrote.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import checks

WORKLOADS = ("ladder", "sweep_subset")

# Paper defaults of the convergence ladder, spelled out.
LADDER_CONFIG = {
    "convergence": {"ladder": [16, 32, 64, 128], "lambdas": [1.0, 1e8],
                    "Ks": [1.0, 1e-8], "subdiv": 4},
}

# The paper's 64-translation sweep, delta_j = 31 * j * 5e-4 cells, j = 1..64 (the
# CLI's default `sweep` family), less the translations whose unstabilized arm fails
# the 1e-9 residual check every time (relative residuals 1.2e-8 at j = 29 and
# 1.3e-9 at j = 34; the next largest is 9.4e-11).  A seed that drew them would add
# failed operations that other seeds do not have.  The finer family j * 5e-4,
# j = 1..2000, fails the same way at j = 505 and was not scanned in full.
SWEEP_COUNT = 64
SWEEP_STRIDE = 31
SWEEP_STEP = 5e-4
SWEEP_FAILING = (29, 34)
SWEEP_DRAWS = 4


def sweep_deltas(seed: int) -> list[float]:
    """`SWEEP_DRAWS` distinct translations of the family, drawn by `seed`, ascending."""
    family = [j for j in range(1, SWEEP_COUNT + 1) if j not in SWEEP_FAILING]
    js = sorted(random.Random(seed).sample(family, SWEEP_DRAWS))
    return [SWEEP_STRIDE * j * SWEEP_STEP for j in js]


def config(workload: str, seed: int) -> dict:
    """The CLI configuration of a workload; the ladder does not depend on the seed."""
    if workload == "ladder":
        return LADDER_CONFIG
    if workload == "sweep_subset":
        return {"mesh": {"subdiv": 3}, "params": {"mu": 1.0, "lam": 1.0, "K": 1.0},
                "sweep": {"n": 60, "deltas": sweep_deltas(seed)}}
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Round:
    wall_s: float
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    errors: dict[str, float] = field(default_factory=dict)


def attempted(workload: str, raw: dict) -> int:
    """Operations in one round: one per (level, lambda, K), or two arms per translation."""
    if workload == "ladder":
        conv = raw["convergence"]
        return len(conv["ladder"]) * len(conv["lambdas"]) * len(conv["Ks"])
    return 2 * len(raw["sweep"]["deltas"])


def run_round(cli, workload: str, raw: dict, out_dir: Path, tracer=None) -> Round:
    """Run the workload's CLI command once and judge what it wrote."""
    cfg = cli.RunConfig.from_dict(raw)
    command = cli.cmd_convergence if workload == "ladder" else cli.cmd_sweep
    total = attempted(workload, cfg.raw)
    with tracer.installed(cli) if tracer is not None else nullcontext():
        t0 = time.perf_counter()
        try:
            command(cfg, out_dir, workers=1)
        except cli.CutBiotError as exc:
            wall = time.perf_counter() - t0
            return Round(wall, total, total, [f"{type(exc).__name__}: {exc}"])
        wall = time.perf_counter() - t0
    if workload == "ladder":
        return _judge_ladder(wall, total, checks.read_table(out_dir / "convergence.csv"))
    return _judge_sweep(wall, total, checks.read_table(out_dir / "sweep.csv"))


def _judge_ladder(wall: float, total: int, rows: list[dict]) -> Round:
    finest = max(r["N"] for r in rows)
    top = [r for r in rows if r["N"] == finest]
    errors = {name: max(r[name] for r in top) for name in checks.STARRED}
    spread_level = sorted({r["N"] for r in rows})[-2]  # N=64 on the paper ladder
    return Round(wall, total, total - len(rows), checks.check_ladder(rows, spread_level), errors)


def _judge_sweep(wall: float, total: int, rows: list[dict]) -> Round:
    ok = [r for r in rows if r["solver_status"] == "ok"]
    stab = [r for r in ok if r["stabilized"]]
    errors = {name: max(r[name] for r in stab) for name in checks.STARRED} if stab else {}
    return Round(wall, total, total - len(ok), checks.check_sweep(rows), errors)
