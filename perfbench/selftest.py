"""Self-test of the benchmark, about a minute on two cores.

    python3 perfbench/selftest.py

Runs a tiny-sample smoke of every workload, untraced and traced, and
checks that each run is correct and prints every metric BENCHMARK.json
declares, by name and with its unit.  Then checks that the correctness
gate rejects a perturbed published value, a broken ordering chain and an
oracle row outside the DKW band, and that tracing fails when a named
boundary is missing or records no span.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import gate
import spans
from workloads import FAMILIES, TABLE1, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 11
# percentage points; above the widened smoke tolerance plus three standard errors
SHIFT = 5.0


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL {message}")
        sys.exit(1)
    print(f"ok   {message}")


def smoke(workload: str, trace: int, declared: list[dict]) -> None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    label = f"{workload} --trace {trace}"
    lines = proc.stdout.strip().splitlines()
    ok = proc.returncode == 0 and bool(lines)
    expect(ok, f"{label} exits 0" + ("" if ok else f": {proc.stderr.strip()[-500:]}"))
    result = json.loads(lines[-1])
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{label} result keys")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{label} every operation passes the gate")
    expect({m["name"]: m["unit"] for m in declared}
           == {k: v["unit"] for k, v in result["metrics"].items()},
           f"{label} reports exactly the declared metrics and units")
    for m in declared:
        expect(any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines[:-1]),
               f"{label} prints {m['name']} with unit {m['unit']}")


def swapped_report(report: Path, out: Path) -> Path:
    """Copy report.csv with every lower and upper AVaR bound swapped."""
    header, *rows = report.read_text(encoding="utf-8").splitlines()
    swapped = []
    for row in rows:
        f = row.split(",")
        f[-8], f[-7] = f[-7], f[-8]  # avar_lower, avar_upper
        swapped.append(",".join(f))
    out.write_text("\n".join([header, *swapped]) + "\n", encoding="utf-8")
    return out


def gate_checks() -> None:
    samples = 1 << 14
    work = HERE / "_work" / "homog_det"
    report = work / "out" / "report.csv"
    expect(gate.check_bounds(report, TABLE1, samples) == [], "gate accepts the smoke report")
    for model, alpha_index, side in (("gaussian", 0, 0), ("clayton", 1, 1)):
        table = {m: [list(pair) for pair in v] for m, v in TABLE1.table.items()}
        table[model][alpha_index][side] += SHIFT
        failures = gate.check_bounds(report, replace(TABLE1, table=table), samples)
        expect(len(failures) == 1 and failures[0].startswith(model),
               f"gate rejects a perturbed {model} reference value")
    bench = ((TABLE1.bench[0][0], TABLE1.bench[0][1] + SHIFT), TABLE1.bench[1])
    expect(len(gate.check_bounds(report, replace(TABLE1, bench=bench), samples)) == 1,
           "gate rejects a perturbed comonotone reference value")
    swapped = swapped_report(report, work / "swapped.csv")
    expect(any("ordering chain" in f for f in gate.check_bounds(swapped, TABLE1, samples)),
           "gate rejects a broken ordering chain")
    oracle = HERE / "_work" / "exact_oracle" / "out" / "oracle_report.csv"
    expect(gate.check_oracle(oracle, FAMILIES, samples) == [], "gate accepts the smoke oracle report")
    expect(gate.check_oracle(oracle, FAMILIES, 10**9) != [],
           "gate rejects sup distances outside a narrower DKW band")
    expect(gate.check_oracle(oracle, FAMILIES + ("extra",), samples) == ["extra: no oracle row"],
           "gate rejects a missing oracle model")


def tracing_checks() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from creditbounds import cli, risk, simulate

    stripped = types.SimpleNamespace(**{k: getattr(risk, k) for k in dir(risk) if k != "avar"})
    try:
        spans.Tracer(cli, stripped, simulate)
        raised = False
    except spans.MissingBoundary:
        raised = True
    expect(raised, "tracing fails when a named boundary no longer exists")
    tracer = spans.Tracer(cli, risk, simulate)
    with tracer.installed():
        tracer.call("cli.main", lambda: None)
    try:
        tracer.require(("cli.main", "risk.avar"))
        raised = False
    except spans.MissingBoundary as exc:
        raised = "risk.avar" in str(exc)
    expect(raised, "tracing fails when a named boundary records no span")
    expect(risk.avar.__module__ == "creditbounds.risk" and not hasattr(risk.avar, "__wrapped__"),
           "tracing restores every boundary")


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for name in WORKLOADS:
        smoke(name, 0, declared["end_to_end"])
        smoke(name, 1, declared["per_layer"])
    gate_checks()
    tracing_checks()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
