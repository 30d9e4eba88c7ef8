"""Run-to-run spread of the end-to-end metrics over several runs.

    python3 perfbench/spread.py RESULT_LINE_FILE...

Each file holds the output of one `run.py` run (its last line is the JSON
result). For every metric, prints the median, the quartiles and the
interquartile distance as a share of the median, next to the metric's
bound from BENCHMARK.json, with the failed share of the operations.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def main(paths: list[str]) -> int:
    bounds = {m["name"]: m.get("bound") for m in
              json.loads(BENCHMARK.read_text())["end_to_end"]} if BENCHMARK.exists() else {}
    results = [json.loads(Path(p).read_text().strip().splitlines()[-1]) for p in paths]
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"{len(results)} runs, correct: {all(r['correct'] for r in results)}, "
          f"failed shares: {shares}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        bound = bounds.get(name)
        print(f"{name:14s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
              f"spread {(q3 - q1) / med:6.3f}  bound {bound}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
