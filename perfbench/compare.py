"""Steadiness and agreement of benchmark runs.

    python3 perfbench/compare.py SET [SET2]

A set is a directory of run records as ``run.py`` writes them to
``.perfbench_out/`` (copy that directory aside after each set of runs).  For
every workload and end-to-end metric in BENCHMARK.json the script prints the
median and the quartile spread as a share of the median, next to the
metric's bound, and the percentile of pass wall times with ten passes beyond
it, pooled over the set.  Given a second set it also prints whether each
second median is within the bound of the first, and whether reference-pass
fingerprints and exact counts agree between runs of the two sets.  It exits
with status 1 when a check fails.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(directory: Path) -> dict:
    """(workload, trace) -> {seed: record}."""
    runs: dict = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())["record"]
        runs.setdefault((record["workload"], record["trace"]), {})[record["seed"]] = record
    return runs


def _spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("inf")


def _tail(walls):
    n = len(walls)
    if n < 11:
        return f"fewer than 11 passes ({n})"
    return f"p{100.0 * (n - 10) / n:.0f} {sorted(walls)[n - 11]:.4g} s over {n} passes"


def _worse(metric, first, second):
    change = (second - first) / abs(first) if first else 0.0
    return -change if metric["better"] == "higher" else change


def _same_prefix(a, b):
    """Runs of one seed make as many passes as their time allows; the passes
    both made must match."""
    n = min(len(a), len(b))
    return a[:n] == b[:n]


def _reference(record):
    """Reference-pass fingerprints and pass-0 counts: the same in every run."""
    fps = next(fp for fp in record["fingerprints"] if fp["k"] == 0 and not fp["traced"])
    return fps, record.get("counts", {}).get("0")


def main(argv) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [_load(Path(a)) for a in argv]
    ok = True
    for wl in (w["name"] for w in spec["workloads"]):
        runs = [s.get((wl, 0), {}) for s in sets]
        if not all(len(r) >= 2 for r in runs):
            print(f"{wl}: fewer than two untraced runs in a set, skipped")
            continue
        print(f"{wl}: {' / '.join(str(len(r)) for r in runs)} runs")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            line = f"  {name:12s}"
            medians = []
            for r in runs:
                med, spread = _spread([rec["metrics"][name]["value"] for rec in r.values()])
                medians.append(med)
                steady = name == "setup_s" or spread <= bound
                ok &= steady
                line += f" median {med:.6g} spread {spread:.3f}{'' if steady else ' (over bound)'}"
            line += f" bound {bound}"
            if len(medians) == 2:
                worse = _worse(metric, *medians)
                ok &= worse <= bound
                line += f" second worse by {worse:+.3f}{'' if worse <= bound else ' (over bound)'}"
            print(line)
        for i, r in enumerate(runs):
            walls = [w for rec in r.values() for w in rec["pass_wall_s"]]
            print(f"  set {i + 1} pass wall: median {statistics.median(walls):.4g} s, {_tail(walls)}")
        all_runs = [rec for s in sets for key in ((wl, 0), (wl, 1)) for rec in s.get(key, {}).values()]
        refs = {json.dumps(_reference(rec)[0], sort_keys=True) for rec in all_runs}
        counts = {json.dumps(_reference(rec)[1], sort_keys=True) for rec in all_runs if rec["trace"]}
        same = len(refs) == 1 and len(counts) <= 1
        ok &= same
        print(f"  reference fingerprints identical in {len(all_runs)} runs: {len(refs) == 1}; "
              f"exact counts identical in {sum(rec['trace'] for rec in all_runs)} traced runs: {len(counts) <= 1}")
        if len(sets) == 2:
            common = set(runs[0]) & set(runs[1])
            differ = [s for s in common if not _same_prefix(runs[0][s]["fingerprints"], runs[1][s]["fingerprints"])]
            ok &= not differ
            print(f"  same-seed fingerprints agree between sets for {len(common) - len(differ)} of {len(common)} seeds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
