"""Compare two saved benchmark reports (``run.py --out PATH``).

    python3 perfbench/compare.py BASE.json NEW.json

Prints every end-to-end metric of every workload present in both
reports, with its change and the bound ``BENCHMARK.json`` gives it.
Reports whose host fingerprints differ (CPU count or model, Python or
numpy version) are flagged as a cross-host comparison and are not
gated: the exit code is then 0.  Otherwise the exit code is 1 when a
metric is worse than its bound.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HOST_KEYS = ("cpu_count", "cpu_model", "python", "numpy")


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def compare(base: dict, new: dict, spec: dict):
    """Return (lines, regressed, cross_host) for two reports."""
    cross = [key for key in HOST_KEYS
             if base["host"].get(key) != new["host"].get(key)]
    lines = []
    if cross:
        lines.append("cross-host comparison (differs in "
                     f"{', '.join(cross)}): reported, not gated")
    regressed = False
    for workload in sorted(set(base["workloads"]) & set(new["workloads"])):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            old = base["workloads"][workload].get(name)
            now = new["workloads"][workload].get(name)
            if old is None or now is None:
                continue
            change = now / old - 1.0
            worse = -change if metric["better"] == "higher" else change
            verdict = "ok"
            if worse > metric["bound"]:
                verdict = "WORSE" if not cross else "worse (cross-host)"
                regressed = regressed or not cross
            lines.append(f"{workload:<16} {name:<12} {old:>12.6g} -> "
                         f"{now:>12.6g} {metric['unit']:<4} "
                         f"{100 * change:+7.2f}% (bound "
                         f"{100 * metric['bound']:.0f}%) {verdict}")
    return lines, regressed, bool(cross)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    spec = _load(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    lines, regressed, _ = compare(_load(argv[0]), _load(argv[1]), spec)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
