"""Compare two benchmark result files written by run.py.

    python3 bench/compare.py bench/out/case-solve-seed1-trace0.json other.json

Prints the largest absolute difference between the two final maps'
predictions on the solver's audit grid (max |dqhat|), whether the per-path
(tau, cost) digests agree, and each shared metric side by side. A change
that reorders floating-point sums states its deviation bound from this.
Exit code 0 when the files are comparable, 2 when they are not.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path


def max_abs_diff(a: list[float], b: list[float]) -> float:
    return max((abs(x - y) for x, y in zip(a, b)), default=0.0)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    for key in ("workload", "seed"):
        if a[key] != b[key]:
            print(f"not comparable: {key} {a[key]!r} vs {b[key]!r}", file=sys.stderr)
            return 2
    qa, qb = a["fingerprint"]["qhat"], b["fingerprint"]["qhat"]
    if len(qa) != len(qb):
        print(f"not comparable: audit grids of {len(qa)} and {len(qb)} points",
              file=sys.stderr)
        return 2
    same = a["fingerprint"]["paths_digest"] == b["fingerprint"]["paths_digest"]
    print(f"{a['workload']} seed={a['seed']}")
    print(f"max |dqhat| = {max_abs_diff(qa, qb):.3g} over {len(qa)} audit-grid points")
    print(f"per-path (tau, cost) digest: {'identical' if same else 'DIFFERENT'}")
    ma, mb = a["metrics"], b["metrics"]
    for name in [k for k in ma if k in mb]:
        va, vb = ma[name]["value"], mb[name]["value"]
        change = f"{(vb - va) / va:+.1%}" if va else ""
        print(f"  {name:28s} {va:14.6g} {vb:14.6g} {change:>8s} {ma[name]['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
