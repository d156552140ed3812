"""Record the analyze suite's outcome per product, labeling-independent.

    python3 perfbench/freeze.py

Rewrites ``frozen/analyze_suite_2026.json``, which the benchmark's
``analyze_suite`` gate compares every operation against.  Run it only at a
commit whose outcomes are the reference.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import (  # noqa: E402
    FROZEN, SUITE_SEED, analyze_record, digest, run_cli, suite_specs, take_report,
    write_specs,
)


def main() -> int:
    specs = suite_specs()
    outcomes = []
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        report = Path(tmp) / "report.json"
        for path in write_specs(specs, Path(tmp), "analyze"):
            rc, stderr = run_cli(["analyze", str(path), "--report", str(report), "--seed", "0"])
            outcomes.append(analyze_record(rc, take_report(report), stderr))
    FROZEN.write_text(json.dumps({
        "suite_seed": SUITE_SEED,
        "specs_sha256": digest(specs),
        "outcomes": outcomes,
    }, indent=1) + "\n")
    print(f"{sum(o['ok'] for o in outcomes)}/{len(outcomes)} ok; wrote {FROZEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
