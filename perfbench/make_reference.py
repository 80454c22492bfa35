"""Write perfbench/reference.json: the digests paper-suite checks answers against.

    python3 perfbench/make_reference.py

It records the SHA-256 of each claim record and of the whole
``verify-paper --format json`` report.  Regenerate it only when the report is
meant to change; a change that claims a speed-up keeps the report
byte-identical and leaves this file alone.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from cechlab import claims, cli  # noqa: E402


def main() -> int:
    suite = workloads.PaperSuite(seed=0)
    suite.claims, suite.cli = claims, cli
    exit_code, records = suite.claims.run_claim_suite()
    rc, text = suite.report_bytes(records, exit_code)
    if rc != 0:
        print(f"error: the claim suite exits {rc}", file=sys.stderr)
        return 1
    ref = {
        "claims": {r.claim_id: workloads.sha256(workloads.record_text(r)) for r in records},
        "report": workloads.sha256(text),
    }
    workloads.REFERENCE.write_text(json.dumps(ref, sort_keys=True, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
