"""Write reference/verify-all.json from ``qgk verify --suite all --jobs 1``.

    python3 perfbench/make_reference.py

The reference keeps each claim's verdict and its (point, order) violation
set, the summary and the report's sha256.  Regenerate it only when a change
is meant to alter verdicts or violation sets, and say so in the change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from qgammakit import cli  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        _, report, rc = workloads.verify_pass(cli.main, workloads.verify_argv(1, Path(tmp) / "r.json"))
    if rc != 0:
        print(f"qgk verify exited with {rc}; reference not written", file=sys.stderr)
        return 1
    record = workloads.reference_record(report)
    path = HERE / "reference" / "verify-all.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"{path}: {record['summary']} sha256={record['sha256']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
