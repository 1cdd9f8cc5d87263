"""Record catalog_reference.json from the current library.

    python3 perfbench/record_reference.py

Runs every reproduce target once with --deterministic and stores, per
output file and numeric column, the row count, the column sum and sixteen
sampled rows.  The catalog workload checks each op against this record.
Re-record only when a change to the library says which numbers move and
why.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from workloads import REFERENCE  # noqa: E402


def main() -> int:
    from fermichain import cli

    out = ROOT / ".perfbench-run" / "reference"
    shutil.rmtree(out, ignore_errors=True)
    cfg = out / "config.json"
    out.mkdir(parents=True)
    cfg.write_text(json.dumps({"targets": "all"}))
    rc = cli.main(["reproduce", "--config", str(cfg), "--out", str(out), "--deterministic"])
    if rc != 0:
        return rc
    record = {}
    for name in cli.reproduce_catalog():
        record[name] = {p.name: checks.summarize_table(checks.read_table(p))
                        for p in sorted((out / name).glob("*.csv"))}
    REFERENCE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
