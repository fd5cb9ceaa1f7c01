"""Regenerate reference.json: the invariant columns of each workload's run.

    python3 perfbench/make_reference.py

The run uses the config's default transverse direction, so the reference
does not depend on any benchmark seed.  Rerun only when a change is meant to
move these columns, and say so in the change.
"""

import json
import shutil
import sys

from run import CONFIG, OUT, REFERENCE, call_cli, load_cli
from workloads import INVARIANT_COLUMNS, WORKLOADS, commands, read_columns


def main() -> int:
    cli_main = load_cli()
    work = OUT / "reference"
    reference = {}
    try:
        for name, workload in WORKLOADS.items():
            shutil.rmtree(work, ignore_errors=True)
            argv = commands(workload, str(CONFIG), str(work), None)[0]
            code, _ = call_cli(cli_main, argv)
            if code != 0:
                print(f"{name}: run exited with code {code}", file=sys.stderr)
                return 1
            columns = read_columns(str(work / "diagnostics.csv"))
            reference[name] = {c: columns[c] for c in INVARIANT_COLUMNS}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
