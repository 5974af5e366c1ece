"""Record the digest and record count of every op into ``expected.json``.

    python3 bench/record_expected.py

The benchmark compares each op's output digest with this file and
reports, without failing, the ops whose output differs.  Re-record only
when a change alters reports on purpose, and say so in its description.
"""

from __future__ import annotations

import json

import inputs
import run


def main() -> None:
    ops = inputs.every_op()
    (run.WORK / "reports").mkdir(parents=True, exist_ok=True)
    ops_path = run.WORK / "ops-every.json"
    ops_path.write_text(json.dumps(ops))
    result = run.run_pass(ops_path, False, None)
    if result is None:
        raise SystemExit("the recording pass failed")
    expected = {}
    for op, r in zip(ops, result["ops"]):
        if "error" in r:
            raise SystemExit(f"{inputs.op_label(op)}: {r['error']}")
        expected[inputs.op_label(op)] = {"digest": r["digest"], "records": r["records"]}
    run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(expected)} ops in {run.EXPECTED}")


if __name__ == "__main__":
    main()
