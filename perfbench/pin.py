"""Pin the correctness reference: one whole pass per workload, digests to reference.json.

Run from the repository root, on the commit whose results are to be trusted:

    python3 perfbench/pin.py [workload ...]

Each input that completes gets the digest of its label-invariant results; an
input that fails (deadline, exception, memory) is pinned as null, so its
invariants are not checked until a fix makes it complete.  Takes about three
minutes on a 2-CPU machine.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from run import HERE, WORKLOADS, child_command, child_env


def main(names: list[str]) -> int:
    path = os.path.join(HERE, "reference.json")
    reference = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            reference = json.load(fh)
    for name in names or WORKLOADS:
        done = subprocess.run(child_command(name, 0, 0, "--full"), stdout=subprocess.PIPE,
                              env=child_env(), text=True, check=True)
        report = json.loads(done.stdout.strip().splitlines()[-1])
        pinned = {}
        for rec in report["records"]:
            if rec["status"] == "false":
                print(f"{name} input {rec['key']}: false verdict, refusing to pin", file=sys.stderr)
                return 1
            pinned[rec["key"]] = rec.get("digest") if rec["status"] == "ok" else None
        reference[name] = dict(sorted(pinned.items()))
        failed = [k for k, v in pinned.items() if v is None]
        print(f"{name}: {len(pinned)} inputs pinned, failed at pin time: {failed}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
