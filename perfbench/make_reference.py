"""Write the stored references of the two marches for the default seed.

    PYTHONPATH=src python3 perfbench/make_reference.py

The references hold each march's final frame and every Picard distance at
full and at smoke size, and ``reference/manifest.json`` holds their SHA-256
digests. They were made at the commit that added the benchmark. Run this
again only when a change to the numerics is intended and stated; a change
that claims only speed must match the stored files as they are.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

import cubelap
from workloads import DEFAULT_SEED, REFERENCE_DIR, WORKLOADS, reference_arrays, reference_path


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    manifest = {}
    for name in ("march_wide", "march_oracle"):
        for smoke in (True, False):
            workload = WORKLOADS[name]
            inputs = workload.build(cubelap, DEFAULT_SEED, smoke, Path("."))
            inputs["reference"] = None
            reports = workload.solve(cubelap, inputs)
            problems = workload.check(reports, inputs)
            if problems:
                print(f"{name} (smoke={smoke}): {problems}", file=sys.stderr)
                return 1
            path = reference_path(name, smoke)
            np.savez(path, **reference_arrays(reports))
            manifest[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"wrote {path.name}")
    (REFERENCE_DIR / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
