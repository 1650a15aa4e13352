"""Record the SHA-256 of every workload variant's CSV into digests.json.

Usage (from the root of a relsim checkout):

    python3 perfbench/record_digests.py [WORKLOAD ...]

Runs each variant of the named workloads (all of them by default) once,
untraced, and stores the digest of the CSV bytes it wrote.  Re-record
only as a deliberate re-baseline of relsim's output.
"""

from __future__ import annotations

import json
import sys

import run
from calibrate import Reference
from workloads import VARIANTS, WORKLOADS, generate


def main(argv: list[str]) -> int:
    names = argv or sorted(WORKLOADS)
    run.OUT.mkdir(exist_ok=True)
    reference = Reference()
    for name in names:
        digests = {}
        for variant in range(VARIANTS):
            inputs = run.OUT / f"record-{name}-{variant}-inputs.json"
            configs = generate(name, variant)
            inputs.write_text(json.dumps(configs))
            result = run.run_pass(inputs, f"record-{name}-{variant}", "run", reference)
            failed, problem = run.check_pass(result, result.get("digest"), len(configs))
            if failed or problem:
                print(f"{name} variant {variant}: {problem or f'{failed} runs failed'} "
                      f"{result.get('error', '')}", file=sys.stderr)
                return 1
            digests[str(variant)] = result["digest"]
            print(f"{name} {variant} {result['digest']} {result['duration']:.1f}s", flush=True)
        # re-read so that concurrent recordings of other workloads are kept
        stored = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.exists() else {}
        stored.setdefault("sha256", {})[name] = digests
        run.DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
