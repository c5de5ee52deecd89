"""Pin the SHA-256 of every fixed-workload output, and the verdicts of
every ``verify`` command, into baseline.json.

    python3 perfbench/pin_digests.py

Run it on the commit whose outputs are the reference; later commits must
reproduce these bytes.  Other sections of baseline.json are kept.
"""

import json
import sys

import run
import workloads
from checks import digest, verify_verdicts


def main() -> int:
    from rotsurf4.cli import main as cli_main

    run.OUT.mkdir(exist_ok=True)
    digests, verdicts = {}, {}
    for name in workloads.NAMES:
        workload = workloads.build(name, 0)
        if workload.seeded:
            continue
        for cmd in workload.commands:
            outcome = run.run_command(cli_main, cmd)
            if outcome.exit_code != 0:
                print(f"{cmd.key}: exit {outcome.exit_code}", file=sys.stderr)
                return 1
            if outcome.output is not None:
                digests[cmd.key] = digest(outcome.output)
            if cmd.kind == "verify":
                verdicts[cmd.key] = verify_verdicts(outcome.stdout)
    pins = json.loads(run.BASELINE.read_text()) if run.BASELINE.exists() else {}
    pins.update(digests=digests, verify_verdicts=verdicts)
    run.BASELINE.write_text(json.dumps(pins, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
