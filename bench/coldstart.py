"""Run one benchmark op in a fresh interpreter, as a user's process would.

Usage (from the checkout root): python3 bench/coldstart.py '<op json>' <work dir>

Prints one JSON line of time.perf_counter() stamps.  On Linux that clock is
CLOCK_MONOTONIC, shared by all processes, so the parent subtracts its own
stamp taken before the spawn to get the set-up time including interpreter
start-up.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    doc, work = json.loads(sys.argv[1]), Path(sys.argv[2])
    sys.path.insert(0, "src")
    t_import = time.perf_counter()
    import rotsurf.cli  # every CLI process pays this

    t_imported = time.perf_counter()
    from workloads import Op

    op = Op(**doc)
    if op.kind == "entry":
        from rotsurf.integrate import IntegratorConfig
        from rotsurf.shooting import classify_lambda, full_curve

        cfg = IntegratorConfig()
        classify_lambda(op.h, cfg)
        full_curve(op.h, cfg)
        rc = 0
    else:
        rc = rotsurf.cli.main(op.cli_argv(work))
    t_done = time.perf_counter()
    print(json.dumps({"import_start": t_import, "import_end": t_imported,
                      "op_end": t_done, "rc": rc}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
