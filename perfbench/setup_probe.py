"""One fresh-interpreter set-up: import ``repro``, generate a workload's inputs.

Run as a child process by ``perfbench/run.py``, which times the whole
process from the outside as one ``setup_s`` sample.  Prints one JSON
object with the time of each import stage and of input generation::

    python3 perfbench/setup_probe.py --workload fleet --seed 3 --workdir DIR
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    clock = time.perf_counter
    t0 = clock()
    import repro.core  # noqa: F401  (the package root imports the core layer)

    t1 = clock()
    import repro.netsim.fleet  # noqa: F401
    import repro.netsim.packet.simulation  # noqa: F401

    t2 = clock()
    import repro.api  # noqa: F401  (campaign layer plus the experiment registry)

    t3 = clock()
    from perfbench.workloads import make_inputs

    make_inputs(args.workload, args.seed, args.workdir)
    t4 = clock()
    print(
        json.dumps(
            {
                "import.core_s": t1 - t0,
                "import.netsim_s": t2 - t1,
                "import.campaign_s": t3 - t2,
                "generate_s": t4 - t3,
            }
        )
    )


if __name__ == "__main__":
    main()
