"""One fresh interpreter of the set-up measurement (see run.measure_setup).

    python3 bench/setup_probe.py <workload> <seed> <outdir>

Imports sbtkit, builds the workload's first op and runs it, sampling host
speed from the start; prints the samples as JSON.  Exits 1 if the op fails.
"""

import json
import sys

import hostspeed


def main() -> int:
    workload, seed, outdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sampler = hostspeed.HostSampler()
    with sampler:
        import run
        import workloads

        _, failure = run.run_op(workloads.OpStream(workload, seed).next_op(), outdir)
    print(json.dumps({"samples_ms": sampler.samples}))
    if failure:
        sys.stderr.write(f"setup op failed: {failure}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
