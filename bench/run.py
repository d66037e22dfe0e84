"""Command-line entry of the revnet benchmark.

    python3 bench/run.py --workload small-rn --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. It prints a readable summary, then,
as the last line of standard output, one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer ones with --trace 1. The full record (machine
facts, every step time, checks, and with --trace 1 the spans) goes to
.bench_out/ under the checkout. Exit code 0 means the outputs were
correct; 1 means a check failed; 2 means the run could not start.

The BLAS thread count is fixed in the environment before numpy is
imported: OpenBLAS reads it only when it loads.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# One BLAS thread: on a shared 2-CPU machine two threads made the small-rn
# step slower and spread its run medians twice as wide.
BLAS_THREADS = 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "revnet" / "__init__.py").is_file():
        print(f"bench: no revnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    os.environ["REVNET_CONV_BACKEND"] = "native"
    sys.path.insert(0, str(ROOT / "src"))
    import harness  # imports numpy, so only after the environment is set

    if args.workload not in harness.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {', '.join(harness.WORKLOADS)}",
              file=sys.stderr)
        return 2
    record = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         out_dir=str(ROOT / ".bench_out"), blas_threads=threads)

    d = record["detail"]
    facts = d["facts"]
    print(f"workload {args.workload} seed {args.seed}: {record['attempted']} steps, "
          f"{record['failed']} failed (ops_failed_frac {d['ops_failed_frac']:.4g})")
    print(f"machine: nproc {facts['nproc']}, python {facts['python']}, numpy {facts['numpy']}, "
          f"{facts['blas']} with {facts['blas_threads']} thread(s), conv backend "
          f"{facts['conv_backend']}, sgemm ceiling {facts['sgemm_ceiling_gflops']:.1f} GFLOP/s")
    if "steps" in d:
        print(f"step_ms_tail is p{d['step_ms_tail_percentile']:.0f} of {d['steps']} steps")
    for key in ("train_images_per_s", "eval_images_per_s", "reconstruct_images_per_s",
                "generate_images_per_s"):
        if key in d:
            print(f"  {key:<34} {d[key]:.6g} images/s")
    for name, m in record["metrics"].items():
        print(f"  {name:<34} {m['value']:.6g} {m['unit']}")
    for problem in record["problems"]:
        print(f"FAILED CHECK: {problem}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
