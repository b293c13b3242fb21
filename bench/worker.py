"""One workload round in a fresh process.

Times the CLI verb (gcim.cli.main) from call to return, reads the process's
peak resident memory, then times gcim.cli.build_system on the same config as
separate calls, at least SETUP_CALLS of them and at least SETUP_SECONDS in
all.  With --spans the CLI call runs traced instead, the spans are written to
that file and no set-up calls are made.  An exception out of the CLI call is
reported as exit code 1.  The last stdout line is a JSON object with the
measurements.

    python3 bench/worker.py --root . --verb run --config C --out D --seed 0
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

SETUP_CALLS = 3            # set-up calls per round: at least this many ...
SETUP_SECONDS = 2.0        # ... and at least this long in all


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True, help="checkout holding src/gcim")
    ap.add_argument("--verb", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--spans", default=None, help="trace the CLI call into this file")
    args = ap.parse_args()

    src = (Path(args.root) / "src").resolve()
    sys.path.insert(0, str(src))
    import gcim
    from gcim import cli

    if Path(gcim.__file__).resolve().parent != src / "gcim":
        raise SystemExit(f"imported gcim from {gcim.__file__}, not from {src}")

    argv = [args.verb, "--config", args.config, "--out", args.out, "--seed", args.seed]
    tracer = None
    if args.spans:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    tick = time.perf_counter()
    try:
        if tracer is not None:
            code = tracer.call("cli.main", cli.main, argv)
        else:
            code = cli.main(argv)
    except Exception:  # a crash in the program is a failed round, not a dead benchmark
        traceback.print_exc()
        code = 1
    wall = time.perf_counter() - tick
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"exit_code": code, "wall_s": wall, "peak_rss_mb": peak_mib,
              "setup_s": []}
    if tracer is not None:
        tracer.dump(Path(args.spans))
        result["layers"] = tracer.summary()
    else:
        cfg = cli.load_config(args.config, seed=int(args.seed), out_dir=args.out)
        samples = result["setup_s"]
        while len(samples) < SETUP_CALLS or sum(samples) < SETUP_SECONDS:
            tick = time.perf_counter()
            cli.build_system(cfg)
            samples.append(time.perf_counter() - tick)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
