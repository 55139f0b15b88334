"""Cold-start cost of `import jsrcert` in two checkouts.

    python tools/import_time.py CHECKOUT_A CHECKOUT_B

Each of the PAIRS pairs runs `python -c "import jsrcert"` once per checkout,
in a fresh interpreter with that checkout's `src/` on PYTHONPATH; the side
that runs first alternates from pair to pair, so drift in the machine's speed
falls on both sides alike.  Prints, per checkout, the median and quartiles of the wall
time and the number of modules the import leaves in `sys.modules`.
Standard library only.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

PAIRS = 15


def _run(src: Path, code: str) -> tuple[float, str]:
    env = dict(os.environ, PYTHONPATH=str(src))
    t = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return time.perf_counter() - t, out.strip()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs=2, type=Path, metavar="CHECKOUT")
    args = parser.parse_args()
    srcs = [checkout.resolve() / "src" for checkout in args.checkouts]
    for src in srcs:  # also compiles each side's bytecode before timing
        _, where = _run(src, "import jsrcert; print(jsrcert.__file__)")
        if not Path(where).is_relative_to(src):
            parser.error(f"{src} does not hold the jsrcert it imports ({where})")
    times = [[], []]
    for pair in range(PAIRS):
        for side in (0, 1) if pair % 2 == 0 else (1, 0):
            times[side].append(_run(srcs[side], "import jsrcert")[0])
    for checkout, src, side in zip(args.checkouts, srcs, times):
        modules = _run(src, "import sys, jsrcert; print(len(sys.modules))")[1]
        q1, median, q3 = statistics.quantiles(side, n=4)
        print(f"{checkout}: median {median:.3f} s, quartiles {q1:.3f}-{q3:.3f} s, "
              f"{len(side)} runs, {modules} modules")


if __name__ == "__main__":
    main()
