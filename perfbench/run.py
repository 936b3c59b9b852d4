"""Entry point of the metarel benchmark.

    python3 perfbench/run.py --workload thz-sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a metarel checkout: it imports the package from
``src/`` next to this directory, and exits with an error, printing no
result, when that package is missing.  See ``perfbench/runner.py`` for what
a run measures and prints.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "metarel", "__init__.py")):
        sys.exit(f"perfbench: no metarel package under {SRC}; run from a metarel checkout")
    sys.path[:0] = [SRC, ROOT]
    import metarel

    if not os.path.abspath(metarel.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported metarel from {metarel.__file__}, not from {SRC}")
    from perfbench import runner

    sys.exit(runner.main())
