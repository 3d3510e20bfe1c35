"""Entry point for ``python -m benchmarks.paper``."""

import sys

from benchmarks.paper.harness import main

if __name__ == "__main__":
    sys.exit(main())
