"""``python -m benchmarks.focusbench`` is ``benchmarks/focusbench/run.py``."""

import sys

from benchmarks.focusbench.run import main

sys.exit(main())
