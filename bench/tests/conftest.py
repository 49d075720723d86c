"""Put the benchmark's modules and the checkout's motifshap sources on the
import path.

    python3 -m pytest bench/tests -q
"""

import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]
