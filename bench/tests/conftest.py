import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
# the benchmark's modules import each other as top-level names, as run.py does
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))
