import sys
from pathlib import Path

from hypothesis import settings

# allow running the suite from a source checkout without installing
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# Property tests replay the same examples on every run, never time out on a
# slow host and keep their example count bounded so the suite stays fast.
settings.register_profile("hybridflow", derandomize=True, deadline=None,
                          max_examples=60, database=None)
settings.load_profile("hybridflow")
