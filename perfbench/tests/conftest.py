import sys
from pathlib import Path

# The benchmark's modules import each other as siblings, as run.py does.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
