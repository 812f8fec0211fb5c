"""Set-up as a user pays it: import gacalc and load the given configs.

    python3 perfbench/load.py FIXTURE.json ... [--map MAP.json ...]
"""

import argparse

from gacalc import cli  # noqa: F401  (the import a `gacalc` command pays)
from gacalc.fixtures import load_fixture_file, load_map_file

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("fixtures", nargs="*")
parser.add_argument("--map", dest="maps", action="append", default=[])
args = parser.parse_args()
for path in args.fixtures:
    load_fixture_file(path)
for path in args.maps:
    load_map_file(path)
