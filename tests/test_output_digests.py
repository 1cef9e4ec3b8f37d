"""Every engine output against its committed digest.

`tests/output_digests.txt` holds one `name sha256` line per output (every
catalog pair's `verify` JSON, every figure's CSV and SVG, every criterion
detail and a fixed list of `eval` tables), as `scripts/output_digests.py`
prints them, after a header naming the platform that computed them.  A
change that moves an output on purpose rewrites the file, so the diff
names each moved output; any other move fails here by name.
"""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGESTS = os.path.join(ROOT, "tests", "output_digests.txt")


def _load_script():
    spec = importlib.util.spec_from_file_location(
        "output_digests", os.path.join(ROOT, "scripts", "output_digests.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _by_name(lines):
    # A name may hold spaces (`eval:sphere:5 R1 --grid ...`); the digest
    # is the last word.
    return dict(line.rsplit(" ", 1) for line in lines)


def test_every_output_matches_its_committed_digest():
    script = _load_script()
    with open(DIGESTS) as fh:
        committed = fh.read().splitlines()
    header = [line[2:] for line in committed if line.startswith("# ")]
    want = _by_name(line for line in committed if not line.startswith("#"))
    got = _by_name(script.digest_lines())
    moved = [name for name in want.keys() | got.keys()
             if want.get(name) != got.get(name)]
    assert not moved, (
        f"{len(moved)} outputs moved from tests/output_digests.txt "
        f"(committed on {' '.join(header)}; this is {script.header()}):\n"
        + "\n".join(sorted(moved)))
    assert list(got) == list(want)  # the same outputs, in the same order
