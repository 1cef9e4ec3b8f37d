#!/usr/bin/env python3
"""Print one `name sha256` line per engine output, after a header naming
the Python version and the platform that computed them.

The outputs are the `verify(...).to_dict()` JSON of every
`bounds.entry_matrix()` pair at 2,000 points, the CSV and the SVG of every
figure, the detail string of every acceptance criterion and a fixed list of
`eval` tables.  Floats enter each digest through their shortest repr, so
two checkouts print the same lines exactly when every output is identical
bit for bit.  The lines are committed in `tests/output_digests.txt`, which
`tests/test_output_digests.py` checks; a change that moves an output on
purpose rewrites that file with this script, and its diff names each
moved output.

Usage:
    python scripts/output_digests.py > tests/output_digests.txt
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from spectral_riesz import bounds, cli, report, scan
from spectral_riesz.output import series_csv, series_svg

#: `eval` invocations whose tables are hashed: every family, each quantity,
#: a polyharmonic power, all three grid policies, a z list and JSON output.
EVAL_ARGS = (
    ["sphere:1", "N"], ["sphere:2", "R1"], ["sphere:3", "N"],
    ["sphere:5", "R1", "--grid", "uniform-in-w"],
    ["sphere:2", "R1", "--power", "2"],
    ["hemisphere-d:2", "N"], ["hemisphere-d:3", "R1"],
    ["hemisphere-n:4", "N", "--grid", "levels-plus-midpoints"],
    ["rp:3", "R2"], ["cp:4", "N"], ["hp:8", "R1"], ["cayley:16", "R2"],
    ["sphere:3", "R1", "--z", "0,1/3,3,7.5,1e6"],
    ["hemisphere-d:5", "N", "--format", "json"],
)


def header() -> str:
    """The platform line: floats pass through libm (`**`, `math.sqrt`), so
    another platform may differ in the last bit."""
    libc = " ".join(platform.libc_ver()).strip()
    return (f"{platform.python_implementation()} "
            f"{platform.python_version()} on {sys.platform} "
            f"{platform.machine()}{', ' + libc if libc else ''}")


def digest_lines():
    """The `name sha256` line of every output, in a fixed order."""
    lines = []

    def add(name: str, text: str):
        lines.append(f"{name} {hashlib.sha256(text.encode()).hexdigest()}")

    for bound_id, params in bounds.entry_matrix():
        rep = bounds.verify(bound_id, params, points=2000)
        add(f"verify:{bound_id}[{rep.params}]",
            json.dumps(rep.to_dict(), sort_keys=True))
    for fig_id in scan.FIGURES:
        series = scan.figure(fig_id)
        add(f"figure:{fig_id}.csv", series_csv(series))
        add(f"figure:{fig_id}.svg", series_svg(series))
    for number, _, check, _ in report.CRITERIA:
        try:
            detail = check()
        except AssertionError as exc:
            detail = f"FAILED: {exc}"
        add(f"report:criterion-{number}", detail)
    for args in EVAL_ARGS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["eval", *args])
        add(f"eval:{' '.join(args)}", f"{code}\n{out.getvalue()}")
    return lines


def main():
    print(f"# {header()}")
    print("\n".join(digest_lines()))


if __name__ == "__main__":
    main()
