"""Fresh-process probes started by `run.py`.

    child.py import                    seconds to import wiretapnc
    child.py setup WORKLOAD WORKDIR    seconds of the workload's set-up
    child.py cli SUMMARY -- ARGV...    traced `wiretapnc` command; writes the
                                       span summary to SUMMARY as JSON and
                                       the spans to SUMMARY.npz

The import and set-up probes report reference seconds (see `calibrate.py`),
calibrated inside the probe's own process.

Each probe prints its result as the last line of standard output.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import calibrate
import workloads


def _import():
    import wiretapnc  # noqa: F401


def _setup(workload, work):
    _, load, _ = workloads.WORKLOADS[workload]
    import wiretapnc
    import wiretapnc.serialize  # noqa: F401
    load(Path(work), wiretapnc)


def main(argv):
    sys.path.insert(0, str(workloads.SRC))
    mode = argv[0]
    if mode in ("import", "setup"):
        out, _, ref = calibrate.timed(_import if mode == "import" else lambda: _setup(*argv[1:3]))
        if isinstance(out, Exception):
            raise out
        print(ref)
        return 0
    if mode == "cli":
        import spans

        out, rest = argv[1], argv[argv.index("--") + 1:]
        tracer = spans.Tracer()
        tracer.install()
        import wiretapnc.cli

        try:
            rc = wiretapnc.cli.main(rest)
        finally:
            tracer.uninstall()
            with open(out, "w") as fh:
                json.dump(tracer.summary(), fh)
            tracer.write(out + ".npz")
        return rc
    raise SystemExit(f"unknown probe {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
