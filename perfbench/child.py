"""One operation's command, run in this fresh process, which then writes its
own peak RSS in KiB to RSS_FILE.

    python3 perfbench/child.py RSS_FILE cli ARGS...      # as the dafr command
    python3 perfbench/child.py RSS_FILE ingest DATA_CSV MODEL_JSON

``cli`` calls ``dafr.cli.main(ARGS)``, which is what the installed ``dafr``
command runs. ``ingest`` runs ``ingest_child.main``. The exit code is the
command's.

The peak comes from VmHWM in /proc/self/status (Linux), the high-water mark
of this process's own memory since exec. The ru_maxrss that wait4 returns
would not do: Linux carries the parent's peak RSS into a child through fork
and exec, so it reads the benchmark process's size whenever that is the
larger.
"""

from __future__ import annotations

import sys
from pathlib import Path


def peak_rss_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


def main(argv: list[str]) -> int:
    rss_path, what, *args = argv
    try:
        if what == "cli":
            from dafr import cli
            return cli.main(args)
        import ingest_child
        return ingest_child.main(args)
    finally:
        Path(rss_path).write_text(f"{peak_rss_kib()}\n", encoding="ascii")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
