#!/usr/bin/env python3
"""Regenerate ``bench/golden.json``, the expected outputs of the CLI workloads.

Usage (from the repository root): python3 bench/make_golden.py

Records the sha256 of stdout for every argv of the ``build`` op space and
the (check, checked) list of every ``verify`` op, each from one
in-process ``cli.main`` call.  Run it only when an output is meant to
change, and review the diff: the benchmark fails every op whose output
no longer matches.
"""

from __future__ import annotations

import json
import sys

from run import SRC_DIR, import_package
from workloads import (
    GOLDEN_PATH,
    argv_key,
    build_argvs,
    digest,
    run_cli,
    verify_argvs,
    verify_checked,
)


def main() -> int:
    sys.path.insert(0, str(SRC_DIR))
    cli = import_package().cli
    golden = {"build": {}, "verify": {}}
    for argv in build_argvs():
        code, stdout = run_cli(cli, argv)
        if code != 0:
            raise SystemExit(f"{argv_key(argv)} exited {code}")
        golden["build"][argv_key(argv)] = digest(stdout)
    for argv in verify_argvs():
        code, stdout = run_cli(cli, argv)
        checked = verify_checked(stdout)
        if code != 0 or checked is None:
            raise SystemExit(f"{argv_key(argv)} failed")
        golden["verify"][argv_key(argv)] = checked
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH.name}: {len(golden['build'])} build digests, "
          f"{len(golden['verify'])} verify ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
