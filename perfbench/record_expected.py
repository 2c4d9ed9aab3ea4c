#!/usr/bin/env python3
"""Record the expected outputs the benchmark compares against: the fixed
part of a `checks` pass (expected/checks.json) and the exit code of every
fixed `cli` menu command in both formats, with its stdout in JSON format
(expected/cli.json).

usage: python3 perfbench/record_expected.py

Run it only on a commit whose outputs are known to be right; the files
then pin those outputs for every later run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as W  # noqa: E402
from worker import QCALC_ENTRY  # noqa: E402


def main() -> int:
    env = run.child_env()
    tmp = Path(tempfile.mkdtemp(dir=run.ROOT / ".perfbench_out"))
    try:
        empty = tmp / "empty.qlf"
        empty.write_text("")
        out = run.python([str(HERE / "checks_pass.py"), str(empty)], env).stdout
        fixed = json.loads(out)["fixed"]
        run.python(["scripts/export_derivations.py", str(tmp / "deriv")], env)
        cli = {}
        for key in W.CLI_MENU:
            cli[key] = {}
            for fmt in ("text", "json"):
                argv = W.cli_argv({"id": key, "format": fmt}, str(tmp / "deriv"))
                proc = subprocess.run([sys.executable, "-c", QCALC_ENTRY] + argv, env=env,
                                      cwd=run.ROOT, capture_output=True, text=True)
                cli[key][fmt] = {"exit": proc.returncode}
                if fmt == "json":
                    cli[key][fmt]["stdout"] = proc.stdout
    finally:
        shutil.rmtree(tmp)
    (HERE / "expected").mkdir(exist_ok=True)
    for name, data in (("checks.json", fixed), ("cli.json", cli)):
        with open(HERE / "expected" / name, "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
