"""Record ``reference.json``: digests of every experiment's text at the
benchmark's scale (``paper.SCALE``).

Run from the checkout root, only on a commit whose output is known to
be right (the benchmark holds every later commit to it)::

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile

from common import BENCH_DIR, SRC, check_checkout, child_env, make_workdir
from paper import SCALE
from verify import REFERENCE_PATH, digest, parse_blocks


def main() -> int:
    check_checkout()
    sys.path.insert(0, str(SRC))
    from repro.analysis import experiments

    deterministic = {exp.id: exp.deterministic for exp in experiments.all_experiments()}
    workdir = make_workdir("reference")
    with tempfile.TemporaryDirectory(dir=workdir) as cache:
        env = child_env(workdir, {"REPRO_CACHE_DIR": cache})
        argv = [sys.executable, str(BENCH_DIR / "paper_child.py"), "plain",
                str(workdir / "marker.json"), str(SCALE)]
        out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    shutil.rmtree(workdir)
    blocks = parse_blocks(out.stdout, deterministic)
    if set(blocks) != set(deterministic):
        raise SystemExit(f"output lacks {sorted(set(deterministic) - set(blocks))}")
    reference = {
        "scale": SCALE,
        "experiments": {
            eid: digest(blocks[eid]) if deterministic[eid] else None
            for eid in sorted(deterministic)
        },
    }
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {REFERENCE_PATH} ({len(blocks)} experiments, scale {SCALE})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
