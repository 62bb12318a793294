"""Reference fingerprints the benchmark checks every pass against.

``golden.json`` holds, per workload, the configuration it was computed
at and one reference fingerprint per seed, for one Python and numpy
version.  When the environment, the configuration or the seed has no
entry, the benchmark recomputes the reference after its timed section.

Regenerate after a deliberate change to decisions, bytes or joules
(seeds 0-31 by default; about 15 minutes on a 2-core Xeon)::

    python benchmarks/e2e/golden.py [--seeds 0-31]
"""

from __future__ import annotations

import argparse
import json
import platform
import tempfile
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def environment() -> "dict[str, str]":
    """The versions a fingerprint is valid for."""
    import numpy

    return {
        "python": ".".join(platform.python_version_tuple()[:2]),
        "numpy": numpy.__version__,
    }


def load(path: Path = GOLDEN_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def lookup(golden: dict, case, seed: int) -> "str | None":
    """The golden fingerprint of *case* at *seed*, if one applies."""
    if golden.get("environment") != environment():
        return None
    entry = golden.get("workloads", {}).get(case.name)
    if entry is None or entry.get("config") != _canonical(case.config()):
        return None
    return entry.get("fingerprints", {}).get(str(seed))


def _canonical(config: dict) -> dict:
    return json.loads(json.dumps(config))


def _seed_range(text: str) -> "list[int]":
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: "list[str] | None" = None) -> int:
    # run.py puts the source tree on the path and pins the BLAS threads,
    # so the references are computed exactly as the benchmark runs them.
    import run
    from workloads import WORKLOADS, make_workload

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seed_range, default=_seed_range("0-31"))
    parser.add_argument("--out", type=Path, default=GOLDEN_PATH)
    args = parser.parse_args(argv)
    golden: dict = {"environment": environment(), "workloads": {}}
    with tempfile.TemporaryDirectory(prefix=".e2e-", dir=run.REPO) as scratch:
        for name in WORKLOADS:
            case = make_workload(name)
            fingerprints = {}
            for seed in args.seeds:
                inputs = case.setup(seed, Path(scratch))
                fingerprints[str(seed)] = case.reference(inputs)
                print(f"{name} seed {seed}: {fingerprints[str(seed)]}", flush=True)
            golden["workloads"][name] = {
                "config": _canonical(case.config()),
                "fingerprints": fingerprints,
            }
    args.out.write_text(json.dumps(golden, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
