"""Mutation check: every mutant in `MUTANTS` must make the test suite fail.

    python tests/mutants.py [SELECTION ...]

The script first runs pytest on SELECTION (default `tests`) against an
unmutated copy of `src/`, which must pass. Then, for each mutant, it copies
`src/` to a temporary directory, replaces the mutant's old text (which must
occur exactly once in its file) with its new text, and runs the same
selection with that copy first on PYTHONPATH. The mutant is killed when
pytest reports failing tests (exit code 1), and survives when it passes.
Every run stops at its first failure (`-x`) and deselects the golden outputs
and the traffic stream digest, so the remaining tests must catch each mutant
on their own; a mutant they kill is also killed with the goldens selected.
Tests that start a subprocess put `src/` after an existing PYTHONPATH, so
those subprocesses import the mutated copy too. The file name has no `test_`
prefix, so pytest does not collect it.

Exit status: 0 when every mutant is killed, 1 when one survives, 2 when a
mutant's old text is missing or not unique, the unmutated run does not pass,
or pytest exits with any code but 0 or 1 (interrupted, internal or usage
error, no tests collected).
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
NO_GOLDENS = ("tests/test_golden.py", "tests/test_traffic.py::test_traffic_stream_digest")


class Mutant(NamedTuple):
    name: str
    file: str  # under src/beenoc
    old: str
    new: str


MUTANTS = (
    Mutant(
        "release-prefix",
        "engine.py",
        "route = PortList(bee.path.bits & ((1 << 2 * reserved) - 1), reserved)",
        "route = PortList(bee.path.bits >> 2 * (bee.path.length - reserved), reserved)",
    ),
    Mutant(
        "route-index",
        "engine.py",
        "index = (self.clock - bee.start) // self._t_hop",
        "index = (self.clock - bee.start) // self._t_hop + 1",
    ),
    Mutant(
        "elision-window",
        "engine.py",
        "else config.max_cycles - config.t_hop",
        "else config.max_cycles",
    ),
    Mutant(
        "wave-split",
        "engine.py",
        "send = None  # its backward bee follows the copies queued so far",
        "pass",
    ),
    Mutant(
        "flood-admission",
        "engine.py",
        "if port is arrival_port or free[slot] < wires:",
        "if port is arrival_port or free[slot] <= wires:",
    ),
    Mutant(
        "race-loss-index",
        "engine.py",
        "(phase is _ESTABLISHED and index == bee.path.length)",
        "(phase is _ESTABLISHED and index == bee.path.length - 1)",
    ),
    Mutant(
        "settled-clause-dropped",
        "engine.py",
        "if phase in _SETTLED or (phase is _ESTABLISHED and index == bee.path.length):",
        "if phase is _ESTABLISHED and index == bee.path.length:",
    ),
    Mutant(
        "lost-race-clause-dropped",
        "engine.py",
        "if phase in _SETTLED or (phase is _ESTABLISHED and index == bee.path.length):",
        "if phase in _SETTLED:",
    ),
    Mutant(
        "empty-release-sent",
        "engine.py",
        "if reserved > 0:",
        "if reserved >= 0:",
    ),
    Mutant(
        "router-index-zero",
        "router.py",
        "if not 1 <= index <= length:",
        "if not 0 <= index <= length:",
    ),
    Mutant(
        "link-check-upper-bound",
        "topology.py",
        "if 0 <= self.free_by_slot[index] <= self.wire_count:",
        "if 0 <= self.free_by_slot[index]:",
    ),
    Mutant(
        "release-wires",
        "engine.py",
        "port = router.handle_control(node, pkt, (self.clock - pkt.start) // self._t_hop, self.network, wires)",
        "port = router.handle_control(node, pkt, (self.clock - pkt.start) // self._t_hop, self.network, 1)",
    ),
    Mutant(
        "trace-route-index",
        "engine.py",
        "payload, port, (clock - payload.start) // self._t_hop)",
        "payload, port, (clock - payload.start) // self._t_hop + 1)",
    ),
    Mutant(
        "wire-slack",
        "topology.py",
        "math.ceil(Fraction(repr(bandwidth)) / Fraction(repr(self.wire_bandwidth)))",
        'math.ceil(Fraction(repr(bandwidth)) / Fraction(repr(self.wire_bandwidth)) - Fraction("1e-9"))',
    ),
)

# Left out as equivalent: `_forward_cap` at 8 * node_count instead of 4. A flow
# sends at most one forward copy per directed link, so its forward deliveries
# never exceed len(network.links), which is below 4 * node_count; no input
# reaches the cap at 4N or at 8N.


def check_list(mutants) -> list[str]:
    """Problems with the list itself: an old text that is missing or not unique."""
    problems = []
    for mutant in mutants:
        count = (ROOT / "src" / "beenoc" / mutant.file).read_text(encoding="utf-8").count(mutant.old)
        if count != 1:
            problems.append(f"{mutant.name}: old text found {count} times in {mutant.file}")
    return problems


def run_pytest(src: Path, args: list[str]) -> int:
    """pytest's exit code on `args` with `src` first on PYTHONPATH."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH", "")])))
    probe = subprocess.run(
        [sys.executable, "-c", "import beenoc; print(beenoc.__file__)"], env=env, capture_output=True, text=True
    )
    if Path(probe.stdout.strip()).resolve() != (src / "beenoc" / "__init__.py").resolve():
        raise SystemExit(f"the copy of src/ is not the imported beenoc: {probe.stdout.strip() or probe.stderr}")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *args]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def run_on(mutant: Mutant | None, args: list[str]) -> int:
    """pytest's exit code on `args` against a copy of src/ with `mutant` applied (None: unmutated)."""
    with tempfile.TemporaryDirectory(prefix="beenoc-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        if mutant is not None:
            path = src / "beenoc" / mutant.file
            path.write_text(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8")
        return run_pytest(src, args)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("selection", nargs="*", default=["tests"], help="pytest selection (default: tests)")
    args = parser.parse_args(argv)

    problems = check_list(MUTANTS)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2

    pytest_args = list(args.selection) + [f"--deselect={nodeid}" for nodeid in NO_GOLDENS]
    started = time.perf_counter()
    code = run_on(None, pytest_args)
    print(f"{'unmutated':26} {time.perf_counter() - started:6.1f} s  pytest exit {code}", flush=True)
    if code != 0:
        print("the selection does not pass on the unmutated source", file=sys.stderr)
        return 2
    survivors = []
    for mutant in MUTANTS:
        began = time.perf_counter()
        code = run_on(mutant, pytest_args)
        if code not in (0, 1):
            print(f"{mutant.name}: pytest exited {code}, which is not a test verdict", file=sys.stderr)
            return 2
        if code == 0:
            survivors.append(mutant.name)
        verdict = "killed" if code == 1 else "SURVIVED"
        print(f"{mutant.name:26} {time.perf_counter() - began:6.1f} s  {verdict}", flush=True)
    print(f"{len(MUTANTS)} mutants in {time.perf_counter() - started:.1f} s; survivors: {', '.join(survivors) or 'none'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
