"""The mutation gate: each seeded mutant of ``src/`` must fail the tests named for it.

Run ``python3 tests/mutants.py``.  It copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory and first runs every named
test on the unchanged copy: that control is a no-op mutant, and it must
survive, or a failing test would pass for a kill.  Then it applies one
mutant at a time, runs that mutant's node ids in the copy and puts the
file back.  It exits 1 if the control is killed or any mutant survives.
The repository is only read, and its ``src/`` is hashed before and after
to show it.  Bytecode is not written, so a restored file is never
shadowed by its mutant's ``.pyc``.  Standard library only;
``tests/test_mutants.py`` checks the list itself.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]  # node ids; the mutant is killed when one of them fails
    reason: str


MUTANTS = (
    Mutant(
        "swap-p++-p+-", "src/necsurf/extremal.py",
        '    "p++": (True, False),\n    "p+-": (True, True),\n',
        '    "p++": (True, True),\n    "p+-": (True, False),\n',
        ("tests/test_extremal.py::test_realizers_at_match_the_reference_chain",),
        "the demand table is the one place a variant's realizers are chosen",
    ),
    Mutant(
        "bucket-key-without-reversing", "src/necsurf/classify.py",
        "key = (surface.orientable, reversing, surface.boundary_count)",
        "key = (surface.orientable, surface.boundary_count)",
        ("tests/test_classify.py::test_buckets_shape",),
        "both sides of the oracle check share the key, so only a fixed shape sees it change",
    ),
    Mutant(
        "two-power-test", "src/necsurf/classify.py",
        "B > 2 and not B & (B - 1)",
        "B > 2 and not B & (B + 1)",
        ("tests/test_classify.py::test_d21_half_count_two_power_branch",),
        "the self-paired maps of a 2-power B change the paired count",
    ),
    Mutant(
        "pending-unit-not-one", "src/necsurf/oracle.py",
        "if not unit[v] & pending & ~one[v] and",
        "if not unit[v] & pending and",
        ("tests/test_oracle.py::test_enumerate_two_cone_disc",
         "tests/test_oracle.py::test_check_point_agreement"),
        "a canonical form's first unit at each prime is 1 mod p^a",
    ),
    Mutant(
        "mb1-even-count-halved", "src/necsurf/classify.py",
        "count = euler_phi(t) if N % 2 == 0",
        "count = _ceil_half(euler_phi(t)) if N % 2 == 0",
        ("tests/test_classify.py::test_mb1_non_orientable",),
        "non-orientable mb1 covers carry phi(t) classes at even N",
    ),
    Mutant(
        "d21-admits-odd-k", "src/necsurf/classify.py",
        "        if (k % 2 == 1) != odd_k_pass:\n            continue\n",
        "",
        ("tests/test_classify.py::test_d21",),
        "N even with N/t odd forces k even",
    ),
    Mutant(
        "orbit-named-by-last-member", "src/necsurf/oracle.py",
        "rep = bmap(maps[orbit[0]])",
        "rep = bmap(maps[orbit[-1]])",
        ("tests/test_oracle.py::test_orbits_are_named_by_their_first_canonical_form",),
        "each orbit is named by its first canonical form",
    ),
    Mutant(
        "import-numpy", "src/necsurf/zmod.py",
        "from collections import Counter\n",
        "from collections import Counter\nimport numpy  # noqa: F401\n",
        ("tests/test_zmod.py::test_package_is_stdlib_only_and_exact",),
        "the package is stdlib-only",
    ),
    Mutant(
        "true-division", "src/necsurf/classify.py",
        "return (x + 1) // 2",
        "return int((x + 1) / 2)",
        ("tests/test_zmod.py::test_package_is_stdlib_only_and_exact",),
        "the package computes in integers, with no true division",
    ),
    Mutant(
        "phi-inside-assert", "src/necsurf/oracle.py",
        "    phi = euler_phi(N)\n",
        "    assert (phi := euler_phi(N))\n",
        ("tests/test_cli.py::test_output_does_not_rest_on_assertions",),
        "python -O strips asserts, so no result may be computed in one",
    ),
    Mutant(
        "genus-at-wrong-order", "src/necsurf/bsk.py",
        "kernel_algebraic_genus(self.pres.signature, self.N)",
        "kernel_algebraic_genus(self.pres.signature, self.N + 1)",
        ("tests/test_bsk.py::test_compiled_invariants_match_map_based_reference",),
        "a compiled point's surfaces have the genus of its own order",
    ),
    Mutant(
        "copy-without-checked-make", "src/necsurf/zmod.py",
        "    @classmethod\n    def _make(cls, fields):\n        return cls(*fields)\n",
        "",
        ("tests/test_value_types.py::test_checks_hold_through_the_constructor_replace_and_make",),
        "a copy made by _make or _replace goes through the checks of __new__",
    ),
    Mutant(
        "drop-n12-d21-3-4", "src/necsurf/extremal.py",
        '(("d21", 2, N), ("d21", 3, 4)) if N == 12 else ',
        "",
        ("tests/test_extremal.py::test_min_genus_search_matches_closed",
         "tests/test_acceptance.py::test_criterion_5_extremal_closed_vs_search"),
        "at N = 12 two points attain the preserving minimum, and the search finds both",
    ),
    Mutant(
        "verdict-on-value-alone", "src/necsurf/cli.py",
        "same = (closed.value == search.value\n"
        "                and Counter(closed.realizers) == Counter(search.realizers))",
        "same = closed.value == search.value",
        ("tests/test_cli.py::test_min_genus_verdict_sees_a_closed_point_dropped",),
        "the verdict compares the closed points' realizers with the search's",
    ),
    Mutant(
        "max-order-walk-past-p", "src/necsurf/extremal.py",
        "max(p, 2) - 1, -1)",
        "max(p, 2) - 2, -1)",
        ("tests/test_extremal.py::test_max_order_search_walks_from_the_ceiling_down_to_p",),
        "the downward walk stops at the least order with N > p - 1",
    ),
)


def _digest(tree: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(tree.rglob("*.py")):
        h.update(str(path.relative_to(tree)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _passes(copy: Path, tests) -> bool:
    """True when every node id passes in the copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return done.returncode == 0


def main() -> int:
    before = _digest(ROOT / "src")
    survived = []
    with tempfile.TemporaryDirectory(prefix="necsurf-mutants-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", "*.egg-info")
        shutil.copytree(ROOT / "src", copy / "src", ignore=skip)
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", copy)
        start = time.perf_counter()
        control = _passes(copy, sorted({t for m in MUTANTS for t in m.tests}))
        print(f"{'survived' if control else 'KILLED':>8}  control (no-op mutant)"
              f"  {time.perf_counter() - start:.1f} s")
        for m in MUTANTS:
            path = copy / m.file
            text = path.read_text()
            assert text.count(m.old) == 1, f"{m.name}: old text is not once in {m.file}"
            path.write_text(text.replace(m.old, m.new))
            start = time.perf_counter()
            try:
                killed = not _passes(copy, m.tests)
            finally:
                path.write_text(text)
            print(f"{'killed' if killed else 'SURVIVED':>8}  {m.name}  {time.perf_counter() - start:.1f} s")
            if not killed:
                survived.append(m.name)
    assert _digest(ROOT / "src") == before, "src/ changed during the run"
    print(f"{len(MUTANTS) - len(survived)} of {len(MUTANTS)} mutants killed; src/ untouched")
    return 0 if control and not survived else 1


if __name__ == "__main__":
    sys.exit(main())
