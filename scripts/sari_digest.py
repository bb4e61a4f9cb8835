"""Print the SHA-256 that ``TestFrozenSari`` in tests/test_genmetrics.py pins.

    python scripts/sari_digest.py [SRC]

Standard library only, so that it runs under interpreters without pytest
or hypothesis: it takes ``FROZEN_VOCAB``, ``instance`` and
``frozen_sari_instances`` out of the test file by their source text and
digests every SARI breakdown and ``sari_r`` value of those instances, as
the test does, with the ``levelforge`` package under SRC (default: this
checkout's ``src/``). It prints the interpreter's version and the digest.
"""
from __future__ import annotations

import ast
import hashlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WANTED = {"FROZEN_VOCAB", "instance", "frozen_sari_instances"}


def main(argv: list[str]) -> int:
    sys.path.insert(0, argv[0] if argv else str(ROOT / "src"))
    from levelforge.genmetrics import EvalInstance, sari, sari_r

    source = (ROOT / "tests" / "test_genmetrics.py").read_text(encoding="utf-8")
    namespace = {"random": random, "EvalInstance": EvalInstance}
    for node in ast.parse(source).body:
        names = {getattr(node, "name", None)} | {t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)}
        if names & WANTED:
            exec(ast.get_source_segment(source, node), namespace)
    digest = hashlib.sha256()
    for inst in namespace["frozen_sari_instances"]():
        digest.update(f"{sari(inst)!r} {sari_r(inst)!r}\n".encode("utf-8"))
    print(sys.version.split()[0], digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
