"""Print a SHA-256 of what each command of the command matrix (tests/matrix.py) does, and of SARI's bits.

    python scripts/output_digest.py [SRC]

Runs every matrix command on the matrix's small inputs, in a temporary directory with relative
paths, in this process through ``levelforge.cli.main``, with the package under SRC (default:
this checkout's ``src/``). A command's digest covers its exit code, stdout, stderr and every
file it wrote; ``sari`` covers every SARI breakdown and ``sari_r`` value of the matrix's
``frozen_sari_instances()``. It prints the interpreter's version, then ``<sha256>  <name>``
lines, which ``tests/test_frozen_outputs.py`` pins. Standard library only, so that any
interpreter runs it.
"""
from __future__ import annotations

import hashlib
import io
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

import matrix  # noqa: E402


def _files(workdir: Path) -> dict[str, bytes]:
    return {p.relative_to(workdir).as_posix(): p.read_bytes() for p in sorted(workdir.rglob("*")) if p.is_file()}


def utf8_stream() -> io.TextIOWrapper:
    """A standard stream that keeps the bytes written to it, in ``.buffer``: UTF-8 text over a ``BytesIO``."""
    return io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")


def digests() -> dict[str, str]:
    """The SHA-256 of each matrix command, by its argv joined by spaces, and of SARI's bits, by ``sari``."""
    from levelforge.cli import main
    from levelforge.genmetrics import EvalInstance, sari, sari_r

    found = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="output_digest.") as tmp:
        matrix.small_inputs(Path(tmp))
        for case, derive in matrix.CASES.items():
            workdir = Path(tmp, case)
            commands = derive(workdir)
            os.chdir(workdir)
            try:
                for argv in commands:
                    before = _files(workdir)
                    out, err = utf8_stream(), utf8_stream()
                    with redirect_stdout(out), redirect_stderr(err):
                        code = main(argv)
                    parts = {"exit code": str(code).encode(), "stdout": out.buffer.getvalue(),
                             "stderr": err.buffer.getvalue()}
                    parts.update((f"file {name}", data) for name, data in _files(workdir).items()
                                 if before.get(name) != data)
                    digest = hashlib.sha256()
                    for name, data in parts.items():
                        digest.update(f"{name} {len(data)}\n".encode() + data)
                    found[" ".join(argv)] = digest.hexdigest()
            finally:
                os.chdir(cwd)
    digest = hashlib.sha256()
    for source, output, references in matrix.frozen_sari_instances():
        inst = EvalInstance(source, output, references)
        digest.update(f"{sari(inst)!r} {sari_r(inst)!r}\n".encode("utf-8"))
    found["sari"] = digest.hexdigest()
    return found


def main(argv: list[str]) -> int:
    sys.path.insert(0, argv[0] if argv else str(ROOT / "src"))
    print(sys.version.split()[0])
    for name, digest in digests().items():
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
