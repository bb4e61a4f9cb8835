"""The package's surface: what importing one module loads, and the README's library example."""
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_a_module_import_loads_only_its_dependencies():
    code = ("import sys, levelforge.genmetrics; "
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'levelforge'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "levelforge", "levelforge.genmetrics", "levelforge.readability", "levelforge.textcore"]


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"^```python\n(.*?)^```$", section, re.DOTALL | re.MULTILINE)
    exec(compile(block, "README.md", "exec"), {})
