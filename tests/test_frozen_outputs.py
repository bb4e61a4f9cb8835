"""Frozen SHA-256 digests of what each command of tests/matrix.py prints and writes, and of SARI's bits.

``scripts/output_digest.py`` computes them, in this process and as a child
under each ``python3.10``-``python3.13`` found on ``PATH``, which checks that
floats keep their bits where ``sum()`` compensates its rounding (3.12 on), and
as a child of this interpreter under two fixed ``PYTHONHASHSEED`` values. A
changed output byte fails the test; a declared output change updates
``DIGESTS`` in the same change.
"""
import os
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_digest.py"

# SHA-256 of each command's exit code, stdout, stderr and written files, by its argv.
DIGESTS = {
    "pipeline --config config.json": "578082fff56a12b9a0e202e3b303b0863c4d2499011c9893bd6b0feb12dd0105",
    "pipeline --config config-file.json": "f767fd97da878c92d2f1a4baf7538d968062fe3974592953683579069cb4d15f",
    "pipeline --config config-lexical.json": "e787a3dcaeb30e190a3e42405c55f381cfbe5ad7f011d066f6af34f40cd70cd1",
    "pipeline --config config-none.json": "af27a3c4291fc85898bf85b98a6c79d4f590b506b21c11b4e26d1feb5c72a318",
    "pipeline --config config-cefr6.json": "34c7b54d9e58c8bec0fb14a9fd98d8a91613dbbe0b639da6d0f39e99e135e7fa",
    "filter corpus.jsonl -o kept.jsonl": "250a079661dcb69ef4886273d34ae851b3707b92cde67af5d13b91276b0c2928",
    "label kept.jsonl --scheme fkgl -o leveled.jsonl":
        "33ea8c2cc7c9ca8b0adc9f96805b12d47e97bc5bb6e38ea83dfc47993376a2c7",
    "bucket leveled.jsonl --scheme fkgl -o tasks.jsonl":
        "c8504bdae6787055fb68dcaff990d5b756cff34686220fda520b80adeeb823f0",
    "split tasks.jsonl --seed 5 -o splits": "cb7d47f1fade81c325407259209194b69a9d2da31f24d9d81ebc4022055aae56",
    "prompt splits/train.jsonl --scheme fkgl --strategy rel -o prompted.jsonl":
        "8869c5e695873699f73acb8ad942ae932f386dea52460451c0b50a8c17461cac",
    "prompt splits/train.jsonl --scheme fkgl --strategy rel --format tsv -o prompted.tsv":
        "41edb4997612acb88073800917a127767f65689d00e59a305aa885bf436d9a15",
    "prompt splits/train.jsonl --scheme fkgl --strategy llm-rel -o prompted-llm-rel.jsonl":
        "89e7cb9f4d2857fb38b3d51f10c22e77a31c5a0b1ebad15aa71a9de7ce97e1a3",
    "prompt splits/train.jsonl --scheme fkgl --strategy llm-abs -o prompted-llm-abs.jsonl":
        "ad8d9fc97618e0ff7d925d315eacb45810a80e0e959aa2d1faa021d0f125c947",
    "prompt splits/train.jsonl --scheme fkgl --strategy baseline -o prompted-baseline.jsonl":
        "a86263c86c01ee0a4ecb7d3cd13b4b17858ee23be446c1909a9db9952a09dc0e",
    "bucket leveled.jsonl --scheme fkgl": "4fa6df852c2b22ecb14c85ab990ee403d089354115f30ecc639227a612b5c46c",
    "prompt splits/valid.jsonl --strategy abs --scheme fkgl":
        "fb8f12d8d3fcff6782e115c6d7a15a5ed4c043edc849765be009838575344fa3",
    "bucket leveled.jsonl --scheme fkgl -o -": "4fa6df852c2b22ecb14c85ab990ee403d089354115f30ecc639227a612b5c46c",
    "label kept.jsonl --scheme cefr6 --predictions preds.jsonl -o leveled-cefr6.jsonl":
        "9344a5b0c7ed18e48a2bc08ef4337d5dfb2643a83d1a6e1d396f2f4ac710fa94",
    "bucket leveled-cefr6.jsonl --scheme cefr6 -o tasks-cefr6.jsonl":
        "2746eaa183fdc8a855c86403510e0af3c1db3666ab2a59123c2c0bdf4d2c3423",
    "prompt tasks-cefr6.jsonl --strategy llm-abs --scheme cefr6 -o prompted-cefr6-llm-abs.jsonl":
        "c5862aa7941c598adf8a7bcbdf86c6d9fa2680a653a17e88b88c750a8246c7d0",
    "prompt tasks-cefr6.jsonl --strategy abs --scheme cefr6 -o prompted-cefr6-abs.jsonl":
        "db0cbb695156373315e8590ebaf8d9a21aa28073a176632ac239f7aa24bd484e",
    "analyze kept.jsonl -o analyzed.jsonl": "48fe77401ca5dae3dd027233c463a17e08a64d716104a4bcfa0ad10d4b3d632c",
    "analyze kept.jsonl --levels levels.jsonl -o analyzed-levels.jsonl":
        "87cafbd1bbea340afd182a91d5fbb30066a42fa6dbc34a5230e33bb270b5133a",
    "analyze splitter-edges.jsonl -o splitter-edges-analyzed.jsonl":
        "ae175ec2931ee909ecc7601aedcf7043019bacbb06eac9cdfb2dab4c994754d3",
    "filter pairs.tsv -o kept-tsv.jsonl": "32808b0d67a0239fba5f72b17c6dec8bbf32abe1b6a648b0e60f42e6e35be92e",
    "label kept-tsv.jsonl --scheme fkgl -o leveled-tsv.jsonl":
        "8536c79920517f0a1152e27287de2d94d58f2572bfb2e6f11ad208ca5261eee0",
    "score --outputs outputs.txt --refs refs.jsonl --per-instance per_instance.tsv":
        "982b2e8ce4b0d8256e145715d43adb98bebe0f989c956a4185198d28a3abe1c5",
    "report ratings.tsv": "a393a3c02631a9b28f4bd501251f51ee684523902e3a1e715935dd873afab9af",
    "score --outputs outputs.txt --refs refs-1.jsonl --per-instance per_instance-1.tsv":
        "cb3054cab48e248487c6124a693f0bc41e86cde5ce9eefe96bc192fadd539742",
    "score --outputs outputs.txt --refs refs-3.jsonl --per-instance per_instance-3.tsv":
        "71e49b3505c58306607ecf28c6679dc6d17c35d2b20716205239203a4e5ae81a",
    "score --outputs outputs.txt --refs refs.jsonl --per-instance per_instance-rep100.tsv --repetition-n 100":
        "12125dfaf66ff8db76f3b8f7196ae251ea0252017aa8bc8e4cbbcfc1558bd077",
    "analyze outputs.txt": "2b7af07cd11bced566d7ab3031998d2c966b9a7adac711e05ee832ccef5dc8af",
    "analyze outputs.txt --levels levels-utf8.jsonl":
        "53b112aa00ad8805a0588f3966ee3f567bbcb7ba585f61e2fdec6892d456d1e5",
    "agree study.tsv --metric ordinal": "18c05cee911af077acad0193c44e94a9b0dc87e109d9e65642310cf5371df3a6",
    "agree study.tsv --metric ordinal --threshold 3 --gold-out gold_out.jsonl":
        "e6800b301c37e63df869405efd25058d34fdfbe0d602ab73ce86a6fa09f313a2",
    "agree study-single.tsv --metric ordinal": "5727f3579958223d343cce863dedd13d5789d48a19857d5b4e270376681e83ac",
    "classifier-eval --gold gold.jsonl --pred pred.jsonl":
        "4944b58b90ff55e757b03ee9f89ae707ae37717d72f52b3b1c93d74af7e4b26a",
    "report ratings.tsv --format text": "c357df1f463717a2c91f22cf3cfd920f749b5a835b63d0dac5edb3214ffa952c",
    "report study-decimal.tsv": "340903b94dc88961cb7ada2170e0ae975c4cf29c766fe29244386fbe5f0cd3ae",
    "agree study-decimal.tsv --metric ordinal": "3625237c32baa8485d51d121e2e48a656e310ee58628d4594b0bf338581dda21",
    "sari": "b1ced35c1437b4d5286e9e305384ffff97aefa6111b8bcc03a7eb34bc4074ef6",
}


def test_outputs_are_frozen():
    assert runpy.run_path(str(SCRIPT))["digests"]() == DIGESTS


MINORS = ["3.10", "3.11", "3.12", "3.13"]


@pytest.fixture(scope="module")
def children():
    """The script running under each ``python3.10``-``python3.13`` on ``PATH``, all started at once,
    by minor version. No bytecode is written, and every pyenv version is selectable: a shim runs
    one only if ``PYENV_VERSION`` names it."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    if shutil.which("pyenv"):
        versions = subprocess.run(["pyenv", "versions", "--bare"], capture_output=True, text=True, check=True)
        env["PYENV_VERSION"] = ":".join(versions.stdout.split())
    procs = {}
    for minor in MINORS:
        python = shutil.which(f"python{minor}")
        if python is not None:
            procs[minor] = subprocess.Popen([python, str(SCRIPT)], env=env, text=True,
                                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    yield procs
    for proc in procs.values():
        if proc.returncode is None:  # no test waited it out: deselected, or timed out
            proc.kill()
            proc.communicate()


@pytest.mark.parametrize("minor", MINORS)
def test_outputs_are_frozen_under(minor, children):
    if minor not in children:
        pytest.skip(f"python{minor} is not on PATH")
    proc = children[minor]
    stdout, stderr = proc.communicate(timeout=300)
    if proc.returncode == 127:  # a pyenv shim with no such version installed
        pytest.skip(f"python{minor}: {stderr.strip()}")
    assert proc.returncode == 0, stderr
    version, digests = printed(stdout)
    assert version.startswith(f"{minor}.")
    assert digests == DIGESTS


@pytest.mark.parametrize("hash_seed", ["0", "12345"])
def test_outputs_are_frozen_under_hash_seed(hash_seed):
    # No output depends on the order of a set or a dict of str, which each interpreter salts anew.
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONHASHSEED": hash_seed}
    proc = subprocess.run([sys.executable, str(SCRIPT)], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert printed(proc.stdout)[1] == DIGESTS


def printed(stdout):
    """The version line and the digests by name that the script printed."""
    version, *lines = stdout.splitlines()
    return version, dict(reversed(line.split("  ", 1)) for line in lines)
