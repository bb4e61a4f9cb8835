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
    "pipeline --config config.json": "d946217ae70285908da0450f32a76b42967865344c56b0ec7cb731b95f7e3e4b",
    "pipeline --config config-file.json": "01df17efb66083ec4271a84e4a08978f1d8483c35936045d73419ab68ec67211",
    "pipeline --config config-lexical.json": "e787a3dcaeb30e190a3e42405c55f381cfbe5ad7f011d066f6af34f40cd70cd1",
    "pipeline --config config-none.json": "af27a3c4291fc85898bf85b98a6c79d4f590b506b21c11b4e26d1feb5c72a318",
    "pipeline --config config-cefr6.json": "4d24374b52fb6c4a1e77e6ca99e0214c8e624a193f344a02eb9668fbf925790e",
    "filter corpus.jsonl -o kept.jsonl": "2afa38243d43367a6950f8dc5fc02a0ad17789454a494880c3078d074f92077e",
    "label kept.jsonl --scheme fkgl -o leveled.jsonl":
        "f1966e1959856dccbbab903d2fe3d7298fc385030b574eb300625be49a45c487",
    "bucket leveled.jsonl --scheme fkgl -o tasks.jsonl":
        "a1dff53cb08be5e0fa2ca16d8b61713ed1ec367d963b53de69da8ec9486f1906",
    "split tasks.jsonl --seed 5 -o splits": "1ac772818de58449fda33b6f89811549c1b729f4752a8a9894a0340192d6d30b",
    "split mixed-ids.jsonl --seed 5 -o splits-mixed":
        "621b7643cfc4ee3a00886b43872d1acf5455c5a0271eca5c55099a5e0635cc1d",
    "prompt splits/train.jsonl --scheme fkgl --strategy rel -o prompted.jsonl":
        "9fb3797ca38a24442b167d139734c7c4dbf033b7dbcd8ad1e929ce9d8fbda6fc",
    "prompt splits/train.jsonl --scheme fkgl --strategy rel --format tsv -o prompted.tsv":
        "174247ffbb2f17429743bdf88456ecb6d5cea0cf792c8335eb7719de7613accf",
    "prompt splits/train.jsonl --scheme fkgl --strategy llm-rel -o prompted-llm-rel.jsonl":
        "0e0dfd21cf56da98a59278db259d6e6dbdf151f4e56cd87bf494f184569f746d",
    "prompt splits/train.jsonl --scheme fkgl --strategy llm-abs -o prompted-llm-abs.jsonl":
        "e54abc74f96fdd082d1201fddcc0e5dfe21e0afcf13ba7b2f9315ecb74b3d5c2",
    "prompt splits/train.jsonl --scheme fkgl --strategy baseline -o prompted-baseline.jsonl":
        "9d77af476263df936ca471e24a9c91a235b0fb655a9e7f71c15c5376e82a804b",
    "bucket leveled.jsonl --scheme fkgl": "d4b6bc2fa4c0e4fe4c4601c266eda1889ad804e87b4a4d392d289204dd74c375",
    "prompt splits/valid.jsonl --strategy abs --scheme fkgl":
        "58700bdee0e1dc0896d9e5d498e6bce5c87e211ad97a54f9ba225c1226b893a9",
    "bucket leveled.jsonl --scheme fkgl -o -": "d4b6bc2fa4c0e4fe4c4601c266eda1889ad804e87b4a4d392d289204dd74c375",
    "label kept.jsonl --scheme cefr6 --predictions preds.jsonl -o leveled-cefr6.jsonl":
        "7032f96388a44c9f3570dbdbe77a2c92d017d05e7f3070bc87fa3b7e1a9d02ab",
    "bucket leveled-cefr6.jsonl --scheme cefr6 -o tasks-cefr6.jsonl":
        "7c119ba658b13c65c03efdaeb9138860c24bc67ead68fe8209ffb0084af855ed",
    "prompt tasks-cefr6.jsonl --strategy llm-abs --scheme cefr6 -o prompted-cefr6-llm-abs.jsonl":
        "c5862aa7941c598adf8a7bcbdf86c6d9fa2680a653a17e88b88c750a8246c7d0",
    "prompt tasks-cefr6.jsonl --strategy abs --scheme cefr6 -o prompted-cefr6-abs.jsonl":
        "db0cbb695156373315e8590ebaf8d9a21aa28073a176632ac239f7aa24bd484e",
    "analyze kept.jsonl -o analyzed.jsonl": "48fe77401ca5dae3dd027233c463a17e08a64d716104a4bcfa0ad10d4b3d632c",
    "analyze kept.jsonl --levels levels.jsonl -o analyzed-levels.jsonl":
        "87cafbd1bbea340afd182a91d5fbb30066a42fa6dbc34a5230e33bb270b5133a",
    "analyze splitter-edges.jsonl -o splitter-edges-analyzed.jsonl":
        "ae175ec2931ee909ecc7601aedcf7043019bacbb06eac9cdfb2dab4c994754d3",
    "filter pairs.tsv -o kept-tsv.jsonl": "f59c53b3e6648033c095a29cec66aeeb9fd5dc92bdc037147193fcf9947cef18",
    "label kept-tsv.jsonl --scheme fkgl -o leveled-tsv.jsonl":
        "5ce498fa9230a584f579ae8efb69853e1e8c286dcde9c467a5e9c3c22d14da82",
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


def test_outputs_are_frozen_without_the_builtin_sha256():
    # A build with neither _sha2 nor _sha256 takes hashlib's sha256, which gives the same bytes.
    code = ("import runpy, sys\n"
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "runpy.run_path(sys.argv[1])['main']([])\n"
            "import hashlib, levelforge.corpus\n"
            "assert levelforge.corpus.hash_functions()[0] is hashlib.sha256\n")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", code, str(SCRIPT)], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert printed(proc.stdout)[1] == DIGESTS


def printed(stdout):
    """The version line and the digests by name that the script printed."""
    version, *lines = stdout.splitlines()
    return version, dict(reversed(line.split("  ", 1)) for line in lines)
