"""The README's command-line examples and the output each one must give.

``fault(line, command)`` runs one example with ``command`` standing for
``axiclone``; ``python tests/readme_examples.py axiclone`` runs every example
through the installed console script, prints ``ok`` or ``FAIL`` per line and
exits with the number that fail.
"""
import hashlib
import json
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

# sha256 of each README example's output (stdout, or the --out file)
README_SHA256 = {
    "axiclone params --dist vmf:kappa=1.5":
        "375d2cf5fd351bab16139967d28d395d80780c58f681d5de9bc7d37ba4422f64",
    "axiclone sweep --dist vmf:kappa=0 --sweep kappa=0:3:301 --out sweep.csv":
        "1be7161179078c0a07384dcb268d3992d26075d84eecf97c82f4387a77ac2170",
    # rows P = 0.88-0.95, where |a1|, a2 >= 1/2, print Gamma from the
    # deviations d1 = 1 - |a1|, d2 = 1 - a2
    "axiclone sweep --dist brosseau:P=0,mu=0 --sweep P,mu=0:0.95:96 --out tied.csv":
        "d571070ef16b4d9e989dbe81aed458cf1664c86ba3102c39b5c9dccc9b0fbad8",
    "axiclone simulate --dist uniform --theta 0.7 --phi 2.1":
        "1174fbaca346daccd19ba886a2d3e28814a8ae1f272387acb31362b70eb19b1a",
    "axiclone circuit --dist brosseau:P=0.8,mu=0.5":
        "906a4db2524125cf936b9409f8bd957b2a2677cb876ce3a541f1ebf47bdee1e4",
}
# verify's report; max_sampled_F depends on BLAS rounding and is checked
# to 1e-15, every other field exactly and in this order
README_VERIFY = {
    "axiclone verify --dist deltapair:theta=1.0472 --samples 10000 --seed 42": {
        "distribution": "deltapair:theta=1.0472",
        "F_opt": 0.83493126195043865,
        "max_sampled_F": 0.70739189978782702,
        "n_samples": 30000,
        "dual_gap": -1.1102230246251565e-16,
        "dual_lambda_min": -3.7133924407628527e-18,
        "F_upper": 0.83493126195043854,
    },
}


def readme_commands() -> list[str]:
    """The ``axiclone ...`` lines of README's "Command line" block."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    return [line for line in block.split("```", 1)[0].splitlines()
            if line.startswith("axiclone ")]


def fault(line: str, command: list[str], env=None) -> str | None:
    """Run ``line`` as ``command`` plus its arguments in a fresh directory.

    Returns None if the run exits 0 with nothing on stderr, nothing on
    stdout when it writes ``--out``, and the pinned output; otherwise the
    reason it misses.
    """
    argv = shlex.split(line)[1:]
    with tempfile.TemporaryDirectory() as tmp:
        run = subprocess.run([*command, *argv], cwd=tmp, env=env,
                             capture_output=True, timeout=120)
        if run.returncode or run.stderr:
            return f"exit {run.returncode}: {run.stderr.decode(errors='replace')}"
        out = run.stdout
        if "--out" in argv:
            if out:
                return f"stdout not empty with --out: {out[:80]!r}"
            out = Path(tmp, argv[argv.index("--out") + 1]).read_bytes()
    pin = README_VERIFY.get(line)
    if pin is not None:
        got = json.loads(out)
        if list(got) != list(pin):
            return f"fields {list(got)}"
        wrong = [key for key, want in pin.items()
                 if not (abs(got[key] - want) <= 1e-15 if key == "max_sampled_F"
                         else got[key] == want)]
        return f"{wrong} differ: {out.decode()}" if wrong else None
    digest = hashlib.sha256(out).hexdigest()
    return None if digest == README_SHA256.get(line) else f"sha256 {digest}"


if __name__ == "__main__":
    failed = 0
    for line in readme_commands():
        why = fault(line, sys.argv[1:])
        print("ok  " if why is None else "FAIL", line, why or "")
        failed += why is not None
    sys.exit(failed)
