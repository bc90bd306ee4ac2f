"""The benchmark's correctness check catches wrong simulation results.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

Builds the driver through perfbench/run.py (first run only) and runs
short one-second measurements of translation_1c.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402  (perfbench/run.py)


def bench(*extra):
    """Run the driver on translation_1c seed 2 for one second."""
    binary = run.build()
    with tempfile.TemporaryDirectory(dir=run.build_dir()) as work:
        cmd = [binary, "--workload", "translation_1c", "--seed", "2",
               "--seconds", "1", "--trace", "0", "--work-dir", work]
        cmd += list(extra)
        if "--reference" not in extra:
            cmd += ["--reference", run.REFERENCE]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=run.BINARY_TIMEOUT_S)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


class ReferenceCheck(unittest.TestCase):
    def test_unchanged_program_matches_reference(self):
        code, report = bench()
        self.assertEqual(code, 0, report["errors"])
        self.assertGreater(report["attempted"], 0)
        self.assertEqual(report["failed"], 0)

    def test_perturbed_config_fails_every_point(self):
        # Halving the STLB changes events and cycles of every point.
        code, report = bench("--perturb")
        self.assertNotEqual(code, 0)
        self.assertGreater(report["attempted"], 0)
        self.assertEqual(report["failed"], report["attempted"])

    def test_altered_digest_fails_that_point(self):
        with open(run.REFERENCE) as f:
            lines = f.read().splitlines()
        target = "translation_1c 2 cc/proposed "
        altered = []
        for line in lines:
            if line.startswith(target):
                fields = line.split()
                fields[3] = "0" * 64
                line = " ".join(fields)
            altered.append(line)
        with tempfile.NamedTemporaryFile("w", suffix=".tsv",
                                         dir=run.build_dir(),
                                         delete=False) as f:
            f.write("\n".join(altered) + "\n")
        try:
            code, report = bench("--reference", f.name)
        finally:
            os.unlink(f.name)
        self.assertNotEqual(code, 0)
        passes = report["attempted"] // 8
        self.assertEqual(report["failed"], passes)
        self.assertTrue(all("cc/proposed" in e for e in report["errors"]))


if __name__ == "__main__":
    unittest.main()
