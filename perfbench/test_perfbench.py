#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds the benchmark if needed, then checks its failure accounting (a bad
input is counted as a failed run, not a crash), the shape of the result
line, and that it refuses to run without the library sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (perfbench/run.py)


def run_py(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_bad_input_is_counted_as_failed(self):
        # f = max_f(n) + 1 for Algorithm 4 at n = 16: every run throws in
        # the protocol code; the benchmark must tally them and carry on.
        out = subprocess.run([run.BINARY, "--selftest"], capture_output=True,
                             text=True, timeout=120)
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)
        res = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertTrue(res["selftest"])
        self.assertGreater(res["bad"]["attempted"], 0)
        self.assertEqual(res["bad"]["failed"], res["bad"]["attempted"])
        self.assertIn("f <= (1/2 - eps) n", res["bad"]["first_error"])
        self.assertEqual(res["good"]["failed"], 0)

    def test_result_line(self):
        bench = run.load_benchmark()
        for trace, declared in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            out = run_py("--workload", "alg52_n48", "--seed", "5",
                         "--seconds", "1", "--trace", str(trace))
            self.assertEqual(out.returncode, 0, out.stderr[-2000:])
            line = json.loads(out.stdout.strip().splitlines()[-1])
            self.assertEqual(set(line),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(line["correct"])
            self.assertEqual(line["failed"], 0)
            self.assertGreaterEqual(line["attempted"], 1)
            self.assertEqual(set(line["metrics"]),
                             {d["name"] for d in declared})
            for d in declared:
                self.assertEqual(line["metrics"][d["name"]]["unit"], d["unit"])

    def test_unknown_workload_fails(self):
        out = run_py("--workload", "no_such_workload", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
        self.assertNotEqual(out.returncode, 0)

    def test_refuses_without_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(run.BENCH_DIR, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = run_py("--workload", "alg52_n48", "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=tmp)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
