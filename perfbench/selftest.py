#!/usr/bin/env python3
"""Quick self-test of the repo benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout (it builds like run.py). Checks that:
  1. a short run of every workload emits every end_to_end metric of
     BENCHMARK.json with its unit (--trace 0) and every per_layer metric
     with its unit (--trace 1), with the gate passing;
  2. a deliberately wrong expected count trips the correctness gate: a
     reference file with one extra flow per copy (serve-mix, batch-jobs),
     and a wrong classify() true-positive total (suite-cold).
Takes about a minute. Exit 0 when every check holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    p = subprocess.run(cmd + list(extra), cwd=ROOT, capture_output=True,
                       text=True)
    try:
        return p.returncode, json.loads(p.stdout.splitlines()[-1]), p.stderr
    except (IndexError, ValueError):
        return p.returncode, None, p.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, res, err = run(w["name"], trace)
            label = "%s --trace %d" % (w["name"], trace)
            if res is None:
                check(False, label + ": no result\n" + err[-2000:])
                continue
            check(rc == 0 and res["correct"] and res["failed"] == 0 and
                  res["attempted"] >= 1, label + ": gate passes")
            for m in bench[key]:
                got = res["metrics"].get(m["name"])
                check(got is not None and got["unit"] == m["unit"] and
                      isinstance(got["value"], (int, float)),
                      "%s: %s emitted in %s" % (label, m["name"], m["unit"]))
            check(set(res["metrics"]) == {m["name"] for m in bench[key]},
                  label + ": no unlisted metrics")

    # A reference with one flow per copy that the program does not report.
    wrong = os.path.join(ROOT, ".perfbench_work", "selftest-wrong.expected")
    os.makedirs(os.path.dirname(wrong), exist_ok=True)
    with open(os.path.join(HERE, "webapp.expected")) as f:
        text = f.read()
    with open(wrong, "w") as f:
        f.write(text + "XSS ProfileServlet.doGet:11 ProfileServlet.doGet:17\n")
    for w in ("serve-mix", "batch-jobs"):
        rc, res, _ = run(w, 0, "--expected", wrong)
        check(rc != 0 and (res is None or not res["correct"]),
              w + ": a wrong expected flow count trips the gate")
    os.remove(wrong)

    rc, res, _ = run("suite-cold", 0, "--expect-tp", "293")
    check(rc == 0 and res is not None and res["correct"],
          "suite-cold: the seed-0 true-positive total 293 passes the gate")
    rc, res, _ = run("suite-cold", 0, "--expect-tp", "294")
    check(rc != 0 and res is not None and not res["correct"],
          "suite-cold: a wrong true-positive total trips the gate")

    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
