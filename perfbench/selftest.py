#!/usr/bin/env python3
"""The benchmark's own tests, at smoke size (a minute or two in all).

    python3 perfbench/selftest.py

Run from the root of a source tree.  For every workload it runs the
untraced and the traced pass and checks that the result is correct, that the
failed share is the expected one (the known-fault operations fail), that the
metrics are the declared ones and that the span file loads as a Chrome trace.
Then it falsifies one output at a time (--perturb) and checks that the
correctness check catches it and counts the operation failed; the census
outputs are checked in the traced stabilize run, whose probes compute them.
Exits 1 on the first surprise.
"""
from fractions import Fraction
import json
import subprocess
import sys

BENCH = json.load(open("BENCHMARK.json"))
E2E = [m["name"] for m in BENCH["end_to_end"]]
LAYERS = [m["name"] for m in BENCH["per_layer"]]
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

# A stabilize round is its operation and two known-fault operations, which
# fail every time.
FAILED_SHARE = {"stabilize": Fraction(2, 3), "serve": Fraction(0)}

# The outputs each workload's checks must catch when falsified, and the
# trace switch of the run that computes them.
PERTURB = {
    "stabilize": [("label", 0), ("bitmap", 1), ("estimate", 1)],
    "serve": [("label", 0), ("errors", 0), ("stamps", 0)],
}


def run(workload, trace, perturb=None):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    if perturb:
        cmd += ["--perturb", perturb]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        fail("%s exited %d:\n%s" % (" ".join(cmd), out.returncode, out.stderr))
    return json.loads(out.stdout.strip().splitlines()[-1])


def fail(msg):
    print("selftest: FAIL: " + msg)
    sys.exit(1)


def check_spans(what, workload, events):
    """Every span is a complete event whose parent is 0 or another span
    that encloses it; serve spans carry request numbers."""
    if not events or any(e["ph"] != "X" for e in events):
        fail(what + ": bad span file")
    by_id = {e["args"]["id"]: e for e in events}
    for e in events:
        p = e["args"]["parent"]
        if p == 0:
            continue
        q = by_id.get(p)
        if q is None or e["ts"] < q["ts"] or \
                e["ts"] + e["dur"] > q["ts"] + q["dur"] + 1e-3:
            fail("%s: span %s is not inside its parent" % (what, e["name"]))
    if workload == "serve" and not any(e["args"]["request"] for e in events):
        fail(what + ": no span carries a request number")


def main():
    for w in WORKLOADS:
        for trace in (0, 1):
            r = run(w, trace)
            what = "%s --trace %d" % (w, trace)
            if not r["correct"]:
                fail(what + " is not correct")
            if r["failed"] != FAILED_SHARE[w] * r["attempted"]:
                fail("%s: %d of %d failed" % (what, r["failed"], r["attempted"]))
            want = LAYERS if trace else E2E
            if sorted(r["metrics"]) != sorted(want):
                fail("%s printed metrics %s" % (what, sorted(r["metrics"])))
            if trace:
                spans = "perfbench/out/%s.trace.json" % w
                check_spans(what, w, json.load(open(spans))["traceEvents"])
            print("selftest: ok   %s (%d attempted, %d failed)"
                  % (what, r["attempted"], r["failed"]))
        for p, trace in PERTURB[w]:
            r = run(w, trace, perturb=p)
            if r["correct"]:
                fail("%s: falsified %s went unnoticed" % (w, p))
            if r["failed"] <= FAILED_SHARE[w] * r["attempted"]:
                fail("%s: falsified %s failed no operation" % (w, p))
            print("selftest: ok   %s catches a falsified %s" % (w, p))
    print("selftest: all passed")


if __name__ == "__main__":
    main()
