"""Closed-loop benchmark of the lattice-games command line.

One client, one process: each request goes through
``lattice_games.cli.main(argv)`` in process with stdout captured, and the
next starts only when the previous has returned.  Requests are timed in
the process's CPU time (``time.process_time_ns``), not the wall clock:
the package is single-threaded and CPU-bound, so on an idle machine the
two agree, while on a shared one the wall clock also counts the time
other processes hold the CPU.  After each request the loop times a fixed
reference computation, and the end-to-end figures give each request's
CPU time in units of it ("ref"), measured around that request, so that
the host's own changes of speed cancel out.  The plain CPU and
wall-clock figures are printed beside them.  Run it from anywhere in a
source checkout:

    python3 bench/run.py --workload solve-mix --seed 0 --seconds 35 --trace 0

The seed fixes the request stream (see workloads.py).  Input files are
written before timing starts and every report is checked after the timed
interval (see checks.py); a wrong report counts as failed.  With
``--trace 0`` the last line of stdout is a JSON object with the end-to-end
metrics; with ``--trace 1`` the package is wrapped by tracer.py and the
object carries the per-layer metrics instead.  The lines before it repeat
the figures for a reader.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io
import itertools
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import checks
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
SCRATCH = ROOT / ".bench_tmp"

POOL_ROUNDS = 16     # distinct rounds written per run; later rounds reuse them
SETUP_SAMPLES = 6    # fresh processes timed for setup_s, before the loop and after it
P90_BEYOND = 10      # samples a percentile needs above it
REF_TERMS = 400      # size of the reference computation, about 1-2 ms of CPU
REF_WINDOW = 5       # a request's ref: the median of the samples this many on each side
REF_NOMINAL_S = 0.002  # setup_s counts refs at this size, about one ref on a 2-vCPU Xeon VM

SETUP_CHILD = """
import sys, time
sys.path[:0] = sys.argv[1:3]
from lattice_games import lattice_for
from run import reference
specs = [(tag, int(n)) for tag, n in (s.split(":") for s in sys.argv[3:])]
start = time.process_time_ns()
for tag, n in specs:
    lattice_for(tag, n).downset_indices(0)
setup = time.process_time_ns() - start
print(setup, sorted(reference() for _ in range(5))[2])
"""


def setup(lattice_for, lattices):
    """Build each lattice and touch its order tables, as a first request would."""
    for tag, n in lattices:
        lattice_for(tag, n).downset_indices(0)


def setup_samples(lattices):
    """Set-up costs of fresh interpreters (lattice_for caches per process),
    in refs: each child's set-up CPU time over the median of five reference
    samples it takes right after."""
    argv = ([sys.executable, "-c", SETUP_CHILD, str(SRC), str(Path(__file__).resolve().parent)]
            + [f"{t}:{n}" for t, n in lattices])
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        setup_ns, ref_ns = map(int, done.stdout.split()[-2:])
        samples.append(setup_ns / ref_ns)
    return samples


def call(cli, argv):
    """Run one request in process; returns (exit code or None, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed request, not a failed run
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue().strip()


def reference():
    """CPU time in ns of a fixed computation in the style of the package
    (Fraction sums).  Garbage collection is off while it runs, so the
    heap the package keeps cannot slow it."""
    gc.disable()
    try:
        start = time.process_time_ns()
        total = Fraction(0)
        for i in range(1, REF_TERMS):
            total += Fraction(1, i)
        return time.process_time_ns() - start
    finally:
        gc.enable()


class Record(NamedTuple):
    round: int
    pos: int
    ns: int        # latency, process CPU time
    wall_ns: int   # latency, wall clock
    ref_ns: int    # the reference computation, timed right after the request
    code: object   # exit code, None after an exception
    text: str      # stdout, the report
    err: str


def closed_loop(cli, stream, seconds, whole_rounds):
    """Send requests back to back for ``seconds``, and at least until the
    first round is complete.  With ``whole_rounds`` the loop also finishes
    the round it is in.  Returns the list of Records."""
    records = []
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    r = 0
    while True:
        for pos, argv in enumerate(stream[r % len(stream)]):
            w0, t0 = time.perf_counter_ns(), time.process_time_ns()
            code, text, err = call(cli, argv)
            t1, w1 = time.process_time_ns(), time.perf_counter_ns()
            records.append(Record(r, pos, t1 - t0, w1 - w0, reference(), code, text, err))
            if w1 >= deadline and r > 0 and not whole_rounds:
                return records
        r += 1
        if time.perf_counter_ns() >= deadline:
            return records


def complete_rounds(records, round_size):
    """The records of the rounds that ran to the end; figures use only
    these, so every run weighs each request slot alike."""
    last = records[-1]
    complete = last.round + (last.pos == round_size - 1)
    return [rec for rec in records if rec.round < complete]


def judge(cli, records, requests):
    """Check every report.  Returns (failed, reasons, digest of round 0).

    Repeats of a pooled request must match its first report byte for byte,
    and then share its verdict.  Requests of round 0 that the loop did not
    reach run now, untimed, so the digest always covers the whole first
    round."""
    # imported here: OpenSSL adds some 4 MB to the process, and peak_rss_mb
    # is read before the reports are judged
    import hashlib

    first = {}  # (pool round, position) -> (first report, its verdict)
    failed, reasons = 0, []
    for rec in records:
        key = (rec.round % len(requests), rec.pos)
        req = requests[key[0]][rec.pos]
        if rec.code != 0:
            reason = f"exit {rec.code}: {rec.err}"
        elif key in first:
            text, verdict = first[key]
            reason = verdict if rec.text == text else "differs from the same request earlier"
        else:
            reason = checks.check(req, rec.text)
            first[key] = rec.text, reason
        if reason is not None:
            failed += 1
            reasons.append(f"{req.slot}: {reason}")
    digest = hashlib.sha256()
    for pos, req in enumerate(requests[0]):
        if (0, pos) not in first:
            code, text, err = call(cli, req.argv)
            reason = f"exit {code}: {err}" if code != 0 else checks.check(req, text)
            if reason is not None:
                reasons.append(f"{req.slot} (untimed, for the digest): {reason}")
            first[0, pos] = text, reason
        digest.update(first[0, pos][0].encode() + b"\0")
    return failed, reasons, digest.hexdigest()


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def costs(records):
    """Each request's CPU time in refs: divided by the median of the
    reference samples taken after the requests around it, so that a change
    of the machine's speed during the run, or from one run to the next,
    cancels out."""
    refs = [rec.ref_ns for rec in records]
    return [rec.ns / statistics.median(refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
            for i, rec in enumerate(records)]


_RATIONAL = re.compile(r"-?\d+(?:/\d+)?")


def max_bits(texts):
    """Largest numerator or denominator bit length among the reported values."""
    values = []

    def visit(node):
        if isinstance(node, dict):
            node = list(node.values())
        if isinstance(node, list):
            for item in node:
                visit(item)
        elif isinstance(node, str) and _RATIONAL.fullmatch(node):
            values.append(node)

    for text in texts:
        if text.startswith("{"):
            visit(json.loads(text))
        else:  # CSV: every cell; keys and counts are small integers
            visit([cell for row in csv.reader(io.StringIO(text)) for cell in row])
    return max((int(part).bit_length() for v in values for part in v.lstrip("-").split("/")),
               default=0)


def layer_metrics(trace, marks, records, infos, lattices, lattice_for):
    """Per-layer figures.  Lattice build and order tables come from the
    set-up phase, once per run; every other span and count is averaged
    over the requests of the loop, which ran whole rounds."""
    setup_mark, loop_mark = marks
    n_req = len(records)
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    in_setup = trace.summary(setup_mark, loop_mark)
    in_loop = trace.summary(loop_mark)
    for name in [*tracer.SPANS, tracer.ORDER_TABLES]:
        if name in ("lattice.lattice_for", tracer.ORDER_TABLES):
            calls, total, self_ = in_setup.get(name, (0, 0, 0))
            put(f"{name}.calls", calls, "count")
            put(f"{name}.total_ms", total / 1e6, "ms")
            put(f"{name}.self_ms", self_ / 1e6, "ms")
        else:
            calls, total, self_ = in_loop.get(name, (0, 0, 0))
            put(f"{name}.calls", calls / n_req, "calls/req")
            put(f"{name}.total_ms", total / 1e6 / n_req, "ms/req")
            put(f"{name}.self_ms", self_ / 1e6 / n_req, "ms/req")
    loop_counts = trace.counts_since(loop_mark)
    for name in tracer.COUNTED:
        put(f"{name}.calls", loop_counts[name] / n_req, "calls/req")

    lats = [lattice_for(tag, n) for tag, n in lattices]
    put("lattice.elements", sum(len(lat.elements) for lat in lats), "count")
    put("lattice.order_entries", sum(len(lat.downset_indices(i)) for lat in lats
                                     for i in range(len(lat.elements))), "count")
    put("transform.max_bits", max_bits(rec.text for rec in records), "bits")

    core = [(json.loads(rec.text), workloads.model(req.info["tag"], req.info["n"]))
            for rec, req in zip(records, infos) if req.argv[0] == "core"]
    empty = [rep for rep, _ in core if rep["status"] == "empty"]
    put("coresep.tableau_rows",
        statistics.fmean(len(m) + 1 for _, m in core) if core else 0, "rows")
    put("coresep.tableau_cols",
        statistics.fmean(2 * len(m.atoms) + 2 * len(m) + 1 for _, m in core) if core else 0,
        "cols")
    put("coresep.empty", len(empty) / n_req, "1/req")
    put("coresep.nonempty", (len(core) - len(empty)) / n_req, "1/req")
    put("coresep.certificate_support",
        statistics.fmean(len(rep["certificate"]["lowerBounds"]) for rep in empty)
        if empty else 0, "count")
    put("cli.report_bytes", sum(len(rec.text.encode()) for rec in records) / n_req, "B/req")
    put("trace.requests_per_kref", 1000 * n_req / sum(costs(records)), "req/kref")
    put("machine.ref_ms", statistics.median(rec.ref_ns for rec in records) / 1e6, "ms")
    return out


def end_to_end_metrics(records, setup_s, peak_rss_mb):
    cost = costs(records)
    return {
        "requests_per_kref": {"value": 1000 * len(cost) / sum(cost), "unit": "req/kref"},
        "latency_p50_ref": {"value": statistics.median(cost), "unit": "ref"},
        "latency_p90_ref": {"value": percentile(cost, 90), "unit": "ref"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def stored_digest(workload, seed):
    if not DIGESTS.exists():
        return None
    stored = json.loads(DIGESTS.read_text())
    return stored["digests"].get(workload) if stored["seed"] == seed else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lattice_games" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("LATTICE_GAMES_MAX_N", None)  # the default size cap applies
    import lattice_games
    from lattice_games import cli

    wl = workloads.WORKLOADS[args.workload]
    SCRATCH.mkdir(exist_ok=True)
    directory = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    try:
        # one round at a time, keeping only the argv, so that input
        # generation adds no high-water mark of its own to peak_rss_mb
        stream = [[req.argv for req in batch] for batch in
                  itertools.islice(workloads.rounds(args.workload, args.seed, directory),
                                   POOL_ROUNDS)]
        if args.trace:
            trace = tracer.Tracer()
            trace.install()
            try:
                marks = (trace.mark(),)
                setup(lattice_games.lattice_for, wl.lattices)
                marks += (trace.mark(),)
                records = closed_loop(cli, stream, args.seconds, whole_rounds=True)
            finally:
                trace.uninstall()
        else:
            # the machine's speed drifts over seconds, so set-up is sampled on
            # both sides of the loop; setup_s is the median of all samples, in
            # refs, given in seconds at REF_NOMINAL_S a ref
            samples = setup_samples(wl.lattices)
            setup(lattice_games.lattice_for, wl.lattices)
            records = closed_loop(cli, stream, args.seconds, whole_rounds=False)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            setup_s = statistics.median(samples + setup_samples(wl.lattices)) * REF_NOMINAL_S
        requests = workloads.generate(args.workload, args.seed,
                                      min(POOL_ROUNDS, records[-1].round + 1), directory,
                                      write=False)
        failed, reasons, digest = judge(cli, records, requests)
        timed = complete_rounds(records, len(stream[0]))
        if args.trace:
            infos = [requests[rec.round % POOL_ROUNDS][rec.pos] for rec in timed]
            metrics = layer_metrics(trace, marks, timed, infos, wl.lattices,
                                    lattice_games.lattice_for)
        else:
            metrics = end_to_end_metrics(timed, setup_s, peak_rss_mb)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()

    size = len(stream[0])
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(records)} requests, {sum(rec.ns for rec in records) / 1e9:.2f} CPU s; "
          f"figures from the {len(timed)} in {len(timed) // size} whole rounds of {size}")
    for reason in reasons[:20]:
        print(f"FAILED {reason}")
    expected = stored_digest(args.workload, args.seed)
    digest_ok = expected in (None, digest)
    print(f"digest sha256:{digest} over the {size} reports of round 0"
          + ("" if expected is None else
             " matches the stored digest" if digest_ok else " DIFFERS from the stored digest"))
    print(f"failed_ratio = {failed / len(records):.4f} ({failed}/{len(records)})")
    if not args.trace:
        beyond = len(timed) - math.ceil(0.9 * len(timed))
        print(f"latency_p90_ref rests on {len(timed)} samples, {beyond} beyond it"
              + ("" if beyond >= P90_BEYOND else "; too few, run longer"))
        print(f"1 ref = {statistics.median(rec.ref_ns for rec in timed) / 1e6:.4g} ms of CPU "
              f"(median; {min(rec.ref_ns for rec in timed) / 1e6:.4g}"
              f"-{max(rec.ref_ns for rec in timed) / 1e6:.4g} ms)")
        for clock in ("ns", "wall_ns"):
            ns = [getattr(rec, clock) for rec in timed]
            print(f"{'CPU' if clock == 'ns' else 'wall'} time, for comparison: "
                  f"{len(ns) / (sum(ns) / 1e9):.6g} req/s, "
                  f"p50 {statistics.median(ns) / 1e6:.6g} ms, "
                  f"p90 {percentile(ns, 90) / 1e6:.6g} ms")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": digest_ok and not reasons,
                      "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
