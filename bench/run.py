"""Benchmark for the ``qbf`` CLI, timed end to end and per module.

Usage, from the repository root::

    python3 bench/run.py --workload casimir-sweep --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --write-expected

The programme is timed only from outside: every command is a fresh
``python -m qbf ...`` process (caches start cold, as they do for a CLI user),
run serially from this one process, one child at a time.  A *pass* is one
seeded batch of commands; passes repeat until the next one would end after
``--seconds``.  Each command's output is checked (committed expected output for
the byte-deterministic sweeps, invariants computed here for the seeded
queries); any failed check makes the run exit 1.

Workloads:

* ``casimir-sweep``: ``casimir-check`` on B2 and G2.  Pairs are unordered, so
  every fusion is a cold miss and each triple recomputes an exact Casimir.
* ``weight-sweep``: ``verify-weight --kind lst`` on A2 and ``--kind beta`` on
  B3 with seeded beta values.  Pairs are ordered, so about half the fusions
  repeat an earlier pair; per-triple work is a Decimal log comparison.
* ``exact-queries``: seeded one-shot ``character`` (always the E8 adjoint plus
  one small exceptional character), ``oracle-sl2`` (m = n = 8 at q = 0.9 plus
  a seeded small block), ``cb-region`` at height 12, ``norm --route both`` and
  ``fusion``.
  Fusion and norm queries take a seeded lambda deep inside the dominant chamber
  with a fixed small mu, so every pass checks the same number of triples.

End-to-end metrics (``--trace 0``):

* ``wall_s``: wall time of one pass, all of its processes included; the sum
  over the pass's command slots of each slot's median over the run's passes.
* ``setup_s``: median wall time of a fresh interpreter that imports ``qbf``
  and builds the workload's root systems, probed twice before every pass.
* ``triples_per_s``: fusion triples a pass decomposes and checks, divided by
  ``wall_s``.
* ``peak_rss_mb``: largest peak RSS among the run's processes.

The three times are scaled to the machine's nominal speed: a fixed
pure-Python loop is timed in this process between children, and each child's
wall time is multiplied by ``REF_NOMINAL_S`` over the loop's time around it
(see ``MachineSpeed``).  The times as measured are printed above the result.

``failed_frac`` (failed invocations over attempted) is printed with them; the
result line carries it as ``failed`` and ``attempted``.

``--trace 1`` alternates untraced passes with passes run through
``bench/tracer.py`` and reports per-layer metrics (medians over the traced
passes, each summed over a pass's processes).  A layer's ``self_s`` is the
time of its spans minus the part their child spans and aggregated calls cover,
plus its aggregated calls; module imports are spans of their layer, so the
numpy import counts towards ``sl2_oracle``.  ``trace.overhead_s`` is the
traced minus the untraced pass wall time (both scaled like ``wall_s``), and
``trace.unattributed_s`` the process wall time that no layer span covers.
Per-layer times other than ``trace.overhead_s`` are as measured.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
EXPECTED_FILE = BENCH / "expected.json"
TRACER = BENCH / "tracer.py"
TRACE_MARK = "qbf-trace "
CHILD_TIMEOUT_S = 60

WORKLOADS = ("casimir-sweep", "weight-sweep", "exact-queries")
SWEEPS = ("casimir-check", "verify-weight")
FORMATS = ("json", "csv", "table")
Q_VALUES = ("0.3", "0.5", "0.9")
# q sets the size of the oracle's exact rationals (9/10 costs 15 % more than
# 3/10 at m = n = 8), so the large block keeps one q and the pass a steady cost.
BIG_ORACLE_Q = "0.9"
# lst weights are central for beta >= 0 and beta_norm weights for beta >= 1,
# so every sweep command passes.
LST_BETAS = ("0.5", "1", "2", "4")
NORM_BETAS = ("1.5", "2", "3", "5")
SETUP_PER_PASS = 2
MIN_SETUP_PROBES = 6
# The reference loop's time on a machine running at the speed the end-to-end
# times are scaled to (the fast end of the machine the baseline was taken on).
REF_LOOPS = 300_000
REF_NOMINAL_S = 0.025

# Heights per workload; the smoke sizes exist for bench/test_harness.py.  Each
# command stays within a few seconds: the speed scaling brackets every child
# with reference timings, which follow the machine less closely over a long one.
SIZES = {
    "full": {"casimir": (("B2", 6), ("G2", 5)), "lst": ("A2", 8), "beta": ("B3", 2),
             "cb_height": 12, "oracle_m": 8},
    "smoke": {"casimir": (("B2", 2), ("G2", 1)), "lst": ("A2", 2), "beta": ("B3", 1),
              "cb_height": 2, "oracle_m": 2},
}

SMALL_CHARACTERS = (("F4", "1,0,0,0"), ("F4", "0,0,0,1"), ("E6", "1,0,0,0,0,0"),
                    ("E6", "0,1,0,0,0,0"), ("E6", "0,0,0,0,0,1"), ("E7", "1,0,0,0,0,0,0"),
                    ("E7", "0,0,0,0,0,0,1"), ("G2", "1,1"), ("G2", "2,0"), ("G2", "0,2"))
E8_ADJOINT = "0,0,0,0,0,0,0,1"
CB_TYPES = ("A2", "B2", "A1xA1")
# (slot, type, mu): lambda is drawn with every coordinate in DEEP, deep enough
# that lambda + rho + w is regular for every weight w of V(mu).
DEEP = (3, 8)
NORM_SLOTS = (("norm-A2", "A2", "1,0"), ("norm-B2", "B2", "0,1"))
FUSION_SLOTS = (("fusion-A2", "A2", "1,1"), ("fusion-G2", "G2", "1,0"))

SETUP_TYPES = {
    "casimir-sweep": ("B2", "G2"),
    "weight-sweep": ("A2", "B3"),
    "exact-queries": ("A1", "A2", "B2", "A1xA1", "G2", "F4", "E6", "E7", "E8"),
}

# Metric names and units are those BENCHMARK.json declares.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "QBF_PRECISION"}
    env["PYTHONPATH"] = str(SRC)
    return env


# -- workloads ---------------------------------------------------------------

@dataclass
class Command:
    """One CLI invocation and the slot it fills in a pass."""

    slot: str
    argv: list[str]

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _deep_weight(rng: random.Random, rank: int) -> str:
    return ",".join(str(rng.randint(*DEEP)) for _ in range(rank))


def sweep_slots(workload: str, size: str) -> dict[str, list[list[str]]]:
    """Each slot of a sweep pass with every command a seed can draw for it."""
    sizes = SIZES[size]
    slots = {}
    if workload == "casimir-sweep":
        for t, h in sizes["casimir"]:
            slots[f"casimir-{t}"] = [["casimir-check", "--type", t, "--height", str(h),
                                      "--format", f] for f in FORMATS]
    elif workload == "weight-sweep":
        for kind, betas in (("lst", LST_BETAS), ("beta", NORM_BETAS)):
            t, h = sizes[kind]
            slots[f"{kind}-{t}"] = [["verify-weight", "--type", t, "--kind", kind, "--beta", b,
                                     "--height", str(h), "--format", f]
                                    for b in betas for f in FORMATS]
    return slots


def make_pass(workload: str, rng: random.Random, size: str) -> list[Command]:
    if workload == "exact-queries":
        cmds = _query_pass(rng, size)
    else:
        cmds = [Command(slot, rng.choice(choices))
                for slot, choices in sweep_slots(workload, size).items()]
    rng.shuffle(cmds)
    return cmds


def _query_pass(rng: random.Random, size: str) -> list[Command]:
    sizes = SIZES[size]
    smoke = size == "smoke"
    cmds = []

    def add(slot: str, *argv: str) -> None:
        cmds.append(Command(slot, [*argv, "--format", "json"]))

    if not smoke:
        m = str(sizes["oracle_m"])
        add("character-E8", "character", "--type", "E8", "--mu", E8_ADJOINT)
        add("oracle-big", "oracle-sl2", "--q", BIG_ORACLE_Q, "--m", m, "--n", m)
    t, mu = rng.choice(SMALL_CHARACTERS)
    add("character-small", "character", "--type", t, "--mu", mu)
    m, n = 2, rng.randint(2, 6)
    if rng.random() < 0.5:
        m, n = n, m
    add("oracle-small", "oracle-sl2", "--q", rng.choice(Q_VALUES), "--m", str(m), "--n", str(n))
    add("cb-region", "cb-region", "--type", rng.choice(CB_TYPES), "--q", rng.choice(Q_VALUES),
        "--beta", rng.choice(NORM_BETAS), "--height", str(sizes["cb_height"]))
    for slot, t, mu in NORM_SLOTS[:1] if smoke else NORM_SLOTS:
        add(slot, "norm", "--type", t, "--lambda", _deep_weight(rng, 2), "--mu", mu,
            "--q", rng.choice(Q_VALUES), "--route", "both")
    for slot, t, mu in FUSION_SLOTS[:1] if smoke else FUSION_SLOTS:
        add(slot, "fusion", "--type", t, "--lambda", _deep_weight(rng, 2), "--mu", mu)
    return cmds


# -- output checks -----------------------------------------------------------

def _weights(text: str) -> tuple[int, ...]:
    return tuple(int(c) for c in text.split(","))


class Checker:
    """Decides whether one command's output is correct; returns its triple count."""

    def __init__(self, expected: dict) -> None:
        self.expected = expected
        sys.path.insert(0, str(SRC))
        import qbf  # the checks compute Weyl dimensions and fusion counts here

        self.qbf = qbf

    def check(self, cmd: Command, rc: int, stdout: bytes) -> tuple[str | None, int]:
        """(None, triples) when correct, else (reason, 0)."""
        if rc != 0:
            return f"exit code {rc}", 0
        if cmd.argv[0] in SWEEPS:
            want = self.expected.get(cmd.key)
            if want is None:
                return "no expected output committed", 0
            if stdout.decode() != want["stdout"]:
                return "output differs from the expected output", 0
            return None, want["triples"]
        try:
            payload = json.loads(stdout)
            return getattr(self, "_check_" + cmd.argv[0].replace("-", "_"))(cmd, payload)
        except (ValueError, KeyError, TypeError) as exc:
            return f"malformed output: {exc!r}", 0

    def _arg(self, cmd: Command, flag: str) -> str:
        return cmd.argv[cmd.argv.index(flag) + 1]

    def _check_fusion(self, cmd, payload):
        rs = self.qbf.build_root_system(self._arg(cmd, "--type"))
        lam, mu = _weights(self._arg(cmd, "--lambda")), _weights(self._arg(cmd, "--mu"))
        comps = payload["components"]
        total = sum(c["mult"] * rs.weyl_dim(c["nu"]) for c in comps)
        if total != rs.weyl_dim(lam) * rs.weyl_dim(mu):
            return f"sum of m * dim(nu) is {total}, not dim(lambda) * dim(mu)", 0
        return None, len(comps)

    def _check_character(self, cmd, payload):
        rs = self.qbf.build_root_system(self._arg(cmd, "--type"))
        want = rs.weyl_dim(_weights(self._arg(cmd, "--mu")))
        if payload["dim"] != want:
            return f"dim {payload['dim']} is not the Weyl dimension {want}", 0
        return None, 0

    def _check_norm(self, cmd, payload):
        if payload["match"] is not True:
            return "closed and R-matrix routes disagree", 0
        rs = self.qbf.build_root_system(self._arg(cmd, "--type"))
        lam, mu = _weights(self._arg(cmd, "--lambda")), _weights(self._arg(cmd, "--mu"))
        return None, len(self.qbf.tensor_decompose(rs, mu, lam).components)

    def _check_oracle_sl2(self, cmd, payload):
        if payload["passed"] is not True:
            return f"oracle failed: {payload['failures']}", 0
        return None, len(payload["eigenvalues"])

    def _check_cb_region(self, cmd, payload):
        rank = self.qbf.build_root_system(self._arg(cmd, "--type")).rank
        want = (int(self._arg(cmd, "--height")) + 1) ** rank
        if len(payload["rows"]) != want:
            return f"{len(payload['rows'])} rows, expected {want}", 0
        return None, 0


# -- running -----------------------------------------------------------------

def reference() -> float:
    """Time a fixed pure-Python loop in this process."""
    start = time.perf_counter()
    acc = 0
    for i in range(REF_LOOPS):
        acc += (i * i) % 7
    return time.perf_counter() - start


class MachineSpeed:
    """Scales child wall times to the machine's nominal speed.

    Other tenants of the host slow it down by up to a third for minutes at a
    time, and every Python process alike.  Timing the reference loop before and
    after each child measures that slowdown, and dividing it out removes it.
    """

    def __init__(self) -> None:
        self.refs = [reference()]

    def scale(self, wall: float) -> float:
        self.refs.append(reference())
        return wall * REF_NOMINAL_S / statistics.fmean(self.refs[-2:])


@dataclass
class Result:
    """One finished invocation: wall time as measured and scaled, and its check."""

    cmd: Command
    wall: float
    scaled: float
    stdout: bytes
    trace: dict | None
    error: str | None
    triples: int


def run_child(argv: list[str]) -> tuple[float, int, bytes, bytes]:
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                          timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr


def execute(cmd: Command, checker: Checker, speed: MachineSpeed, traced: bool) -> Result:
    launcher = [str(TRACER)] if traced else ["-m", "qbf"]
    try:
        wall, rc, out, err = run_child([sys.executable, *launcher, *cmd.argv])
    except subprocess.TimeoutExpired:
        wall = float(CHILD_TIMEOUT_S)
        return Result(cmd, wall, speed.scale(wall), b"", None, "timed out", 0)
    scaled = speed.scale(wall)
    trace = None
    if traced:
        lines = err.decode(errors="replace").splitlines()
        if lines and lines[-1].startswith(TRACE_MARK):
            trace = json.loads(lines.pop()[len(TRACE_MARK):])
        err = "\n".join(lines).encode()
    error, triples = checker.check(cmd, rc, out)
    if error is None and traced and trace is None:
        error = "tracer wrote no trace"
    if error is not None and err.strip():
        error += ": " + err.decode(errors="replace").strip().splitlines()[-1]
    return Result(cmd, wall, scaled, out, trace, error, triples)


SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import qbf
t1 = time.perf_counter()
for t in sys.argv[1:]:
    qbf.build_root_system(t)
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""


def measure_setup(types: tuple[str, ...], samples: dict[str, list[float]],
                  speed: MachineSpeed) -> None:
    """One fresh-process set-up probe: bare interpreter, then import plus build.

    ``setup_s`` is scaled to nominal speed; the per-layer split is as measured.
    """
    wall, rc, _, err = run_child([sys.executable, "-c", "pass"])
    if rc != 0:
        raise SystemExit(f"error: bare interpreter probe failed: {err.decode()}")
    speed.scale(wall)
    samples["setup.interpreter_s"].append(wall)
    wall, rc, out, err = run_child([sys.executable, "-c", SETUP_CODE, *types])
    if rc != 0:
        raise SystemExit(f"error: set-up probe failed: {err.decode().strip()}")
    import_s, build_s = (float(x) for x in out.split())
    samples["setup_s"].append(speed.scale(wall))
    samples["setup.import_s"].append(import_s)
    samples["root_system.build_s"].append(build_s)


def slot_samples(passes: list[list[Result]], scaled: bool) -> dict[str, list[float]]:
    """Wall times per command slot across passes, scaled or as measured."""
    by_slot: dict[str, list[float]] = {}
    for results in passes:
        for r in results:
            by_slot.setdefault(r.cmd.slot, []).append(r.scaled if scaled else r.wall)
    return by_slot


def slot_wall(passes: list[list[Result]], scaled: bool) -> float:
    """Sum over slots of each slot's median wall time across passes."""
    return sum(statistics.median(v) for v in slot_samples(passes, scaled).values())


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str,
                 checker: Checker) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    setup: dict[str, list[float]] = {"setup_s": [], "setup.interpreter_s": [],
                                     "setup.import_s": [], "root_system.build_s": []}
    plain: list[list[Result]] = []
    traced: list[list[Result]] = []
    speed = MachineSpeed()
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        # Set-up probes are spread over the run, so a slow spell of the
        # machine cannot cover all of them.
        for _ in range(SETUP_PER_PASS):
            measure_setup(SETUP_TYPES[workload], setup, speed)
        cmds = make_pass(workload, rng, size)
        plain.append([execute(c, checker, speed, traced=False) for c in cmds])
        if trace:
            traced.append([execute(c, checker, speed, traced=True) for c in cmds])
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > seconds:
            break
    while len(setup["setup_s"]) < MIN_SETUP_PROBES:
        measure_setup(SETUP_TYPES[workload], setup, speed)

    results = [r for p in plain + traced for r in p]
    failures = [r for r in results if r.error]
    for r in failures:
        print(f"FAILED {r.cmd.key}: {r.error}", file=sys.stderr)
    if trace:
        metrics = layer_metrics(traced, setup)
        metrics["trace.overhead_s"] = slot_wall(traced, True) - slot_wall(plain, True)
    else:
        wall = slot_wall(plain, True)
        triples = statistics.median(sum(r.triples for r in p) for p in plain)
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setup["setup_s"]),
            "triples_per_s": triples / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        }
    samples = {"passes": len(plain), "slots": slot_samples(plain, False),
               "setup_s": setup["setup_s"], "reference_s": speed.refs}
    return {"metrics": metrics, "attempted": len(results), "failed": len(failures),
            "samples": samples}


def process_layers(trace: dict, wall: float) -> dict[str, float]:
    """Per-layer sums for one traced process."""
    spans = trace["spans"]
    covered = [0.0] * len(spans)
    for s in spans:
        if s[4] >= 0:
            covered[s[4]] += s[3] - s[2]
    out: dict[str, float] = {}

    def add(name: str, value: float) -> None:
        out[name] = out.get(name, 0.0) + value

    roots = trace["agg_outside"]
    for i, (layer, name, start, end, parent, nested, flag, count) in enumerate(spans):
        if flag == 2:  # warm probe: timed for warm_call_us only
            add("warm_n", 1)
            add("warm_s", end - start)
            continue
        dur = end - start
        add(f"{layer}.self_s", dur - covered[i] - nested)
        add(f"{layer}.{name}.calls", 1)
        add(f"{layer}.{name}.s", dur)
        if parent < 0:
            roots += dur
        if name == "cb_extends":
            add("cb_region.decisions", 1)
        if name in ("tensor_decompose", "full_weights"):
            add(f"{layer}.{name}.distinct", flag)
            if name == "tensor_decompose":
                add("fusion.components", count)
                add("warm_n" if flag == 0 else "cold_n", 1)
                add("warm_s" if flag == 0 else "cold_s", dur)
                if parent >= 0 and spans[parent][0] == "central_weights":
                    add("central_weights.triples", count)
    for key, (calls, secs) in trace["agg"].items():
        add(f"{key}.calls", calls)
        add(f"{key}.s", secs)
        add(f"{key.split('.')[0]}.self_s", secs)
    add("trace.unattributed_s", wall - roots)
    return out


def layer_metrics(traced: list[list[Result]], setup: dict[str, list[float]]) -> dict:
    per_pass = []
    for results in traced:
        sums: dict[str, float] = {"cli.output_bytes": 0.0}
        for r in results:
            sums["cli.output_bytes"] += len(r.stdout)
            if r.trace is not None:
                for k, v in process_layers(r.trace, r.wall).items():
                    sums[k] = sums.get(k, 0.0) + v
        calls = sums.get("fusion.tensor_decompose.calls", 0.0)
        fw_calls = sums.get("characters.full_weights.calls", 0.0)
        sums["fusion.tensor_decompose.distinct"] = sums.get("fusion.tensor_decompose.distinct", 0.0)
        sums["fusion.repeat_ratio"] = 1 - sums["fusion.tensor_decompose.distinct"] / calls if calls else 0.0
        sums["characters.full_weights.repeat_ratio"] = (
            1 - sums.get("characters.full_weights.distinct", 0.0) / fw_calls if fw_calls else 0.0)
        sums["fusion.cold_call_us"] = 1e6 * sums.get("cold_s", 0.0) / max(sums.get("cold_n", 0.0), 1)
        sums["fusion.warm_call_us"] = 1e6 * sums.get("warm_s", 0.0) / max(sums.get("warm_n", 0.0), 1)
        per_pass.append(sums)
    metrics = {}
    for name in (m["name"] for m in SPEC["per_layer"]):
        if name in setup:
            metrics[name] = statistics.median(setup[name])
        elif name != "trace.overhead_s":
            metrics[name] = statistics.median(p.get(name, 0.0) for p in per_pass)
    return metrics


# -- expected outputs --------------------------------------------------------

def count_triples(argv: list[str]) -> int:
    """Fusion triples a sweep command checks, counted through the library."""
    sys.path.insert(0, str(SRC))
    from qbf import build_root_system, tensor_decompose

    rs = build_root_system(argv[argv.index("--type") + 1])
    weights = rs.dominant_weights_up_to(int(argv[argv.index("--height") + 1]))
    ordered = argv[0] == "verify-weight"
    return sum(len(tensor_decompose(rs, lam, mu).components)
               for i, lam in enumerate(weights)
               for mu in (weights if ordered else weights[i:]))


def write_expected() -> None:
    expected = {}
    counts: dict[tuple, int] = {}
    for size in SIZES:
        for workload in WORKLOADS:
            for argv in (a for choices in sweep_slots(workload, size).values() for a in choices):
                _, rc, out, err = run_child([sys.executable, "-m", "qbf", *argv])
                if rc != 0:
                    raise SystemExit(f"error: {' '.join(argv)} exited {rc}: {err.decode()}")
                shape = (argv[0], argv[argv.index("--type") + 1], argv[argv.index("--height") + 1])
                if shape not in counts:
                    counts[shape] = count_triples(argv)
                expected[" ".join(argv)] = {"stdout": out.decode(), "triples": counts[shape]}
                print(f"{counts[shape]:8d} triples  {' '.join(argv)}", flush=True)
    EXPECTED_FILE.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


# -- entry point -------------------------------------------------------------

def report(workload: str, seed: int, trace: bool, res: dict) -> dict:
    s = res["samples"]
    print(f"# {workload} seed={seed} trace={int(trace)}: {s['passes']} passes, "
          f"{res['attempted']} invocations, {len(s['setup_s'])} set-up probes")
    refs = s["reference_s"]
    print(f"# reference loop: n={len(refs)}, median {1e3 * statistics.median(refs):.2f} ms, "
          f"nominal {1e3 * REF_NOMINAL_S:.2f} ms; slot times below are as measured")
    for slot, walls in sorted(s["slots"].items()) + [("set-up (scaled)", s["setup_s"])]:
        print(f"#   {slot:22s} n={len(walls):3d}  median {statistics.median(walls):9.4f} s  "
              f"min {min(walls):9.4f}  max {max(walls):9.4f}  samples "
              + " ".join(f"{w:.4f}" for w in walls))
    for name, value in res["metrics"].items():
        print(f"{name:44s} {value:14.6f} {UNITS[name]}")
    if not trace:
        frac = res["failed"] / res["attempted"]
        print(f"{'failed_frac':44s} {frac:14.6f} ratio ({res['failed']}/{res['attempted']})")
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in res["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(SIZES), default="full",
                    help="smoke runs tiny heights, for the harness self-test")
    ap.add_argument("--write-expected", action="store_true",
                    help="regenerate bench/expected.json from the current code")
    args = ap.parse_args(argv)

    if not (SRC / "qbf" / "__init__.py").is_file():
        print(f"error: no qbf sources under {SRC}", file=sys.stderr)
        return 2
    if args.write_expected:
        write_expected()
        return 0
    if not EXPECTED_FILE.is_file():
        print(f"error: {EXPECTED_FILE} is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        # One process per workload, so peak_rss_mb covers that workload's children only.
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        codes = [subprocess.run([sys.executable, __file__, "--workload", w, *rest]).returncode
                 for w in WORKLOADS]
        return max(codes)
    checker = Checker(json.loads(EXPECTED_FILE.read_text()))
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size,
                       checker)
    line = report(args.workload, args.seed, bool(args.trace), res)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
