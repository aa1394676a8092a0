"""Fixed-work benchmark over the four execution substrates.

Usage (from the repository root)::

    python3 perfbench/run.py --workload event-abstract --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the workload twice in one process, untraced and then
traced, prints the per-layer metrics and writes the layer ledger (JSON)
plus the retained raw spans (CSV) under ``--out``.  Either way the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero when
an output check fails.  See perfbench/README.md for the workloads, the
metrics and which layer should move which metric.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("event-abstract", "event-rlnc", "fastsim-100k", "live-swarm-200")
LIVE = "live-swarm-200"

#: Earlier profiler observations (ROADMAP) the ledger is set beside:
#: workload -> (per-layer metric, observed share, what was observed).
ROADMAP_SHARES = {
    "event-abstract": (
        "core.peer_segments.self_share", 0.50,
        "per-block _store_block/_expire_block bookkeeping",
    ),
    "event-rlnc": ("coding.self_share", 0.41, "recode"),
}

#: name -> unit of every end-to-end metric (untraced runs).
END_TO_END = {
    "sim_units_per_s": "unit/s",
    "cpu_s_per_sim_unit": "s/unit",
    "served_fraction": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Span names whose calls and self time are per-layer metrics.
TIMED_LAYERS = (
    "core.peer.add_block",
    "core.peer.remove_block",
    "core.peer.make_coded_block",
    "core.segments",
    "core.gossip.tick",
    "core.server.pull",
    "coding.rlnc.recode",
    "coding.rlnc.offer",
    "coding.linalg.add",
    "coding.linalg.rank",
    "coding.gf256",
    "sim.metrics",
    "fastsim.kernel_inject",
    "fastsim.kernel_gossip",
    "fastsim.kernel_pull",
    "fastsim.kernel_ttl",
    "fastsim.kernel_churn",
    "live.framing.encode",
    "live.framing.decode",
    "live.wire.block_to_wire",
    "live.wire.block_from_wire",
    "python.gc",
)
#: Span names reported by self time only.
SELF_ONLY = (
    "sim.event",
    "fastsim.compact_segments",
    "fastsim.push_averages",
    "fastsim.consistency_check",
    "fastsim.stepper",
)


def per_layer_units() -> Dict[str, str]:
    """name -> unit of every per-layer metric (traced runs)."""
    units = {
        "sim.engine.events_fired": "count",
        "sim.engine.events_cancelled": "count",
        "sim.engine.heap_compactions": "count",
        "sim.engine.pending": "count",
        "sim.engine.self_s": "s",
        "sim.engine.ns_per_event": "ns",
    }
    for name in TIMED_LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in SELF_ONLY:
        units[f"{name}.self_s"] = "s"
    units.update({
        "core.gossip.transfer_ratio": "ratio",
        "core.server.useful_ratio": "ratio",
        "core.server.idle_ratio": "ratio",
        "core.peer_segments.self_share": "fraction",
        "coding.rlnc.innovative_ratio": "ratio",
        "coding.gf256.bytes": "bytes",
        "coding.self_share": "fraction",
        "live.framing.encode.bytes": "bytes",
        "live.framing.decode.bytes": "bytes",
        "live.transport.send.calls": "count",
        "live.transport.request.calls": "count",
        "live.transport.request_p50_ms": "ms",
        "live.transport.request_p99_ms": "ms",
        "live.transport.opens": "count",
        "live.server.empty_race_ratio": "ratio",
        "live.clock.events": "count",
        "live.clock.lateness_p50_ms": "ms",
        "live.clock.lateness_p99_ms": "ms",
        "asyncio.loop_lag_samples": "count",
        "asyncio.loop_lag_p50_ms": "ms",
        "asyncio.loop_lag_p99_ms": "ms",
        "trace.overhead_ratio": "ratio",
    })
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(phase: Any) -> Dict[str, float]:
    """The untraced metrics of one measured phase."""
    return {
        "sim_units_per_s": phase.sim_units / phase.wall_s,
        "cpu_s_per_sim_unit": phase.cpu_s / phase.sim_units,
        "served_fraction": phase.served_fraction,
        "setup_s": statistics.median(phase.setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(
    workload: str, plain: Any, traced: Any
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Per-layer metrics and the ledger of one traced phase."""
    import workloads
    from repro.util.summary import percentile as interpolated

    def percentile(values: List[float], q: float) -> float:
        return interpolated(values, q) if values else 0.0

    ledger = traced.ledger
    extra = traced.extra
    out = {name: 0.0 for name in per_layer_units()}
    for name in TIMED_LAYERS:
        out[f"{name}.calls"] = ledger.calls(name)
        out[f"{name}.self_s"] = ledger.self_s(name)
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = ledger.self_s(name)
    events = extra.get("events_fired", 0)
    engine_self = ledger.self_s("sim.engine")
    out.update({
        "sim.engine.events_fired": events,
        "sim.engine.events_cancelled": extra.get("events_cancelled", 0),
        "sim.engine.heap_compactions": extra.get("heap_compactions", 0),
        "sim.engine.pending": extra.get("pending", 0),
        "sim.engine.self_s": engine_self,
        "sim.engine.ns_per_event": _ratio(engine_self * 1e9, events),
        "core.gossip.transfer_ratio": _ratio(
            ledger.count("core.gossip.tick.transferred"),
            ledger.calls("core.gossip.tick"),
        ),
        "coding.rlnc.innovative_ratio": _ratio(
            ledger.count("coding.rlnc.offer.innovative"),
            ledger.calls("coding.rlnc.offer"),
        ),
        "coding.gf256.bytes": ledger.count("coding.gf256.bytes"),
        "live.framing.encode.bytes": ledger.count("live.framing.encode.bytes"),
        "live.framing.decode.bytes": ledger.count("live.framing.decode.bytes"),
        "live.transport.send.calls": ledger.count("live.transport.send.calls"),
        "live.transport.request.calls": ledger.count("live.transport.request.calls"),
        "live.transport.opens": ledger.count("live.transport.opens"),
    })
    if workload == LIVE:
        # Denominator: process CPU over the window (the loop is not busy
        # all the time); request/lateness/lag are wall-clock latencies.
        base = traced.cpu_s
        out["live.server.empty_race_ratio"] = _ratio(
            extra["pull_empty_races"], extra["pulls"]
        )
        requests = ledger.samples.get("live.transport.request_ms", [])
        lateness = ledger.samples.get("live.clock.lateness_ms", [])
        lag = ledger.samples.get("asyncio.loop_lag_ms", [])
        out.update({
            "live.transport.request_p50_ms": percentile(requests, 50),
            "live.transport.request_p99_ms": percentile(requests, 99),
            "live.clock.events": len(lateness),
            "live.clock.lateness_p50_ms": percentile(lateness, 50),
            "live.clock.lateness_p99_ms": percentile(lateness, 99),
            "asyncio.loop_lag_samples": len(lag),
            "asyncio.loop_lag_p50_ms": percentile(lag, 50),
            "asyncio.loop_lag_p99_ms": percentile(lag, 99),
        })
        # Traced over untraced CPU per simulated unit.
        out["trace.overhead_ratio"] = _ratio(
            traced.cpu_s / traced.sim_units, plain.cpu_s / plain.sim_units
        )
    else:
        base = extra["fixed_wall_s"]
        if ledger.calls("core.server.pull"):
            out["core.server.useful_ratio"] = _ratio(extra["useful_pulls"], extra["pulls"])
            out["core.server.idle_ratio"] = _ratio(extra["idle_pulls"], extra["pulls"])
        # Traced over untraced wall seconds per simulated unit.
        out["trace.overhead_ratio"] = _ratio(
            traced.wall_s / traced.sim_units, plain.wall_s / plain.sim_units
        )
    peer_segments = sum(
        self_s for name, (_, self_s, _) in ledger.spans.items()
        if name.startswith("core.peer.") or name == "core.segments"
    )
    coding = sum(
        self_s for name, (_, self_s, _) in ledger.spans.items()
        if name.startswith("coding.")
    )
    out["core.peer_segments.self_share"] = _ratio(peer_segments, base)
    out["coding.self_share"] = _ratio(coding, base)
    document = {
        "workload": workload,
        "window": {
            "wall_s": traced.wall_s,
            "sim_units": traced.sim_units,
            "ledger_sim_units": traced.sim_units if workload == LIVE
            else workloads.SIM_WORKLOADS[workload].fixed,
            "share_base": "process CPU s" if workload == LIVE else "wall s in the engine",
            "share_base_s": base,
        },
        "layers": {
            name: {
                "calls": calls,
                "self_s": self_s,
                "total_s": total_s,
                "self_share": _ratio(self_s, base),
            }
            for name, (calls, self_s, total_s) in sorted(ledger.spans.items())
            if calls
        },
        "counts": ledger.counts,
        "latency_ms": {
            name: {
                "samples": len(values),
                "p50": percentile(values, 50),
                "p99": percentile(values, 99),
            }
            for name, values in ledger.samples.items()
        },
        "spans_kept": ledger.kept,
        "spans_dropped": ledger.dropped,
        "untraced": end_to_end(plain),
        "traced": {
            "sim_units_per_s": traced.sim_units / traced.wall_s,
            "cpu_s_per_sim_unit": traced.cpu_s / traced.sim_units,
        },
        "metrics": out,
    }
    if workload in ROADMAP_SHARES:
        name, observed, scope = ROADMAP_SHARES[workload]
        document["roadmap_comparison"] = {
            "metric": name,
            "measured": out[name],
            "roadmap": observed,
            "roadmap_scope": scope,
            "agrees": abs(out[name] - observed) <= 0.1,
        }
    return out, document


def run_one(args: argparse.Namespace) -> int:
    import workloads
    from spans import Patcher, Tracer

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if args.workload == LIVE:
        def measure(seconds: float, reps: int, tracer: Optional[Tracer] = None) -> Any:
            return workloads.measure_live(args.seed, seconds, reps, tracer)
    else:
        spec = workloads.SIM_WORKLOADS[args.workload]

        def measure(seconds: float, reps: int, tracer: Optional[Tracer] = None) -> Any:
            if tracer is None:
                return workloads.measure_sim(spec, args.seed, seconds, reps)
            with Patcher() as patcher:
                spec.instrument(patcher, tracer)
                return workloads.measure_sim(spec, args.seed, seconds, reps, tracer)

    if not args.trace:
        reps = workloads.LIVE_SETUP_REPS if args.workload == LIVE else workloads.SETUP_REPS
        phase = measure(args.seconds, reps)
        checks = phase.checks
        metrics = end_to_end(phase)
        units = END_TO_END
        artifact = out_dir / f"{stem}-metrics.json"
        document: Dict[str, Any] = {"workload": args.workload, "metrics": metrics}
    else:
        half = args.seconds / 2.0
        plain = measure(half, 1)
        tracer = Tracer()
        traced = measure(half, 1, tracer)
        checks = plain.checks + traced.checks
        if plain.digest is not None:
            same = plain.digest == traced.digest
            checks.append(workloads.Check(
                "trace_neutral_digest", 1, 0 if same else 1,
                f"{plain.digest} vs {traced.digest}",
            ))
        metrics, document = layer_metrics(args.workload, plain, traced)
        units = per_layer_units()
        spans_file = out_dir / f"{stem}-spans.csv"
        tracer.write_spans(spans_file, traced.ledger.kept)
        document["spans_file"] = spans_file.name
        artifact = out_dir / f"{stem}-ledger.json"
        phase = traced

    attempted = sum(check.attempted for check in checks)
    failed = sum(check.failed for check in checks)
    document.update({
        "seed": args.seed,
        "seconds": args.seconds,
        "report_sha256": phase.digest,
        "checks": [vars(check) for check in checks],
    })
    artifact.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for check in checks:
        status = "ok" if not check.failed else "FAILED"
        print(f"  check {check.name}: {check.attempted - check.failed}/{check.attempted} {status} {check.detail}".rstrip())
    if phase.digest is not None:
        print(f"  report_sha256 {phase.digest}")
    print(f"  failed_fraction {_ratio(failed, attempted):.6g} ({failed}/{attempted})")
    if not args.trace:
        print(f"  setup_s runs {' '.join(f'{value:.4f}' for value in phase.setup_s)}")
        print(f"  window {phase.sim_units:.4g} sim units over {phase.wall_s:.3f} s wall, {phase.cpu_s:.3f} s CPU")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units[name]}")
    comparison = document.get("roadmap_comparison")
    if comparison is not None:
        verdict = "agrees" if comparison["agrees"] else "DISAGREES"
        print(
            f"  roadmap {comparison['metric']} {comparison['measured']:.3f} vs "
            f"~{comparison['roadmap']:.2f} ({comparison['roadmap_scope']}): {verdict}"
        )
    print(f"  artifact {artifact}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    merged: Dict[str, Any] = {}
    attempted = failed = 0
    codes = []
    for workload in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", args.out,
        ]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        codes.append(child.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            attempted += 1
            failed += 1
            continue
        attempted += result["attempted"]
        failed += result["failed"]
        for name, value in result["metrics"].items():
            merged[f"{workload}.{name}"] = value
    print(json.dumps({
        "correct": failed == 0 and not any(codes),
        "attempted": attempted,
        "failed": failed,
        "metrics": merged,
    }))
    return 0 if failed == 0 and not any(codes) else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", default=str(ROOT / "perfbench" / "out"),
        help="directory for the metrics / ledger / span artifacts",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
