#!/usr/bin/env python3
"""Diff two BENCH_analysis.json files (google-benchmark JSON output).

Usage: diff_bench.py OLD NEW

Prints per-benchmark speedup (old real_time / new real_time) and FAILS
(exit 1) when any shared benchmark's wcet_cycles counter changed: the
computed bounds are a regression oracle — perf work must keep every
bound bit-identical.

Benchmarks that record per-phase timing counters (decode_ms, value_ms,
loop_ms, cache_ms, pipeline_ms, path_ms, ilp_ms — see
bench_analysis_perf.cpp) additionally get a phase-level comparison so a
regression hiding inside an unchanged total stays visible. Phase times
are wall-clock and noisy, so they inform but never fail the diff.
Structural counters (sub_ilps: IPET sub-ILPs per decomposition mode;
cache_joins / cache_join_skips: abstract-cache set joins examined vs.
skipped by COW pointer equality; set_image_allocs /
live_set_images_peak: set-image allocation traffic and high-water mark;
budget_checks: governor checkpoints consulted; degradations:
budget-ledger size, must stay 0 in the unlimited-budget bench;
cancel_latency_us: cancel-request-to-unwind latency, -1 when the run
was never cancelled; phase1_pivots / phase2_pivots: simplex pivots
spent proving feasibility vs. optimizing — network-flow crash bases
keep phase1_pivots at 0 on fact-free workloads; crash_basis_rows:
artificial variables replaced by spanning-tree columns at tableau
construction) are printed old -> new when present.

Validation-oracle counters (paths_explored: complete paths costed by
the exhaustive path-exploration oracle; witness_replayed: whether the
ILP witness replayed on the simulator; tightness_x1000: stated WCET
over measured cycles, x1000 — see src/validate) are printed when
present, and tightness is gated: the replay is deterministic, so a
looser ratio means the bound itself loosened.

Four hard gates beyond the oracle:
  * a nonzero `degradations` counter in the new run fails the diff —
    the tracked numbers would describe a degraded analysis;
  * `tightness_x1000` may not grow by more than 5% — a deterministic
    replay measuring the same cycles under a >5% larger bound means
    the analysis lost precision;
  * a benchmark whose baseline recorded a nonzero `tightness_x1000`
    may neither drop the counter nor report 0 — both are exactly the
    states a broken replay leaves behind, and a truthiness check here
    once let them bypass the 5% gate silently;
  * the GUARDED benchmarks' end-to-end time may not regress by more
    than 5% AND 2 ms — the budget/cancellation checkpoints ride the
    hottest loops, and their overhead is part of what this file
    tracks. Both real_time AND cpu_time must cross the threshold to
    fail: the guarded benchmark runs 4 analysis threads, so on a
    loaded or single-core runner its wall clock is dominated by the
    scheduler, not by the code under test — cpu_time regressing with
    it is what distinguishes a real slowdown from oversubscription.
"""
import json
import sys

PHASES = ["decode_ms", "value_ms", "loop_ms", "cache_ms", "pipeline_ms", "path_ms", "ilp_ms"]
COUNTERS = [
    "sub_ilps",
    "phase1_pivots",
    "phase2_pivots",
    "crash_basis_rows",
    "cache_joins",
    "cache_join_skips",
    "set_image_allocs",
    "live_set_images_peak",
    "budget_checks",
    "degradations",
    "cancel_latency_us",
    "paths_explored",
    "witness_replayed",
    "tightness_x1000",
    "serve_requests",
    "fingerprint_hits",
    "dirty_instances",
]

# Allowed growth of tightness_x1000 (WCET over deterministic measured
# cycles) before the diff fails: looser than this means lost precision.
TIGHTNESS_RATIO = 1.05

# Benchmarks whose end-to-end total is guarded against regression:
# both real_time and cpu_time must stay within GUARD_RATIO of the
# baseline (with a GUARD_FLOOR_MS absolute allowance for scheduler
# noise on short runs) — see the docstring for why a single-signal
# guard misfires on loaded runners.
GUARDED = ["BM_analyze_scaling/64"]
GUARD_RATIO = 1.05
GUARD_FLOOR_MS = 2.0


def load(path):
    with open(path) as f:
        data = json.load(f)
    out = {}
    for b in data.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        out[b["name"]] = b
    return out


def main():
    if len(sys.argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    old, new = load(sys.argv[1]), load(sys.argv[2])
    missing = [name for name in old if name not in new]
    if missing:
        # A tracked benchmark silently disappearing would bypass the
        # oracle gate entirely — treat it as a failure.
        print(f"diff_bench: FAIL — benchmarks missing from new run: {', '.join(missing)}")
        return 1
    shared = [name for name in old if name in new]
    if not shared:
        print("diff_bench: baseline has no benchmarks; nothing to compare")
        return 0
    mismatches = []
    degraded = []
    slow = []
    loosened = []
    lost_tightness = []
    print(f"{'benchmark':<32} {'old ms':>12} {'new ms':>12} {'speedup':>8}  wcet_cycles")
    for name in shared:
        o, n = old[name], new[name]
        scale = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}
        o_ms = o["real_time"] * scale.get(o.get("time_unit", "ns"), 1e-6)
        n_ms = n["real_time"] * scale.get(n.get("time_unit", "ns"), 1e-6)
        o_cpu = o["cpu_time"] * scale.get(o.get("time_unit", "ns"), 1e-6)
        n_cpu = n["cpu_time"] * scale.get(n.get("time_unit", "ns"), 1e-6)
        speedup = o_ms / n_ms if n_ms > 0 else float("inf")
        if n.get("degradations", 0) != 0:
            degraded.append(name)
        # Explicit `is not None` throughout: `if o_t and n_t` treated a
        # recorded 0 exactly like a missing counter, so a run whose
        # replay silently stopped happening (tightness 0) or stopped
        # being recorded at all sailed past the looseness gate.
        o_t, n_t = o.get("tightness_x1000"), n.get("tightness_x1000")
        if o_t is not None and o_t != 0:
            if n_t is None:
                lost_tightness.append(f"{name} (tightness_x1000 counter dropped)")
            elif n_t == 0:
                lost_tightness.append(f"{name} (tightness_x1000 {int(o_t)} -> 0)")
            elif n_t > o_t * TIGHTNESS_RATIO:
                loosened.append(f"{name} ({int(o_t)} -> {int(n_t)})")
        real_slow = n_ms > o_ms * GUARD_RATIO and n_ms - o_ms > GUARD_FLOOR_MS
        cpu_slow = n_cpu > o_cpu * GUARD_RATIO and n_cpu - o_cpu > GUARD_FLOOR_MS
        if name in GUARDED and real_slow and cpu_slow:
            slow.append(f"{name} (real {o_ms:.3f} -> {n_ms:.3f} ms, "
                        f"cpu {o_cpu:.3f} -> {n_cpu:.3f} ms)")
        o_w, n_w = o.get("wcet_cycles"), n.get("wcet_cycles")
        verdict = ""
        if o_w is not None and n_w is not None:
            verdict = f"{int(n_w)}" if o_w == n_w else f"{int(o_w)} -> {int(n_w)}  ORACLE CHANGED"
            if o_w != n_w:
                mismatches.append(name)
        print(f"{name:<32} {o_ms:>12.3f} {n_ms:>12.3f} {speedup:>7.2f}x  {verdict}")
        for phase in PHASES:
            o_p, n_p = o.get(phase), n.get(phase)
            if o_p is None or n_p is None:
                continue
            ratio = o_p / n_p if n_p > 0 else float("inf")
            flag = "  << slower" if n_p > o_p * 1.25 and n_p - o_p > 1.0 else ""
            print(f"    {phase:<28} {o_p:>12.3f} {n_p:>12.3f} {ratio:>7.2f}x{flag}")
        for counter in COUNTERS:
            o_c, n_c = o.get(counter), n.get(counter)
            if o_c is None or n_c is None:
                continue
            print(f"    {counter:<28} {int(o_c):>12} {int(n_c):>12}")
    if mismatches:
        print(f"\ndiff_bench: FAIL — wcet_cycles oracle changed for: {', '.join(mismatches)}")
        return 1
    if degraded:
        print(f"\ndiff_bench: FAIL — degradations recorded in unlimited-budget run: "
              f"{', '.join(degraded)}")
        return 1
    if lost_tightness:
        print(f"\ndiff_bench: FAIL — tracked tightness_x1000 lost or zeroed "
              f"(the looseness gate would be silently bypassed): "
              f"{'; '.join(lost_tightness)}")
        return 1
    if loosened:
        print(f"\ndiff_bench: FAIL — tightness_x1000 regressed past "
              f"{TIGHTNESS_RATIO:.2f}x (bound loosened vs deterministic replay): "
              f"{'; '.join(loosened)}")
        return 1
    if slow:
        print(f"\ndiff_bench: FAIL — guarded benchmark regressed past "
              f"{GUARD_RATIO:.2f}x + {GUARD_FLOOR_MS} ms: {'; '.join(slow)}")
        return 1
    print("\ndiff_bench: OK — all wcet_cycles oracle values identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
