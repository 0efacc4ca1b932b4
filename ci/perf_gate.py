#!/usr/bin/env python3
"""Perf gate for the bench JSON reports (stdlib only).

Usage: perf_gate.py FRESH_JSON BASELINE_JSON

The gate dispatches on the report's ``bench`` name (fresh and baseline must
match). The CI box is a noisy 1-core machine, so wall-clock deltas are not a
reliable signal; each gate leans on self-relative or simulated-time metrics
that box noise cannot touch.

bench_sim_core:
  1. HARD  fresh ``speedup`` >= FLOOR (4.2x): the event loop must beat the
     embedded seed replica measured in the *same* run — self-relative, so
     box noise cancels out. The floor is about 0.8x the lowest of 10 runs of
     the node-pool wheel (5.32-7.01x on a 4-vCPU VM); the per-slot-vector
     wheel it replaced read 2.18-2.62x there, so a return to it fails.
  2. HARD  fresh ``sim_events_per_sec`` >= TOLERANCE (40%) of the committed
     baseline: generous enough that scheduler noise never trips it, tight
     enough that a real hot-path regression (lost inlining, reintroduced
     per-event allocation) cannot hide.
  3. INFO  everything else (allocs/event, raw deltas) is printed, not gated.

bench_connect_storm:
  1. HARD  ``failed`` == 0: every declared flow must establish.
  2. HARD  ``flows`` >= baseline flows: the storm may not be quietly shrunk.
  3. HARD  ``setup_p99_ns`` <= baseline * (1 + STORM_P99_TOLERANCE). Setup
     latency is measured on the simulation clock, which is deterministic,
     so the tolerance only absorbs intentional cost-model adjustments.
  4. INFO  races resolved, retries, decide RPC rounds.

bench_decision_storm:
  1. HARD  ``speedup_16v1`` >= DECISION_SPEEDUP_FLOOR (5.0x): cold decision
     throughput at 16 shards vs the single-orchestrator run *in the same
     report* — self-relative and on the sim clock, immune to box noise.
  2. HARD  ``stale_served`` == 0 and ``ground_truth_mismatches`` == 0: a
     cached decision served after an event that changed it is a correctness
     bug, not a perf miss. Same for ``decide_errors`` and
     ``warm_rpc_rounds`` (a warm storm paying RPCs means caching broke).
  3. HARD  ``flows`` >= baseline flows: the storm may not quietly shrink.
  4. HARD  ``cold_p99_ns_16shards`` <= baseline * (1 + STORM_P99_TOLERANCE):
     deterministic sim-clock tail; the tolerance only absorbs intentional
     cost-model adjustments.
  5. INFO  per-shard-count throughput, forwards, evictions, epoch rejects.

bench_socket_stream:
  1. HARD  ``speedup_vs_tcp`` >= STREAM_SPEEDUP_FLOOR (2.0x): adapter bulk
     goodput vs the native overlay TCP stack measured in the same report —
     self-relative on the sim clock, so box noise cancels out. This is the
     PR's acceptance floor for the sockets-over-RDMA path.
  2. HARD  ``failover_lost_bytes`` == 0 and ``failover_pattern_mismatches``
     == 0: the transparency claim. A byte lost, duplicated or reordered
     across the rdma_down -> fallback -> re-upgrade sequence is a
     correctness bug, never a perf miss.
  3. HARD  ``failover_completed`` == 1: the transfer must finish back on
     RDMA after the heal; ``failover_fallbacks`` >= 1 and
     ``failover_upgrades`` >= 2 prove the stream actually took the detour
     (initial upgrade + re-upgrade) rather than idling through the fault.
  4. HARD  ``failover_transfer_mb`` >= baseline: the transfer may not be
     quietly shrunk to dodge the fault window.
  5. INFO  RTTs, raw-RDMA headroom, receiver byte split (rdma vs tcp).

bench_live_migration:
  1. HARD  ``lost_bytes`` == ``pattern_mismatches`` == ``stream_lost_bytes``
     == ``stream_pattern_mismatches`` == 0: a planned migration is
     connection-preserving or it is broken — both the FlowSocket and the
     sockets-over-RDMA stream verify every byte in order.
  2. HARD  ``planned_blackout_max_ms`` < ``reactive_blackout_ms``: the
     coordinated quiesce/capture/resume protocol must beat the reactive
     stop-and-copy blackout measured in the *same* run — self-relative on
     the sim clock, immune to box noise.
  3. HARD  ``planned_blackout_p99_ms`` <= baseline * (1 +
     STORM_P99_TOLERANCE): deterministic sim-clock tail; the tolerance only
     absorbs intentional cost-model adjustments.
  4. HARD  ``migrations`` >= baseline and ``colocated_shm`` == 1: the
     ping-pong may not be quietly shrunk, and migrating the server onto its
     peer's host must land the resumed conduits on shm.
  5. HARD  ``quiesce_timeouts`` == 0 and ``all_drained`` == 1: every move
     drains its retained windows before the quiesce deadline. A timeout
     is still lossless (the tail replays), but under this bench's load it
     means an ack is wedged behind data or a stale handshake.
  6. INFO  p50, coordinator-side blackout, image bytes.

bench_tenant_gateway:
  1. HARD  ``p99_isolation_ratio`` <= ISOLATION_P99_CEILING (3.0x): the
     latency tenant's p99 while the bulk tenant saturates the shared NICs,
     over its own uncontended p99 in the *same* run — self-relative and on
     the sim clock, so box noise cancels out. This is the WDRR scheduler's
     acceptance criterion.
  2. HARD  ``aggregate_goodput_gbps`` >= TOLERANCE (40%) of the committed
     baseline: per-tenant fairness must not be bought with throughput.
  3. HARD  ``cross_tenant_attaches`` == 0 and ``denied_attaches`` >= 1: the
     cross-tenant shm probe must be denied and audited; a foreign attach
     that succeeds is an isolation hole, never a perf miss.
  4. HARD  ``latency_flows``, ``bulk_flows``, ``bulk_resp_kb`` >= baseline:
     the contention may not be quietly shrunk to flatter the ratio.
  5. INFO  p99s, goodput split, scale-ups, final pool size, churn counts,
     faults applied, completions.
"""

import json
import sys

FLOOR_SPEEDUP = 4.2
BASELINE_TOLERANCE = 0.40
STORM_P99_TOLERANCE = 0.25
DECISION_SPEEDUP_FLOOR = 5.0
STREAM_SPEEDUP_FLOOR = 2.0
ISOLATION_P99_CEILING = 3.0


def load(path):
    with open(path) as f:
        doc = json.load(f)
    name = doc.get("bench")
    if not name:
        raise SystemExit(f"{path}: report has no 'bench' name")
    return name, doc["metrics"]


def gate_sim_core(fresh, base):
    failures = []

    speedup = fresh.get("speedup", 0.0)
    print(f"perf-gate: fresh speedup vs seed loop: {speedup:.2f}x (floor {FLOOR_SPEEDUP}x)")
    if speedup < FLOOR_SPEEDUP:
        failures.append(
            f"speedup {speedup:.2f}x is below the {FLOOR_SPEEDUP}x floor vs seed"
        )

    fresh_eps = fresh.get("sim_events_per_sec", 0.0)
    base_eps = base.get("sim_events_per_sec", 0.0)
    if base_eps > 0:
        ratio = fresh_eps / base_eps
        print(
            f"perf-gate: sim events/s {fresh_eps:.3g} vs baseline {base_eps:.3g}"
            f" ({ratio:.0%}; hard floor {BASELINE_TOLERANCE:.0%})"
        )
        if ratio < BASELINE_TOLERANCE:
            failures.append(
                f"sim_events_per_sec at {ratio:.0%} of baseline "
                f"(< {BASELINE_TOLERANCE:.0%}) — not explainable by box noise"
            )
    else:
        failures.append("baseline has no sim_events_per_sec metric")

    for key in ("sim_allocs_per_event", "seed_events_per_sec", "events_measured"):
        if key in fresh:
            b = f" (baseline {base[key]:.6g})" if key in base else ""
            print(f"perf-gate: info {key} = {fresh[key]:.6g}{b}")

    return failures


def gate_connect_storm(fresh, base):
    failures = []

    failed = fresh.get("failed", -1)
    print(f"perf-gate: connect storm failed establishments: {failed:.0f} (hard 0)")
    if failed != 0:
        failures.append(f"{failed:.0f} flow establishment(s) failed — hard zero")

    flows = fresh.get("flows", 0)
    base_flows = base.get("flows", 0)
    print(f"perf-gate: storm size {flows:.0f} flows (baseline {base_flows:.0f})")
    if flows < base_flows:
        failures.append(f"storm shrank to {flows:.0f} flows (baseline {base_flows:.0f})")

    p99 = fresh.get("setup_p99_ns", 0.0)
    base_p99 = base.get("setup_p99_ns", 0.0)
    if base_p99 > 0:
        ratio = p99 / base_p99
        ceiling = 1.0 + STORM_P99_TOLERANCE
        print(
            f"perf-gate: setup p99 {p99:.4g}ns vs baseline {base_p99:.4g}ns"
            f" ({ratio:.0%}; hard ceiling {ceiling:.0%})"
        )
        if ratio > ceiling:
            failures.append(
                f"setup_p99_ns at {ratio:.0%} of baseline (> {ceiling:.0%}) — "
                "sim-clock latency regressed, this is not box noise"
            )
    else:
        failures.append("baseline has no setup_p99_ns metric")

    for key in ("setup_p50_ns", "setup_p999_ns", "decide_rpc_rounds",
                "trunk_setup_races_resolved", "trunk_setup_retries"):
        if key in fresh:
            b = f" (baseline {base[key]:.6g})" if key in base else ""
            print(f"perf-gate: info {key} = {fresh[key]:.6g}{b}")

    return failures


def gate_decision_storm(fresh, base):
    failures = []

    speedup = fresh.get("speedup_16v1", 0.0)
    print(
        f"perf-gate: 16-shard decision speedup: {speedup:.2f}x"
        f" (floor {DECISION_SPEEDUP_FLOOR}x)"
    )
    if speedup < DECISION_SPEEDUP_FLOOR:
        failures.append(
            f"speedup_16v1 {speedup:.2f}x below the {DECISION_SPEEDUP_FLOOR}x floor"
        )

    for key in ("stale_served", "ground_truth_mismatches", "decide_errors",
                "warm_rpc_rounds"):
        v = fresh.get(key, -1)
        print(f"perf-gate: {key}: {v:.0f} (hard 0)")
        if v != 0:
            failures.append(f"{key} = {v:.0f} — cache coherence broke, hard zero")

    flows = fresh.get("flows", 0)
    base_flows = base.get("flows", 0)
    print(f"perf-gate: storm size {flows:.0f} flows (baseline {base_flows:.0f})")
    if flows < base_flows:
        failures.append(f"storm shrank to {flows:.0f} flows (baseline {base_flows:.0f})")

    p99 = fresh.get("cold_p99_ns_16shards", 0.0)
    base_p99 = base.get("cold_p99_ns_16shards", 0.0)
    if base_p99 > 0:
        ratio = p99 / base_p99
        ceiling = 1.0 + STORM_P99_TOLERANCE
        print(
            f"perf-gate: cold p99 (16 shards) {p99:.4g}ns vs baseline"
            f" {base_p99:.4g}ns ({ratio:.0%}; hard ceiling {ceiling:.0%})"
        )
        if ratio > ceiling:
            failures.append(
                f"cold_p99_ns_16shards at {ratio:.0%} of baseline (> {ceiling:.0%})"
                " — sim-clock tail regressed, this is not box noise"
            )
    else:
        failures.append("baseline has no cold_p99_ns_16shards metric")

    for key in ("dps_1shard", "dps_4shards", "dps_16shards", "warm_hits",
                "epoch_rejects", "shard_rpcs_16", "cross_shard_forwards_16",
                "cache_evictions_16"):
        if key in fresh:
            b = f" (baseline {base[key]:.6g})" if key in base else ""
            print(f"perf-gate: info {key} = {fresh[key]:.6g}{b}")

    return failures


def gate_socket_stream(fresh, base):
    failures = []

    speedup = fresh.get("speedup_vs_tcp", 0.0)
    print(
        f"perf-gate: stream goodput vs native overlay tcp: {speedup:.2f}x"
        f" (floor {STREAM_SPEEDUP_FLOOR}x)"
    )
    if speedup < STREAM_SPEEDUP_FLOOR:
        failures.append(
            f"speedup_vs_tcp {speedup:.2f}x below the {STREAM_SPEEDUP_FLOOR}x floor"
        )

    for key in ("failover_lost_bytes", "failover_pattern_mismatches"):
        v = fresh.get(key, -1)
        print(f"perf-gate: {key}: {v:.0f} (hard 0)")
        if v != 0:
            failures.append(
                f"{key} = {v:.0f} — the stream broke byte-exactness across "
                "failover, hard zero"
            )

    completed = fresh.get("failover_completed", 0)
    print(f"perf-gate: failover transfer completed back on rdma: {completed:.0f} (hard 1)")
    if completed != 1:
        failures.append("failover transfer did not complete back on rdma")

    fallbacks = fresh.get("failover_fallbacks", 0)
    upgrades = fresh.get("failover_upgrades", 0)
    print(
        f"perf-gate: failover path taken: {fallbacks:.0f} fallback(s),"
        f" {upgrades:.0f} upgrade(s) (hard >=1 / >=2)"
    )
    if fallbacks < 1 or upgrades < 2:
        failures.append(
            f"fault detour not exercised: {fallbacks:.0f} fallbacks, "
            f"{upgrades:.0f} upgrades (need >=1 and >=2)"
        )

    mb = fresh.get("failover_transfer_mb", 0)
    base_mb = base.get("failover_transfer_mb", 0)
    print(f"perf-gate: failover transfer {mb:.0f} MB (baseline {base_mb:.0f})")
    if mb < base_mb:
        failures.append(
            f"failover transfer shrank to {mb:.0f} MB (baseline {base_mb:.0f})"
        )

    for key in ("stream_rtt_us", "tcp_rtt_us", "stream_goodput_gbps",
                "native_tcp_gbps", "raw_rdma_gbps", "failover_bytes_rdma",
                "failover_bytes_tcp"):
        if key in fresh:
            b = f" (baseline {base[key]:.6g})" if key in base else ""
            print(f"perf-gate: info {key} = {fresh[key]:.6g}{b}")

    return failures


def gate_live_migration(fresh, base):
    failures = []

    for key in ("lost_bytes", "pattern_mismatches", "stream_lost_bytes",
                "stream_pattern_mismatches"):
        v = fresh.get(key, -1)
        print(f"perf-gate: {key}: {v:.0f} (hard 0)")
        if v != 0:
            failures.append(
                f"{key} = {v:.0f} — a migrated connection lost or reordered "
                "bytes, hard zero"
            )

    planned_max = fresh.get("planned_blackout_max_ms", -1.0)
    reactive = fresh.get("reactive_blackout_ms", 0.0)
    print(
        f"perf-gate: planned blackout max {planned_max:.3f}ms vs reactive"
        f" {reactive:.3f}ms measured in the same run (hard <)"
    )
    if not 0 <= planned_max < reactive:
        failures.append(
            f"planned blackout max {planned_max:.3f}ms is not strictly below "
            f"the reactive stop-and-copy blackout {reactive:.3f}ms — the "
            "coordinated protocol lost its reason to exist"
        )

    p99 = fresh.get("planned_blackout_p99_ms", 0.0)
    base_p99 = base.get("planned_blackout_p99_ms", 0.0)
    if base_p99 > 0:
        ratio = p99 / base_p99
        ceiling = 1.0 + STORM_P99_TOLERANCE
        print(
            f"perf-gate: planned blackout p99 {p99:.4g}ms vs baseline"
            f" {base_p99:.4g}ms ({ratio:.0%}; hard ceiling {ceiling:.0%})"
        )
        if ratio > ceiling:
            failures.append(
                f"planned_blackout_p99_ms at {ratio:.0%} of baseline "
                f"(> {ceiling:.0%}) — sim-clock blackout regressed, this is "
                "not box noise"
            )
    else:
        failures.append("baseline has no planned_blackout_p99_ms metric")

    moves = fresh.get("migrations", 0)
    base_moves = base.get("migrations", 0)
    print(f"perf-gate: planned migrations {moves:.0f} (baseline {base_moves:.0f})")
    if moves < base_moves:
        failures.append(
            f"migration count shrank to {moves:.0f} (baseline {base_moves:.0f})"
        )

    shm = fresh.get("colocated_shm", 0)
    print(f"perf-gate: co-located finale picked shm: {shm:.0f} (hard 1)")
    if shm != 1:
        failures.append(
            "migrating the server onto its peer's host did not land on shm"
        )

    timeouts = fresh.get("quiesce_timeouts", -1)
    drained = fresh.get("all_drained", 0)
    print(
        f"perf-gate: quiesce timeouts {timeouts:.0f} (hard 0), all moves"
        f" drained: {drained:.0f} (hard 1)"
    )
    if timeouts != 0 or drained != 1:
        failures.append(
            f"{timeouts:.0f} quiesce timeout(s), all_drained = {drained:.0f} — "
            "a move failed to drain before the quiesce deadline"
        )

    for key in ("planned_blackout_p50_ms", "coordinator_blackout_max_ms",
                "conduits_moved", "image_bytes"):
        if key in fresh:
            b = f" (baseline {base[key]:.6g})" if key in base else ""
            print(f"perf-gate: info {key} = {fresh[key]:.6g}{b}")

    return failures


def gate_tenant_gateway(fresh, base):
    failures = []

    ratio = fresh.get("p99_isolation_ratio", 0.0)
    print(
        f"perf-gate: latency-tenant p99 contended/uncontended: {ratio:.2f}x"
        f" (hard ceiling {ISOLATION_P99_CEILING}x)"
    )
    if not 0 < ratio <= ISOLATION_P99_CEILING:
        failures.append(
            f"p99_isolation_ratio {ratio:.2f}x breaches the "
            f"{ISOLATION_P99_CEILING}x ceiling — WDRR is not isolating the "
            "latency tenant from the bulk tenant"
        )

    agg = fresh.get("aggregate_goodput_gbps", 0.0)
    base_agg = base.get("aggregate_goodput_gbps", 0.0)
    if base_agg > 0:
        frac = agg / base_agg
        print(
            f"perf-gate: aggregate goodput {agg:.3g} Gbps vs baseline"
            f" {base_agg:.3g} ({frac:.0%}; hard floor {BASELINE_TOLERANCE:.0%})"
        )
        if frac < BASELINE_TOLERANCE:
            failures.append(
                f"aggregate_goodput_gbps at {frac:.0%} of baseline "
                f"(< {BASELINE_TOLERANCE:.0%}) — fairness bought with "
                "throughput, sim-clock metric so this is not box noise"
            )
    else:
        failures.append("baseline has no aggregate_goodput_gbps metric")

    stolen = fresh.get("cross_tenant_attaches", -1)
    print(f"perf-gate: cross-tenant shm attaches: {stolen:.0f} (hard 0)")
    if stolen != 0:
        failures.append(
            f"cross_tenant_attaches = {stolen:.0f} — a foreign tenant "
            "attached another tenant's shm region, hard zero"
        )

    denied = fresh.get("denied_attaches", 0)
    print(f"perf-gate: denied shm attach probes: {denied:.0f} (hard >=1)")
    if denied < 1:
        failures.append(
            "denied_attaches == 0 — the cross-tenant probe was not "
            "exercised (or not audited)"
        )

    for key in ("latency_flows", "bulk_flows", "bulk_resp_kb"):
        v = fresh.get(key, 0)
        b = base.get(key, 0)
        print(f"perf-gate: {key} {v:.0f} (baseline {b:.0f})")
        if v < b:
            failures.append(
                f"{key} shrank to {v:.0f} (baseline {b:.0f}) — contention "
                "may not be quietly reduced to flatter the isolation ratio"
            )

    for key in ("latency_p99_uncontended_us", "latency_p99_contended_us",
                "latency_p50_contended_us", "latency_goodput_gbps",
                "bulk_goodput_gbps", "latency_completed", "bulk_completed",
                "scale_ups", "bulk_pool_final", "churn_launched",
                "churn_retired", "faults_applied"):
        if key in fresh:
            b = f" (baseline {base[key]:.6g})" if key in base else ""
            print(f"perf-gate: info {key} = {fresh[key]:.6g}{b}")

    return failures


GATES = {
    "sim_core": gate_sim_core,
    "connect_storm": gate_connect_storm,
    "decision_storm": gate_decision_storm,
    "socket_stream": gate_socket_stream,
    "live_migration": gate_live_migration,
    "tenant_gateway": gate_tenant_gateway,
}


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    fresh_name, fresh = load(argv[1])
    base_name, base = load(argv[2])
    if fresh_name != base_name:
        raise SystemExit(
            f"bench mismatch: fresh is {fresh_name!r}, baseline is {base_name!r}"
        )
    gate = GATES.get(fresh_name)
    if gate is None:
        raise SystemExit(f"no gate registered for bench {fresh_name!r}")

    failures = gate(fresh, base)
    if failures:
        for f in failures:
            print(f"perf-gate: FAIL: {f}", file=sys.stderr)
        return 1
    print("perf-gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
