#!/usr/bin/env python3
"""Compare two BENCH_<name>.json reports (see bench/bench_util.h).

Experiments are matched by their configuration key (engine, strategy,
epsilon, backend, shard count, storage method); for each matched pair the
deterministic metrics are compared exactly and the timing/health metrics
with a relative tolerance. Intended for the warn-only CI step that diffs a
commit's bench artifacts against the previous run:

    python3 tools/bench_diff.py old/BENCH_fig2_end_to_end.json \
                                new/BENCH_fig2_end_to_end.json

Virtual-cost regressions are a failing gate: if a matched experiment's
`mean_qet` (per query) or `virtual_seconds` (custom entries, e.g. the
concurrency sweep) grows by more than --qet-regression-threshold (default
25%), the invocation exits 1 — unless the (bench, location, metric) is
covered by an --allowlist entry recording the intentional change. Other
deterministic mismatches stay warn-only unless --strict is given; timing
drift (wall clock) never fails.
"""
import argparse
import json
import sys

# Metrics that are a pure function of the experiment config (seeded RNG):
# any change means behavior changed, not the machine.
DETERMINISTIC = [
    "mean_logical_gap",
    # Distributed sweep (sweep_distributed): transport and replication
    # counters are pure functions of the workload and topology — the
    # mid-sweep kill happens at a fixed rep, so even failovers is exact
    # (failover_wall_seconds stays timing/warn-only).
    "rpc_calls",
    "bytes_shipped",
    "failovers",
    "replica_lag_batches",
    "bytes_replicated",
    "final_total_mb",
    "final_dummy_mb",
    "real_synced",
    "dummy_synced",
    "updates_posted",
    # Custom join-sweep entries (sweep_joins): these counters are pure
    # functions of the table sizes and the plan, identical across the
    # locked / snapshot-serial / snapshot-parallel modes — any change
    # means join execution changed what it reads, not how fast.
    "records_scanned",
    "join_pairs",
    "snapshot_joins",
    "iters",
    # Table 2 rows (table2_bounds): the seeded trace and strategy RNG fix
    # the peak gap, the volumes and the sync count.
    "max_gap",
    "outsourced",
    "received",
    "syncs",
]
DETERMINISTIC_QUERY = ["mean_l1", "max_l1", "mean_qet"]
# ORAM health: access counts are deterministic; the stash high-water mark
# depends only on the seeded leaf stream, so it is deterministic too.
DETERMINISTIC_ORAM = ["max_stash", "access_count"]
# Query-pipeline counters (the "plan_cache" sub-object): all are pure
# functions of the workload except peak_in_flight, which depends on
# scheduling. view_hits/view_folds flipping to 0 means the materialized
# view path silently stopped answering — exactly the regression this
# gate exists to catch.
DETERMINISTIC_PLAN_CACHE = [
    "prepares",
    "hits",
    "misses",
    "rebinds",
    "executed",
    "snapshot_scans",
    "snapshot_joins",
    "view_hits",
    "view_folds",
    # Distributed coordinator: scatters and gathered partials are a pure
    # function of the query count x server count; rpc_calls/bytes_shipped
    # (top-level, sweep_distributed) are deterministic for the same
    # reason — the wire format and batch routing are seeded functions of
    # the workload.
    "remote_scatters",
    "remote_partials",
]

# Wall-clock metrics: machine-dependent, warn only above the tolerance.
# qps / rows_per_sec (the concurrency and vectorized sweeps) are derived
# from wall clock, so they live here and never gate.
TIMING = ["wall_seconds", "qps", "rows_per_sec", "rpc_us_per_call"]
TIMING_QUERY = ["mean_qet_measured"]

# Virtual-cost metrics: deterministic model outputs whose *growth* beyond
# the regression threshold fails the run (cost regressions should never
# land silently). VIRTUAL_COST applies per experiment entry (custom
# benches), VIRTUAL_COST_QUERY per query of a sim experiment.
VIRTUAL_COST = ["virtual_seconds"]
VIRTUAL_COST_QUERY = ["mean_qet"]


class Allowlist:
    """JSON allowlist for intentional virtual-cost changes.

    Format: {"allow": [{"bench": "<name or *>", "where": "<substring or *>",
    "metric": "<name or *>", "reason": "..."}]}.
    """

    def __init__(self, path):
        self.entries = []
        if not path:
            return
        with open(path) as f:
            self.entries = json.load(f).get("allow", [])

    def covers(self, bench, where, metric):
        for e in self.entries:
            if e.get("bench", "*") not in ("*", bench):
                continue
            if e.get("metric", "*") not in ("*", metric):
                continue
            pattern = e.get("where", "*")
            if pattern == "*" or pattern in where:
                return True
        return False


def experiment_key(e):
    return (
        e.get("engine"),
        e.get("strategy"),
        e.get("epsilon"),
        e.get("backend"),
        e.get("num_shards"),
        e.get("use_oram_index", False),
    )


def fmt_key(key):
    engine, strategy, eps, backend, shards, indexed = key
    method = "indexed" if indexed else "linear"
    return f"{engine}/{strategy}(eps={eps}) {backend} x{shards} {method}"


def load(path):
    with open(path) as f:
        report = json.load(f)
    out = {}
    for e in report.get("experiments", []):
        key = experiment_key(e)
        if key in out:
            # Same config swept twice (e.g. repeated baseline): suffix.
            i = 2
            while (*key, i) in out:
                i += 1
            key = (*key, i)
        out[key] = e
    return (report.get("bench", path), report.get("fast_mode"),
            report.get("vectorized"), out)


def rel_delta(old, new):
    if old == new:
        return 0.0
    denom = max(abs(old), abs(new), 1e-12)
    return abs(new - old) / denom


class Diff:
    def __init__(self):
        self.warnings = []
        self.mismatches = []
        self.regressions = []
        self.allowed = []

    def check_regression(self, bench, where, name, old, new, threshold,
                         allowlist):
        if old is None or new is None or old <= 0:
            return
        if new <= old * (1.0 + threshold):
            return
        pct = 100.0 * (new - old) / old
        line = (f"{where}: {name} regressed {old:.6g} -> {new:.6g} "
                f"(+{pct:.1f}%, threshold {threshold:.0%})")
        if allowlist.covers(bench, where, name):
            self.allowed.append(line)
        else:
            self.regressions.append(line)

    def compare_scalar(self, where, name, old, new, deterministic, tol):
        if old is None or new is None:
            if old != new:
                self.warnings.append(f"{where}: {name} present only in one run")
            return
        if deterministic:
            if old != new:
                self.mismatches.append(
                    f"{where}: {name} changed {old} -> {new}")
        elif rel_delta(old, new) > tol:
            pct = 100.0 * rel_delta(old, new)
            self.warnings.append(
                f"{where}: {name} drifted {old:.6g} -> {new:.6g} "
                f"({pct:.1f}%)")


def compare(old_path, new_path, tol, regression_threshold, allowlist):
    _, old_fast, old_vec, old_runs = load(old_path)
    bench, new_fast, new_vec, new_runs = load(new_path)
    diff = Diff()
    if old_fast != new_fast:
        diff.warnings.append(
            f"fast_mode differs ({old_fast} vs {new_fast}): "
            "timing comparisons are meaningless")
    # The vectorized header flag landed after some archived baselines; a
    # missing flag (None) is an old report, not a mode change, so only
    # warn when both runs actually recorded their mode.
    if old_vec is not None and new_vec is not None and old_vec != new_vec:
        diff.warnings.append(
            f"vectorized mode differs ({old_vec} vs {new_vec}): wall-clock "
            "drift is expected; deterministic metrics must still match")

    for key in old_runs.keys() - new_runs.keys():
        diff.warnings.append(f"experiment dropped: {fmt_key(key[:6])}")
    for key in new_runs.keys() - old_runs.keys():
        diff.warnings.append(f"experiment added: {fmt_key(key[:6])}")

    for key in sorted(old_runs.keys() & new_runs.keys(), key=str):
        old, new = old_runs[key], new_runs[key]
        where = fmt_key(key[:6])
        for name in DETERMINISTIC:
            diff.compare_scalar(where, name, old.get(name), new.get(name),
                                True, tol)
        for name in TIMING:
            diff.compare_scalar(where, name, old.get(name), new.get(name),
                                False, tol)
        for name in VIRTUAL_COST:
            diff.check_regression(bench, where, name, old.get(name),
                                  new.get(name), regression_threshold,
                                  allowlist)
        def query_list(e):
            qs = e.get("queries", [])
            return qs if isinstance(qs, list) else []

        old_queries = {q["name"]: q for q in query_list(old)}
        new_queries = {q["name"]: q for q in query_list(new)}
        for qname in sorted(old_queries.keys() | new_queries.keys()):
            oq, nq = old_queries.get(qname), new_queries.get(qname)
            if oq is None or nq is None:
                diff.warnings.append(
                    f"{where}: query {qname} present only in one run")
                continue
            for name in DETERMINISTIC_QUERY:
                diff.compare_scalar(f"{where} {qname}", name, oq.get(name),
                                    nq.get(name), True, tol)
            for name in TIMING_QUERY:
                diff.compare_scalar(f"{where} {qname}", name, oq.get(name),
                                    nq.get(name), False, tol)
            for name in VIRTUAL_COST_QUERY:
                diff.check_regression(bench, f"{where} {qname}", name,
                                      oq.get(name), nq.get(name),
                                      regression_threshold, allowlist)
        old_pc, new_pc = old.get("plan_cache"), new.get("plan_cache")
        if (old_pc is None) != (new_pc is None):
            diff.warnings.append(
                f"{where}: plan_cache counters present only in one run")
        elif old_pc is not None:
            for name in DETERMINISTIC_PLAN_CACHE:
                diff.compare_scalar(f"{where} plan_cache", name,
                                    old_pc.get(name), new_pc.get(name),
                                    True, tol)
        old_oram, new_oram = old.get("oram"), new.get("oram")
        if (old_oram is None) != (new_oram is None):
            diff.warnings.append(f"{where}: oram health present only in one run")
        elif old_oram is not None:
            for name in DETERMINISTIC_ORAM:
                diff.compare_scalar(f"{where} oram", name,
                                    old_oram.get(name), new_oram.get(name),
                                    True, tol)
            if old_oram.get("shard_accesses") != new_oram.get("shard_accesses"):
                diff.mismatches.append(
                    f"{where} oram: shard_accesses changed "
                    f"{old_oram.get('shard_accesses')} -> "
                    f"{new_oram.get('shard_accesses')}")
    return bench, diff


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("old", help="previous BENCH_<name>.json")
    parser.add_argument("new", help="current BENCH_<name>.json")
    parser.add_argument("--timing-tolerance", type=float, default=0.25,
                        help="relative drift above which timing metrics warn "
                             "(default 0.25)")
    parser.add_argument("--qet-regression-threshold", type=float,
                        default=0.25,
                        help="relative growth of virtual-cost metrics "
                             "(mean_qet / virtual_seconds) above which the "
                             "run FAILS (default 0.25)")
    parser.add_argument("--allowlist", default=None,
                        help="JSON allowlist for intentional virtual-cost "
                             "changes (see tools/bench_allowlist.json)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 on any deterministic-metric mismatch")
    args = parser.parse_args()

    bench, diff = compare(args.old, args.new, args.timing_tolerance,
                          args.qet_regression_threshold,
                          Allowlist(args.allowlist))
    for line in diff.regressions:
        print(f"REGRESSION {bench}: {line}")
    for line in diff.allowed:
        print(f"ALLOWED {bench}: {line}")
    for line in diff.mismatches:
        print(f"MISMATCH {bench}: {line}")
    for line in diff.warnings:
        print(f"WARN {bench}: {line}")
    if not (diff.regressions or diff.allowed or diff.mismatches
            or diff.warnings):
        print(f"OK {bench}: no deterministic changes, no cost regressions, "
              f"timing within {args.timing_tolerance:.0%}")
    if diff.regressions:
        return 1
    if args.strict and diff.mismatches:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
