/// CI gate for the --metrics-json export: parses a snapshot produced by a
/// bench run and asserts the cross-layer wiring actually fired — MemSession
/// event counters, allocator op counters, and at least one populated
/// latency histogram with ordered interpolated percentiles. A scoped
/// snapshot (every counter under one "<scope>." component, as
/// fig11_mcas's cells are) needs only its cells' MemSession counters.
///
/// Usage: verify_metrics_json <snapshot.json> [--budget <baseline.json>]
///
/// With --budget, additionally enforces the fence/flush-line budget: every
/// per-op gauge in the baseline (gbench.*.{mem_ops,fences,flushed_lines}
/// _per_op, and the mCAS series' {loads,stores,mcas_ops}_per_op) must
/// exist in the fresh snapshot and must not regress beyond
/// kBudgetRatio (plus a small absolute epsilon for near-zero gauges). This
/// is the CI gate that keeps the fence-elision work from silently rotting.
/// One table (kDirections) names the budgeted gauges and the direction
/// each regresses in: most are lower-is-better, and the few where more is
/// better fail when they drop below the baseline instead.
///
/// Pod-topology runs add pod.* summary gauges (pod.remote_op_ratio,
/// pod.steal_per_op — see docs/POD_TOPOLOGY.md) to the same gate: a change
/// that quietly starts routing host-local traffic over cross-host edges, or
/// stealing where home placement used to suffice, fails the budget. The
/// tiered sweep budgets each row's simulated ns/op (tiered.<pattern>.<row>
/// .ns_op), not the tiered-over-pure-CXL ratios: a speed-up that helps
/// every row passes, and any one row getting slower fails by name. Fig.
/// 11 budgets its single-thread rows (fig11.hw_cas.t1.p50_ns, and the
/// engine's fig11.*.t1.kops, higher-is-better).

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json.h"

namespace {

int failures = 0;

void
check(bool ok, const char* what)
{
    std::printf("%-60s %s\n", what, ok ? "ok" : "FAIL");
    if (!ok) {
        failures++;
    }
}

/// Sums all counters whose name starts with @p prefix (or, with
/// @p anywhere, contains it).
std::uint64_t
prefixed_sum(const obs::json::Value& counters, const std::string& prefix,
             bool anywhere = false)
{
    std::uint64_t total = 0;
    if (counters.kind() != obs::json::Kind::Object) {
        return 0;
    }
    for (const auto& [name, value] : counters.as_object()) {
        if (anywhere ? name.find(prefix) != std::string::npos
                     : name.rfind(prefix, 0) == 0) {
            total += value.as_uint();
        }
    }
    return total;
}

/// The first name component every counter shares when the snapshot is
/// scoped, as fig11_mcas's is ("fig11.<impl>.t<N>.<metric>": each cell
/// its own sessions, no allocator and no harness); "" otherwise.
std::string
counter_scope(const obs::json::Value& counters)
{
    std::string scope;
    if (counters.kind() != obs::json::Kind::Object) {
        return scope;
    }
    for (const auto& [name, value] : counters.as_object()) {
        std::string first = name.substr(0, name.find('.'));
        if (first == "mem" || first == "alloc" || first == "run" ||
            (!scope.empty() && first != scope)) {
            return "";
        }
        scope = first;
    }
    return scope;
}

/// Allowed regression: 15% relative plus an absolute slack of 0.1 events
/// per op (so a 0.0 baseline tolerates measurement jitter, not a rewrite).
constexpr double kBudgetRatio = 1.15;
constexpr double kBudgetEpsilon = 0.1;

enum class Direction : std::uint8_t { Unbudgeted, Lower, Higher };

/// Which gauges --budget holds, and which way each regresses: the first
/// row whose prefix starts the gauge's name and whose suffix ends it wins
/// (an empty suffix ends every name). A lower-is-better gauge fails above
/// its baseline, a higher-is-better one below it; unmatched gauges are
/// reported, not budgeted.
struct DirectionRow {
    const char* prefix;
    const char* suffix;
    Direction direction;
};

constexpr DirectionRow kDirections[] = {
    // gbench_alloc: the fence-elision budget, and the mCAS series' split
    // into loads, stores and NMP mCAS operands per op.
    {"gbench.", ".mem_ops_per_op", Direction::Lower},
    {"gbench.", ".fences_per_op", Direction::Lower},
    {"gbench.", ".flushed_lines_per_op", Direction::Lower},
    {"gbench.", ".loads_per_op", Direction::Lower},
    {"gbench.", ".stores_per_op", Direction::Lower},
    {"gbench.", ".mcas_ops_per_op", Direction::Lower},
    // Fig. 11's single-thread rows (BENCH_fig11.json): engine Kops/s, and
    // hw_cas p50 ns.
    {"fig11.", ".kops", Direction::Higher},
    {"fig11.", "", Direction::Lower},
    // Tiered-sweep rows: simulated ns/op per pattern and placement.
    {"tiered.", ".ns_op", Direction::Lower},
    // Win ratios divide two moving rows: a speed-up that helps pure CXL
    // more than tiered raises them although no row got slower. The rows
    // are budgeted one by one instead.
    {"pod.tiered.", "", Direction::Unbudgeted},
    // Placement quality: ratios and per-op rates (the pod.scale.*
    // throughput gauges are informational), plus the fault storm's exact
    // edge-down op count.
    {"pod.", "_ratio", Direction::Lower},
    {"pod.", "_per_op", Direction::Lower},
    {"pod.edge_down_ops", "", Direction::Lower},
    // Fault-storm health (BENCH_fault_storm.json): false-suspect volume
    // and evacuation work per op. A detector that starts suspecting
    // healthy hosts, or an evacuation whose per-op block traffic
    // balloons, fails.
    {"liveness.", "", Direction::Lower},
    {"evac.", "", Direction::Lower},
    // Tier split and migration (BENCH_tiered.json). The DRAM share and
    // the promotion volume regress by shrinking: a placement change that
    // quietly stops using the DRAM tier fails. The demotion rate per op
    // regresses by growing.
    {"alloc.tier_dram_ratio", "", Direction::Higher},
    {"alloc.", "_ratio", Direction::Lower},
    {"migrate.promotions", "", Direction::Higher},
    {"migrate.", "", Direction::Lower},
};

Direction
direction_of(const std::string& name)
{
    for (const DirectionRow& row : kDirections) {
        const std::string suffix = row.suffix;
        if (name.rfind(row.prefix, 0) == 0 && name.size() >= suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
            return row.direction;
        }
    }
    return Direction::Unbudgeted;
}

obs::json::Value
load_json(const char* path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", path);
        std::exit(2);
    }
    std::stringstream buf;
    buf << in.rdbuf();
    std::string err;
    obs::json::Value root = obs::json::parse(buf.str(), &err);
    if (root.is_null()) {
        std::fprintf(stderr, "JSON parse error in %s: %s\n", path,
                     err.c_str());
        std::exit(1);
    }
    return root;
}

/// Every budget gauge in @p baseline must be present in @p fresh and no
/// worse than ratio * baseline + epsilon (baseline / ratio - epsilon for a
/// higher-is-better gauge).
void
check_budget(const obs::json::Value& fresh, const obs::json::Value& baseline)
{
    const obs::json::Value* base_g = baseline.find("gauges");
    const obs::json::Value* new_g = fresh.find("gauges");
    check(base_g != nullptr && base_g->kind() == obs::json::Kind::Object,
          "baseline gauges object present");
    check(new_g != nullptr && new_g->kind() == obs::json::Kind::Object,
          "snapshot gauges object present");
    if (base_g == nullptr || new_g == nullptr ||
        base_g->kind() != obs::json::Kind::Object ||
        new_g->kind() != obs::json::Kind::Object) {
        return;
    }
    std::size_t compared = 0;
    for (const auto& [name, base_value] : base_g->as_object()) {
        const Direction direction = direction_of(name);
        if (direction == Direction::Unbudgeted) {
            continue;
        }
        const obs::json::Value* now = new_g->find(name);
        if (now == nullptr) {
            std::fprintf(stderr, "  missing gauge %s\n", name.c_str());
            check(false, "budget gauge present in fresh snapshot");
            continue;
        }
        double base = base_value.as_number();
        double cur = now->as_number();
        bool higher = direction == Direction::Higher;
        double limit = higher ? base / kBudgetRatio - kBudgetEpsilon
                              : base * kBudgetRatio + kBudgetEpsilon;
        compared++;
        if (higher ? cur < limit : cur > limit) {
            std::fprintf(stderr, "  %s: %.4f %s budget %.4f "
                                 "(baseline %.4f)\n",
                         name.c_str(), cur, higher ? "below" : "exceeds",
                         limit, base);
            check(false, "per-op budget respected");
        }
    }
    check(compared > 0, "budget compared at least one gauge");
    std::printf("budget: %zu gauge(s) within %.0f%% + %.2f of baseline\n",
                compared, (kBudgetRatio - 1.0) * 100.0, kBudgetEpsilon);
}

} // namespace

int
main(int argc, char** argv)
{
    const char* budget_path = nullptr;
    if (argc == 4 && std::string(argv[2]) == "--budget") {
        budget_path = argv[3];
    } else if (argc != 2) {
        std::fprintf(stderr,
                     "usage: %s <snapshot.json> [--budget <baseline.json>]\n",
                     argv[0]);
        return 2;
    }
    obs::json::Value root = load_json(argv[1]);

    const obs::json::Value* schema = root.find("schema");
    check(schema != nullptr && schema->as_string() == "cxlalloc-metrics-v1",
          "schema is cxlalloc-metrics-v1");

    const obs::json::Value* counters = root.find("counters");
    check(counters != nullptr, "counters object present");
    if (counters != nullptr && !counter_scope(*counters).empty()) {
        check(prefixed_sum(*counters, ".mem.", /*anywhere=*/true) > 0,
              "scoped MemSession event counters (<scope>.*.mem.*) nonzero");
    } else if (counters != nullptr) {
        check(prefixed_sum(*counters, "mem.") > 0,
              "MemSession event counters (mem.*) nonzero");
        check(prefixed_sum(*counters, "alloc.") > 0,
              "allocator op counters (alloc.*) nonzero");
        check(prefixed_sum(*counters, "run.ops") > 0,
              "harness run.ops counter nonzero");
    }

    const obs::json::Value* hists = root.find("histograms");
    check(hists != nullptr, "histograms object present");
    bool populated = false;
    bool ordered = true;
    if (hists != nullptr && hists->kind() == obs::json::Kind::Object) {
        for (const auto& [name, h] : hists->as_object()) {
            if (h.find("count") == nullptr || h.find("count")->as_uint() == 0) {
                continue;
            }
            populated = true;
            double p50 = h.find("p50")->as_number();
            double p90 = h.find("p90")->as_number();
            double p99 = h.find("p99")->as_number();
            double p999 = h.find("p999")->as_number();
            double mn = h.find("min")->as_number();
            double mx = h.find("max")->as_number();
            bool this_ordered = mn <= p50 && p50 <= p90 && p90 <= p99 &&
                                p99 <= p999 && p999 <= mx;
            if (!this_ordered) {
                std::fprintf(stderr, "  unordered percentiles in %s\n",
                             name.c_str());
            }
            ordered = ordered && this_ordered;
        }
    }
    check(populated, "at least one histogram has samples");
    check(ordered, "percentiles ordered min<=p50<=p90<=p99<=p999<=max");

    if (budget_path != nullptr) {
        check_budget(root, load_json(budget_path));
    }

    if (failures != 0) {
        std::fprintf(stderr, "%d check(s) failed\n", failures);
        return 1;
    }
    std::puts("metrics snapshot verified");
    return 0;
}
