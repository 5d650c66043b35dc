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
/// Most budgeted gauges are lower-is-better; the few where more is better
/// (higher_is_better) fail when they drop below the baseline instead.
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

/// Budgeted gauges that regress by shrinking: the tier split's DRAM share
/// and the migrator's promotion volume (BENCH_tiered.json). A placement
/// change that quietly stops using the DRAM tier fails the budget.
bool
higher_is_better(const std::string& name)
{
    auto ends_with = [&](const char* suffix) {
        std::string s(suffix);
        return name.size() >= s.size() &&
               name.compare(name.size() - s.size(), s.size(), s) == 0;
    };
    return name == "alloc.tier_dram_ratio" || name == "migrate.promotions" ||
           (name.rfind("fig11.", 0) == 0 && ends_with(".kops"));
}

bool
budget_gauge(const std::string& name)
{
    auto ends_with = [&](const char* suffix) {
        std::string s(suffix);
        return name.size() >= s.size() &&
               name.compare(name.size() - s.size(), s.size(), s) == 0;
    };
    if (name.rfind("gbench.", 0) == 0) {
        // Plus the mCAS series' split: loads, stores and NMP mCAS operands
        // per op.
        return ends_with(".mem_ops_per_op") || ends_with(".fences_per_op") ||
               ends_with(".flushed_lines_per_op") ||
               ends_with(".loads_per_op") || ends_with(".stores_per_op") ||
               ends_with(".mcas_ops_per_op");
    }
    if (name.rfind("fig11.", 0) == 0) {
        // Fig. 11's single-thread rows (BENCH_fig11.json): hw_cas p50 ns,
        // engine Kops/s.
        return true;
    }
    if (name.rfind("tiered.", 0) == 0) {
        // Tiered-sweep rows: simulated ns/op per pattern and placement.
        return ends_with(".ns_op");
    }
    if (name.rfind("pod.tiered.", 0) == 0) {
        // Win ratios divide two moving rows: a speed-up that helps pure
        // CXL more than tiered raises them although no row got slower.
        // The rows are budgeted one by one instead.
        return false;
    }
    if (name.rfind("pod.", 0) == 0) {
        // Placement-quality gauges: ratios and per-op rates only (the
        // pod.scale.* throughput gauges are informational, not budgeted) —
        // plus the fault storm's exact edge-down op count.
        return ends_with("_ratio") || ends_with("_per_op") ||
               name == "pod.edge_down_ops";
    }
    if (name.rfind("liveness.", 0) == 0 || name.rfind("evac.", 0) == 0) {
        // Fault-storm health gauges (BENCH_fault_storm.json): false-suspect
        // volume and evacuation work per op. A detector change that starts
        // suspecting healthy hosts, or an evacuation that balloons its
        // per-op block traffic, fails the budget.
        return true;
    }
    if (name.rfind("alloc.", 0) == 0) {
        // Tier-split quality (alloc.tier_dram_ratio).
        return ends_with("_ratio");
    }
    if (name.rfind("migrate.", 0) == 0) {
        // Migration effectiveness: promotion volume and the per-op
        // demotion rate of the tiered sweep (BENCH_tiered.json).
        return true;
    }
    return false;
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
/// higher_is_better gauge).
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
        if (!budget_gauge(name)) {
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
        bool higher = higher_is_better(name);
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
