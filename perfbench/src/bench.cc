#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "cxlalloc/allocator.h"

namespace perfbench {

Zipf::Zipf(std::uint64_t n, double theta) : n_(n)
{
    double zeta2 = 0;
    zetan_ = 0;
    for (std::uint64_t i = 1; i <= n; i++) {
        double term = 1.0 / std::pow(static_cast<double>(i), theta);
        zetan_ += term;
        if (i <= 2) {
            zeta2 += term;
        }
    }
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan_);
    half_pow_theta_ = std::pow(0.5, theta);
}

std::uint64_t
Zipf::sample(Rng& rng) const
{
    double u = rng.uniform();
    double uz = u * zetan_;
    std::uint64_t rank;
    if (uz < 1.0) {
        rank = 0;
    } else if (uz < 1.0 + half_pow_theta_) {
        rank = 1;
    } else {
        rank = static_cast<std::uint64_t>(
            static_cast<double>(n_) *
            std::pow(eta_ * u - eta_ + 1.0, alpha_));
        rank = std::min(rank, n_ - 1);
    }
    return mix64(rank) % n_;
}

void
Hist::merge(const Hist& o)
{
    if (!o.bins_.empty()) {
        if (bins_.empty()) {
            bins_.assign(kDirect, 0);
        }
        for (std::uint64_t v = 0; v < kDirect; v++) {
            bins_[v] += o.bins_[v];
        }
    }
    for (const auto& [v, n] : o.over_) {
        over_[v] += n;
    }
    count_ += o.count_;
    sum_ += o.sum_;
}

double
Hist::quantile(double q) const
{
    if (count_ == 0) {
        return 0;
    }
    // Mid-quantile: each distinct value v sits at its mid-distribution
    // point F(v-) + P(v)/2, and the quantile interpolates linearly between
    // adjacent points (clamped to the smallest and largest value).
    double target = q * static_cast<double>(count_);
    double cum = 0;
    double prev_mid = -1;
    double prev_v = 0;
    auto step = [&](std::uint64_t value, std::uint64_t n, double* out) {
        double v = static_cast<double>(value);
        double mid = cum + 0.5 * static_cast<double>(n);
        if (mid >= target) {
            *out = prev_mid < 0 ? v
                                : prev_v + (target - prev_mid) /
                                               (mid - prev_mid) * (v - prev_v);
            return true;
        }
        cum += static_cast<double>(n);
        prev_mid = mid;
        prev_v = v;
        return false;
    };
    double out = 0;
    for (std::uint64_t v = 0; v < bins_.size(); v++) {
        if (bins_[v] != 0 && step(v, bins_[v], &out)) {
            return out;
        }
    }
    for (const auto& [v, n] : over_) {
        if (step(v, n, &out)) {
            return out;
        }
    }
    return prev_v;
}

double
median(std::vector<double> v)
{
    if (v.empty()) {
        return 0;
    }
    std::sort(v.begin(), v.end());
    std::size_t m = v.size() / 2;
    return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double
rss_mib()
{
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) {
        return 0;
    }
    char line[256];
    double kib = 0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::strncmp(line, "VmRSS:", 6) == 0) {
            kib = std::strtod(line + 6, nullptr);
            break;
        }
    }
    std::fclose(f);
    return kib / 1024.0;
}

const char*
kind_name(Kind k)
{
    static constexpr std::array<const char*, kKinds> names = {
        "kv.insert",          "kv.get",           "kv.remove",
        "cxlalloc.alloc",     "cxlalloc.free",    "cxlalloc.free_remote",
        "sync.cell_publish",  "sync.cell_read",   "migrate.epoch",
        "cxl.swcc_load",      "cxl.swcc_store",   "cxl.sync_cas",
    };
    return names[static_cast<std::size_t>(k)];
}

void
KindStats::merge(const KindStats& o)
{
    calls += o.calls;
    failed += o.failed;
    items += o.items;
    wall_ns += o.wall_ns;
    self_ns += o.self_ns;
    children += o.children;
    sim_ns += o.sim_ns;
    mem_ops += o.mem_ops;
    fences += o.fences;
    flushed_lines += o.flushed_lines;
    wall.merge(o.wall);
}

void
Tracer::begin(Kind k, cxl::MemSession& mem)
{
    Open o{k, -1, 0, mem.sim_ns(), 0, 0, mem.counters()};
    if (records.size() < kMaxRecords) {
        o.record = static_cast<std::int32_t>(records.size());
        records.push_back(
            Record{k, stack_.empty() ? -1 : stack_.back().record, 0, 0, 0, 0});
    }
    o.t0 = host_ns();
    stack_.push_back(o);
}

void
Tracer::end(cxl::MemSession& mem, bool failed, std::uint64_t items)
{
    std::uint64_t t1 = host_ns();
    Open o = stack_.back();
    stack_.pop_back();
    std::uint64_t dur = t1 - o.t0;
    std::uint64_t self = dur - std::min(dur, o.child_ns);
    std::uint64_t sim = mem.sim_ns() - o.sim0;
    const cxl::MemEventCounters& c = mem.counters();

    KindStats& s = stats[static_cast<std::size_t>(o.kind)];
    s.calls++;
    s.failed += failed ? 1 : 0;
    s.items += items;
    s.wall_ns += dur;
    s.self_ns += self;
    s.children += o.children;
    s.sim_ns += sim;
    s.mem_ops += (c.loads - o.c0.loads) + (c.stores - o.c0.stores) +
                 (c.cas_ops - o.c0.cas_ops) + (c.mcas_ops - o.c0.mcas_ops);
    s.fences += c.fences - o.c0.fences;
    s.flushed_lines += c.flushed_lines - o.c0.flushed_lines;
    s.wall.add(dur);

    if (!stack_.empty()) {
        stack_.back().child_ns += dur;
        stack_.back().children++;
    }
    if (o.record >= 0) {
        Record& r = records[static_cast<std::size_t>(o.record)];
        r.start_ns = o.t0;
        r.dur_ns = dur;
        r.self_ns = self;
        r.sim_ns = sim;
    }
}

void
calibrate_session(Tracer& tracer, cxl::MemSession& mem, cxl::HeapOffset swcc,
                  cxl::HeapOffset sync, std::uint64_t n)
{
    std::uint64_t acc = 0;
    {
        Span s(&tracer, Kind::CalLoad, mem);
        s.items = n;
        for (std::uint64_t i = 0; i < n; i++) {
            acc += mem.load<std::uint64_t>(swcc);
        }
    }
    {
        Span s(&tracer, Kind::CalStore, mem);
        s.items = n;
        for (std::uint64_t i = 0; i < n; i++) {
            mem.store<std::uint64_t>(swcc, acc + i);
        }
    }
    std::uint64_t original = mem.atomic_load64(sync);
    {
        Span s(&tracer, Kind::CalCas, mem);
        s.items = n;
        std::uint64_t expected = original;
        for (std::uint64_t i = 0; i < n; i++) {
            std::uint64_t want = expected + 1;
            if (mem.cas64(sync, expected, want)) {
                expected = want;
            }
        }
    }
    mem.atomic_store64(sync, original);
}

std::uint64_t
sweep_heap(cxlalloc::CxlAllocator& heap, cxl::MemSession& mem, bool drained)
{
    heap.check_invariants(mem);
    std::uint64_t bad = 0;
    for (cxlalloc::SlabHeap* h : {&heap.small_heap(), &heap.large_heap()}) {
        std::uint32_t len = h->length(mem);
        for (std::uint32_t s = 0; s < len; s++) {
            if (h->debug_class_biased(mem, s) == 0) {
                continue;
            }
            std::uint32_t free_blocks = h->debug_free_blocks(mem, s);
            if (free_blocks != h->debug_bitset_count(mem, s)) {
                bad++;
            }
            if (drained && h->debug_remote_free(mem, s) != free_blocks) {
                bad++;
            }
        }
    }
    return bad;
}

} // namespace perfbench
