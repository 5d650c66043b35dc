/// @file
/// Schedule-explorer throughput smoke: how many full schedules per second
/// the engine sustains on a representative protocol world (two threads
/// racing detectable-CAS increments). Reports through the obs registry
/// ("sched.schedules", "sched.steps", "sched.schedules_per_sec") so the
/// metrics pipeline covers the sched subsystem end to end.
///
///   sched_explore [--smoke] [--metrics-json <path>]

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "obs/registry.h"
#include "pod/pod.h"
#include "sched/explorer.h"
#include "support.h"
#include "sync/detectable_cas.h"

namespace {

constexpr cxl::HeapOffset kHelpBase = 4096;
constexpr cxl::HeapOffset kWord = 8192;

struct DcasWorld {
    DcasWorld() : pod(pod_config()), dcas(kHelpBase)
    {
        process = pod.create_process();
        for (int i = 0; i < 2; i++) {
            ctxs[i] = pod.create_thread(process);
        }
    }

    static pod::PodConfig
    pod_config()
    {
        pod::PodConfig pc;
        pc.device.size = 64 << 10;
        pc.device.mode = cxl::CoherenceMode::PartialHwcc;
        pc.device.sync_region_size = 16 << 10;
        return pc;
    }

    pod::Pod pod;
    pod::Process* process;
    cxlsync::DetectableCas dcas;
    std::unique_ptr<pod::ThreadContext> ctxs[2];
};

void
factory(sched::Run& run)
{
    auto w = std::make_shared<DcasWorld>();
    for (int i = 0; i < 2; i++) {
        run.spawn("inc" + std::to_string(i), [w, i] {
            cxl::MemSession& mem = w->ctxs[i]->mem();
            for (std::uint16_t k = 1; k <= 4; k++) {
                while (true) {
                    std::uint32_t cur = w->dcas.read(mem, kWord);
                    if (w->dcas.try_cas(mem, kWord, cur, cur + 1, k)
                            .success) {
                        break;
                    }
                }
            }
        });
    }
}

sched::Result
explore(sched::Strategy strategy, std::uint32_t schedules)
{
    sched::Options opt;
    opt.strategy = strategy;
    opt.seed = 12345;
    opt.schedules = schedules;
    return sched::Explorer(opt).run(factory);
}

} // namespace

int
main(int argc, char** argv)
{
    bench::Options options = bench::parse_options(argc, argv);
    const std::uint32_t schedules = options.smoke ? 400 : 4000;

    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    obs::MetricId m_schedules = reg.counter("sched.schedules");
    obs::MetricId m_steps = reg.counter("sched.steps");
    obs::MetricId m_rate = reg.gauge("sched.schedules_per_sec");

    struct {
        const char* name;
        sched::Strategy strategy;
    } rows[] = {
        {"random", sched::Strategy::Random},
        {"pct", sched::Strategy::Pct},
    };
    std::printf("%-8s %12s %12s %16s\n", "strategy", "schedules", "steps",
                "schedules/sec");
    for (const auto& row : rows) {
        auto start = std::chrono::steady_clock::now();
        sched::Result r = explore(row.strategy, schedules);
        std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - start;
        if (!r.ok) {
            std::fprintf(stderr, "unexpected oracle failure:\n%s\n",
                         r.summary().c_str());
            return 1;
        }
        double rate = static_cast<double>(r.schedules_run) /
                      (wall.count() > 0 ? wall.count() : 1e-9);
        reg.add(m_schedules, r.schedules_run);
        reg.add(m_steps, r.total_steps);
        reg.set_gauge(m_rate, rate);
        std::printf("%-8s %12llu %12llu %16.0f\n", row.name,
                    static_cast<unsigned long long>(r.schedules_run),
                    static_cast<unsigned long long>(r.total_steps), rate);
    }
    bench::finish_metrics(options);
    return 0;
}
