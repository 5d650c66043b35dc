/// @file
/// Shared machinery of the pod-allocator benchmark: the benchmark's own
/// input generators (so a library change can never change the inputs),
/// exact-value histograms, the span tracer, and the Workload interface the
/// closed-loop runner (main.cc) drives.
///
/// Two clocks appear throughout and are always named:
///   host time       steady_clock nanoseconds the simulator takes to run;
///   simulated time  MemSession::sim_ns(), what the modelled CXL pod would
///                   take under cxl::LatencyModel (paper §5.4 constants).

#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cxl/mem_ops.h"

namespace cxlalloc {
class CxlAllocator;
}

namespace perfbench {

// ---------------------------------------------------------------------------
// Inputs

/// splitmix64 finalizer: seeds the generator and derives per-stream seeds.
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// xoshiro256** over a splitmix64-expanded seed.
class Rng {
  public:
    explicit Rng(std::uint64_t seed)
    {
        for (std::uint64_t& w : s_) {
            seed = mix64(seed);
            w = seed;
        }
    }

    std::uint64_t
    next()
    {
        std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /// Uniform in [0, 1).
    double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

    /// Uniform in [0, n).
    std::uint64_t
    below(std::uint64_t n)
    {
        return static_cast<std::uint64_t>(uniform() * static_cast<double>(n));
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

/// Scrambled YCSB zipfian over [0, n) (Gray et al.; theta 0.99): rank r is
/// drawn zipfian, then hashed onto the keyspace so hot keys are spread.
class Zipf {
  public:
    explicit Zipf(std::uint64_t n, double theta = 0.99);

    std::uint64_t sample(Rng& rng) const;

  private:
    std::uint64_t n_;
    double alpha_;
    double zetan_;
    double eta_;
    double half_pow_theta_;
};

// ---------------------------------------------------------------------------
// Statistics

/// Exact histogram of non-negative integer samples (ns): one bin per value
/// below kDirect, a sorted map above. Quantiles are mid-quantiles (Parzen):
/// linear interpolation between the mid-distribution points of adjacent
/// distinct values. Simulated per-op costs are a few modelled constants
/// summed, so plain order statistics would snap to one constant; the
/// mid-quantile moves smoothly with the sample mix instead.
class Hist {
  public:
    static constexpr std::uint64_t kDirect = 1 << 15;

    void
    add(std::uint64_t v, std::uint64_t n = 1)
    {
        if (n == 0) {
            return;
        }
        count_ += n;
        sum_ += v * n;
        if (v < kDirect) {
            if (bins_.empty()) {
                bins_.assign(kDirect, 0);
            }
            bins_[v] += n;
        } else {
            over_[v] += n;
        }
    }

    void merge(const Hist& o);
    double quantile(double q) const;
    std::uint64_t count() const { return count_; }

    double
    mean() const
    {
        return count_ == 0 ? 0.0
                           : static_cast<double>(sum_) /
                                 static_cast<double>(count_);
    }

  private:
    std::vector<std::uint64_t> bins_;
    std::map<std::uint64_t, std::uint64_t> over_;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
};

double median(std::vector<double> v);

inline std::uint64_t
host_ns()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

inline double
host_s()
{
    return static_cast<double>(host_ns()) * 1e-9;
}

/// Resident set size of this process in MiB (/proc/self/status VmRSS).
double rss_mib();

// ---------------------------------------------------------------------------
// Tracing: spans recorded from the benchmark's own files, around the calls
// it makes into each layer's public functions.

enum class Kind : std::uint8_t {
    KvInsert,
    KvGet,
    KvRemove,
    Alloc,      ///< allocate()
    Free,       ///< deallocate()
    FreeRemote, ///< deallocate_batch(): a drain of handed-over objects
    CellPublish,
    CellRead,
    Epoch,      ///< HotSlabMigrator::run_epoch
    CalLoad,    ///< calibration loops over MemSession load/store/cas64
    CalStore,
    CalCas,
    Count,
};

inline constexpr std::size_t kKinds = static_cast<std::size_t>(Kind::Count);

const char* kind_name(Kind k);

/// Per-kind aggregate of closed spans. Wall figures are host ns; sim_ns
/// and the counter sums are MemSession deltas over the span.
struct KindStats {
    std::uint64_t calls = 0;
    std::uint64_t failed = 0;
    std::uint64_t items = 0; ///< blocks per batch, moves per epoch, loop ops
    std::uint64_t wall_ns = 0;
    std::uint64_t self_ns = 0;  ///< wall minus child spans
    std::uint64_t children = 0; ///< child spans opened inside
    std::uint64_t sim_ns = 0;
    std::uint64_t mem_ops = 0; ///< loads + stores + cas + mcas
    std::uint64_t fences = 0;
    std::uint64_t flushed_lines = 0;
    Hist wall;

    void merge(const KindStats& o);
};

/// One worker's tracer. Spans nest (a KV insert's allocator call is its
/// child); records are kept in memory up to a cap and written at exit.
class Tracer {
  public:
    static constexpr std::size_t kMaxRecords = 20000;

    void begin(Kind k, cxl::MemSession& mem);
    void end(cxl::MemSession& mem, bool failed, std::uint64_t items);

    /// Placement of a returned block, read from the offset's window.
    void
    note_alloc(cxl::MemSession& mem, cxl::HeapOffset off,
               cxl::DeviceId dram_device)
    {
        cxl::DeviceId dev = mem.device_of(off);
        allocs_placed++;
        allocs_home += dev == mem.home_device() ? 1 : 0;
        allocs_dram += dev == dram_device ? 1 : 0;
    }

    void
    note_free(cxl::MemSession& mem, cxl::HeapOffset off)
    {
        frees++;
        frees_cross += mem.device_of(off) != mem.home_device() ? 1 : 0;
    }

    std::array<KindStats, kKinds> stats{};
    std::uint64_t allocs_placed = 0;
    std::uint64_t allocs_home = 0;
    std::uint64_t allocs_dram = 0;
    std::uint64_t frees = 0;
    std::uint64_t frees_cross = 0;

    struct Record {
        Kind kind;
        std::int32_t parent; ///< record index in this tracer, -1 = root
        std::uint64_t start_ns;
        std::uint64_t dur_ns;
        std::uint64_t self_ns;
        std::uint64_t sim_ns;
    };
    std::vector<Record> records;

  private:
    struct Open {
        Kind kind;
        std::int32_t record;
        std::uint64_t t0;
        std::uint64_t sim0;
        std::uint64_t child_ns;
        std::uint64_t children;
        cxl::MemEventCounters c0;
    };
    std::vector<Open> stack_;
};

/// RAII span; a null tracer (untraced runs) costs one branch.
class Span {
  public:
    Span(Tracer* tracer, Kind kind, cxl::MemSession& mem)
        : tracer_(tracer), mem_(mem)
    {
        if (tracer_ != nullptr) {
            tracer_->begin(kind, mem_);
        }
    }

    ~Span()
    {
        if (tracer_ != nullptr) {
            tracer_->end(mem_, failed, items);
        }
    }

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    bool failed = false;
    std::uint64_t items = 1;

  private:
    Tracer* tracer_;
    cxl::MemSession& mem_;
};

// ---------------------------------------------------------------------------
// Workloads

/// Size preset: Full is the committed benchmark, Tiny the self-test.
enum class Size { Full, Tiny };

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    Size size = Size::Full;
    std::string trace_out;
};

/// Host-time set-up costs of one heap construction, in seconds.
struct SetupTimes {
    double pod_s = 0;     ///< pod::Pod + processes
    double attach_s = 0;  ///< allocator construction + attach + attach_thread
    double preload_s = 0; ///< untimed preload / populate
};

/// One worker's tallies for a timed phase.
struct WorkerStats {
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;
    Hist sim;            ///< per-op simulated ns
    Tracer* tracer = nullptr;
    std::uint64_t reads = 0;
    std::uint64_t hits = 0;
    std::uint64_t moves = 0;
    std::uint64_t aborted = 0;
    /// Host ns the worker spent standing in for a modelled background
    /// core (synchronous migration epochs); excluded from its wall time.
    std::uint64_t background_ns = 0;
};

/// A built heap plus its worker state. main.cc constructs it (set-up),
/// then runs closed-loop rounds: every worker thread runs step_round, all
/// meet at a barrier, repeat until the phase's time is up.
class Workload {
  public:
    virtual ~Workload() = default;

    virtual unsigned workers() const = 0;

    /// One round of worker @p w's closed loop.
    virtual void step_round(unsigned w, WorkerStats& ws) = 0;

    /// Every session whose counters belong to the run; the first
    /// workers() are the workers (the simulated critical path).
    virtual std::vector<cxl::MemSession*> sessions() = 0;

    /// PC-T mapping faults resolved so far, over all processes.
    virtual std::uint64_t mapping_faults() = 0;

    /// Quiescent invariant sweep over every heap/shard (check_invariants
    /// plus free counter == bitmap popcount). With @p drained, every
    /// object has been freed first and each classed slab must also hold
    /// zero live blocks. Returns the number of violations.
    virtual std::uint64_t sweep(bool drained) = 0;

    /// Verifies every object still held, then frees it all. Returns the
    /// number of objects that failed verification.
    virtual std::uint64_t drain() = 0;

    virtual std::uint64_t committed_bytes() = 0;
    virtual std::uint64_t hwcc_bytes() = 0;

    /// Traced calibration loops over the public MemSession load, store and
    /// cas64 on a worker's session.
    virtual void calibrate(Tracer& tracer) = 0;

    /// Host ns per op of the input generator alone.
    virtual double gen_ns_per_op() = 0;

    SetupTimes setup;
    /// Operations that failed during set-up (preload allocations).
    std::uint64_t setup_failed = 0;
};

/// Calibration loop over @p mem: @p n loads and stores of SWcc word
/// @p swcc and @p n cas64 on sync word @p sync, one span per loop.
void calibrate_session(Tracer& tracer, cxl::MemSession& mem,
                       cxl::HeapOffset swcc, cxl::HeapOffset sync,
                       std::uint64_t n);

std::unique_ptr<Workload> make_churn(const Args& args);
std::unique_ptr<Workload> make_kv_pod(const Args& args);
std::unique_ptr<Workload> make_tiered(const Args& args);

/// Quiescent sweep of one heap: check_invariants (which dies on a broken
/// list), then every classed slab of the small and large heaps must have
/// free counter == bitmap popcount and, when @p drained, remote-free
/// down-counter == free counter (zero live blocks). Returns violations.
std::uint64_t sweep_heap(cxlalloc::CxlAllocator& heap, cxl::MemSession& mem,
                         bool drained);

} // namespace perfbench
