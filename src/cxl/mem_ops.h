/// @file
/// MemSession: a thread's window onto the simulated CXL device.
///
/// Every allocator access to shared memory goes through a MemSession, which
/// enforces the region semantics of the configured coherence mode:
///  - sync region (HWcc or device-biased): word accesses are atomic; cas64
///    dispatches to a real CPU CAS (HWcc) or to the NMP mCAS engine
///    (NoHwcc). The device-biased region is uncachable, so accesses are
///    charged uncached latency.
///  - SWcc region: plain loads/stores, optionally routed through the
///    per-thread ThreadCache so stale reads are observable; flush()/fence()
///    implement the paper's software coherence protocol.
///
/// The session also accumulates event counters and (optionally) simulated
/// time from a LatencyModel, which benchmarks use to report paper-shaped
/// results on hardware unlike the authors' testbeds.

#pragma once

#include <array>
#include <atomic>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/assert.h"
#include "common/cacheline.h"
#include "common/test_faults.h"
#include "cxl/cache_model.h"
#include "cxl/device.h"
#include "cxl/latency_model.h"
#include "cxl/nmp.h"
#include "cxl/types.h"
#include "obs/histogram.h"
#include "sched/hook.h"

namespace obs {
class MetricsRegistry;
}

namespace cxl {

/// Doorbell retries MemSession attempts against a stalled NMP engine
/// before escalating to NmpStallError, each separated by one McasBackoff
/// step — the bounded timeout of the retry ladder (worst case roughly
/// kNmpStallRetryLimit * McasBackoff::kMaxNs * 1.5 of simulated wait).
inline constexpr std::uint32_t kNmpStallRetryLimit = 10;

/// Event counts for one thread's session.
struct MemEventCounters {
    /// Line-granular access counts: a bulk read/write of N cachelines
    /// counts N (matching the per-line latency it is charged), a word
    /// access counts 1.
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    /// flush() calls (one per invocation, however many lines it covers).
    std::uint64_t flushes = 0;
    /// Cachelines actually written back/invalidated by those flushes —
    /// the per-line cost the fence-elision work optimizes. flush_dirty()
    /// adds only the lines it really flushed.
    std::uint64_t flushed_lines = 0;
    std::uint64_t fences = 0;
    std::uint64_t cas_ops = 0;
    std::uint64_t cas_failures = 0;
    std::uint64_t mcas_ops = 0;
    std::uint64_t mcas_conflicts = 0;
    /// Batched doorbells rung (each is one device round trip).
    std::uint64_t mcas_batches = 0;
    /// Operands carried by those doorbells (occupancy = ops / batches).
    std::uint64_t mcas_batch_ops = 0;
    std::uint64_t faults = 0;
    /// Accesses whose mapping check was answered by the session TLB.
    std::uint64_t tlb_hits = 0;
    /// Accesses that had to consult the mapping guard.
    std::uint64_t tlb_misses = 0;
    /// Pod routing split (sessions with set_pod_routing only): accesses to
    /// the session host's home device vs any other device. One event per
    /// access (not per line) — the placement-policy signal, not a latency
    /// proxy.
    std::uint64_t pod_local = 0;
    std::uint64_t pod_remote = 0;
    /// Accesses routed to a host-private local-DRAM window (MemTier::
    /// LocalDram edges) — the tiering win the migrator optimizes for.
    std::uint64_t pod_dram = 0;
    /// Accesses rejected with EdgeDownError (statically unreachable or
    /// runtime-Down edge) — the degraded-mode signal fault_storm budgets.
    std::uint64_t pod_edge_down = 0;
    /// Doorbell retry ladders that exhausted their bound against a stalled
    /// NMP engine and escalated to an NmpStallError device-failure report.
    std::uint64_t nmp_stall_escalations = 0;

    MemEventCounters& operator+=(const MemEventCounters& o);
    bool operator==(const MemEventCounters&) const = default;
};

/// One MemEventCounters field and the metric MemSession::publish_metrics
/// exports it as.
struct MemEventField {
    const char* metric;
    std::uint64_t MemEventCounters::*member;
};

/// The single field list of MemEventCounters: aggregation and publishing
/// both walk it, in this (metric registration) order.
inline constexpr MemEventField kMemEventFields[] = {
    {"mem.loads", &MemEventCounters::loads},
    {"mem.stores", &MemEventCounters::stores},
    {"mem.flushes", &MemEventCounters::flushes},
    {"mem.flushed_lines", &MemEventCounters::flushed_lines},
    {"mem.fences", &MemEventCounters::fences},
    {"mem.cas_ops", &MemEventCounters::cas_ops},
    {"mem.cas_failures", &MemEventCounters::cas_failures},
    {"mem.mcas_ops", &MemEventCounters::mcas_ops},
    {"mem.mcas_conflicts", &MemEventCounters::mcas_conflicts},
    {"mem.mcas_batches", &MemEventCounters::mcas_batches},
    {"mem.mcas_batch_ops", &MemEventCounters::mcas_batch_ops},
    {"mem.faults", &MemEventCounters::faults},
    {"mem.tlb_hits", &MemEventCounters::tlb_hits},
    {"mem.tlb_misses", &MemEventCounters::tlb_misses},
    {"pod.local_ops", &MemEventCounters::pod_local},
    {"pod.remote_ops", &MemEventCounters::pod_remote},
    {"pod.dram_ops", &MemEventCounters::pod_dram},
    {"pod.edge_down_ops", &MemEventCounters::pod_edge_down},
    {"mem.nmp_stall_escalations", &MemEventCounters::nmp_stall_escalations},
};

/// True when no two entries of kMemEventFields name the same member.
constexpr bool
mem_event_fields_distinct()
{
    for (std::size_t i = 0; i < std::size(kMemEventFields); i++) {
        for (std::size_t j = i + 1; j < std::size(kMemEventFields); j++) {
            if (kMemEventFields[i].member == kMemEventFields[j].member) {
                return false;
            }
        }
    }
    return true;
}

static_assert(std::size(kMemEventFields) * sizeof(std::uint64_t) ==
                      sizeof(MemEventCounters) &&
                  mem_event_fields_distinct(),
              "kMemEventFields must list every MemEventCounters field once");

inline MemEventCounters&
MemEventCounters::operator+=(const MemEventCounters& o)
{
    for (const MemEventField& f : kMemEventFields) {
        this->*f.member += o.*f.member;
    }
    return *this;
}

/// Interface the pod layer implements to intercept accesses to not-yet-
/// mapped offsets (the SIGSEGV-handler analog providing PC-T).
class MemSession;

class MappingGuard {
  public:
    virtual ~MappingGuard() = default;

    /// Ensures [offset, offset+len) is mapped in the calling process,
    /// faulting into the registered handler if not. Aborts (true segfault)
    /// if the handler cannot back the access. @p mem identifies the
    /// faulting thread (the handler runs on the faulting thread's stack).
    /// Returns true when the guard actually VERIFIED the range is mapped —
    /// only then may the session cache the translation in its TLB. False
    /// means the access was waved through unverified (unchecked mode, or
    /// re-entry from inside the fault handler) and must not be cached.
    virtual bool on_access(MemSession& mem, HeapOffset offset,
                           std::uint64_t len) = 0;

    /// Monotonic counter bumped on every mapping removal. Sessions compare
    /// it against the epoch their TLB entries were filled under and drop
    /// them all on mismatch — the munmap-shootdown analog that keeps PC-T
    /// reclamation (hazard-offset unmaps, huge-region reclaim) correct.
    virtual std::uint64_t mapping_epoch() const = 0;
};

/// The owner of a batched doorbell whose results the thread has not
/// harvested yet (the slab heap's drain round). The session runs its
/// finish before the thread next posts an operand (cas64, mcas_post),
/// the way it calls the mapping guard before an access.
class McasFinisher {
  public:
    /// Harvests the round (mcas_wait, mcas_poll) and releases its ring
    /// slots. Must not post operands: it may run between another
    /// operation's record and that operation's CAS.
    virtual void finish_mcas_round() = 0;

  protected:
    ~McasFinisher() = default;
};

/// Session-side record of which SWcc cachelines this thread has dirtied
/// since it last flushed them: the index flush_dirty() consults to write
/// back 1 line instead of 9 on the common descriptor publication. One bit
/// per cacheline of the device, kept in 4 KiB chunks (2 MiB of device
/// each) that are allocated on the first insert into their span — exact
/// at any number of dirty lines, with no capacity limit.
class DirtyLineSet {
  public:
    /// Records a line-aligned offset as dirty.
    void
    insert(std::uint64_t line)
    {
        std::uint64_t* word = word_of(line);
        if (word == nullptr) {
            word = add_chunk(line);
        }
        std::uint64_t mask = bit_of(line);
        size_ += (*word & mask) == 0;
        *word |= mask;
    }

    /// Clears a line (a no-op if it is clean).
    void
    erase(std::uint64_t line)
    {
        std::uint64_t* word = word_of(line);
        if (word != nullptr && (*word & bit_of(line)) != 0) {
            *word &= ~bit_of(line);
            size_--;
        }
    }

    bool
    contains(std::uint64_t line) const
    {
        const std::uint64_t* word = word_of(line);
        return word != nullptr && (*word & bit_of(line)) != 0;
    }

    std::size_t size() const { return size_; }

  private:
    static constexpr std::uint64_t kChunkWords = 512;
    static constexpr std::uint64_t kChunkLines = kChunkWords * 64;

    static std::uint64_t
    bit_of(std::uint64_t line)
    {
        return std::uint64_t{1} << ((line >> cxlcommon::kCacheLineBits) % 64);
    }

    /// The bitmap word holding @p line, or null if its chunk is absent.
    std::uint64_t*
    word_of(std::uint64_t line) const
    {
        std::uint64_t index = line >> cxlcommon::kCacheLineBits;
        std::uint64_t chunk = index / kChunkLines;
        if (chunk >= chunks_.size() || chunks_[chunk] == nullptr) {
            return nullptr;
        }
        return &chunks_[chunk][index / 64 % kChunkWords];
    }

    /// Allocates the zeroed chunk covering @p line; returns its word.
    std::uint64_t* add_chunk(std::uint64_t line);

    std::vector<std::unique_ptr<std::uint64_t[]>> chunks_;
    std::size_t size_ = 0;
};

/// A thread's access session. Not thread-safe; one per thread. Every
/// access reads and writes session fields, so a session starts and ends
/// on cacheline boundaries: no other thread's data shares its lines.
class alignas(cxlcommon::kCacheLine) MemSession {
  public:
    MemSession(Device* device, Nmp* nmp, ThreadId tid);

    ThreadId tid() const { return tid_; }
    Device* device() { return device_; }

    /// Installs the PC-T mapping guard (and enables per-access checks).
    void
    set_mapping_guard(MappingGuard* guard)
    {
        guard_ = guard;
        tlb_ = {};
        tlb_epoch_ = guard != nullptr ? guard->mapping_epoch() : 0;
    }

    /// Attaches a latency model; simulated time accrues from then on.
    void
    set_latency_model(const LatencyModel* model)
    {
        model_ = model;
    }

    /// Routes this session through a pod topology: @p row is the session
    /// host's row of the (host, device) edge-cost matrix (@p devices
    /// entries, must outlive the session), @p home its first-touch home
    /// device, @p host the host id (metric labels only). From then on
    /// every access is checked against the row's reachability, charged the
    /// edge's extra latency on top of the base model, and counted into the
    /// pod_local/pod_remote split plus per-edge ops/ns accounting. A
    /// session without routing (the 1x1 pod) skips all of that. @p states
    /// is the host's runtime edge-health row (pod::Topology::state_row,
    /// same lifetime contract as @p row): accesses over a Down edge are
    /// rejected with EdgeDownError exactly like statically-unreachable
    /// ones.
    void set_pod_routing(const EdgeCost* row, std::uint32_t devices,
                         DeviceId home, std::uint32_t host,
                         const EdgeStateCell* states);

    /// Device id an offset routes to (its window).
    DeviceId
    device_of(HeapOffset offset) const
    {
        return pod_device_of(offset, window_bits_);
    }

    DeviceId home_device() const { return home_device_; }
    std::uint32_t pod_host() const { return host_; }

    /// Loads a word-sized trivially copyable T from shared memory.
    template <typename T>
    T
    load(HeapOffset offset)
    {
        static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8);
        sched::hook(sched::Op::Load, offset, sizeof(T));
        check_access(offset, sizeof(T));
        counters_.loads++;
        if (cache_sim_at(offset)) {
            charge(model_ ? model_->cached_ns : 0);
            T value;
            cache_.read(offset, &value, sizeof(T));
            return value;
        }
        charge_access(offset, 1, 8, /*write=*/false);
        return atomic_at<T>(offset).load(std::memory_order_relaxed);
    }

    /// Stores a word-sized trivially copyable T to shared memory.
    template <typename T>
    void
    store(HeapOffset offset, T value)
    {
        static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8);
        sched::hook(sched::Op::Store, offset, sizeof(T));
        check_access(offset, sizeof(T));
        counters_.stores++;
        if (cache_sim_at(offset)) {
            charge(model_ ? model_->cached_ns : 0);
            cache_.write(offset, &value, sizeof(T));
            note_dirty(offset, sizeof(T));
            return;
        }
        charge_access(offset, 1, 8, /*write=*/true);
        atomic_at<T>(offset).store(value, std::memory_order_relaxed);
        if (!device_->in_sync_region(offset)) {
            note_dirty(offset, sizeof(T));
        }
    }

    /// Bulk read of SWcc data (goes through the cache model if enabled).
    void read_bytes(HeapOffset offset, void* out, std::uint64_t len);

    /// Bulk write of SWcc data.
    void write_bytes(HeapOffset offset, const void* in, std::uint64_t len);

    /// Direct pointer for application payload bytes. Mapping-checked, but
    /// bypasses the cache model: payloads are application data whose
    /// coherence is the application's business (paper manages only
    /// allocator metadata in SWcc).
    std::byte*
    data_ptr(HeapOffset offset, std::uint64_t len)
    {
        check_access(offset, len);
        return device_->raw(offset);
    }

    /// Writes back + invalidates the cachelines covering [offset, +len).
    /// Mapping-checked like every other access path (flushing a reclaimed
    /// range must fault, not silently touch stale translations). A zero-
    /// length flush is a no-op: no event, no counter, no latency.
    void flush(HeapOffset offset, std::uint64_t len = cxlcommon::kCacheLine);

    /// Flushes only the lines of [offset, offset+len) this session has
    /// dirtied since their last flush — the paper's §3.2.2 observation
    /// that the owner already knows which descriptor fields it wrote.
    /// Counts one flush (and per-line latency) per contiguous dirty run;
    /// clean lines cost nothing. Guarded by litmus shape SwccPublishDirtyOnly
    /// and the sched publish oracle (flush-before-publish over the full
    /// descriptor range stays enforced).
    void flush_dirty(HeapOffset offset, std::uint64_t len);

    /// Store fence ordering flushes before subsequent writes. In litmus
    /// mode (cache knobs with a store buffer) this also completes the
    /// cache's in-flight store-buffer drain and pending write-backs.
    void fence();

    /// 64-bit compare-and-swap on the sync region. Under NoHwcc this is an
    /// NMP mCAS; an engine conflict counts as a failure and reloads
    /// @p expected like a value mismatch would. Returns true on swap.
    /// Finishes the thread's unharvested round first.
    bool cas64(HeapOffset offset, std::uint64_t& expected,
               std::uint64_t desired);

    /// Stages one mCAS operand into this thread's NMP ring without ringing
    /// the doorbell (NoHwcc only; the staging window is what batch-crash
    /// recovery inspects). Returns false when the ring is full — drain
    /// with mcas_doorbell() + mcas_poll() first. Finishes the thread's
    /// unharvested round first.
    bool mcas_post(const McasOperand& op);

    /// Rings this thread's doorbell: every staged operand executes in one
    /// device round trip of mcas_ns + (k-1) * mcas_batch_slot_ns for k
    /// operands, plus any injected engine delay. The trip is not charged
    /// here: its results are ready that long after the doorbell, and the
    /// first harvest (mcas_wait) charges what is left of it. Returns k.
    std::uint32_t mcas_doorbell();

    /// Harvests the oldest completed operand's result (FIFO), after
    /// mcas_wait. A conflicted result is charged mcas_conflict_ns and
    /// counted here, not at the doorbell. Returns false when nothing is
    /// pending.
    bool mcas_poll(McasResult* out);

    /// Waits for the last doorbell's results: charges max(0, ready - now),
    /// where ready is the doorbell's time plus its trip; a no-op once
    /// paid. Work charged since the doorbell hides that much of it.
    void
    mcas_wait()
    {
        if (mcas_ready_ns_ > sim_ns_) {
            mcas_wait_ns_ += mcas_ready_ns_ - sim_ns_;
            sim_ns_ = mcas_ready_ns_;
        }
    }

    /// Simulated ns: the modeled round trip of every batched doorbell
    /// (injected engine delay included), and the part of it the thread
    /// waited for at harvest (mcas_wait); published as "mem.mcas_trip_ns"
    /// and "mem.mcas_wait_ns". 1 - wait / trip is the share its other
    /// work hid.
    std::uint64_t mcas_trip_ns() const { return mcas_trip_ns_; }
    std::uint64_t mcas_wait_ns() const { return mcas_wait_ns_; }

    /// Registers @p finisher as the owner of the round just rung; the
    /// next cas64, mcas_post or finish_mcas_round runs it.
    void set_mcas_finisher(McasFinisher* finisher) { finisher_ = finisher; }

    /// Runs (and unregisters) the registered finisher, if any: every
    /// path that needs the ring, or a round's effects, calls this first.
    void
    finish_mcas_round()
    {
        if (McasFinisher* f = finisher_) {
            finisher_ = nullptr;
            f->finish_mcas_round();
        }
    }

    /// True while a registered round is unharvested.
    bool mcas_round_out() const { return finisher_ != nullptr; }

    /// The NMP engine behind this session (ring introspection).
    Nmp* nmp() { return nmp_; }

    /// Atomic (coherent) 64-bit load from the sync region.
    std::uint64_t atomic_load64(HeapOffset offset);

    /// Atomic (coherent) 64-bit store to the sync region.
    void atomic_store64(HeapOffset offset, std::uint64_t value);

    /// Registers the line holding this thread's recovery-record row as the
    /// cache's durable line: its newest value is persisted ahead of any
    /// dirty capacity eviction, so a host crash can never surface a later
    /// operation's effect next to a stale record (see ThreadCache and
    /// RecoveryLog's discipline note). Idempotent; a no-op without the
    /// cache model (stores then reach the device in program order anyway).
    void
    set_durable_row(HeapOffset row)
    {
        cache_.set_durable_line(cxlcommon::line_of(row));
    }

    /// Drops this thread's simulated cache without write-back: what a crash
    /// does to unflushed state.
    void
    drop_cache()
    {
        cache_.invalidate_all();
    }

    ThreadCache& cache() { return cache_; }

    /// The session's dirty-line index (tests and stats).
    const DirtyLineSet& dirty_set() const { return dirty_; }

    MemEventCounters& counters() { return counters_; }
    const MemEventCounters& counters() const { return counters_; }

    /// Publishes this session's event counters and simulated time into
    /// @p registry under "mem.*", sharded by this session's thread id.
    /// Call at quiesce points (end of a run); cheap enough to call often.
    void publish_metrics(obs::MetricsRegistry& registry) const;

    /// Simulated nanoseconds accumulated by this session.
    std::uint64_t sim_ns() const { return sim_ns_; }
    void charge(std::uint64_t ns) { sim_ns_ += ns; }
    void
    reset_accounting()
    {
        // An unharvested doorbell keeps the wait it has left.
        mcas_ready_ns_ =
            mcas_ready_ns_ > sim_ns_ ? mcas_ready_ns_ - sim_ns_ : 0;
        sim_ns_ = 0;
        mcas_trip_ns_ = 0;
        mcas_wait_ns_ = 0;
        counters_ = MemEventCounters{};
        mcas_round_trip_ns_.reset();
        for (std::uint32_t d = 0; d < edge_devices_; d++) {
            edge_ops_[d] = 0;
            edge_ns_[d] = 0;
        }
    }

  private:
    /// Rings this thread's doorbell with the bounded stall-retry ladder:
    /// when operands are posted but the engine does not answer, retries up
    /// to kNmpStallRetryLimit times with McasBackoff waits (charged as
    /// simulated ns), then escalates by throwing NmpStallError. Returns
    /// the number of operands executed (0 only for an empty ring); the
    /// caller accounts for the trip and any injected engine delay.
    std::uint32_t doorbell_with_ladder();

    template <typename T>
    std::atomic_ref<T>
    atomic_at(HeapOffset offset)
    {
        CXL_ASSERT(offset % sizeof(T) == 0, "misaligned shared access");
        return std::atomic_ref<T>(
            *reinterpret_cast<T*>(device_->raw(offset)));
    }

    /// True if this access should be routed through the simulated cache:
    /// cache simulation on, and the offset is in cacheable (non-device-
    /// biased) memory outside the always-coherent region.
    bool
    cache_sim_at(HeapOffset offset) const
    {
        return device_->config().simulate_cache &&
               !device_->in_sync_region(offset);
    }

    void
    check_access(HeapOffset offset, std::uint64_t len)
    {
        // Overflow-safe form: `offset + len <= size` wraps for huge len and
        // would wave a wild access through.
        std::uint64_t size = device_->size();
        CXL_ASSERT(len <= size && offset <= size - len,
                   "access past device end");
        if (edge_row_ != nullptr) {
            DeviceId dev = pod_device_of(offset, window_bits_);
            CXL_ASSERT(dev == pod_device_of(offset + len - 1, window_bits_),
                       "access spans device windows");
            CXL_ASSERT(dev < edge_devices_, "device id out of range");
            // Reachability is a safety property (an unreachable edge has
            // no wire to carry the access), so it is enforced even in
            // builds without invariant checks — but as a typed,
            // recoverable rejection: a sparse topology's stray access and
            // a runtime-Down edge both surface as EdgeDownError so the
            // caller can degrade (park the free, re-place the alloc)
            // instead of dying.
            bool wired = edge_row_[dev].reachable;
            if (!wired || edge_state_row_[dev].state.load(
                              std::memory_order_acquire) ==
                              static_cast<std::uint8_t>(EdgeState::Down)) {
                counters_.pod_edge_down++;
                throw EdgeDownError(dev, offset, wired);
            }
            if (edge_row_[dev].tier == MemTier::LocalDram) {
                counters_.pod_dram++;
            } else if (dev == home_device_) {
                counters_.pod_local++;
            } else {
                counters_.pod_remote++;
            }
            edge_ops_[dev]++;
        }
        if (guard_ == nullptr) {
            return;
        }
        std::uint64_t epoch = guard_->mapping_epoch();
        if (epoch != tlb_epoch_) {
            // Some mapping was removed since these entries were filled:
            // every cached translation is suspect. Drop them all and
            // re-verify (the munmap TLB-shootdown analog).
            tlb_ = {};
            tlb_epoch_ = epoch;
        } else {
            for (std::uint32_t i = 0; i < kTlbEntries; i++) {
                const TlbEntry& e = tlb_[i];
                if (offset >= e.start && offset + len <= e.end) {
                    counters_.tlb_hits++;
                    return;
                }
            }
        }
        counters_.tlb_misses++;
        if (guard_->on_access(*this, offset, len)) {
            // Verified mapped: cache the covering pages. Mappings are
            // page-granular, so the whole rounded range is known good.
            tlb_[tlb_next_] = TlbEntry{
                offset & ~static_cast<HeapOffset>(kPageSize - 1),
                cxlcommon::align_up(offset + len, kPageSize)};
            tlb_next_ = (tlb_next_ + 1) % kTlbEntries;
        }
    }

    /// Charges an access of @p lines cachelines / @p bytes bytes at
    /// @p offset that bypasses the simulated cache: the base latency per
    /// line plus the edge's. Device-biased memory is uncachable, so its
    /// accesses go to the medium; everything else costs a cached access.
    void
    charge_access(HeapOffset offset, std::uint64_t lines, std::uint64_t bytes,
                  bool write)
    {
        if (model_ == nullptr) {
            return;
        }
        bool uncachable = device_->mode() == CoherenceMode::NoHwcc &&
                          device_->in_sync_region(offset);
        std::uint64_t medium_ns = write ? model_->write_ns : model_->read_ns;
        charge(lines * (uncachable ? medium_ns : model_->cached_ns));
        charge_edge(offset, lines, bytes, write);
    }

    /// Adds the (host, device) edge cost of moving @p lines cachelines /
    /// @p bytes bytes at @p offset on top of the base model charge, and
    /// adds it to the edge's ns counter. A no-op without pod routing or a
    /// latency model, and free on zero-cost (host-local) edges.
    void
    charge_edge(HeapOffset offset, std::uint64_t lines, std::uint64_t bytes,
                bool write)
    {
        if (edge_row_ == nullptr || model_ == nullptr) {
            return;
        }
        DeviceId dev = pod_device_of(offset, window_bits_);
        const EdgeCost& e = edge_row_[dev];
        std::uint64_t add =
            lines * (write ? e.write_add_ns : e.read_add_ns) +
            bytes * e.ns_per_kib / 1024;
        if (add == 0) {
            return;
        }
        charge(add);
        edge_ns_[dev] += add;
    }

    /// Records the SWcc lines covering [offset, offset+len) as dirtied by
    /// this session. The test fault models an undertracking bug: lines go
    /// dirty without being recorded, so flush_dirty() under-flushes and
    /// the publish oracle / litmus suite must catch the stale publication.
    void
    note_dirty(HeapOffset offset, std::uint64_t len)
    {
        if (cxlcommon::test_faults::skip_dirty_line_tracking) {
            return;
        }
        std::uint64_t first = cxlcommon::line_of(offset);
        std::uint64_t last = cxlcommon::line_of(offset + len - 1);
        for (std::uint64_t line = first; line <= last;
             line += cxlcommon::kCacheLine) {
            dirty_.insert(line);
        }
    }

    /// One verified-mapped range, page-rounded; start == end means empty.
    struct TlbEntry {
        HeapOffset start = 0;
        HeapOffset end = 0;
    };

    /// Last-N resolved ranges. Metadata accesses revisit the same
    /// descriptor and local-row pages, so a handful of entries absorbs
    /// nearly every guard consultation (the page-bitmap walk).
    static constexpr std::uint32_t kTlbEntries = 8;

    Device* device_;
    Nmp* nmp_;
    ThreadId tid_;
    ThreadCache cache_;
    DirtyLineSet dirty_;
    MappingGuard* guard_ = nullptr;
    std::array<TlbEntry, kTlbEntries> tlb_{};
    std::uint32_t tlb_next_ = 0;
    std::uint64_t tlb_epoch_ = 0;
    const LatencyModel* model_ = nullptr;
    MemEventCounters counters_;
    std::uint64_t sim_ns_ = 0;
    /// Modeled cost of each mCAS device round trip (single or batched),
    /// merged into "mem.mcas_round_trip_ns" by publish_metrics.
    obs::Histogram mcas_round_trip_ns_;

    // ---- Pod routing (set_pod_routing; all empty/zero otherwise). ----
    /// This host's row of the edge-cost matrix (edge_devices_ entries).
    const EdgeCost* edge_row_ = nullptr;
    /// Runtime edge-health row (edge_devices_ entries).
    const EdgeStateCell* edge_state_row_ = nullptr;
    std::uint32_t edge_devices_ = 0;
    DeviceId home_device_ = 0;
    std::uint32_t host_ = 0;
    /// device_->window_bits(), set at construction (routing or not) so
    /// device_of() is right on every session.
    std::uint32_t window_bits_;
    /// Per-device accounting for this session's host row: accesses and
    /// extra edge nanoseconds (published as pod.edge.h<host>.d<dev>.{ops,ns}
    /// by publish_metrics).
    std::vector<std::uint64_t> edge_ops_;
    std::vector<std::uint64_t> edge_ns_;

    // ---- Deferred mCAS waits: last, in what was the tail padding (a
    // session that grows a line slowed the tiered workload's host clock
    // by about 15 %, with no other change). ----
    /// The last batched doorbell's results are ready at sim_ns_ ==
    /// mcas_ready_ns_.
    std::uint64_t mcas_ready_ns_ = 0;
    std::uint64_t mcas_trip_ns_ = 0;
    std::uint64_t mcas_wait_ns_ = 0;
    /// Owner of the unharvested round, or null.
    McasFinisher* finisher_ = nullptr;
};

// The session's size is a performance contract no simulated counter shows:
// 40 B more, and nothing else, cost tiered_hot_shift 12-15 % of its
// operations per 10 s (EXPERIMENTS.md, perfbench trajectory, "drain rounds
// finish late"). Grow it only with a measurement.
static_assert(sizeof(MemSession) == 8448,
              "MemSession's size moved: measure tiered_hot_shift first");

} // namespace cxl
