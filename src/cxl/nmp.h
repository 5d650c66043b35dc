/// @file
/// Near-memory-processing (NMP) mCAS engine (paper §4, Fig. 6), batched.
///
/// Substitution note: the paper implements this in the FPGA of an Intel
/// Agilex 7 CXL Type-2 board. We reproduce the *interface contract* and the
/// *conflict semantics*:
///  - each thread owns a ring of kNmpRingSlots operand slots in the
///    special-write (spwr) region (one 64 B cacheline per slot: expected
///    value, swap value, target address) and matching response slots in the
///    special-read (sprd) region (success bit + previous value);
///  - a thread stages one or more independent operands into its ring
///    (spwr_post), then *doorbells* the ring: the device executes every
///    staged operand of that thread in posting order within one serialized
///    engine pass — one device round trip, however many operands it
///    carries. Completions are harvested in FIFO order with poll();
///  - only one staged-but-unexecuted operand may exist per target address
///    pod-wide: an operand that arrives (is posted) while another staged
///    operand — any thread's, including an earlier slot of the same ring —
///    targets the same address is failed (Fig. 6(b)). The engine reports
///    the failure as a conflict at execution time; hardware does not retry,
///    software must (see McasBackoff);
///  - all engine work is serialized at the device, which is what provides
///    atomicity without any cache coherence.
///
/// spwr_post()/doorbell()/poll() are the whole interface: the paper's
/// two-phase spwr/sprd pair is a post + doorbell + poll of a one-operand
/// ring. MemSession drives them (cas64 as a ring of one; mcas_post,
/// mcas_doorbell and mcas_poll for a full ring, as the allocator's drain
/// of pending remote frees uses them; every doorbell behind its
/// stall-retry ladder), and tests call them directly to interleave
/// competing operands deterministically.
///
/// Persistence: the ring lives in device memory, which survives host and
/// process crashes (paper §2.1 failure model). Recovery code inspects a
/// crashed thread's ring via ring_snapshot() to learn exactly which staged
/// operands executed, then releases it with reset_ring().

#pragma once

#include <array>
#include <cstdint>
#include <exception>
#include <mutex>
#include <string_view>

#include "cxl/device.h"
#include "cxl/types.h"
#include "obs/histogram.h"

namespace obs {
class MetricsRegistry;
}

namespace cxl {

/// Operand slots per thread ring (spwr cachelines per thread).
inline constexpr std::uint32_t kNmpRingSlots = 8;

/// One mCAS operand as staged in a spwr slot.
struct McasOperand {
    HeapOffset target = 0;
    std::uint64_t expected = 0;
    std::uint64_t swap = 0;
};

/// Outcome of one mCAS.
struct McasResult {
    /// True if the swap was performed.
    bool success = false;
    /// True if the operation was failed because a competing staged operand
    /// targeted the same address (hardware does not retry; software must).
    bool conflict = false;
    /// Value observed at the target (undefined when conflict).
    std::uint64_t previous = 0;
};

/// Lifecycle of a ring slot.
enum class NmpSlotState : std::uint8_t {
    Free,     ///< no operand
    Posted,   ///< staged by spwr_post, doorbell not yet processed it
    Executed, ///< engine executed it; result awaits poll()
};

/// Introspection view of one live ring slot (recovery + tests).
struct NmpSlotView {
    McasOperand op;
    NmpSlotState state = NmpSlotState::Free;
    /// Valid only when state == Executed.
    McasResult result;
};

/// A persistently stalled NMP engine: the doorbell retry ladder
/// (MemSession, kNmpStallRetryLimit attempts with McasBackoff waits)
/// exhausted its bound without the engine answering. This is the typed
/// device-failure report: the thread's staged operands are still in its
/// ring (device memory — recovery inspects them via ring_snapshot and
/// releases them with reset_ring once the engine is back or the device is
/// written off).
class NmpStallError : public std::exception {
  public:
    explicit NmpStallError(ThreadId tid) : tid_(tid) {}

    ThreadId tid() const { return tid_; }

    const char*
    what() const noexcept override
    {
        return "NMP engine stalled: doorbell retry ladder exhausted";
    }

  private:
    ThreadId tid_;
};

/// Bounded exponential backoff for mCAS conflict-retry loops. A conflicted
/// operand means another staged operand beat us to the target; retrying
/// immediately re-conflicts against the same in-flight window, so software
/// waits 2^k * base (capped) before resubmitting. Returns the wait in
/// simulated nanoseconds so callers on the latency-model path can charge it.
///
/// Each wait carries deterministic bounded jitter in [0, nominal/2): two
/// threads that conflict on the same target back off by the same nominal
/// 2^k * base, so without jitter their retries re-collide in lock-step
/// forever (most visibly under the sched explorer, whose yield ordering is
/// deterministic). The jitter stream is a pure function of the seed — same
/// seed, same waits — so replayed schedules stay bit-for-bit identical.
class McasBackoff {
  public:
    static constexpr std::uint64_t kBaseNs = 200;
    static constexpr std::uint64_t kMaxNs = 12'800; // base << 6

    McasBackoff() : McasBackoff(0) {}

    /// Seeds the jitter stream; callers pass their ThreadId so competing
    /// threads draw decorrelated waits.
    explicit McasBackoff(std::uint64_t seed)
    {
        rng_ = seed * 6364136223846793005ULL + 1442695040888963407ULL;
        if (rng_ == 0) {
            rng_ = 1;
        }
    }

    /// Next wait: nominal 2^k * base (growing 2x per call until the cap)
    /// plus jitter < nominal/2. Total is bounded by kMaxNs * 3 / 2.
    std::uint64_t
    next_ns()
    {
        std::uint64_t ns = kBaseNs << shift_;
        if (ns < kMaxNs) {
            shift_++;
        }
        // xorshift64: cheap, deterministic, never zero.
        rng_ ^= rng_ << 13;
        rng_ ^= rng_ >> 7;
        rng_ ^= rng_ << 17;
        return ns + rng_ % (ns / 2);
    }

    /// Call after a success so the next conflict starts small again (the
    /// jitter stream keeps advancing — reset restores the *scale*, not
    /// the sequence).
    void reset() { shift_ = 0; }

  private:
    std::uint32_t shift_ = 0;
    std::uint64_t rng_;
};

/// The simulated NMP unit managing the device-biased region.
class Nmp {
  public:
    explicit Nmp(Device* device) : device_(device) {}

    // ---- the spwr/sprd ring ----

    /// Stages @p op into the next free slot of @p tid's ring without
    /// ringing the doorbell. Returns false if the ring is full (the caller
    /// must doorbell + poll first). Conflict detection happens *here*, at
    /// arrival: an operand posted while any staged operand targets the same
    /// address is doomed (Fig. 6(b)), including an earlier operand of the
    /// same ring.
    bool spwr_post(ThreadId tid, const McasOperand& op);

    /// Rings @p tid's doorbell: the engine executes every posted operand of
    /// that ring, in posting order, within one serialized pass (one device
    /// round trip regardless of occupancy). Returns the number executed.
    std::uint32_t doorbell(ThreadId tid);

    /// Harvests the oldest executed operand's result into @p out. Returns
    /// false when no executed result is pending. Results are FIFO.
    bool poll(ThreadId tid, McasResult* out);

    // ---- fault injection (pod fault layer; see pod/faults.h) ----

    /// Arms an engine stall: the next @p doorbells doorbell rings that
    /// find posted operands are ignored (the engine does not answer;
    /// nothing executes). Empty doorbells do not consume the budget.
    /// Sessions see doorbell() return 0 with operands still posted and
    /// climb their retry ladder (kNmpStallRetryLimit). Additive.
    void inject_stall(std::uint32_t doorbells);

    /// Arms an engine slowdown: the next @p doorbells *answered* doorbells
    /// each report @p extra_ns of additional simulated latency, which the
    /// session charges on top of the modeled round trip. Additive.
    void inject_delay(std::uint64_t extra_ns, std::uint32_t doorbells);

    /// Doorbell rings the stall budget still covers.
    std::uint32_t stall_remaining() const;

    /// Extra ns the session must charge for the doorbell it just rang
    /// (consumes one armed delay; 0 when none armed).
    std::uint64_t take_injected_delay_ns();

    /// Doorbell rings swallowed by injected stalls so far.
    std::uint64_t total_stalled_doorbells() const { return stalled_; }

    // ---- recovery / test introspection ----

    /// Live (posted + executed-unpolled) operands in @p tid's ring.
    std::uint32_t ring_occupancy(ThreadId tid) const;

    /// Operands of @p tid's ring still in Posted state (staged, doorbell
    /// not yet answered) — nonzero after a stalled doorbell, which is how
    /// the session distinguishes "stall" from "nothing to execute".
    std::uint32_t posted_occupancy(ThreadId tid) const;

    /// Copies up to @p cap live slots of @p tid's ring, oldest first.
    /// Recovery uses this to learn which operands of a crashed thread's
    /// batch were staged and which executed (the ring is device memory and
    /// survives the crash).
    std::uint32_t ring_snapshot(ThreadId tid, NmpSlotView* out,
                                std::uint32_t cap) const;

    /// Frees every slot of @p tid's ring, discarding staged operands and
    /// unpolled results. Called when a crashed thread's slot is adopted,
    /// after recovery has inspected the ring: a dead thread's staged
    /// operands must stop dooming the rest of the pod.
    void reset_ring(ThreadId tid);

    // ---- engine statistics ----

    std::uint64_t total_ops() const { return ops_; }
    std::uint64_t total_conflicts() const { return conflicts_; }
    /// Doorbell rings that executed at least one operand.
    std::uint64_t total_batches() const { return batches_; }

    /// Publishes engine counters ("nmp.ops", "nmp.conflicts",
    /// "nmp.batches") and the per-doorbell occupancy histogram
    /// ("nmp.batch_occupancy") into @p registry, optionally under
    /// @p prefix. Call at quiesce points.
    void publish_metrics(obs::MetricsRegistry& registry,
                         std::string_view prefix = {}) const;

  private:
    struct Slot {
        McasOperand op;
        McasResult result;
        NmpSlotState state = NmpSlotState::Free;
        bool doomed = false;
    };

    /// One thread's spwr/sprd ring: a FIFO of kNmpRingSlots slots.
    struct Ring {
        std::array<Slot, kNmpRingSlots> slots{};
        std::uint32_t head = 0; ///< oldest live slot
        std::uint32_t size = 0; ///< live (posted + executed) slots

        Slot& at(std::uint32_t i) { return slots[i % kNmpRingSlots]; }
        const Slot&
        at(std::uint32_t i) const
        {
            return slots[i % kNmpRingSlots];
        }
    };

    /// Executes one staged operand (engine pass body). Caller holds mu_.
    void execute_locked(Slot& slot);

    Device* device_;
    /// The device serializes engine work; one mutex models that pipeline.
    mutable std::mutex mu_;
    /// Per-thread operand rings (the spwr/sprd region contents).
    std::array<Ring, kMaxThreads + 1> rings_{};
    std::uint64_t ops_ = 0;
    std::uint64_t conflicts_ = 0;
    std::uint64_t batches_ = 0;
    // Fault-injection state (guarded by mu_ except the stat counter).
    std::uint32_t stall_budget_ = 0;
    std::uint32_t delay_budget_ = 0;
    std::uint64_t delay_ns_ = 0;
    std::uint64_t stalled_ = 0;
    /// Operands executed per doorbell (batch occupancy), recorded under mu_.
    obs::Histogram occupancy_;
};

} // namespace cxl
