#include "cxl/nmp.h"

#include <atomic>
#include <string>

#include "common/assert.h"
#include "obs/registry.h"

namespace cxl {

// ---------------------------------------------------- the spwr/sprd ring

bool
Nmp::spwr_post(ThreadId tid, const McasOperand& op)
{
    CXL_ASSERT(tid != kNoThread && tid <= kMaxThreads, "bad thread id");
    CXL_ASSERT(device_->in_sync_region(op.target),
               "mCAS target outside device-biased region");
    CXL_ASSERT(op.target % 8 == 0, "mCAS target must be 8-byte aligned");
    std::lock_guard<std::mutex> lock(mu_);
    Ring& ring = rings_[tid];
    if (ring.size == kNmpRingSlots) {
        return false;
    }
    Slot& slot = ring.at(ring.head + ring.size);
    ring.size++;
    slot.op = op;
    slot.state = NmpSlotState::Posted;
    slot.doomed = false;
    // Fig. 6(b): an operand that arrives while another staged operand is in
    // flight on the same target address is failed. "Staged" ends when the
    // engine executes the operand — an executed-but-unpolled slot is
    // already serialized and no longer excludes competitors.
    for (std::uint32_t t = 1; t <= kMaxThreads; t++) {
        const Ring& other = rings_[t];
        for (std::uint32_t i = 0; i < other.size; i++) {
            const Slot& competitor = other.at(other.head + i);
            if (&competitor == &slot) {
                continue;
            }
            if (competitor.state == NmpSlotState::Posted &&
                competitor.op.target == op.target) {
                slot.doomed = true;
                return true;
            }
        }
    }
    return true;
}

void
Nmp::execute_locked(Slot& slot)
{
    ops_++;
    slot.state = NmpSlotState::Executed;
    if (slot.doomed) {
        conflicts_++;
        slot.result =
            McasResult{.success = false, .conflict = true, .previous = 0};
        return;
    }
    std::atomic_ref<std::uint64_t> word(
        *reinterpret_cast<std::uint64_t*>(device_->raw(slot.op.target)));
    std::uint64_t previous = word.load(std::memory_order_acquire);
    bool success = previous == slot.op.expected;
    if (success) {
        // "On an mCAS success, all subsequent sprd and spwr operations are
        // stalled until the swap value is written" — under mu_, the write
        // completes before any other engine work.
        word.store(slot.op.swap, std::memory_order_release);
    }
    slot.result = McasResult{.success = success, .conflict = false,
                             .previous = previous};
}

std::uint32_t
Nmp::doorbell(ThreadId tid)
{
    CXL_ASSERT(tid != kNoThread && tid <= kMaxThreads, "bad thread id");
    std::lock_guard<std::mutex> lock(mu_);
    Ring& ring = rings_[tid];
    if (stall_budget_ > 0) {
        // Injected engine stall: a doorbell with work to do goes
        // unanswered (empty rings don't consume the budget — the engine
        // "not responding" is only observable when something was staged).
        bool any_posted = false;
        for (std::uint32_t i = 0; i < ring.size && !any_posted; i++) {
            any_posted = ring.at(ring.head + i).state == NmpSlotState::Posted;
        }
        if (any_posted) {
            stall_budget_--;
            stalled_++;
            return 0;
        }
    }
    std::uint32_t executed = 0;
    for (std::uint32_t i = 0; i < ring.size; i++) {
        Slot& slot = ring.at(ring.head + i);
        if (slot.state == NmpSlotState::Posted) {
            execute_locked(slot);
            executed++;
        }
    }
    if (executed > 0) {
        batches_++;
        occupancy_.record(executed);
    }
    return executed;
}

bool
Nmp::poll(ThreadId tid, McasResult* out)
{
    CXL_ASSERT(tid != kNoThread && tid <= kMaxThreads, "bad thread id");
    std::lock_guard<std::mutex> lock(mu_);
    Ring& ring = rings_[tid];
    if (ring.size == 0 ||
        ring.at(ring.head).state != NmpSlotState::Executed) {
        return false;
    }
    Slot& slot = ring.at(ring.head);
    *out = slot.result;
    slot.state = NmpSlotState::Free;
    ring.head = (ring.head + 1) % kNmpRingSlots;
    ring.size--;
    return true;
}

// ------------------------------------------------------ fault injection

void
Nmp::inject_stall(std::uint32_t doorbells)
{
    std::lock_guard<std::mutex> lock(mu_);
    stall_budget_ += doorbells;
}

void
Nmp::inject_delay(std::uint64_t extra_ns, std::uint32_t doorbells)
{
    std::lock_guard<std::mutex> lock(mu_);
    delay_ns_ = extra_ns;
    delay_budget_ += doorbells;
}

std::uint32_t
Nmp::stall_remaining() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stall_budget_;
}

std::uint64_t
Nmp::take_injected_delay_ns()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (delay_budget_ == 0) {
        return 0;
    }
    delay_budget_--;
    return delay_ns_;
}

// -------------------------------------------------------- introspection

std::uint32_t
Nmp::posted_occupancy(ThreadId tid) const
{
    CXL_ASSERT(tid != kNoThread && tid <= kMaxThreads, "bad thread id");
    std::lock_guard<std::mutex> lock(mu_);
    const Ring& ring = rings_[tid];
    std::uint32_t posted = 0;
    for (std::uint32_t i = 0; i < ring.size; i++) {
        if (ring.at(ring.head + i).state == NmpSlotState::Posted) {
            posted++;
        }
    }
    return posted;
}

std::uint32_t
Nmp::ring_occupancy(ThreadId tid) const
{
    CXL_ASSERT(tid != kNoThread && tid <= kMaxThreads, "bad thread id");
    std::lock_guard<std::mutex> lock(mu_);
    return rings_[tid].size;
}

std::uint32_t
Nmp::ring_snapshot(ThreadId tid, NmpSlotView* out, std::uint32_t cap) const
{
    CXL_ASSERT(tid != kNoThread && tid <= kMaxThreads, "bad thread id");
    std::lock_guard<std::mutex> lock(mu_);
    const Ring& ring = rings_[tid];
    std::uint32_t n = ring.size < cap ? ring.size : cap;
    for (std::uint32_t i = 0; i < n; i++) {
        const Slot& slot = ring.at(ring.head + i);
        out[i] = NmpSlotView{.op = slot.op, .state = slot.state,
                             .result = slot.result};
    }
    return n;
}

void
Nmp::reset_ring(ThreadId tid)
{
    CXL_ASSERT(tid != kNoThread && tid <= kMaxThreads, "bad thread id");
    std::lock_guard<std::mutex> lock(mu_);
    rings_[tid] = Ring{};
}

void
Nmp::publish_metrics(obs::MetricsRegistry& registry,
                     std::string_view prefix) const
{
    obs::MetricsSnapshot snap;
    obs::Histogram occ;
    {
        std::lock_guard<std::mutex> lock(mu_);
        snap.counters.emplace_back("nmp.ops", ops_);
        snap.counters.emplace_back("nmp.conflicts", conflicts_);
        snap.counters.emplace_back("nmp.batches", batches_);
        if (stalled_ != 0) {
            snap.counters.emplace_back("nmp.stalled_doorbells", stalled_);
        }
        occ = occupancy_.snapshot();
    }
    snap.histograms.emplace_back("nmp.batch_occupancy", occ);
    registry.absorb(snap, prefix);
}

} // namespace cxl
