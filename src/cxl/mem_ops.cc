#include "cxl/mem_ops.h"

#include <cstdio>
#include <thread>

#include "obs/registry.h"

namespace cxl {

using cxlcommon::kCacheLine;
using cxlcommon::line_of;

namespace {

/// Cachelines covered by [offset, offset + len), len > 0.
std::uint64_t
covered_lines(HeapOffset offset, std::uint64_t len)
{
    return (line_of(offset + len - 1) - line_of(offset)) / kCacheLine + 1;
}

} // namespace

std::uint64_t*
DirtyLineSet::add_chunk(std::uint64_t line)
{
    std::uint64_t chunk = (line >> cxlcommon::kCacheLineBits) / kChunkLines;
    if (chunk >= chunks_.size()) {
        chunks_.resize(chunk + 1);
    }
    chunks_[chunk] = std::make_unique<std::uint64_t[]>(kChunkWords);
    return word_of(line);
}

MemSession::MemSession(Device* device, Nmp* nmp, ThreadId tid)
    : device_(device), nmp_(nmp), tid_(tid), cache_(device),
      window_bits_(device->window_bits())
{
    CXL_ASSERT(tid != kNoThread && tid <= kMaxThreads,
               "session requires a valid thread id");
}

void
MemSession::set_pod_routing(const EdgeCost* row, std::uint32_t devices,
                            DeviceId home, std::uint32_t host,
                            const EdgeStateCell* states)
{
    CXL_ASSERT(row != nullptr && states != nullptr && devices > 0,
               "empty edge or edge-health row");
    CXL_ASSERT(devices <= device_->windows(),
               "more topology devices than device windows");
    CXL_ASSERT(home < devices, "home device out of range");
    CXL_ASSERT(row[home].reachable, "home device must be reachable");
    edge_row_ = row;
    edge_state_row_ = states;
    edge_devices_ = devices;
    home_device_ = home;
    host_ = host;
    edge_ops_.assign(devices, 0);
    edge_ns_.assign(devices, 0);
}

void
MemSession::read_bytes(HeapOffset offset, void* out, std::uint64_t len)
{
    if (len == 0) {
        return;
    }
    sched::hook(sched::Op::ReadBytes, offset, len);
    check_access(offset, len);
    // Bulk traffic is charged and counted per covered line, matching the
    // per-line accounting flush() uses; a one-word read_bytes costs the
    // same as a load<>.
    std::uint64_t lines = covered_lines(offset, len);
    counters_.loads += lines;
    if (cache_sim_at(offset)) {
        charge(model_ ? lines * model_->cached_ns : 0);
        cache_.read(offset, out, len);
        return;
    }
    charge_access(offset, lines, len, /*write=*/false);
    std::memcpy(out, device_->raw(offset), len);
}

void
MemSession::write_bytes(HeapOffset offset, const void* in, std::uint64_t len)
{
    if (len == 0) {
        return;
    }
    sched::hook(sched::Op::WriteBytes, offset, len);
    check_access(offset, len);
    std::uint64_t lines = covered_lines(offset, len);
    counters_.stores += lines;
    if (cache_sim_at(offset)) {
        charge(model_ ? lines * model_->cached_ns : 0);
        cache_.write(offset, in, len);
        note_dirty(offset, len);
        return;
    }
    charge_access(offset, lines, len, /*write=*/true);
    std::memcpy(device_->raw(offset), in, len);
    if (!device_->in_sync_region(offset)) {
        note_dirty(offset, len);
    }
}

void
MemSession::flush(HeapOffset offset, std::uint64_t len)
{
    if (len == 0) {
        // A zero-length flush covers no lines. The old code computed
        // line_of(offset + len - 1) here and underflowed to ~2^58 lines
        // of simulated latency.
        return;
    }
    sched::hook(sched::Op::Flush, offset, len);
    // Same mapping discipline as loads/stores: flushing a reclaimed range
    // must fault into the guard (or die), not bypass the TLB shootdown.
    check_access(offset, len);
    counters_.flushes++;
    std::uint64_t lines = covered_lines(offset, len);
    counters_.flushed_lines += lines;
    if (model_ != nullptr) {
        // One clwb per covered line; write-backs cross the edge.
        charge(lines * model_->flush_ns);
        charge_edge(offset, lines, len, /*write=*/true);
    }
    if (device_->config().simulate_cache) {
        cache_.flush(offset, len);
    }
    // Without the cache model, stores already reached the arena; the flush
    // still orders against fence() because stores used atomic_ref.
    std::uint64_t first = line_of(offset);
    std::uint64_t last = line_of(offset + len - 1);
    for (std::uint64_t line = first; line <= last; line += kCacheLine) {
        dirty_.erase(line);
    }
}

void
MemSession::flush_dirty(HeapOffset offset, std::uint64_t len)
{
    if (len == 0) {
        return;
    }
    // The hook reports the REQUESTED range; the per-run Flush events that
    // follow tell oracles which lines were actually written back.
    sched::hook(sched::Op::FlushDirty, offset, len);
    // Mapping-check the REQUESTED range, mirroring flush(): the nested
    // flush() calls only cover dirty sub-runs, so a flush_dirty over a
    // reclaimed range whose lines happen to be clean would otherwise slip
    // past the guard and the TLB shootdown.
    check_access(offset, len);
    std::uint64_t first = line_of(offset);
    std::uint64_t last = line_of(offset + len - 1);
    std::uint64_t run_start = 0;
    std::uint64_t run_len = 0;
    for (std::uint64_t line = first; line <= last; line += kCacheLine) {
        if (dirty_.contains(line)) {
            if (run_len == 0) {
                run_start = line;
            }
            run_len += kCacheLine;
        } else if (run_len != 0) {
            flush(run_start, run_len);
            run_len = 0;
        }
    }
    if (run_len != 0) {
        flush(run_start, run_len);
    }
}

void
MemSession::fence()
{
    sched::hook(sched::Op::Fence);
    counters_.fences++;
    if (model_ != nullptr) {
        charge(model_->fence_ns);
    }
    if (device_->config().simulate_cache) {
        // Completes the simulated cache's in-flight work (store-buffer
        // drain + pending write-backs) when litmus knobs are active; a
        // no-op in the default strong mode.
        cache_.fence();
    }
    // sfence semantics: order the preceding flushes (stores) before
    // subsequent stores.
    std::atomic_thread_fence(std::memory_order_release);
}

bool
MemSession::cas64(HeapOffset offset, std::uint64_t& expected,
                  std::uint64_t desired)
{
    CXL_ASSERT(device_->in_sync_region(offset),
               "CAS outside the HWcc/device-biased region");
    // The ring must be empty: harvest the thread's round first.
    finish_mcas_round();
    // aux carries the desired word so publication oracles can decode what
    // is about to become reachable.
    sched::hook(sched::Op::Cas, offset, desired);
    check_access(offset, 8);
    if (device_->mode() == CoherenceMode::NoHwcc) {
        counters_.mcas_ops++;
        // A one-operand ring: post the operand, then climb the same bounded
        // stall-retry ladder mcas_doorbell() uses before escalating. Its
        // result is read at once, so the whole trip is charged here.
        bool posted = nmp_->spwr_post(
            tid_, McasOperand{.target = offset, .expected = expected,
                              .swap = desired});
        CXL_ASSERT(posted, "cas64 while a previous batch is still staged");
        (void)posted;
        doorbell_with_ladder();
        charge(nmp_->take_injected_delay_ns());
        McasResult result;
        bool completed = nmp_->poll(tid_, &result);
        CXL_ASSERT(completed, "doorbell produced no completion");
        (void)completed;
        if (model_ != nullptr) {
            charge(model_->mcas_ns +
                   (result.conflict ? model_->mcas_conflict_ns : 0));
            mcas_round_trip_ns_.record(model_->mcas_ns);
            charge_edge(offset, 1, 8, /*write=*/true);
        }
        if (result.conflict) {
            counters_.mcas_conflicts++;
            // An in-flight spwr-sprd pair on real hardware completes in
            // microseconds; on a host with fewer cores than threads the
            // owning thread may be descheduled mid-pair, so yield instead
            // of burning the timeslice re-conflicting against it.
            std::this_thread::yield();
            // Hardware reports no previous value on conflict; reload so the
            // caller's retry loop sees fresh state.
            expected = atomic_load64(offset);
            return false;
        }
        if (!result.success) {
            expected = result.previous;
        }
        return result.success;
    }
    counters_.cas_ops++;
    bool ok = atomic_at<std::uint64_t>(offset).compare_exchange_strong(
        expected, desired, std::memory_order_acq_rel,
        std::memory_order_acquire);
    if (model_ != nullptr) {
        charge(model_->cas_ns + (ok ? 0 : model_->cas_contended_ns));
        charge_edge(offset, 1, 8, /*write=*/true);
    }
    if (!ok) {
        counters_.cas_failures++;
    }
    return ok;
}

bool
MemSession::mcas_post(const McasOperand& op)
{
    finish_mcas_round();
    CXL_ASSERT(device_->mode() == CoherenceMode::NoHwcc,
               "mcas_post requires the NMP engine (NoHwcc mode)");
    CXL_ASSERT(device_->in_sync_region(op.target),
               "mCAS target outside the device-biased region");
    sched::hook(sched::Op::McasPost, op.target, op.swap);
    check_access(op.target, 8);
    // Staging writes the operand into the spwr ring: one posted store to
    // device memory.
    counters_.stores++;
    charge_access(op.target, 1, 8, /*write=*/true);
    return nmp_->spwr_post(tid_, op);
}

std::uint32_t
MemSession::doorbell_with_ladder()
{
    sched::hook(sched::Op::McasDoorbell);
    std::uint32_t executed = nmp_->doorbell(tid_);
    if (executed == 0 && nmp_->posted_occupancy(tid_) > 0) {
        // Operands are staged but the engine did not answer: a stall, not
        // an empty ring. Retry on the McasBackoff ladder — bounded, so a
        // dead engine becomes a typed device-failure report instead of an
        // infinite spin. The waits are simulated (charged), not wall
        // clock; each retry passes a sched yield so explorers can
        // interleave recovery actions between attempts.
        McasBackoff backoff(tid_);
        for (std::uint32_t attempt = 0;
             attempt < kNmpStallRetryLimit && executed == 0; attempt++) {
            charge(backoff.next_ns());
            sched::hook(sched::Op::McasDoorbell);
            executed = nmp_->doorbell(tid_);
        }
        if (executed == 0) {
            counters_.nmp_stall_escalations++;
            throw NmpStallError(tid_);
        }
    }
    return executed;
}

std::uint32_t
MemSession::mcas_doorbell()
{
    std::uint32_t executed = doorbell_with_ladder();
    if (executed == 0) {
        return 0;
    }
    counters_.mcas_ops += executed;
    counters_.mcas_batches++;
    counters_.mcas_batch_ops += executed;
    // Injected engine slowdowns lengthen the trip.
    std::uint64_t trip = nmp_->take_injected_delay_ns();
    if (model_ != nullptr) {
        std::uint64_t modeled = model_->mcas_ns +
                                (executed - 1) * model_->mcas_batch_slot_ns;
        mcas_round_trip_ns_.record(modeled);
        trip += modeled;
    }
    // Results are ready one trip from now; the first harvest waits for
    // what is left of it (an earlier doorbell's wait is paid first).
    mcas_wait();
    mcas_trip_ns_ += trip;
    mcas_ready_ns_ = sim_ns_ + trip;
    return executed;
}

bool
MemSession::mcas_poll(McasResult* out)
{
    sched::hook(sched::Op::McasPoll);
    mcas_wait();
    if (!nmp_->poll(tid_, out)) {
        return false;
    }
    if (out->conflict) {
        counters_.mcas_conflicts++;
        if (model_ != nullptr) {
            charge(model_->mcas_conflict_ns);
        }
    }
    return true;
}

void
MemSession::publish_metrics(obs::MetricsRegistry& registry) const
{
    obs::MetricsShard& sh = registry.shard(tid_);
    const MemEventCounters& c = counters_;
    auto pub = [&](const char* name, std::uint64_t value) {
        if (value != 0) {
            sh.add(registry.counter(name), value);
        }
    };
    for (const MemEventField& f : kMemEventFields) {
        pub(f.metric, c.*f.member);
    }
    pub("cache.evictions", cache_.evictions());
    pub("mem.sim_ns", sim_ns_);
    pub("mem.mcas_trip_ns", mcas_trip_ns_);
    pub("mem.mcas_wait_ns", mcas_wait_ns_);
    if (mcas_round_trip_ns_.count() != 0) {
        obs::MetricsSnapshot hists;
        hists.histograms.emplace_back("mem.mcas_round_trip_ns",
                                      mcas_round_trip_ns_.snapshot());
        registry.absorb(hists);
    }
    // Per-edge traffic from this session's host row: access counts and
    // extra edge nanoseconds.
    if (edge_row_ != nullptr) {
        char name[64];
        for (std::uint32_t d = 0; d < edge_devices_; d++) {
            if (edge_ops_[d] != 0) {
                std::snprintf(name, sizeof name, "pod.edge.h%u.d%u.ops",
                              host_, d);
                pub(name, edge_ops_[d]);
            }
            if (edge_ns_[d] != 0) {
                std::snprintf(name, sizeof name, "pod.edge.h%u.d%u.ns",
                              host_, d);
                pub(name, edge_ns_[d]);
            }
        }
    }
}

std::uint64_t
MemSession::atomic_load64(HeapOffset offset)
{
    CXL_ASSERT(device_->in_sync_region(offset),
               "atomic load outside the HWcc/device-biased region");
    sched::hook(sched::Op::AtomicLoad, offset);
    check_access(offset, 8);
    counters_.loads++;
    charge_access(offset, 1, 8, /*write=*/false);
    return atomic_at<std::uint64_t>(offset).load(std::memory_order_acquire);
}

void
MemSession::atomic_store64(HeapOffset offset, std::uint64_t value)
{
    CXL_ASSERT(device_->in_sync_region(offset),
               "atomic store outside the HWcc/device-biased region");
    sched::hook(sched::Op::AtomicStore, offset, value);
    check_access(offset, 8);
    counters_.stores++;
    charge_access(offset, 1, 8, /*write=*/true);
    atomic_at<std::uint64_t>(offset).store(value, std::memory_order_release);
}

} // namespace cxl
