/// @file
/// Reusable protocol-oracle building blocks for explored-schedule tests.
///
/// The oracles here are event-driven: a test registers them through
/// Run::on_event() and they observe the Op stream emitted by the hooks to
/// check protocol rules *as they are (about to be) broken*, before any
/// aborting CXL_ASSERT deeper in the stack can fire. The central one is
/// DirtyLineTracker + the flush-before-publish rule of the paper's SWcc
/// case analysis (§3.2): a thread must not make a descriptor reachable
/// (CAS it into a shared structure) while its own cache still holds dirty
/// lines of that descriptor — a crash of the host would lose the
/// unflushed payload after the publication became visible.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/cacheline.h"
#include "sched/explorer.h"
#include "sched/hook.h"

namespace sched {

/// Tracks, per virtual thread, which cachelines inside one watched device
/// range that thread has written but not yet flushed. Feed every Event to
/// observe(); query dirty_in() at publication points.
///
/// Caveat: the simulated cache can also clean a line by *evicting* it.
/// Eviction is not an Op (it happens inside CacheModel), so a line can be
/// clean on the device while still marked dirty here. Explored-schedule
/// tests keep working sets far below the 64 KiB cache, where evictions
/// cannot occur, making the tracker exact. The recovery soundness of
/// eviction-sized workloads is instead pinned by the cache's durable-line
/// rule (ThreadCache::set_durable_line) and
/// CrashRecovery.HostCrashEvictionCannotResurrectStaleRecord.
class DirtyLineTracker {
  public:
    /// Watches the device range [begin, end).
    DirtyLineTracker(std::uint64_t begin, std::uint64_t end)
        : begin_(begin), end_(end)
    {
    }

    void
    observe(std::uint32_t vthread, const Event& event)
    {
        switch (event.op) {
        case Op::Store:
        case Op::WriteBytes:
            mark_dirty(vthread, event.addr, event.aux);
            break;
        case Op::Flush:
            mark_clean(vthread, event.addr, event.aux);
            break;
        default:
            break;
        }
    }

    /// True if @p vthread holds a dirty line covering [begin, end).
    bool
    dirty_in(std::uint32_t vthread, std::uint64_t begin,
             std::uint64_t end) const
    {
        auto it = dirty_.find(vthread);
        if (it == dirty_.end())
            return false;
        for (std::uint64_t line = cxlcommon::line_of(begin); line < end;
             line += cxlcommon::kCacheLine)
            if (it->second.count(line) != 0)
                return true;
        return false;
    }

    /// Drops every dirty line of @p vthread: its cache was written back
    /// (recovery from its process crash does that).
    void written_back(std::uint32_t vthread) { dirty_.erase(vthread); }

  private:
    void
    mark_dirty(std::uint32_t vthread, std::uint64_t addr, std::uint64_t len)
    {
        if (len == 0 || addr >= end_ || addr + len <= begin_)
            return;
        for (std::uint64_t line = cxlcommon::line_of(addr);
             line < addr + len; line += cxlcommon::kCacheLine)
            dirty_[vthread].insert(line);
    }

    void
    mark_clean(std::uint32_t vthread, std::uint64_t addr, std::uint64_t len)
    {
        auto it = dirty_.find(vthread);
        if (it == dirty_.end())
            return;
        if (len == 0)
            len = cxlcommon::kCacheLine;
        for (std::uint64_t line = cxlcommon::line_of(addr);
             line < addr + len; line += cxlcommon::kCacheLine)
            it->second.erase(line);
    }

    std::uint64_t begin_;
    std::uint64_t end_;
    std::unordered_map<std::uint32_t, std::unordered_set<std::uint64_t>>
        dirty_;
};

/// Fails the schedule unless @p tracker shows @p vthread's lines over
/// [begin, end) all clean — call at the instant a structure covering that
/// range is about to be published (e.g. on the Op::Cas that links it).
inline void
require_flushed(const DirtyLineTracker& tracker, std::uint32_t vthread,
                std::uint64_t begin, std::uint64_t end,
                const std::string& what)
{
    if (tracker.dirty_in(vthread, begin, end))
        throw OracleFailure("flush-before-publish violated: " + what +
                            " published with dirty lines in [" +
                            std::to_string(begin) + ", " +
                            std::to_string(end) + ")");
}

/// Guards the deferred-record discipline the fence-elision work leans on:
/// a thread may delay its recovery record's flush through LOCAL
/// operations (a process crash writes the cache back, so recovery still
/// reads the newest record), but before any detectable CAS the record
/// must be durable — after a HOST crash, `did_succeed` reasoning needs
/// the record that described the CAS, not a stale predecessor, and its
/// version must be the CAS's, or recovery calls a landed CAS failed. The
/// oracle fails the schedule if a DcasTry fires while the vthread's row
/// is dirty, or if the word its CAS installs (the desired word of its next
/// Op::Cas on that address) carries another version than the durable
/// record. Every allocator publication funnels through
/// DetectableCas::try_cas, so hooking Op::DcasTry covers pop_global /
/// extend / free_remote / push_global and the redos that call them.
class RecordFlushOracle {
  public:
    /// The version field of the record held by the row at the given
    /// device offset, as the device (not any cache) holds it.
    using DurableVersion = std::function<std::uint16_t(std::uint64_t row)>;

    /// Watches record rows inside the device range [rows_begin, rows_end);
    /// @p durable_version reads a bound row's durable record.
    RecordFlushOracle(std::uint64_t rows_begin, std::uint64_t rows_end,
                      DurableVersion durable_version)
        : tracker_(rows_begin, rows_end),
          durable_version_(std::move(durable_version))
    {
    }

    /// Binds @p vthread to its recovery-record row [row, row + len) in the
    /// shard whose window is [window_begin, window_end): the row that
    /// governs its CASes on words in that window.
    void
    bind(std::uint32_t vthread, std::uint64_t row,
         std::uint64_t len = cxlcommon::kCacheLine,
         std::uint64_t window_begin = 0,
         std::uint64_t window_end = ~std::uint64_t{0})
    {
        rows_[vthread].push_back({row, row + len, window_begin, window_end});
    }

    /// Drops every dirty line of @p vthread: a dead thread's cache was
    /// written back before an adopter runs on the same vthread.
    void written_back(std::uint32_t vthread) { tracker_.written_back(vthread); }

    void
    observe(std::uint32_t vthread, const Event& event)
    {
        tracker_.observe(vthread, event);
        auto due = due_.find(vthread);
        if (event.op == Op::Cas && due != due_.end() &&
            due->second.first == event.addr) {
            // The desired word: [value:32|tid:16|version:16].
            const auto tagged = static_cast<std::uint16_t>(event.aux);
            const std::uint16_t recorded = durable_version_(due->second.second);
            due_.erase(due);
            if (tagged != recorded) {
                throw OracleFailure(
                    "record-names-CAS violated: vthread " +
                    std::to_string(vthread) + " CASes word " +
                    std::to_string(event.addr) + " under version " +
                    std::to_string(tagged) + ", its durable record holds " +
                    std::to_string(recorded));
            }
        }
        auto rows = rows_.find(vthread);
        if (event.op != Op::DcasTry || rows == rows_.end()) {
            return;
        }
        for (const Row& row : rows->second) {
            if (event.addr < row.window_begin || event.addr >= row.window_end) {
                continue;
            }
            due_[vthread] = {event.addr, row.begin};
            if (tracker_.dirty_in(vthread, row.begin, row.end)) {
                throw OracleFailure(
                    "record-durable-before-CAS violated: vthread " +
                    std::to_string(vthread) +
                    " attempted a detectable CAS with a dirty recovery "
                    "record row at " +
                    std::to_string(row.begin));
            }
        }
    }

  private:
    struct Row {
        std::uint64_t begin;
        std::uint64_t end;
        std::uint64_t window_begin;
        std::uint64_t window_end;
    };

    DirtyLineTracker tracker_;
    DurableVersion durable_version_;
    std::unordered_map<std::uint32_t, std::vector<Row>> rows_;
    /// Per vthread: the word of its DcasTry whose Op::Cas is due, and the
    /// record row that governs it.
    std::unordered_map<std::uint32_t, std::pair<std::uint64_t, std::uint64_t>>
        due_;
};

} // namespace sched
