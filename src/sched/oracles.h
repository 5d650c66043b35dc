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
#include <string>
#include <unordered_map>
#include <unordered_set>

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

    bool
    any_dirty(std::uint32_t vthread) const
    {
        auto it = dirty_.find(vthread);
        return it != dirty_.end() && !it->second.empty();
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
/// the record that described the CAS, not a stale predecessor. The
/// oracle watches each vthread's recovery-record row and fails the
/// schedule if a DcasTry fires while the row is dirty. Every allocator
/// publication funnels through DetectableCas::try_cas, so hooking
/// Op::DcasTry covers pop_global / extend / free_remote / push_global and
/// the batch drain alike.
class RecordFlushOracle {
  public:
    /// Watches record rows inside the device range [rows_begin, rows_end).
    RecordFlushOracle(std::uint64_t rows_begin, std::uint64_t rows_end)
        : tracker_(rows_begin, rows_end)
    {
    }

    /// Binds @p vthread to its recovery-record row [row, row + len).
    void
    bind(std::uint32_t vthread, std::uint64_t row,
         std::uint64_t len = cxlcommon::kCacheLine)
    {
        rows_[vthread] = {row, row + len};
    }

    void
    observe(std::uint32_t vthread, const Event& event)
    {
        tracker_.observe(vthread, event);
        if (event.op != Op::DcasTry) {
            return;
        }
        auto it = rows_.find(vthread);
        if (it == rows_.end()) {
            return;
        }
        if (tracker_.dirty_in(vthread, it->second.first,
                              it->second.second)) {
            throw OracleFailure(
                "record-durable-before-CAS violated: vthread " +
                std::to_string(vthread) +
                " attempted a detectable CAS with a dirty recovery "
                "record row at " +
                std::to_string(it->second.first));
        }
    }

  private:
    DirtyLineTracker tracker_;
    std::unordered_map<std::uint32_t,
                       std::pair<std::uint64_t, std::uint64_t>>
        rows_;
};

} // namespace sched
