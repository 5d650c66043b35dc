/// @file
/// Per-thread software cache model for the SWcc region (paper §3.2.2).
///
/// Substitution note: on real hardware, SWcc memory may be cached by each
/// host's CPU without inter-host invalidation, so threads can read stale
/// data unless the writer flushed and the reader refetches. This model makes
/// that hazard deterministic: a thread's reads hit its private line copies
/// until it flushes (write-back + invalidate) or invalidates them. A
/// simulated crash simply destroys the cache object, losing unflushed
/// writes — exactly the failure recovery must tolerate.
///
/// The store is a fixed-footprint set-associative array (open addressing —
/// no node allocation on the access path, unlike the unordered_map it
/// replaced). Capacity misses evict a deterministic victim, writing dirty
/// lines back to the device early. Real caches do the same, so this is a
/// modeled staleness/durability source, not an artifact: the SWcc protocol
/// tolerates it because a thread only holds dirty lines for memory it
/// exclusively writes (write-back early = a harmless prefix of the flush
/// it must eventually do), and losing a clean line merely forces a
/// refetch of possibly-fresher data.
///
/// One refinement makes that argument hold for *recovery* too: eviction is
/// the only channel by which an operation's effect can reach the device
/// out of program order (every explicit flush is protocol-ordered). If an
/// effect line of a later operation were written back while the thread's
/// deferred recovery record was still cache-resident, a HOST crash would
/// leave a durable effect paired with a stale durable record, and replay
/// would redo an outdated operation (e.g. re-free a block that was since
/// re-allocated). The cache therefore supports one registered *durable
/// line* — the thread's recovery-record row — whose newest value is
/// persisted to the device before any other dirty victim's early
/// write-back. This keeps the invariant "no durable effect without a
/// durable record at least as new" under every crash severity; see
/// RecoveryLog's discipline note and ARCHITECTURE.md elision case 1.
///
/// The paper assumes threads are pinned to cores, so one cache per thread
/// (not per core) is a faithful simplification.
///
/// Reordering knobs (litmus mode): with CacheKnobs::store_buffer_entries
/// nonzero the cache additionally models a bounded store buffer with
/// delayed drain and clwb-style asynchronous write-back: flush() moves
/// dirty lines to a pending queue and only fence() completes them to the
/// device. This makes a skipped fence *observable* — the discipline the
/// litmus suite (tests/litmus) proves necessary and sufficient. With the
/// knobs at their defaults the model is exactly the strong synchronous
/// one described above.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/cacheline.h"
#include "cxl/device.h"
#include "cxl/types.h"

namespace cxl {

/// Configurable reordering behavior for ThreadCache. Defaults model the
/// strong (synchronous write-back) cache every non-litmus test uses.
struct CacheKnobs {
    /// Store-buffer capacity in entries; 0 disables the buffer entirely
    /// (stores land in the cache line immediately, flush writes back
    /// synchronously, fence is a no-op).
    std::uint32_t store_buffer_entries = 0;
    /// When buffering, reads may forward from the youngest overlapping
    /// buffered store (TSO-style). When false, a read to a buffered line
    /// stalls: the overlapping entries drain to the cache first.
    bool load_forwarding = true;
    /// Drain order when the buffer overflows: true drains the oldest
    /// entry (FIFO/TSO), false the youngest (weaker, non-FIFO) — except
    /// that same-line entries always drain in program order, so
    /// single-location coherence (CoWW) holds under every knob setting.
    bool fifo_drain = true;
};

/// One simulated thread-private cache over the SWcc region.
class ThreadCache {
  public:
    /// Geometry: kSets x kWays lines of kCacheLine bytes (64 KiB of data).
    static constexpr std::uint32_t kSets = 128;
    static constexpr std::uint32_t kWays = 8;

    /// The lines exist only when @p device simulates caches; without them
    /// no access reaches the cache, and the whole-cache walks see none.
    explicit ThreadCache(Device* device)
        : device_(device),
          sets_(device->config().simulate_cache ? kSets : 0)
    {
    }

    /// Reads @p len bytes at @p offset through the cache (fill on miss,
    /// then serve possibly-stale cached data).
    void read(HeapOffset offset, void* out, std::size_t len);

    /// Writes @p len bytes at @p offset into the cache (write-back policy:
    /// the device is not updated until the line is flushed or evicted).
    void write(HeapOffset offset, const void* in, std::size_t len);

    /// Writes back dirty bytes of the lines covering [offset, offset+len)
    /// and invalidates them. With the store buffer off this is synchronous
    /// (clflush semantics). With it on, overlapping buffered stores drain
    /// into the line first (flushes order after older same-line stores),
    /// and the dirty line moves to a *pending* write-back queue that only
    /// fence() completes to the device (clwb + sfence semantics).
    void flush(HeapOffset offset, std::size_t len);

    /// Completes ordering: drains the store buffer into cache lines and
    /// writes every pending flushed line to the device. A no-op in the
    /// default strong mode (there is nothing in flight to complete).
    void fence();

    /// Drops every line without write-back. Models losing a CPU's cache
    /// contents (a host/OS crash, or scheduling a thread onto another core,
    /// which the paper forbids).
    void invalidate_all();

    /// Writes every dirty line back to the device, then drops all lines.
    /// Models a *process* crash: the host (and its coherent cache) survives,
    /// so the dead thread's stores remain visible and eventually reach the
    /// device — the failure model under which the paper's 8-byte redo
    /// recovery operates.
    void writeback_all();

    /// Number of resident lines (for tests and stats).
    std::size_t resident_lines() const { return resident_; }

    /// Number of dirty (unflushed) lines.
    std::size_t dirty_lines() const;

    /// Valid lines replaced to make room (capacity misses). Dirty victims
    /// were written back; clean victims just dropped.
    std::uint64_t evictions() const { return evictions_; }

    /// Registers the one line whose newest value must reach the device
    /// before any dirty victim's early write-back: the thread's recovery-
    /// record row. kNoTag (the default) disables the mechanism.
    void
    set_durable_line(std::uint64_t line_offset)
    {
        durable_line_ = line_offset;
    }

    /// Times the durable line was persisted ahead of a dirty eviction
    /// (tests pin the mechanism with this).
    std::uint64_t durable_writebacks() const { return durable_writebacks_; }

    /// Installs reordering knobs. Drains any in-flight state first (via
    /// fence()) so switching modes never silently loses stores.
    void set_knobs(const CacheKnobs& knobs);
    const CacheKnobs& knobs() const { return knobs_; }

    /// Stores still sitting in the store buffer (litmus mode only).
    std::size_t store_buffer_depth() const { return buffer_.size(); }

    /// Lines flushed but whose write-back has not been fenced to the
    /// device yet (litmus mode only).
    std::size_t pending_writebacks() const { return pending_.size(); }

    /// Fibonacci-hashed set index: line offsets arrive with regular strides
    /// (descriptor stride 576 = 9 lines), which a plain modulo would pile
    /// onto a few sets. Public so tests can construct same-set conflict
    /// workloads deterministically.
    static std::uint32_t
    set_of(std::uint64_t line_offset)
    {
        return static_cast<std::uint32_t>(
            ((line_offset >> cxlcommon::kCacheLineBits) *
             0x9E3779B97F4A7C15ULL) >>
            57); // top 7 bits: [0, 128)
    }

  private:
    static constexpr std::uint64_t kNoTag = ~std::uint64_t{0};

    struct Line {
        std::uint64_t tag = kNoTag; ///< line-aligned device offset
        bool dirty = false;
        std::array<std::byte, cxlcommon::kCacheLine> data;
    };

    struct Set {
        std::array<Line, kWays> ways;
        std::uint8_t mru = 0;    ///< most-recently-touched way, never evicted
        std::uint8_t victim = 0; ///< round-robin replacement cursor
    };

    /// One store parked in the bounded store buffer: up to a line's worth
    /// of bytes at [line + within, line + within + len).
    struct BufferedStore {
        std::uint64_t line;
        std::uint32_t within;
        std::uint32_t len;
        std::array<std::byte, cxlcommon::kCacheLine> data;
    };

    /// A flushed line awaiting its fence: clwb issued, write-back not yet
    /// globally complete.
    struct PendingLine {
        std::uint64_t tag;
        std::array<std::byte, cxlcommon::kCacheLine> data;
    };

    Line& fill(std::uint64_t line_offset);
    Line* lookup(std::uint64_t line_offset);
    void write_back(const Line& line);
    void persist_durable_line();
    bool weak() const { return knobs_.store_buffer_entries > 0; }
    void drain_entry(std::size_t index);
    void drain_line(std::uint64_t line_offset);
    void drain_buffer();
    PendingLine* pending_lookup(std::uint64_t line_offset);
    void complete_pending();

    Device* device_;
    std::vector<Set> sets_;
    std::size_t resident_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t durable_line_ = kNoTag;
    std::uint64_t durable_writebacks_ = 0;
    CacheKnobs knobs_;
    std::vector<BufferedStore> buffer_;
    std::vector<PendingLine> pending_;
};

} // namespace cxl
