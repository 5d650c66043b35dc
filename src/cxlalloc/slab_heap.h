/// @file
/// The slab heap used for both the small (8 B-1 KiB, 32 KiB slabs) and
/// large (1 KiB-512 KiB, 512 KiB slabs) heaps — the paper's §3.1.1 design,
/// instantiated twice.
///
/// Core ideas reproduced here:
///  - per-slab free *bitset* in SWcc metadata, allocated from only by the
///    slab's owner (no synchronization on the hot path);
///  - a per-slab HWcc remote-free *down-counter* (2 B in the paper, widened
///    to one detectable-CAS word): remote frees decrement it, and whoever
///    takes it to zero steals the fully-remotely-freed slab. Init sets it
///    to the block count plus one, the owner's *pin*: it reaches zero only
///    after the owner gives the pin up, which a disown or a release does
///    after writing the descriptor back;
///  - the detached / disowned states (paper Fig. 4) that let full slabs
///    leave the free lists without blocking reclamation. A detach keeps
///    the pin, so it writes nothing back; a Detached slab whose every
///    block was freed remotely holds only the pin, and its owner takes it
///    back (reclaim());
///  - the SWcc protocol (§3.2.2): descriptors are flushed+fenced exactly
///    when ownership may change; readers of SWccDesc.owner may use stale
///    cached values safely (the case analysis in the paper);
///  - 8-byte redo records before every operation, with idempotent redo
///    (§3.4.2) driven by detectable-CAS success queries;
///  - without HWcc, remote frees wait in a durable per-thread pending
///    row (PendingRow) and land in coalesced NMP doorbells (§4).

#pragma once

#include <cstdint>

#include "cxl/mem_ops.h"
#include "cxlalloc/audit.h"
#include "cxlalloc/layout.h"
#include "cxlalloc/recovery.h"
#include "cxlalloc/thread_state.h"
#include "obs/registry.h"
#include "pod/fault_handler.h"
#include "pod/thread_context.h"
#include "sync/detectable_cas.h"

namespace cxlalloc {

/// One line of a thread's pending remote frees in one slab heap (NoHwcc
/// only): decrements it has accepted but not yet landed on their slabs'
/// HWcc counters. An owner-only SWcc line (Layout::small_pending /
/// large_pending; all zero = empty), always rewritten whole by one line
/// store, so a crash sees either the old or the new line, never half of
/// an update. Entries [0, n) are live; entry i packs (slab << 8) | count.
struct PendingList {
    /// Entry slots in the line.
    static constexpr std::uint32_t kSlots = 15;
    /// Pending blocks a thread's lines hold before a round must land: the
    /// most a lost (never written back) row can leak. The small heap's is
    /// the 8-bit entry count's limit; the large heap's is lower because a
    /// pending large block keeps its 512 KiB slab from being stolen.
    static constexpr std::uint32_t kSmallCapacity = 255;
    static constexpr std::uint32_t kLargeCapacity = 64;
    /// Stamp flag: the decrements staged by the drain round whose version
    /// is in the low 15 bits are out of the line, and the thread's NMP
    /// ring holds exactly that round. Cleared (version kept) before the
    /// round's slots are released.
    static constexpr std::uint16_t kStampOut = 0x8000;

    std::uint8_t n = 0;
    std::uint8_t reserved = 0;
    std::uint16_t stamp = 0;
    std::uint32_t entry[kSlots] = {};

    std::uint32_t slab(std::uint32_t i) const { return entry[i] >> 8; }
    std::uint32_t count(std::uint32_t i) const { return entry[i] & 0xff; }
    /// Pending blocks in the line.
    std::uint32_t size() const;
    /// Index of @p slab's entry, or kSlots.
    std::uint32_t find(std::uint32_t slab) const;
    /// Adds @p k pending blocks of @p slab (room must exist).
    void add(std::uint32_t slab, std::uint32_t k);
    /// Removes @p k of @p slab's pending blocks, dropping an emptied
    /// entry (order of the others kept).
    void sub(std::uint32_t slab, std::uint32_t k);
};

static_assert(sizeof(PendingList) == Layout::kPendingStride,
              "a pending list is one cacheline");

/// A thread's pending lines in one slab heap, as the thread loaded them
/// (Layout::kSmallPendingLines in the small heap, one in the large). A
/// line holds a slab's entry until a round lands it, and a new slab takes
/// the first line with a free slot, so a slab has at most one entry in
/// the row. A line its ThreadState::pending_hint bit calls empty is not
/// loaded and reads all zero.
struct PendingRow {
    PendingList line[Layout::kSmallPendingLines];
    std::uint32_t lines = 1;

    /// Pending blocks in every line.
    std::uint32_t size() const;
    /// True when the next append might not fit (every slot used, or
    /// @p capacity blocks): land a round now.
    bool full(std::uint32_t capacity) const;
    /// The line with the most blocks (the first of equals): full rows
    /// land its oldest ring.
    std::uint32_t fullest() const;
    /// The line an append of @p slab goes to: the one holding its entry,
    /// else the first with a free slot (the row must not be full).
    std::uint32_t line_for(std::uint32_t slab) const;
    /// The line whose stamp is out, or `lines`.
    std::uint32_t stamped_out() const;
};

class SlabHeap;

/// What a thread's NoHwcc drain rounds remember between rounds, allocated
/// on its first drain: predictions, the help-refresh countdown, the
/// conflict backoff, and the round it launched but has not finished.
/// Hints and bookkeeping only: the mCAS validates every predicted word,
/// and no recovery reads any of it (an out round's durable state is its
/// stamped line and the thread's NMP ring). While a round is out, this
/// state is its session's finisher.
struct DrainState final : cxl::McasFinisher {
    /// Direct-mapped prediction slots per slab heap.
    static constexpr std::uint32_t kSlots = 64;

    /// The counter word the thread expects on one slab: the swap of its
    /// last landed operand there, or the word its last failed one found.
    struct Prediction {
        std::uint32_t slab_plus1 = 0; ///< 0 = empty
        std::uint64_t word = 0;
    };

    /// A launched round: up to a ring of one line's oldest entries, staged
    /// and rung, whose results the finish harvests.
    struct Round {
        SlabHeap* heap = nullptr; ///< null: no round out
        pod::ThreadContext* ctx = nullptr;
        ThreadState* ts = nullptr;
        std::uint32_t line = 0;
        std::uint32_t staged = 0;
        /// Its line as the thread last stored it (the launch, stamped with
        /// its last operand's version, then any append): the finish puts
        /// the failed operands back into it.
        PendingList list;
        std::uint32_t slab_of[cxl::kNmpRingSlots] = {};
        std::uint32_t k_of[cxl::kNmpRingSlots] = {};
        std::uint64_t swap_of[cxl::kNmpRingSlots] = {};
    };

    /// [large heap][slab % kSlots].
    Prediction slot[2][kSlots];
    /// The thread's version when it last refreshed its own help entry
    /// (or when this state was allocated).
    std::uint16_t refreshed_at = 0;
    /// Version of the newest operand of the thread's that landed.
    std::uint16_t newest_landed = 0;
    bool landed = false;
    /// [large heap]: a finish stole a slab. The finish may run inside
    /// another operation, so the unsized-list trim it owes waits for the
    /// thread's next launch or cleanup in that heap (or a refill that
    /// finishes a round).
    bool trim_owed[2] = {false, false};
    /// Waits after rounds with conflicts, escalating round over round.
    cxl::McasBackoff backoff;
    Round out;

    DrainState() = default;
    /// The session holds its address while a round is out.
    DrainState(const DrainState&) = delete;
    DrainState& operator=(const DrainState&) = delete;

    /// Runs the out round's finish (MemSession calls it).
    void finish_mcas_round() override;
};

/// One slab heap (small or large).
class SlabHeap {
  public:
    /// @param large  selects the large-heap geometry and record heap bit.
    SlabHeap(const Layout* layout, bool large, cxlsync::DetectableCas* dcas,
             RecoveryLog* log);

    /// Allocates a block of at least @p size bytes; returns its heap
    /// offset, or 0 if the heap is exhausted.
    cxl::HeapOffset allocate(pod::ThreadContext& ctx, ThreadState& ts,
                             std::uint64_t size);

    /// Frees the block at @p offset. Returns true when the free took the
    /// remote path (the slab is owned by another thread), which observers
    /// count separately. Under HWcc modes a remote free is one detectable
    /// CAS on the slab's down-counter; under NoHwcc it is appended to the
    /// thread's pending row (an Op::FreeDeferred record, then one store
    /// of one of its lines) and lands in a later drain_pending().
    bool deallocate(pod::ThreadContext& ctx, ThreadState& ts,
                    cxl::HeapOffset offset);

    /// Lands the calling thread's pending remote frees: all of them, line
    /// after line, or with @p while_full only rounds until the row is no
    /// longer full, each from its fullest line. Each round takes up to a
    /// ring of one line's oldest slab entries; an entry of k blocks
    /// becomes ONE operand cur -> cur - k, built from the counter word the
    /// thread predicts (or reads), and the ring shares one NMP doorbell
    /// (one device round trip, §4). An operand that lands a zero counter
    /// steals its slab.
    ///
    /// A round is a launch and a finish. The launch: the round's
    /// Op::FreeRemoteBatch record, then the line minus the staged
    /// decrements (stamped out), share one flush + fence before the
    /// doorbell. The finish, at the thread's next use of its ring (its
    /// session runs it before any cas64 or mcas_post; the next launch and
    /// cleanup run it first, and a refill before it looks past an empty
    /// unsized list): the wait for what is left of the
    /// trip, the round's steals, failed operands back into the line, and
    /// the stamp cleared (flush + fence), all before any ring slot is
    /// released. At most one round per thread is out, pod-wide, and at
    /// most one line stamped out. A drain of every line finishes each of
    /// its rounds at once; a @p while_full drain leaves its last round
    /// out, so the thread's work until then hides its trip. The trim after
    /// a steal and the help refresh run at the next launch or cleanup (or
    /// a refill that finishes a round). Conflicts retry after bounded exponential backoff. An
    /// NmpStallError / EdgeDownError is rethrown only after the round it
    /// interrupted is reconciled and the ring released.
    void drain_pending(pod::ThreadContext& ctx, ThreadState& ts,
                       bool while_full = false);

    /// NoHwcc: true when the calling thread's next remote free could land
    /// a round, and log its records, before its own record: a round of the
    /// thread's is out (of any heap or shard), or this heap's row is full.
    bool lands_before_append(cxl::MemSession& mem, ThreadState& ts);

    /// Recovery and drain helper: if one of the calling thread's lines is
    /// stamped out, settles that round from the line and the thread's NMP
    /// ring (settle_round, skipping steals already done); a no-op
    /// otherwise. Leaves the ring itself to the caller (Nmp::reset_ring).
    void reconcile_ring(pod::ThreadContext& ctx);

    /// Takes back the calling thread's Detached slabs that hold only the
    /// pin (every block was freed remotely), onto its unsized list: with
    /// @p all every candidate (ThreadState::detached), else the next one in
    /// turn. Returns true if it took any. refill checks one candidate
    /// before it extends the heap and all of them once the heap is full;
    /// cleanup checks all. Logs no record: a kill before a slab's
    /// owner-word store leaves it Detached for the next check, and
    /// rebuild_lists links it once that store landed.
    bool reclaim(pod::ThreadContext& ctx, ThreadState& ts, bool all = true);

    /// Hands back every slab the calling thread holds, for a thread that
    /// is leaving its slot (after its pending frees landed): a slab with
    /// no live block and no pending free goes to the global list, and any
    /// other classed slab is disowned, its free blocks marked allocated
    /// and freed remotely together with the pin. Under NoHwcc those frees
    /// are pending entries of at most a row's capacity each; the caller's
    /// drain lands the last of them.
    void release(pod::ThreadContext& ctx, ThreadState& ts);

    /// True if @p offset lies in this heap's data region.
    bool contains(cxl::HeapOffset offset) const;

    /// Current heap length in slabs.
    std::uint32_t length(cxl::MemSession& mem);

    /// PC-T fault support: if @p offset lies in this heap's (data or
    /// descriptor) regions and is backed per current heap length, fills
    /// @p out and returns true.
    bool resolve(cxl::MemSession& mem, cxl::HeapOffset offset,
                 pod::MappedRange* out);

    /// Recovery only, before the ring reconcile and every redo that
    /// touches a list: relinks the calling thread's unsized list, its
    /// count and its sized lists (tail words included) from descriptor
    /// truth, in slab order. A slab it owns is unsized in state TlUnsized,
    /// and sized in state TlSized with a class; every other slab stays
    /// unlinked. One pass over the heap length: a kill can leave any list
    /// edit half done, and no redo re-runs one.
    void rebuild_lists(cxl::MemSession& mem);

    /// Idempotently redoes the interrupted operation @p record on behalf
    /// of the crashed thread whose slot @p ctx adopted, against the lists
    /// rebuild_lists left: the recorded slab reaches its final state.
    void recover(pod::ThreadContext& ctx, ThreadState& ts,
                 const OpRecord& record);

    /// Adds this heap's slab-law violations, live blocks and pending frees
    /// (audit.h), as shard @p shard, to @p report. Requires quiescence. A
    /// round out of a line (launched, not finished) counts its operands
    /// that did not land, read from the thread's ring, as pending.
    void audit(cxl::MemSession& mem, cxl::DeviceId shard,
               AuditReport& report);

    /// Aggregate statistics for benchmarks.
    struct Stats {
        std::uint32_t length = 0;       ///< slabs ever created
        std::uint32_t global_free = 0;  ///< slabs on the global free list
        std::uint64_t data_bytes = 0;   ///< length * slab size
    };

    Stats stats(cxl::MemSession& mem);

    /// Enables heap-internal op counters ("alloc.fullcheck_fast",
    /// "alloc.scavenges", "alloc.drain_rounds", "alloc.drain_blocks"),
    /// sharded by thread id. nullptr disables.
    void set_metrics(obs::MetricsRegistry* registry);

    /// Data offset of slab @p slab.
    cxl::HeapOffset slab_data(std::uint32_t slab) const;

    // ---- raw descriptor observers (HotSlabMigrator, perfbench's own
    //      sweep; audit() is the consistency oracle) ----

    /// Raw SWccDesc.free counter of @p slab.
    std::uint32_t debug_free_blocks(cxl::MemSession& mem, std::uint32_t slab);
    /// Popcount of @p slab's bitset over its current class's words.
    /// Slab must have a class.
    std::uint32_t debug_bitset_count(cxl::MemSession& mem, std::uint32_t slab);
    /// Size class + 1; 0 = classless (bitset and counter are meaningless).
    std::uint8_t debug_class_biased(cxl::MemSession& mem, std::uint32_t slab);
    /// HWcc remote-free down-counter of @p slab without the owner's pin
    /// while the slab holds it (classed and not Disowned): the class's
    /// block count minus its landed remote frees (see
    /// AuditLaw::RemoteBalance).
    std::uint32_t debug_remote_free(cxl::MemSession& mem, std::uint32_t slab);

    /// Owning thread of @p slab (cxl::kNoThread once the slab has been
    /// disowned — every free then takes the remote path regardless of
    /// the caller, which is what HotSlabMigrator::rehome inspects).
    cxl::ThreadId debug_owner(cxl::MemSession& mem, std::uint32_t slab);

    /// Offset of pending line @p line of thread @p tid's row in this heap.
    cxl::HeapOffset pending_line(cxl::ThreadId tid,
                                 std::uint32_t line = 0) const;

  private:
    // ---- descriptor field access (SWccDesc) ----
    cxl::HeapOffset desc(std::uint32_t slab) const;
    cxl::HeapOffset hwcc(std::uint32_t slab) const;

    /// The owner word: descriptor bytes 4-7 (DescField::kOwnerWord), one
    /// u32 load or store.
    struct OwnerWord {
        cxl::ThreadId owner = cxl::kNoThread;
        std::uint8_t biased = 0; ///< size class + 1; 0 = none
        SlabState state = SlabState::Unmapped;
    };

    /// The count word: descriptor bytes 8-11 (DescField::kCountWord), one
    /// u32 load or store.
    struct CountWord {
        std::uint16_t hint = 0; ///< first possibly-nonempty bitset word
        std::uint16_t free = 0; ///< set bits in the bitset
    };

    std::uint32_t next_raw(cxl::MemSession& mem, std::uint32_t slab);
    void set_next_raw(cxl::MemSession& mem, std::uint32_t slab,
                      std::uint32_t raw);
    std::uint32_t prev_raw(cxl::MemSession& mem, std::uint32_t slab);
    void set_prev_raw(cxl::MemSession& mem, std::uint32_t slab,
                      std::uint32_t raw);
    OwnerWord owner_word(cxl::MemSession& mem, std::uint32_t slab);
    void set_owner_word(cxl::MemSession& mem, std::uint32_t slab,
                        OwnerWord w);
    CountWord count_word(cxl::MemSession& mem, std::uint32_t slab);
    void set_count_word(cxl::MemSession& mem, std::uint32_t slab,
                        CountWord c);

    /// 1 while a slab with owner word @p w holds its owner's pin in the
    /// remote-free counter (classed and not Disowned), else 0.
    static std::uint32_t pin_of(OwnerWord w);
    /// Sets or clears @p slab's ThreadState::detached bit (once known).
    void note_detached(ThreadState& ts, std::uint32_t slab, bool on) const;

    /// Flush + fence the whole descriptor: required before any transition
    /// after which another thread may become the writer (paper §3.2.2).
    void flush_desc(cxl::MemSession& mem, std::uint32_t slab);

    // ---- bitset + count word ----
    // The owner-maintained free counter shadows the bitset popcount so
    // full/empty transition checks read the count word instead of an
    // O(words) scan. bitset_flip adjusts it only when the bit actually
    // flips (idempotent redo may replay a flip); crash recovery recomputes
    // it from the bitset, which stays the durable truth.
    std::uint32_t blocks_of(std::uint32_t cls) const;
    std::uint32_t bitset_words(std::uint32_t cls) const;
    /// Offset of the bitset word holding @p block.
    cxl::HeapOffset bitset_word_at(std::uint32_t slab,
                                   std::uint32_t block) const;
    void bitset_fill(cxl::MemSession& mem, std::uint32_t slab,
                     std::uint32_t cls);
    /// First free block at or after bitset word @p from, or kNoBlock; the
    /// bitset word holding it goes to @p word. Loads only.
    std::uint32_t bitset_scan(cxl::MemSession& mem, std::uint32_t slab,
                              std::uint32_t cls, std::uint32_t from,
                              std::uint64_t* word);
    /// Sets (@p set) or clears @p block's bit in @p word, the bitset word
    /// holding it as loaded, and moves @p count with it: the counter
    /// follows the bit, and a set below the hint lowers the hint (no set
    /// bit lies below word `hint`). Stores the bitset word, then @p count,
    /// only when the bit flips. The one bit-and-counter update: the fast
    /// paths and the Alloc/FreeLocal redos all go through it.
    void bitset_flip(cxl::MemSession& mem, std::uint32_t slab,
                     std::uint32_t block, std::uint64_t word, bool set,
                     CountWord& count);
    std::uint32_t bitset_count(cxl::MemSession& mem, std::uint32_t slab,
                               std::uint32_t cls);
    /// Recovery: rebuilds the count word from the bitset, the durable
    /// truth (a crash, Host severity especially, can surface the counter
    /// and bitset lines from different points in time), with a zero hint.
    /// Returns the free count.
    std::uint32_t resync_count(cxl::MemSession& mem, std::uint32_t slab,
                               std::uint32_t cls);
    /// Marks the @p n lowest free blocks of @p slab allocated (all of them
    /// when @p n is at least the free count) and stores the count word.
    void mark_allocated(cxl::MemSession& mem, std::uint32_t slab,
                        std::uint32_t cls, std::uint32_t n);

    static constexpr std::uint32_t kNoBlock = ~std::uint32_t{0};

    // ---- local list operations (owner-only) ----
    cxl::HeapOffset local_row(cxl::ThreadId tid) const;
    cxl::HeapOffset sized_head_off(cxl::ThreadId tid,
                                   std::uint32_t cls) const;
    cxl::HeapOffset unsized_head_off(cxl::ThreadId tid) const;
    cxl::HeapOffset unsized_count_off(cxl::ThreadId tid) const;

    // A sized list is first-in, first-out: allocation takes the head, and
    // a slab (re)joins at the tail. Links are descriptor words: next (+0)
    // names the successor (0 ends the list), and prev (+12) names the
    // predecessor, except that the head's prev names the tail (a lone
    // head names itself).

    /// Appends @p slab (unlinked) at the tail of @p cls's list, then
    /// stores its owner word: the caller, @p cls, TlSized.
    void push_sized(cxl::MemSession& mem, std::uint32_t cls,
                    std::uint32_t slab);
    /// Unlinks @p slab from @p cls's list, keeping the head's tail word
    /// right when it unlinks the head or the tail; zeroes its links.
    void remove_sized(cxl::MemSession& mem, std::uint32_t cls,
                      std::uint32_t slab);
    /// True when @p slab (on a sized list) is not its class's only slab.
    bool shares_class(cxl::MemSession& mem, std::uint32_t slab);
    /// Pushes @p slab on the unsized list, then stores its owner word: the
    /// caller, no class, TlUnsized.
    void push_unsized(cxl::MemSession& mem, std::uint32_t slab);
    /// Pops the unsized head; list must be nonempty.
    std::uint32_t pop_unsized(cxl::MemSession& mem);
    /// pop_unsized of a head the caller already loaded: @p slab.
    void unlink_unsized_head(cxl::MemSession& mem, std::uint32_t slab);
    bool on_unsized_list(cxl::MemSession& mem, std::uint32_t slab);

    // ---- operations ----
    bool refill(pod::ThreadContext& ctx, ThreadState& ts, std::uint32_t cls);
    void init_from_unsized(pod::ThreadContext& ctx, ThreadState& ts,
                           std::uint32_t slab, std::uint32_t cls);
    bool pop_global(pod::ThreadContext& ctx, ThreadState& ts);
    bool extend(pod::ThreadContext& ctx, ThreadState& ts);
    void full_transition(pod::ThreadContext& ctx, ThreadState& ts,
                         std::uint32_t slab, std::uint32_t cls);
    /// A full slab's detach after its record, and the Detach redo's: the
    /// unlink and the Detached owner word (@p w: the TlSized one).
    void detach_tail(pod::ThreadContext& ctx, ThreadState& ts,
                     std::uint32_t slab, OwnerWord w);
    /// Gives up @p slab (owner word @p w: ours, TlSized or Detached): an
    /// Op::Disown record (aux: its free blocks), then disown_tail. Under
    /// NoHwcc the row must take the unpin's append without a drain.
    void disown(pod::ThreadContext& ctx, ThreadState& ts, std::uint32_t slab,
                OwnerWord w);
    /// A disown after its record, and the Disown redo's: unless @p w is
    /// Disowned, the unlink, @p free blocks marked allocated and the
    /// Disowned owner word; then the write-back and unpin(free + 1).
    void disown_tail(pod::ThreadContext& ctx, ThreadState& ts,
                     std::uint32_t slab, OwnerWord w, std::uint32_t free);
    /// @p k remote frees of the calling thread into @p slab, whose
    /// descriptor it wrote back: the pin and the blocks a disown marked
    /// allocated. free_remote under HWcc modes, one pending append under
    /// NoHwcc.
    void unpin(pod::ThreadContext& ctx, ThreadState& ts, std::uint32_t slab,
               std::uint32_t k);
    /// NoHwcc release step: marks a row's capacity of the free blocks of
    /// @p slab (ours, TlSized or Detached) allocated and appends their
    /// remote frees to the emptied row, after an Op::Detach record whose
    /// aux is the free count before. The pin keeps the slab ours until its
    /// disown.
    void release_blocks(pod::ThreadContext& ctx, ThreadState& ts,
                        std::uint32_t slab, std::uint32_t cls);
    /// A release step after its record (aux @p before), and the Detach
    /// redo's: marks its k blocks allocated, less the before - @p free
    /// already marked; the write-back; the append of all k.
    void release_tail(pod::ThreadContext& ctx, ThreadState& ts,
                      std::uint32_t slab, std::uint32_t cls,
                      std::uint32_t before, std::uint32_t free);
    /// Local free of @p block; @p w is the owner word deallocate read.
    void free_local(pod::ThreadContext& ctx, ThreadState& ts,
                    std::uint32_t slab, std::uint32_t block, OwnerWord w);
    /// A local free after its bit flip, and the FreeLocal redo's: the
    /// relink of a Detached slab, or the recycle of an emptied one.
    void free_local_tail(pod::ThreadContext& ctx, ThreadState& ts,
                         std::uint32_t slab, OwnerWord w, std::uint32_t free);
    /// One serial decrement of @p slab's counter by @p k, stealing at zero
    /// (HWcc modes only: under NoHwcc every decrement lands through the
    /// drain). Its Op::FreeRemote record's aux is k - 1.
    void free_remote(pod::ThreadContext& ctx, ThreadState& ts,
                     std::uint32_t slab, std::uint32_t k = 1);
    /// Appends @p k remote frees of @p slab to the thread's pending row.
    void defer_remote(pod::ThreadContext& ctx, ThreadState& ts,
                      std::uint32_t slab, std::uint32_t k = 1);
    /// Lands what the next append of @p k blocks of @p slab needs landed
    /// first (the out round finished, rounds of a full row), then loads
    /// the row into @p row. Returns what appends_see returns for it.
    std::uint32_t room_for(pod::ThreadContext& ctx, ThreadState& ts,
                           std::uint32_t slab, std::uint32_t k,
                           PendingRow& row, PendingRow& with_out,
                           const PendingRow*& seen);
    /// Points @p seen at the row appends must fit: @p row itself, or while
    /// @p ts has a round of this heap out, @p row with every staged operand
    /// back in its line as if all had failed (a put-back needs its slot,
    /// and a staged slab's next append joins that entry), built in
    /// @p with_out. Returns the blocks @p seen may hold: the capacity plus
    /// the round's, which @p row does not hold.
    std::uint32_t appends_see(const PendingRow& row, const ThreadState& ts,
                              PendingRow& with_out,
                              const PendingRow*& seen) const;
    /// @p ts's out round if this heap launched it, else null.
    DrainState::Round* out_round(const ThreadState& ts) const;
    /// Launches a drain_pending round over line @p line of @p row (the
    /// thread's row, updated to what the launch leaves behind) and
    /// registers @p ts's DrainState as its session's finisher.
    void launch_round(pod::ThreadContext& ctx, ThreadState& ts,
                      PendingRow& row, std::uint32_t line);
    /// Finishes @p ts's out round of this heap (DrainState::Round): logs
    /// no record and posts no operand.
    void finish_round(pod::ThreadContext& ctx, ThreadState& ts);
    /// Settles the round stamped out of line @p line (@p list) from the
    /// thread's ring: failed operands go back into @p list, landed ones
    /// that zeroed their counters steal (a @p redo skips slabs on the
    /// unsized list), then the stamp clears (flush + fence). True if it
    /// stole.
    bool settle_round(pod::ThreadContext& ctx, std::uint32_t line,
                      PendingList& list, bool redo);
    /// Finishes the thread's out round, whichever heap or shard launched
    /// it, then runs what this heap's finishes left: the trim after a
    /// steal, and the help refresh once per kHelpRefreshVersions.
    void land_out_round(pod::ThreadContext& ctx, ThreadState& ts);
    /// After a drain threw NmpStallError / EdgeDownError: reconcile_ring,
    /// then release the ring (also when the reconcile itself throws).
    void settle_ring(pod::ThreadContext& ctx);

    // ---- pending row (owner-only SWcc lines) ----
    PendingList load_line(cxl::MemSession& mem, cxl::ThreadId tid,
                          std::uint32_t i);
    /// The calling thread's row: loads each line @p ts's hint may find
    /// entries in, and clears the bit of each it finds empty.
    PendingRow load_row(cxl::MemSession& mem, ThreadState& ts);
    /// One line store of the calling thread's line @p i.
    void store_line(cxl::MemSession& mem, std::uint32_t i,
                    const PendingList& line);
    /// Writes the calling thread's line @p i back (flush only).
    void flush_line(cxl::MemSession& mem, std::uint32_t i);
    /// Stores the calling thread's line @p i, then flush + fence.
    void persist_line(cxl::MemSession& mem, std::uint32_t i,
                      const PendingList& line);
    /// Takes ownership of an unlinked, empty slab onto the unsized list.
    void acquire_to_unsized(pod::ThreadContext& ctx, std::uint32_t slab);
    /// Moves one slab from TL unsized to the global free list.
    void push_global_one(pod::ThreadContext& ctx, ThreadState& ts);
    /// Enforces the unsized-list length threshold (paper §3.1.1).
    void trim_unsized(pod::ThreadContext& ctx, ThreadState& ts);
    /// Reclaims an idle, completely-empty warm slab from any of this
    /// thread's sized lists (memory-pressure fallback).
    bool scavenge_warm_slab(pod::ThreadContext& ctx, ThreadState& ts);
    void install_slab_mappings(pod::ThreadContext& ctx, std::uint32_t slab);

    /// Mapping range of slab @p slab's SWcc descriptor (page-rounded).
    pod::MappedRange desc_mapping(std::uint32_t slab) const;

    /// Resolved metric ids; valid only while registry != nullptr.
    struct Instruments {
        obs::MetricsRegistry* registry = nullptr;
        obs::MetricId fullcheck_fast = obs::kInvalidMetric;
        obs::MetricId scavenges = obs::kInvalidMetric;
        obs::MetricId drain_rounds = obs::kInvalidMetric;
        obs::MetricId drain_blocks = obs::kInvalidMetric;
    };

    const Layout* layout_;
    bool large_;
    cxlsync::DetectableCas* dcas_;
    RecoveryLog* log_;

    std::uint32_t num_slabs_;
    std::uint32_t num_classes_;
    std::uint64_t slab_size_;
    cxl::HeapOffset len_word_;
    cxl::HeapOffset free_word_;
    cxl::HeapOffset data_base_;
    cxl::HeapOffset swcc_base_;
    std::uint64_t desc_stride_;
    cxl::HeapOffset hwcc_base_;
    cxl::HeapOffset local_base_;
    cxl::HeapOffset pending_base_;
    /// Pending lines per thread row, and the blocks they hold before a
    /// round must land (PendingList::kSmallCapacity / kLargeCapacity).
    std::uint32_t lines_;
    std::uint32_t capacity_;

    /// TL unsized lists longer than this spill to the global free list
    /// (Config::unsized_limit).
    std::uint32_t unsized_limit_;

    Instruments inst_;

    friend struct DrainState;
};

} // namespace cxlalloc
