#include "cxlalloc/slab_heap.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <vector>

#include "common/assert.h"
#include "common/cacheline.h"
#include "common/test_faults.h"
#include "pod/pod.h"
#include "pod/process.h"

namespace cxlalloc {

using cxlcommon::align_up;
using cxlsync::DcasWord;

// The owner and count words pack their fields in offset order.
static_assert(std::endian::native == std::endian::little,
              "descriptor words assume a little-endian host");

namespace {

std::uint64_t
class_size_impl(bool large, std::uint32_t cls)
{
    return large ? large_class_size(cls) : small_class_size(cls);
}

std::uint32_t
class_for_impl(bool large, std::uint64_t size)
{
    return large ? large_class_for(size) : small_class_for(size);
}

/// A thread's drain rounds refresh its own help entry at most once per
/// this many of its versions, well inside did_succeed's 2^14 window.
constexpr std::uint16_t kHelpRefreshVersions = 4096;

} // namespace

SlabHeap::SlabHeap(const Layout* layout, bool large,
                   cxlsync::DetectableCas* dcas, RecoveryLog* log)
    : layout_(layout), large_(large), dcas_(dcas), log_(log),
      unsized_limit_(layout->config().unsized_limit)
{
    const Config& cfg = layout->config();
    if (large) {
        num_slabs_ = cfg.large_slabs;
        num_classes_ = kNumLargeClasses;
        slab_size_ = kLargeSlabSize;
        len_word_ = layout->large_len();
        free_word_ = layout->large_free();
        data_base_ = layout->large_data();
        swcc_base_ = layout->large_swcc_desc(0);
        desc_stride_ = Layout::kLargeDescStride;
        hwcc_base_ = layout->large_hwcc_desc(0);
        local_base_ = layout->large_local(0);
        pending_base_ = layout->large_pending(0);
        lines_ = 1;
        capacity_ = PendingList::kLargeCapacity;
    } else {
        num_slabs_ = cfg.small_slabs;
        num_classes_ = kNumSmallClasses;
        slab_size_ = kSmallSlabSize;
        len_word_ = layout->small_len();
        free_word_ = layout->small_free();
        data_base_ = layout->small_data();
        swcc_base_ = layout->small_swcc_desc(0);
        desc_stride_ = Layout::kSmallDescStride;
        hwcc_base_ = layout->small_hwcc_desc(0);
        local_base_ = layout->small_local(0);
        pending_base_ = layout->small_pending(0);
        lines_ = Layout::kSmallPendingLines;
        capacity_ = PendingList::kSmallCapacity;
    }
    CXL_FATAL_IF(num_slabs_ >= (1u << 24),
                 "slab index must fit a pending-list entry (24 bits)");
}

// ------------------------------------------------------------- pending list

std::uint32_t
PendingList::size() const
{
    std::uint32_t total = 0;
    for (std::uint32_t i = 0; i < n; i++) {
        total += count(i);
    }
    return total;
}

std::uint32_t
PendingList::find(std::uint32_t s) const
{
    for (std::uint32_t i = 0; i < n; i++) {
        if (slab(i) == s) {
            return i;
        }
    }
    return kSlots;
}

void
PendingList::add(std::uint32_t s, std::uint32_t k)
{
    std::uint32_t i = find(s);
    if (i == kSlots) {
        CXL_ASSERT(n < kSlots, "pending list has no free slot");
        i = n++;
        entry[i] = s << 8;
    }
    CXL_ASSERT(count(i) + k <= 0xff, "pending count overflows its entry");
    entry[i] += k;
}

void
PendingList::sub(std::uint32_t s, std::uint32_t k)
{
    std::uint32_t i = find(s);
    CXL_ASSERT(i != kSlots && count(i) >= k, "pending list underflow");
    entry[i] -= k;
    if (count(i) == 0) {
        for (; i + 1 < n; i++) {
            entry[i] = entry[i + 1];
        }
        entry[--n] = 0;
    }
}

std::uint32_t
PendingRow::size() const
{
    std::uint32_t total = 0;
    for (std::uint32_t i = 0; i < lines; i++) {
        total += line[i].size();
    }
    return total;
}

bool
PendingRow::full(std::uint32_t capacity) const
{
    std::uint32_t used = 0;
    for (std::uint32_t i = 0; i < lines; i++) {
        used += line[i].n;
    }
    return used == lines * PendingList::kSlots || size() >= capacity;
}

std::uint32_t
PendingRow::fullest() const
{
    std::uint32_t best = 0;
    for (std::uint32_t i = 1; i < lines; i++) {
        if (line[i].size() > line[best].size()) {
            best = i;
        }
    }
    return best;
}

std::uint32_t
PendingRow::line_for(std::uint32_t slab) const
{
    std::uint32_t free_line = lines;
    for (std::uint32_t i = 0; i < lines; i++) {
        if (line[i].find(slab) != PendingList::kSlots) {
            return i;
        }
        if (free_line == lines && line[i].n < PendingList::kSlots) {
            free_line = i;
        }
    }
    CXL_ASSERT(free_line != lines, "pending row has no free slot");
    return free_line;
}

std::uint32_t
PendingRow::stamped_out() const
{
    for (std::uint32_t i = 0; i < lines; i++) {
        if ((line[i].stamp & PendingList::kStampOut) != 0) {
            return i;
        }
    }
    return lines;
}

cxl::HeapOffset
SlabHeap::pending_line(cxl::ThreadId tid, std::uint32_t line) const
{
    CXL_ASSERT(line < lines_, "pending line out of range");
    return pending_base_ +
           (static_cast<cxl::HeapOffset>(tid) * lines_ + line) *
               Layout::kPendingStride;
}

PendingList
SlabHeap::load_line(cxl::MemSession& mem, cxl::ThreadId tid, std::uint32_t i)
{
    PendingList line;
    mem.read_bytes(pending_line(tid, i), &line, sizeof line);
    return line;
}

PendingRow
SlabHeap::load_row(cxl::MemSession& mem, ThreadState& ts)
{
    PendingRow row;
    row.lines = lines_;
    std::uint8_t& hint = ts.pending_hint[large_];
    const DrainState::Round* out = out_round(ts);
    for (std::uint32_t i = 0; i < lines_; i++) {
        if ((hint >> i & 1) == 0) {
            if (out != nullptr && out->line == i) {
                row.line[i] = out->list; // emptied by its launch, stamped
            }
            continue;
        }
        row.line[i] = load_line(mem, mem.tid(), i);
        if (row.line[i].n == 0 &&
            (row.line[i].stamp & PendingList::kStampOut) == 0) {
            hint &= static_cast<std::uint8_t>(~(1u << i));
        }
    }
    return row;
}

void
SlabHeap::store_line(cxl::MemSession& mem, std::uint32_t i,
                     const PendingList& line)
{
    mem.write_bytes(pending_line(mem.tid(), i), &line, sizeof line);
}

void
SlabHeap::flush_line(cxl::MemSession& mem, std::uint32_t i)
{
    mem.flush(pending_line(mem.tid(), i), sizeof(PendingList));
}

void
SlabHeap::persist_line(cxl::MemSession& mem, std::uint32_t i,
                       const PendingList& line)
{
    store_line(mem, i, line);
    flush_line(mem, i);
    mem.fence();
}

// ---------------------------------------------------------------- accessors

cxl::HeapOffset
SlabHeap::desc(std::uint32_t slab) const
{
    CXL_ASSERT(slab < num_slabs_, "slab index out of range");
    return swcc_base_ + static_cast<cxl::HeapOffset>(slab) * desc_stride_;
}

cxl::HeapOffset
SlabHeap::hwcc(std::uint32_t slab) const
{
    CXL_ASSERT(slab < num_slabs_, "slab index out of range");
    return hwcc_base_ + static_cast<cxl::HeapOffset>(slab) * 8;
}

cxl::HeapOffset
SlabHeap::slab_data(std::uint32_t slab) const
{
    return data_base_ + static_cast<cxl::HeapOffset>(slab) * slab_size_;
}

std::uint32_t
SlabHeap::next_raw(cxl::MemSession& mem, std::uint32_t slab)
{
    return mem.load<std::uint32_t>(desc(slab) + DescField::kNext);
}

void
SlabHeap::set_next_raw(cxl::MemSession& mem, std::uint32_t slab,
                       std::uint32_t raw)
{
    mem.store<std::uint32_t>(desc(slab) + DescField::kNext, raw);
}

std::uint32_t
SlabHeap::prev_raw(cxl::MemSession& mem, std::uint32_t slab)
{
    return mem.load<std::uint32_t>(desc(slab) + 12);
}

void
SlabHeap::set_prev_raw(cxl::MemSession& mem, std::uint32_t slab,
                       std::uint32_t raw)
{
    mem.store<std::uint32_t>(desc(slab) + 12, raw);
}

SlabHeap::OwnerWord
SlabHeap::owner_word(cxl::MemSession& mem, std::uint32_t slab)
{
    auto raw = mem.load<std::uint32_t>(desc(slab) + DescField::kOwnerWord);
    return OwnerWord{static_cast<cxl::ThreadId>(raw),
                     static_cast<std::uint8_t>(raw >> 16),
                     static_cast<SlabState>(raw >> 24)};
}

void
SlabHeap::set_owner_word(cxl::MemSession& mem, std::uint32_t slab,
                         OwnerWord w)
{
    mem.store<std::uint32_t>(
        desc(slab) + DescField::kOwnerWord,
        std::uint32_t{w.owner} | std::uint32_t{w.biased} << 16 |
            std::uint32_t{static_cast<std::uint8_t>(w.state)} << 24);
}

SlabHeap::CountWord
SlabHeap::count_word(cxl::MemSession& mem, std::uint32_t slab)
{
    auto raw = mem.load<std::uint32_t>(desc(slab) + DescField::kCountWord);
    return CountWord{static_cast<std::uint16_t>(raw),
                     static_cast<std::uint16_t>(raw >> 16)};
}

void
SlabHeap::set_count_word(cxl::MemSession& mem, std::uint32_t slab,
                         CountWord c)
{
    mem.store<std::uint32_t>(desc(slab) + DescField::kCountWord,
                             std::uint32_t{c.hint} | std::uint32_t{c.free}
                                                         << 16);
}

std::uint32_t
SlabHeap::pin_of(OwnerWord w)
{
    return w.biased != 0 && w.state != SlabState::Disowned ? 1 : 0;
}

void
SlabHeap::flush_desc(cxl::MemSession& mem, std::uint32_t slab)
{
    // Write back only the descriptor lines this thread dirtied — 1 line
    // instead of 9 in the common publication (the owner already knows
    // what it wrote; paper §3.2.2 generalized). The publish oracle in
    // tests/sched/test_sched_swcc.cc and litmus shape SwccPublishDirtyOnly
    // guard this elision: the full descriptor range must be clean at the
    // publishing CAS.
    mem.flush_dirty(desc(slab), desc_stride_);
    // A deferred local-op record (Disown/FreeLocal/...) rides this
    // publication's fence instead of paying its own — guarded by the
    // RecordFlushOracle suites in tests/sched/test_sched_record.cc.
    log_->flush_pending(mem);
    mem.fence();
}

// ------------------------------------------------------------------- bitset

std::uint32_t
SlabHeap::blocks_of(std::uint32_t cls) const
{
    return static_cast<std::uint32_t>(slab_size_ /
                                      class_size_impl(large_, cls));
}

std::uint32_t
SlabHeap::bitset_words(std::uint32_t cls) const
{
    return (blocks_of(cls) + 63) / 64;
}

cxl::HeapOffset
SlabHeap::bitset_word_at(std::uint32_t slab, std::uint32_t block) const
{
    return desc(slab) + DescField::kBitset + (block / 64) * 8;
}

void
SlabHeap::bitset_fill(cxl::MemSession& mem, std::uint32_t slab,
                      std::uint32_t cls)
{
    cxl::HeapOffset base = desc(slab) + DescField::kBitset;
    std::uint32_t blocks = blocks_of(cls);
    std::uint32_t words = bitset_words(cls);
    for (std::uint32_t w = 0; w < words; w++) {
        std::uint32_t lo = w * 64;
        std::uint64_t value;
        if (blocks >= lo + 64) {
            value = ~std::uint64_t{0};
        } else if (blocks > lo) {
            value = (std::uint64_t{1} << (blocks - lo)) - 1;
        } else {
            value = 0;
        }
        mem.store<std::uint64_t>(base + w * 8, value);
    }
    CXL_ASSERT(blocks <= 0xffff, "free-block count exceeds field width");
    set_count_word(mem, slab,
                   CountWord{0, static_cast<std::uint16_t>(blocks)});
}

std::uint32_t
SlabHeap::bitset_scan(cxl::MemSession& mem, std::uint32_t slab,
                      std::uint32_t cls, std::uint32_t from,
                      std::uint64_t* word)
{
    cxl::HeapOffset base = desc(slab) + DescField::kBitset;
    std::uint32_t words = bitset_words(cls);
    for (std::uint32_t w = from; w < words; w++) {
        *word = mem.load<std::uint64_t>(base + w * 8);
        if (*word != 0) {
            return w * 64 + std::countr_zero(*word);
        }
    }
    return kNoBlock;
}

void
SlabHeap::bitset_flip(cxl::MemSession& mem, std::uint32_t slab,
                      std::uint32_t block, std::uint64_t word, bool set,
                      CountWord& count)
{
    std::uint64_t mask = std::uint64_t{1} << (block % 64);
    // Idempotent redo may replay a flip that already landed: only touch
    // the counter when the bit actually flips.
    if (((word & mask) != 0) == set) {
        return;
    }
    mem.store<std::uint64_t>(bitset_word_at(slab, block), word ^ mask);
    if (set) {
        CXL_ASSERT(count.free < 0xffff, "free-block counter overflow");
        count.free++;
        count.hint = std::min<std::uint16_t>(
            count.hint, static_cast<std::uint16_t>(block / 64));
    } else {
        CXL_ASSERT(count.free > 0, "free-block counter underflow");
        count.free--;
    }
    set_count_word(mem, slab, count);
}

std::uint32_t
SlabHeap::resync_count(cxl::MemSession& mem, std::uint32_t slab,
                       std::uint32_t cls)
{
    auto free = static_cast<std::uint16_t>(bitset_count(mem, slab, cls));
    set_count_word(mem, slab, CountWord{0, free});
    return free;
}

void
SlabHeap::mark_allocated(cxl::MemSession& mem, std::uint32_t slab,
                         std::uint32_t cls, std::uint32_t n)
{
    if (n == 0) {
        return;
    }
    CountWord count = count_word(mem, slab);
    cxl::HeapOffset base = desc(slab) + DescField::kBitset;
    std::uint32_t words = bitset_words(cls);
    for (std::uint32_t w = 0; w < words && n != 0; w++) {
        std::uint64_t word = mem.load<std::uint64_t>(base + w * 8);
        if (word == 0) {
            continue;
        }
        for (; word != 0 && n != 0; n--) {
            word &= word - 1; // the lowest set bit
            CXL_ASSERT(count.free > 0, "free-block counter underflow");
            count.free--;
        }
        mem.store<std::uint64_t>(base + w * 8, word);
    }
    // Clearing bits leaves no set bit below the hint.
    set_count_word(mem, slab, count);
}

std::uint32_t
SlabHeap::bitset_count(cxl::MemSession& mem, std::uint32_t slab,
                       std::uint32_t cls)
{
    cxl::HeapOffset base = desc(slab) + DescField::kBitset;
    std::uint32_t words = bitset_words(cls);
    std::uint32_t total = 0;
    for (std::uint32_t w = 0; w < words; w++) {
        total += std::popcount(mem.load<std::uint64_t>(base + w * 8));
    }
    return total;
}

// -------------------------------------------------------------- local lists

cxl::HeapOffset
SlabHeap::local_row(cxl::ThreadId tid) const
{
    return local_base_ + static_cast<cxl::HeapOffset>(tid) *
                             Layout::kLocalStride;
}

cxl::HeapOffset
SlabHeap::unsized_head_off(cxl::ThreadId tid) const
{
    return local_row(tid);
}

cxl::HeapOffset
SlabHeap::sized_head_off(cxl::ThreadId tid, std::uint32_t cls) const
{
    CXL_ASSERT(cls < num_classes_, "class out of range");
    return local_row(tid) + 4 + static_cast<cxl::HeapOffset>(cls) * 4;
}

cxl::HeapOffset
SlabHeap::unsized_count_off(cxl::ThreadId tid) const
{
    return local_row(tid) + 4 + static_cast<cxl::HeapOffset>(num_classes_) * 4;
}

void
SlabHeap::push_sized(cxl::MemSession& mem, std::uint32_t cls,
                     std::uint32_t slab)
{
    cxl::HeapOffset head_off = sized_head_off(mem.tid(), cls);
    std::uint32_t head = mem.load<std::uint32_t>(head_off);
    set_next_raw(mem, slab, 0);
    if (head == 0) {
        set_prev_raw(mem, slab, slab + 1); // a lone head is its own tail
        mem.store<std::uint32_t>(head_off, slab + 1);
    } else {
        std::uint32_t tail = prev_raw(mem, head - 1);
        set_next_raw(mem, tail - 1, slab + 1);
        set_prev_raw(mem, slab, tail);
        set_prev_raw(mem, head - 1, slab + 1);
    }
    set_owner_word(mem, slab,
                   OwnerWord{mem.tid(), static_cast<std::uint8_t>(cls + 1),
                             SlabState::TlSized});
}

void
SlabHeap::remove_sized(cxl::MemSession& mem, std::uint32_t cls,
                       std::uint32_t slab)
{
    cxl::HeapOffset head_off = sized_head_off(mem.tid(), cls);
    std::uint32_t head = mem.load<std::uint32_t>(head_off);
    std::uint32_t p = prev_raw(mem, slab);
    std::uint32_t n = next_raw(mem, slab);
    if (head == slab + 1) {
        // p is the tail: the new head (if any) inherits it.
        mem.store<std::uint32_t>(head_off, n);
        if (n != 0) {
            set_prev_raw(mem, n - 1, p);
        }
    } else {
        set_next_raw(mem, p - 1, n);
        // Unlinking the tail makes p the tail, which the head names.
        set_prev_raw(mem, n != 0 ? n - 1 : head - 1, p);
    }
    set_next_raw(mem, slab, 0);
    set_prev_raw(mem, slab, 0);
}

void
SlabHeap::push_unsized(cxl::MemSession& mem, std::uint32_t slab)
{
    cxl::HeapOffset head = unsized_head_off(mem.tid());
    set_next_raw(mem, slab, mem.load<std::uint32_t>(head));
    mem.store<std::uint32_t>(head, slab + 1);
    set_owner_word(mem, slab,
                   OwnerWord{mem.tid(), 0, SlabState::TlUnsized});
    cxl::HeapOffset cnt = unsized_count_off(mem.tid());
    mem.store<std::uint32_t>(cnt, mem.load<std::uint32_t>(cnt) + 1);
}

std::uint32_t
SlabHeap::pop_unsized(cxl::MemSession& mem)
{
    std::uint32_t raw = mem.load<std::uint32_t>(unsized_head_off(mem.tid()));
    CXL_ASSERT(raw != 0, "pop from empty unsized list");
    unlink_unsized_head(mem, raw - 1);
    return raw - 1;
}

void
SlabHeap::unlink_unsized_head(cxl::MemSession& mem, std::uint32_t slab)
{
    mem.store<std::uint32_t>(unsized_head_off(mem.tid()), next_raw(mem, slab));
    set_next_raw(mem, slab, 0);
    cxl::HeapOffset cnt = unsized_count_off(mem.tid());
    std::uint32_t c = mem.load<std::uint32_t>(cnt);
    mem.store<std::uint32_t>(cnt, c == 0 ? 0 : c - 1);
}

bool
SlabHeap::shares_class(cxl::MemSession& mem, std::uint32_t slab)
{
    // Only a lone head names itself as the tail.
    return next_raw(mem, slab) != 0 || prev_raw(mem, slab) != slab + 1;
}

bool
SlabHeap::on_unsized_list(cxl::MemSession& mem, std::uint32_t slab)
{
    std::uint32_t raw = mem.load<std::uint32_t>(unsized_head_off(mem.tid()));
    std::uint32_t steps = 0;
    while (raw != 0 && steps++ <= num_slabs_) {
        if (raw - 1 == slab) {
            return true;
        }
        raw = next_raw(mem, raw - 1);
    }
    return false;
}

// --------------------------------------------------------------- operations

bool
SlabHeap::contains(cxl::HeapOffset offset) const
{
    return offset >= data_base_ &&
           offset < data_base_ +
                        static_cast<cxl::HeapOffset>(num_slabs_) * slab_size_;
}

std::uint32_t
SlabHeap::length(cxl::MemSession& mem)
{
    return DcasWord::value(mem.atomic_load64(len_word_));
}

cxl::HeapOffset
SlabHeap::allocate(pod::ThreadContext& ctx, ThreadState& ts,
                   std::uint64_t size)
{
    cxl::MemSession& mem = ctx.mem();
    std::uint32_t cls = class_for_impl(large_, size);
    std::uint32_t headraw = mem.load<std::uint32_t>(
        sized_head_off(mem.tid(), cls));
    if (headraw == 0) {
        if (!refill(ctx, ts, cls)) {
            return 0; // heap exhausted
        }
        headraw = mem.load<std::uint32_t>(sized_head_off(mem.tid(), cls));
        CXL_ASSERT(headraw != 0, "refill left sized list empty");
    }
    std::uint32_t slab = headraw - 1;
    // Each descriptor word once: the count word, then the bitset word the
    // scan stops at, which the clear below updates without reloading it.
    CountWord count = count_word(mem, slab);
    std::uint64_t word = 0;
    std::uint32_t block = bitset_scan(mem, slab, cls, count.hint, &word);
    CXL_ASSERT(block != kNoBlock, "sized list contained a full slab");
    // The scan began at the hint, so no set bit lies below this word. The
    // hint rides the counter's store.
    count.hint = static_cast<std::uint16_t>(block / 64);
    if (count.free == 1 &&
        mem.device()->mode() == cxl::CoherenceMode::NoHwcc) [[unlikely]] {
        // This allocation fills the slab, which may disown it. The pin's
        // append must then fit the row without a drain, whose records
        // would overwrite the Alloc and Disown records: land what it would
        // need landed now, before the Alloc record.
        PendingRow row;
        PendingRow with_out;
        const PendingRow* seen = nullptr;
        room_for(ctx, ts, slab, 1, row, with_out, seen);
    }

    // Local operation: the record needs no flush or fence (process-crash
    // recovery writes the cache back; see RecoveryLog's discipline note).
    log_->log_local(mem, OpRecord{.op = Op::Alloc,
                                  .large_heap = large_,
                                  .aux = static_cast<std::uint16_t>(block),
                                  .version = ts.version,
                                  .index = slab});
    ctx.maybe_crash(crashpoint::kAfterRecord);
    bitset_flip(mem, slab, block, word, /*set=*/false, count);
    ctx.maybe_crash(crashpoint::kMidAlloc);
    // The counter answers the post-alloc fullness check without a scan.
    CXL_PARANOID_ASSERT(count.free == bitset_count(mem, slab, cls),
                        "free-block counter diverged from bitset");
    if (inst_.registry != nullptr) {
        inst_.registry->shard(mem.tid()).add(inst_.fullcheck_fast);
    }
    if (count.free == 0) {
        // Maintain the invariant that sized lists hold only non-full slabs.
        full_transition(ctx, ts, slab, cls);
    }
    return slab_data(slab) + static_cast<cxl::HeapOffset>(block) *
                                 class_size_impl(large_, cls);
}

bool
SlabHeap::refill(pod::ThreadContext& ctx, ThreadState& ts, std::uint32_t cls)
{
    cxl::MemSession& mem = ctx.mem();
    // Transfer sources, in order (paper §3.1.1): thread-local unsized free
    // list, global free list, heap length (extension).
    while (true) {
        std::uint32_t uh = mem.load<std::uint32_t>(
            unsized_head_off(mem.tid()));
        if (uh != 0) {
            init_from_unsized(ctx, ts, uh - 1, cls);
            return true;
        }
        if (mem.mcas_round_out()) {
            // Its steals serve the refill that needs them: finish it before
            // looking past the unsized list.
            land_out_round(ctx, ts);
            continue;
        }
        if (pop_global(ctx, ts)) {
            continue; // slab landed on the unsized list
        }
        if (reclaim(ctx, ts, /*all=*/false)) {
            continue; // the next Detached slab of ours held only the pin
        }
        if (extend(ctx, ts)) {
            continue;
        }
        if (reclaim(ctx, ts)) {
            continue; // the heap is full: every candidate
        }
        if (scavenge_warm_slab(ctx, ts)) {
            continue; // reclaimed an idle empty slab from another class
        }
        if (load_row(mem, ts).size() != 0) {
            // Our own pending frees may hold the last decrements of slabs
            // that would come back to us (or the global list) once landed.
            drain_pending(ctx, ts);
            continue;
        }
        return false;
    }
}

bool
SlabHeap::scavenge_warm_slab(pod::ThreadContext& ctx, ThreadState& ts)
{
    // Under memory pressure, give up the per-class warm slabs (kept to
    // avoid re-init thrash): any completely-empty slab on one of our sized
    // lists can serve another class.
    cxl::MemSession& mem = ctx.mem();
    for (std::uint32_t cls = 0; cls < num_classes_; cls++) {
        std::uint32_t raw =
            mem.load<std::uint32_t>(sized_head_off(mem.tid(), cls));
        std::uint32_t steps = 0;
        while (raw != 0 && steps++ <= num_slabs_) {
            std::uint32_t slab = raw - 1;
            raw = next_raw(mem, slab);
            // Emptiness via the free counter: one load per candidate slab
            // instead of an O(words) popcount over its whole bitset.
            if (count_word(mem, slab).free == blocks_of(cls)) {
                CXL_PARANOID_ASSERT(
                    bitset_count(mem, slab, cls) == blocks_of(cls),
                    "free-block counter diverged from bitset");
                log_->log_local(mem, OpRecord{.op = Op::FreeLocal,
                                              .large_heap = large_,
                                              .aux = 0,
                                              .version = ts.version,
                                              .index = slab});
                remove_sized(mem, cls, slab);
                push_unsized(mem, slab);
                if (inst_.registry != nullptr) {
                    inst_.registry->shard(mem.tid()).add(inst_.scavenges);
                }
                return true;
            }
        }
    }
    return false;
}

void
SlabHeap::init_from_unsized(pod::ThreadContext& ctx, ThreadState& ts,
                            std::uint32_t slab, std::uint32_t cls)
{
    cxl::MemSession& mem = ctx.mem();
    // No CAS in this transition: the version only carries the thread's
    // (RECOVERY.md §2).
    log_->log(mem, OpRecord{.op = Op::Init,
                            .large_heap = large_,
                            .aux = static_cast<std::uint16_t>(cls),
                            .version = ts.version,
                            .index = slab});
    ctx.maybe_crash(crashpoint::kAfterRecord);
    std::uint32_t popped = pop_unsized(mem);
    CXL_ASSERT(popped == slab, "unsized head changed underfoot");
    ctx.maybe_crash(crashpoint::kMidInit);
    // Classed but still TlUnsized until push_sized's owner-word store.
    set_owner_word(mem, slab,
                   OwnerWord{mem.tid(), static_cast<std::uint8_t>(cls + 1),
                             SlabState::TlUnsized});
    bitset_fill(mem, slab, cls);
    // Reset the remote-free down-counter to the block count plus the
    // owner's pin. A plain store suffices: the slab is unlinked and no
    // other thread can reference it.
    mem.atomic_store64(hwcc(slab), DcasWord::pack(blocks_of(cls) + 1, 0, 0));
    ctx.maybe_crash(crashpoint::kMidInit);
    push_sized(mem, cls, slab);
    // The pin defers every other write-back of the descriptor to a disown,
    // a release or a trim, but another thread (the migrator's walk_cell)
    // sizes blocks by the class: write the owner-word line back now.
    mem.flush(desc(slab) + DescField::kOwnerWord, 4);
}

bool
SlabHeap::pop_global(pod::ThreadContext& ctx, ThreadState& ts)
{
    cxl::MemSession& mem = ctx.mem();
    while (true) {
        std::uint64_t word = dcas_->read_word(mem, free_word_);
        std::uint32_t headraw = DcasWord::value(word);
        if (headraw == 0) {
            return false;
        }
        std::uint32_t slab = headraw - 1;
        // SWcc read protocol (§3.2.2): flush before loading another
        // thread's flushed next pointer. A stale value would be caught by
        // the CAS on the list head failing. The CAS is on the whole tagged
        // word: if the head was popped, its next popped, and the head
        // pushed back since our read (Treiber-stack ABA), a value CAS
        // would succeed and install a slab another thread now owns.
        mem.flush(desc(slab) + DescField::kNext, 4);
        std::uint32_t next = next_raw(mem, slab);
        std::uint16_t ver = ts.next_version();
        log_->log(mem, OpRecord{.op = Op::PopGlobal,
                                .large_heap = large_,
                                .aux = 0,
                                .version = ver,
                                .index = slab});
        ctx.maybe_crash(crashpoint::kAfterRecord);
        auto r = dcas_->try_cas_word(mem, free_word_, word, next, ver);
        if (r.success) {
            ctx.maybe_crash(crashpoint::kAfterDcas);
            acquire_to_unsized(ctx, slab);
            return true;
        }
    }
}

bool
SlabHeap::extend(pod::ThreadContext& ctx, ThreadState& ts)
{
    cxl::MemSession& mem = ctx.mem();
    while (true) {
        std::uint64_t word = dcas_->read_word(mem, len_word_);
        std::uint32_t len = DcasWord::value(word);
        if (len >= num_slabs_) {
            return false;
        }
        std::uint16_t ver = ts.next_version();
        log_->log(mem, OpRecord{.op = Op::Extend,
                                .large_heap = large_,
                                .aux = 0,
                                .version = ver,
                                .index = len});
        ctx.maybe_crash(crashpoint::kAfterRecord);
        auto r = dcas_->try_cas_word(mem, len_word_, word, len + 1, ver);
        if (r.success) {
            std::uint32_t slab = len;
            ctx.maybe_crash(crashpoint::kAfterDcas);
            // The new slab needs three mappings (descriptor pages + data;
            // the HWcc word lives in the eagerly-mapped sync region). Other
            // processes install theirs lazily via the fault handler.
            install_slab_mappings(ctx, slab);
            acquire_to_unsized(ctx, slab);
            return true;
        }
    }
}

void
SlabHeap::install_slab_mappings(pod::ThreadContext& ctx, std::uint32_t slab)
{
    pod::MappedRange dm = desc_mapping(slab);
    ctx.process().install_mapping(dm.start, dm.len);
    ctx.process().install_mapping(slab_data(slab), slab_size_);
}

pod::MappedRange
SlabHeap::desc_mapping(std::uint32_t slab) const
{
    cxl::HeapOffset start = desc(slab) & ~(cxl::kPageSize - 1);
    cxl::HeapOffset end =
        align_up(desc(slab) + desc_stride_, cxl::kPageSize);
    return pod::MappedRange{start, end - start};
}

void
SlabHeap::acquire_to_unsized(pod::ThreadContext& ctx, std::uint32_t slab)
{
    cxl::MemSession& mem = ctx.mem();
    // Back the slab again in case it was decommitted on the global list.
    ctx.process().pod().device().note_committed(slab_data(slab), slab_size_);
    // The owner, then the class, before any link: a crash inside the
    // acquire leaves the slab ours and on no list, which is why every redo
    // that may owe an acquire asks on_unsized_list, not the owner (the
    // window CrashRecovery.CrashInsideStealAcquireCompletesSteal pins).
    // push_unsized's owner-word store ends it.
    mem.store<cxl::ThreadId>(desc(slab) + DescField::kOwner, mem.tid());
    mem.store<std::uint8_t>(desc(slab) + DescField::kClass, 0);
    push_unsized(mem, slab);
}

void
SlabHeap::full_transition(pod::ThreadContext& ctx, ThreadState& ts,
                          std::uint32_t slab, std::uint32_t cls)
{
    cxl::MemSession& mem = ctx.mem();
    OwnerWord w{mem.tid(), static_cast<std::uint8_t>(cls + 1),
                SlabState::TlSized};
    if (dcas_->read(mem, hwcc(slab)) != blocks_of(cls) + 1) {
        // Mixed local/remote frees: give the slab up so every future free
        // takes the remote path and the whole slab is eventually stolen.
        disown(ctx, ts, slab, w);
        return;
    }
    // No remote frees yet: keep ownership but unlink (detached state). A
    // later local free will relink it to the sized list. The pin keeps
    // every other thread from taking the slab, so nothing is written back
    // and the record stays deferred, like Alloc's.
    log_->log_local(mem, OpRecord{.op = Op::Detach,
                                  .large_heap = large_,
                                  .aux = 0,
                                  .version = ts.version,
                                  .index = slab});
    ctx.maybe_crash(crashpoint::kAfterRecord);
    detach_tail(ctx, ts, slab, w);
}

void
SlabHeap::detach_tail(pod::ThreadContext& ctx, ThreadState& ts,
                      std::uint32_t slab, OwnerWord w)
{
    cxl::MemSession& mem = ctx.mem();
    remove_sized(mem, w.biased - 1u, slab);
    w.state = SlabState::Detached;
    set_owner_word(mem, slab, w);
    note_detached(ts, slab, true);
    ctx.maybe_crash(crashpoint::kMidDetach);
    if (cxlcommon::test_faults::free_pin_at_detach) {
        unpin(ctx, ts, slab, 1); // deliberately broken: no write-back first
    }
}

void
SlabHeap::disown(pod::ThreadContext& ctx, ThreadState& ts, std::uint32_t slab,
                 OwnerWord w)
{
    cxl::MemSession& mem = ctx.mem();
    // A full slab's disown marks nothing allocated; a release's marks every
    // free block, fewer than the class's blocks, so the count fits aux.
    const std::uint32_t free = count_word(mem, slab).free;
    log_->log_local(mem, OpRecord{.op = Op::Disown,
                                  .large_heap = large_,
                                  .aux = static_cast<std::uint16_t>(free),
                                  .version = ts.version,
                                  .index = slab});
    ctx.maybe_crash(crashpoint::kAfterRecord);
    disown_tail(ctx, ts, slab, w, free);
}

void
SlabHeap::disown_tail(pod::ThreadContext& ctx, ThreadState& ts,
                      std::uint32_t slab, OwnerWord w, std::uint32_t free)
{
    cxl::MemSession& mem = ctx.mem();
    if (w.state != SlabState::Disowned) {
        const std::uint32_t cls = w.biased - 1u;
        if (w.state == SlabState::TlSized) {
            remove_sized(mem, cls, slab);
        }
        mark_allocated(mem, slab, cls, free);
        set_owner_word(mem, slab, OwnerWord{cxl::kNoThread, w.biased,
                                            SlabState::Disowned});
        ctx.maybe_crash(crashpoint::kMidDetach);
    }
    // Everything this thread wrote goes back before the pin does: from then
    // on the slab's last remote free steals it, and no dirty line of ours
    // may clobber the stealer's writes.
    flush_desc(mem, slab);
    ctx.maybe_crash(crashpoint::kMidUnpin);
    unpin(ctx, ts, slab, free + 1);
}

void
SlabHeap::unpin(pod::ThreadContext& ctx, ThreadState& ts, std::uint32_t slab,
                std::uint32_t k)
{
    if (ctx.mem().device()->mode() == cxl::CoherenceMode::NoHwcc) {
        defer_remote(ctx, ts, slab, k);
    } else {
        free_remote(ctx, ts, slab, k);
    }
}

void
SlabHeap::note_detached(ThreadState& ts, std::uint32_t slab, bool on) const
{
    if (!ts.detached_known[large_]) {
        return; // the next reclaim scans the heap
    }
    std::uint64_t& word = ts.detached[large_][slab / 64];
    const std::uint64_t bit = std::uint64_t{1} << (slab % 64);
    word = on ? word | bit : word & ~bit;
}

bool
SlabHeap::reclaim(pod::ThreadContext& ctx, ThreadState& ts, bool all)
{
    cxl::MemSession& mem = ctx.mem();
    std::vector<std::uint64_t>& bits = ts.detached[large_];
    const auto words = static_cast<std::uint32_t>((num_slabs_ + 63) / 64);
    if (!ts.detached_known[large_]) {
        // Attach or recovery: the slot may hold Detached slabs already.
        bits.assign(words, 0);
        const std::uint32_t len = length(mem);
        for (std::uint32_t slab = 0; slab < len; slab++) {
            OwnerWord w = owner_word(mem, slab);
            if (w.owner == mem.tid() && w.state == SlabState::Detached) {
                bits[slab / 64] |= std::uint64_t{1} << (slab % 64);
            }
        }
        ts.detached_known[large_] = true;
    }
    // Candidates from the cursor on, wrapping once: the word holding the
    // cursor is visited twice, its upper bits first.
    std::uint32_t& cursor = ts.detached_cursor[large_];
    bool took = false;
    for (std::uint32_t i = 0; i <= words; i++) {
        const std::uint32_t at = (cursor / 64 + i) % words;
        std::uint64_t word = bits[at];
        const std::uint64_t upper = ~std::uint64_t{0} << (cursor % 64);
        word &= i == 0 ? upper : (i == words ? ~upper : ~std::uint64_t{0});
        for (; word != 0; word &= word - 1) {
            const std::uint32_t slab =
                at * 64 + static_cast<std::uint32_t>(std::countr_zero(word));
            const std::uint64_t bit = std::uint64_t{1} << (slab % 64);
            // Our own descriptors are never stale in our cache: only we
            // write a slab while it holds our pin.
            OwnerWord w = owner_word(mem, slab);
            if (w.owner != mem.tid() || w.state != SlabState::Detached) {
                bits[at] &= ~bit; // relinked or given up since
                continue;
            }
            if (dcas_->read(mem, hwcc(slab)) == 1) {
                // Every block was freed remotely and landed, so no free of
                // one can still come: the slab is empty, and ours.
                ctx.maybe_crash(crashpoint::kMidReclaim);
                bits[at] &= ~bit;
                push_unsized(mem, slab);
                took = true;
            }
            if (!all) {
                cursor = (slab + 1) % num_slabs_;
                if (took) {
                    trim_unsized(ctx, ts);
                }
                return took;
            }
        }
    }
    if (took) {
        trim_unsized(ctx, ts);
    }
    return took;
}

void
SlabHeap::release(pod::ThreadContext& ctx, ThreadState& ts)
{
    cxl::MemSession& mem = ctx.mem();
    const bool deferred = mem.device()->mode() == cxl::CoherenceMode::NoHwcc;
    const std::uint32_t len = length(mem);
    for (std::uint32_t slab = 0; slab < len; slab++) {
        OwnerWord w = owner_word(mem, slab);
        if (w.owner != mem.tid() || pin_of(w) == 0 ||
            (w.state != SlabState::TlSized &&
             w.state != SlabState::Detached)) {
            continue;
        }
        const std::uint32_t cls = w.biased - 1;
        CountWord count = count_word(mem, slab);
        if (dcas_->read(mem, hwcc(slab)) == count.free + 1u) {
            // No live block and no pending free: the slab comes back whole.
            if (w.state == SlabState::TlSized) {
                // As a scavenge: the FreeLocal redo of a free block's bit
                // finishes or undoes it.
                std::uint64_t word = 0;
                log_->log_local(
                    mem,
                    OpRecord{.op = Op::FreeLocal,
                             .large_heap = large_,
                             .aux = static_cast<std::uint16_t>(bitset_scan(
                                 mem, slab, cls, count.hint, &word)),
                             .version = ts.version,
                             .index = slab});
                remove_sized(mem, cls, slab);
            }
            push_unsized(mem, slab);
            continue;
        }
        if (deferred) {
            // The disown's frees must fit one pending entry within the
            // row's capacity: defer the rest first, a row at a time.
            while (count.free + 1u > capacity_) {
                release_blocks(ctx, ts, slab, cls);
                count = count_word(mem, slab);
            }
            drain_pending(ctx, ts); // an empty row takes the disown's append
        }
        disown(ctx, ts, slab, w);
        ctx.maybe_crash(crashpoint::kMidRelease);
    }
    if (deferred) {
        drain_pending(ctx, ts); // its steals land on our unsized list
    }
    while (mem.load<std::uint32_t>(unsized_count_off(mem.tid())) != 0) {
        push_global_one(ctx, ts);
    }
    ts.detached[large_].assign((num_slabs_ + 63) / 64, 0);
    ts.detached_known[large_] = true;
}

void
SlabHeap::release_blocks(pod::ThreadContext& ctx, ThreadState& ts,
                         std::uint32_t slab, std::uint32_t cls)
{
    cxl::MemSession& mem = ctx.mem();
    drain_pending(ctx, ts);
    const std::uint32_t free = count_word(mem, slab).free;
    log_->log_local(mem, OpRecord{.op = Op::Detach,
                                  .large_heap = large_,
                                  .aux = static_cast<std::uint16_t>(free),
                                  .version = ts.version,
                                  .index = slab});
    ctx.maybe_crash(crashpoint::kAfterRecord);
    release_tail(ctx, ts, slab, cls, free, free);
}

void
SlabHeap::release_tail(pod::ThreadContext& ctx, ThreadState& ts,
                       std::uint32_t slab, std::uint32_t cls,
                       std::uint32_t before, std::uint32_t free)
{
    cxl::MemSession& mem = ctx.mem();
    const std::uint32_t k = std::min(capacity_, before + 1 - capacity_);
    CXL_ASSERT(free <= before && before - free <= k,
               "release step marked more than its blocks");
    mark_allocated(mem, slab, cls, k - (before - free));
    // Written back before their frees can land, as a disown's.
    flush_desc(mem, slab);
    ctx.maybe_crash(crashpoint::kMidRelease);
    defer_remote(ctx, ts, slab, k);
}

bool
SlabHeap::deallocate(pod::ThreadContext& ctx, ThreadState& ts,
                     cxl::HeapOffset offset)
{
    cxl::MemSession& mem = ctx.mem();
    CXL_ASSERT(contains(offset), "free of non-heap offset");
    auto slab = static_cast<std::uint32_t>((offset - data_base_) /
                                           slab_size_);
    // The owner field may be read from our (possibly stale) cache without
    // flushing — the paper's §3.2.2 case analysis shows every outcome of a
    // stale read is safe. Class and state come in the same load: while the
    // slab is ours, only we write them.
    OwnerWord w = owner_word(mem, slab);
    if (w.owner == mem.tid()) {
        CXL_ASSERT(w.biased != 0, "freeing into classless slab");
        auto block = static_cast<std::uint32_t>(
            (offset - slab_data(slab)) / class_size_impl(large_, w.biased - 1));
        free_local(ctx, ts, slab, block, w);
        return false;
    }
    if (mem.device()->mode() == cxl::CoherenceMode::NoHwcc) {
        // Every decrement is a device round trip: defer it to a drain
        // that lands a ring of slabs per doorbell.
        defer_remote(ctx, ts, slab);
    } else {
        free_remote(ctx, ts, slab);
    }
    return true;
}

std::uint32_t
SlabHeap::room_for(pod::ThreadContext& ctx, ThreadState& ts,
                   std::uint32_t slab, std::uint32_t k, PendingRow& row,
                   PendingRow& with_out, const PendingRow*& seen)
{
    cxl::MemSession& mem = ctx.mem();
    row = load_row(mem, ts);
    std::uint32_t room = appends_see(row, ts, with_out, seen);
    // The append must fit the row as the out round may leave it, its
    // slab's entry included (a count is 8 bits). When it might not (after
    // a drain threw, as the last append drained otherwise; or when the out
    // round's operands coming back could overfill the row), finish that
    // round first, which logs nothing, and drain only if still needed.
    auto fits = [&] {
        if (seen->full(room)) {
            return false;
        }
        const PendingList& l = seen->line[seen->line_for(slab)];
        std::uint32_t e = l.find(slab);
        return l.size() + k <= 0xff &&
               (e == PendingList::kSlots || l.count(e) + k <= 0xff);
    };
    while (!fits()) {
        if (out_round(ts) != nullptr) {
            mem.finish_mcas_round();
        } else {
            // A row too full for a bulk append that is not full lands
            // whole.
            drain_pending(ctx, ts, /*while_full=*/seen->full(room));
        }
        row = load_row(mem, ts);
        room = appends_see(row, ts, with_out, seen);
    }
    return room;
}

void
SlabHeap::defer_remote(pod::ThreadContext& ctx, ThreadState& ts,
                       std::uint32_t slab, std::uint32_t k)
{
    cxl::MemSession& mem = ctx.mem();
    PendingRow row;
    PendingRow with_out;
    const PendingRow* seen = nullptr;
    const std::uint32_t room = room_for(ctx, ts, slab, k, row, with_out, seen);
    const std::uint32_t i = seen->line_for(slab);
    PendingList& line = row.line[i];
    // Local operation: no flush or fence. Recovery redoes the append iff
    // line i is short of aux's size.
    log_->log_local(
        mem, OpRecord{.op = Op::FreeDeferred,
                      .large_heap = large_,
                      .aux = static_cast<std::uint16_t>(i << 8 |
                                                        (line.size() + k)),
                      .version = ts.version,
                      .index = slab});
    ctx.maybe_crash(crashpoint::kAfterRecord);
    line.add(slab, k);
    store_line(mem, i, line);
    if (seen != &row) {
        with_out.line[i].add(slab, k);
    }
    if (DrainState::Round* out = out_round(ts); out && out->line == i) {
        out->list = line;
    }
    ts.pending_hint[large_] |= static_cast<std::uint8_t>(1u << i);
    // Once the next append might not fit, land a ring of the fullest
    // line's oldest slab entries (another while the row is still full), so
    // an append never waits for a drain (whose records would overwrite
    // its own) and the newer entries keep coalescing blocks until the
    // next full ring.
    if (seen->full(room)) {
        drain_pending(ctx, ts, /*while_full=*/true);
    }
}

bool
SlabHeap::lands_before_append(cxl::MemSession& mem, ThreadState& ts)
{
    return mem.mcas_round_out() || load_row(mem, ts).full(capacity_);
}

DrainState::Round*
SlabHeap::out_round(const ThreadState& ts) const
{
    return ts.drain && ts.drain->out.heap == this ? &ts.drain->out : nullptr;
}

std::uint32_t
SlabHeap::appends_see(const PendingRow& row, const ThreadState& ts,
                      PendingRow& with_out, const PendingRow*& seen) const
{
    const DrainState::Round* out = out_round(ts);
    if (out == nullptr) {
        seen = &row;
        return capacity_;
    }
    with_out = row;
    seen = &with_out;
    std::uint32_t room = capacity_;
    for (std::uint32_t i = 0; i < out->staged; i++) {
        with_out.line[out->line].add(out->slab_of[i], out->k_of[i]);
        room += out->k_of[i];
    }
    return room;
}

void
SlabHeap::drain_pending(pod::ThreadContext& ctx, ThreadState& ts,
                        bool while_full)
{
    cxl::MemSession& mem = ctx.mem();
    try {
        land_out_round(ctx, ts);
        PendingRow row = load_row(mem, ts);
        if (row.stamped_out() != lines_) {
            // Left by a round whose put-back could not reach its line (see
            // the handler below): clear it before this drain posts.
            reconcile_ring(ctx);
            row = load_row(mem, ts);
        }
        // Finish the round just launched on line @p i, back into the row.
        auto land = [&](std::uint32_t i) {
            land_out_round(ctx, ts);
            row.line[i] = ts.drain->out.list;
        };
        if (while_full) {
            // A round that leaves the row full lands at once: its
            // put-backs decide whether another is needed. The last stays
            // out.
            while (row.full(capacity_)) {
                const std::uint32_t i = row.fullest();
                launch_round(ctx, ts, row, i);
                if (row.full(capacity_)) {
                    land(i);
                }
            }
            return;
        }
        for (std::uint32_t i = 0; i < lines_; i++) {
            while (row.line[i].n != 0) {
                launch_round(ctx, ts, row, i);
                land(i);
            }
        }
    } catch (const cxl::NmpStallError&) {
        settle_ring(ctx);
        throw;
    } catch (const cxl::EdgeDownError&) {
        settle_ring(ctx);
        throw;
    }
}

void
SlabHeap::settle_ring(pod::ThreadContext& ctx)
{
    // Before any append can refill the list: the round's non-landed
    // decrements go back into it, the steals it owes are finished, and the
    // ring is released, so nothing staged can land later. If the reconcile
    // itself cannot reach the list (its edge went Down mid-round), those
    // decrements and steals are lost: their slabs leak, nothing is freed
    // twice.
    cxl::Nmp& nmp = ctx.process().pod().nmp();
    try {
        reconcile_ring(ctx);
    } catch (const cxl::EdgeDownError&) {
        nmp.reset_ring(ctx.tid());
        throw;
    }
    nmp.reset_ring(ctx.tid());
}

void
SlabHeap::launch_round(pod::ThreadContext& ctx, ThreadState& ts,
                       PendingRow& row, std::uint32_t line)
{
    cxl::MemSession& mem = ctx.mem();
    PendingList& list = row.line[line];
    if (!ts.drain) {
        ts.drain = std::make_unique<DrainState>();
        ts.drain->refreshed_at = ts.version;
    }
    DrainState& drain = *ts.drain;
    DrainState::Round& out = drain.out;
    CXL_ASSERT(out.heap == nullptr && !mem.mcas_round_out(),
               "a drain round is still out");
    DrainState::Prediction* predicted = drain.slot[large_ ? 1 : 0];
    cxl::McasOperand ops[cxl::kNmpRingSlots];
    const std::uint32_t staged =
        std::min<std::uint32_t>(list.n, cxl::kNmpRingSlots);
    std::uint16_t ver = 0;
    for (std::uint32_t i = 0; i < staged; i++) {
        const std::uint32_t slab = list.slab(i);
        const std::uint32_t k = list.count(i);
        // Stage from the word this thread expects the counter to hold; the
        // mCAS checks it. Read the counter only when there is none, or
        // when it is below the entry's count.
        const DrainState::Prediction& p =
            predicted[slab % DrainState::kSlots];
        std::uint64_t word = p.word;
        if (p.slab_plus1 != slab + 1 || DcasWord::value(word) < k) {
            word = dcas_->read_word(mem, hwcc(slab));
        }
        std::uint32_t cur = DcasWord::value(word);
        CXL_ASSERT(cur >= k, "remote-free counter underflow (double free?)");
        ver = ts.next_version();
        ops[i] = dcas_->stage_word(mem, hwcc(slab), word, cur - k, ver);
        out.slab_of[i] = slab;
        out.k_of[i] = k;
        out.swap_of[i] = ops[i].swap;
    }
    // No help records for the tags the operands displace: no recovery asks
    // did_succeed of a slab counter under NoHwcc (reconcile_ring reads the
    // slots). The thread's own entry is refreshed after its finishes.
    for (std::uint32_t i = 0; i < staged; i++) {
        bool posted = mem.mcas_post(ops[i]);
        CXL_ASSERT(posted, "ring rejected a ring-bounded batch");
    }
    ctx.maybe_crash(crashpoint::kMidBatchStage);
    // The record, then the line without the staged decrements, stamped
    // out: both durable (record first) before the doorbell can land
    // anything. Until the stamp, the line still holds the decrements and
    // recovery discards the ring.
    log_->log_local(mem, OpRecord{.op = Op::FreeRemoteBatch,
                                  .large_heap = large_,
                                  .aux = static_cast<std::uint16_t>(staged),
                                  .version = ver,
                                  .index = out.slab_of[0]});
    for (std::uint32_t i = 0; i < staged; i++) {
        list.sub(out.slab_of[i], out.k_of[i]);
    }
    list.stamp = PendingList::kStampOut | ver;
    store_line(mem, line, list);
    log_->flush_pending(mem);
    flush_line(mem, line);
    mem.fence();
    ctx.maybe_crash(crashpoint::kMidBatchDoorbell);
    mem.mcas_doorbell();
    if (list.n == 0) {
        // Appends need not load it: the round's copy stands in for it.
        ts.pending_hint[large_] &= static_cast<std::uint8_t>(~(1u << line));
    }
    out.heap = this;
    out.ctx = &ctx;
    out.ts = &ts;
    out.line = line;
    out.staged = staged;
    out.list = list;
    mem.set_mcas_finisher(&drain);
    ctx.maybe_crash(crashpoint::kMidBatchDrain);
}

void
DrainState::finish_mcas_round()
{
    out.heap->finish_round(*out.ctx, *out.ts);
}

void
SlabHeap::finish_round(pod::ThreadContext& ctx, ThreadState& ts)
{
    cxl::MemSession& mem = ctx.mem();
    DrainState& drain = *ts.drain;
    DrainState::Round& out = drain.out;
    out.heap = nullptr;
    try {
        // Settle the round while the ring still holds it, once the trip is
        // over, before any slot is released: an out stamp always means the
        // ring holds exactly its round, and reconcile_ring can settle it.
        mem.mcas_wait();
        PendingList& list = out.list;
        if (settle_round(ctx, out.line, list, /*redo=*/false)) {
            drain.trim_owed[large_] = true;
        }
        const auto bit = static_cast<std::uint8_t>(1u << out.line);
        if (list.n == 0) {
            ts.pending_hint[large_] &= static_cast<std::uint8_t>(~bit);
        } else {
            ts.pending_hint[large_] |= bit;
        }
        if (inst_.registry != nullptr) {
            obs::MetricsShard& sh = inst_.registry->shard(mem.tid());
            sh.add(inst_.drain_rounds);
            sh.add(inst_.drain_blocks,
                   std::accumulate(out.k_of, out.k_of + out.staged,
                                   std::uint64_t{0}));
        }
        DrainState::Prediction* predicted = drain.slot[large_ ? 1 : 0];
        bool conflicted = false;
        for (std::uint32_t i = 0; i < out.staged; i++) {
            cxl::McasResult r;
            bool polled = mem.mcas_poll(&r);
            CXL_ASSERT(polled, "doorbell executed fewer ops than staged");
            conflicted |= r.conflict;
            const std::uint32_t slab = out.slab_of[i];
            DrainState::Prediction& p = predicted[slab % DrainState::kSlots];
            if (r.conflict) {
                if (p.slab_plus1 == slab + 1) {
                    p = {}; // the device read nothing to predict from
                }
            } else {
                p = {slab + 1, r.success ? out.swap_of[i] : r.previous};
            }
            if (r.success) {
                drain.newest_landed = DcasWord::version(out.swap_of[i]);
                drain.landed = true;
            }
        }
        if (conflicted) {
            mem.charge(drain.backoff.next_ns());
        } else {
            drain.backoff.reset();
        }
    } catch (const cxl::EdgeDownError&) {
        settle_ring(ctx);
        throw;
    }
}

void
SlabHeap::land_out_round(pod::ThreadContext& ctx, ThreadState& ts)
{
    cxl::MemSession& mem = ctx.mem();
    mem.finish_mcas_round();
    if (!ts.drain) {
        return;
    }
    DrainState& drain = *ts.drain;
    // The ring is empty. Nobody records help for the operands' tags, so
    // the thread's own entry would stay where the last displacer of one of
    // its tags left it: once 2^14 versions behind, did_succeed calls its
    // next failed PopGlobal, Extend, PushGlobal or cell publish landed.
    // Every kHelpRefreshVersions of its versions, record its newest landed
    // operand's instead.
    if (drain.landed && ((ts.version - drain.refreshed_at) &
                         cxlsync::kVersionMask) >= kHelpRefreshVersions) {
        dcas_->record_landed(mem, drain.newest_landed);
        drain.refreshed_at = ts.version;
    }
    // Only after the stamp cleared: a trim can move a stolen slab off the
    // unsized list, which is what reconcile_ring checks while it is out.
    if (drain.trim_owed[large_]) {
        drain.trim_owed[large_] = false;
        trim_unsized(ctx, ts);
    }
}

void
SlabHeap::reconcile_ring(pod::ThreadContext& ctx)
{
    cxl::MemSession& mem = ctx.mem();
    for (std::uint32_t line = 0; line < lines_; line++) {
        PendingList list = load_line(mem, mem.tid(), line);
        if ((list.stamp & PendingList::kStampOut) != 0) {
            settle_round(ctx, line, list, /*redo=*/true);
            return; // at most one line of a row is out
        }
    }
}

bool
SlabHeap::settle_round(pod::ThreadContext& ctx, std::uint32_t line,
                       PendingList& list, bool redo)
{
    cxl::MemSession& mem = ctx.mem();
    const auto round =
        static_cast<std::uint16_t>(list.stamp & cxlsync::kVersionMask);
    cxl::NmpSlotView views[cxl::kNmpRingSlots];
    const std::uint32_t live = ctx.process().pod().nmp().ring_snapshot(
        mem.tid(), views, cxl::kNmpRingSlots);
    bool stole = false;
    for (std::uint32_t i = 0; i < live; i++) {
        const cxl::NmpSlotView& v = views[i];
        if (v.op.target < hwcc_base_ ||
            (v.op.target - hwcc_base_) / 8 >= num_slabs_) {
            continue; // not a counter of this heap
        }
        CXL_ASSERT((v.op.target - hwcc_base_) % 8 == 0,
                   "batched operand misaligned in counter region");
        CXL_ASSERT(DcasWord::tid(v.op.swap) == mem.tid(),
                   "foreign operand in the thread's ring");
        CXL_ASSERT(((round - DcasWord::version(v.op.swap)) &
                    cxlsync::kVersionMask) < cxl::kNmpRingSlots,
                   "ring operand outside the stamped round");
        // Whether it landed is the slot's own result. did_succeed cannot
        // tell: help[tid] >= v also follows when a LATER operand of this
        // ring landed and was displaced since.
        auto slab = static_cast<std::uint32_t>((v.op.target - hwcc_base_) / 8);
        if (v.state != cxl::NmpSlotState::Executed || !v.result.success) {
            list.add(slab, DcasWord::value(v.op.expected) -
                               DcasWord::value(v.op.swap));
        } else if (DcasWord::value(v.op.swap) == 0 &&
                   !(redo && on_unsized_list(mem, slab))) {
            // Every block was remotely freed, and the pin with them: the
            // slab is disowned and written back, so stealing needs no
            // coordination with its owner (paper §3.2.1). No trim runs
            // before the stamp clears, so the unsized list tells a redo
            // whether the steal is done (an interrupted acquire writes the
            // owner field before linking).
            ctx.maybe_crash(crashpoint::kMidSteal);
            acquire_to_unsized(ctx, slab);
            stole = true;
        }
    }
    list.stamp = round;
    persist_line(mem, line, list);
    return stole;
}

void
SlabHeap::free_local(pod::ThreadContext& ctx, ThreadState& ts,
                     std::uint32_t slab, std::uint32_t block, OwnerWord w)
{
    cxl::MemSession& mem = ctx.mem();
    // The double-free test loads the bitset word the set below updates.
    std::uint64_t word = mem.load<std::uint64_t>(bitset_word_at(slab, block));
    CXL_ASSERT(((word >> (block % 64)) & 1) == 0, "double free (local)");
    log_->log_local(mem, OpRecord{.op = Op::FreeLocal,
                                  .large_heap = large_,
                                  .aux = static_cast<std::uint16_t>(block),
                                  .version = ts.version,
                                  .index = slab});
    ctx.maybe_crash(crashpoint::kAfterRecord);
    CXL_ASSERT(w.state == SlabState::TlSized || w.state == SlabState::Detached,
               "local free into slab in unexpected state");
    CountWord count = count_word(mem, slab);
    bitset_flip(mem, slab, block, word, /*set=*/true, count);
    ctx.maybe_crash(crashpoint::kMidFreeLocal);
    CXL_PARANOID_ASSERT(count.free == bitset_count(mem, slab, w.biased - 1u),
                        "free-block counter diverged from bitset");
    free_local_tail(ctx, ts, slab, w, count.free);
}

void
SlabHeap::free_local_tail(pod::ThreadContext& ctx, ThreadState& ts,
                          std::uint32_t slab, OwnerWord w, std::uint32_t free)
{
    cxl::MemSession& mem = ctx.mem();
    const std::uint32_t cls = w.biased - 1u;
    if (w.state == SlabState::Detached) {
        // Previously full: relink so it can serve allocations again, at the
        // tail. The slabs ahead of it have waited longer and gathered more
        // frees; at the head its one free block would refill it on the next
        // allocation, which detaches it again.
        push_sized(mem, cls, slab);
        note_detached(ts, slab, false);
    } else if (free == blocks_of(cls) && shares_class(mem, slab)) {
        // Slab is now completely empty and the class has other slabs:
        // recycle it as unsized. (Keeping the last slab warm avoids
        // re-initializing it on every alloc/free alternation.)
        remove_sized(mem, cls, slab);
        push_unsized(mem, slab);
        trim_unsized(ctx, ts);
    }
}

void
SlabHeap::free_remote(pod::ThreadContext& ctx, ThreadState& ts,
                      std::uint32_t slab, std::uint32_t k)
{
    cxl::MemSession& mem = ctx.mem();
    CXL_ASSERT(mem.device()->mode() != cxl::CoherenceMode::NoHwcc,
               "NoHwcc remote frees land through drain_pending");
    while (true) {
        std::uint64_t word = dcas_->read_word(mem, hwcc(slab));
        std::uint32_t cur = DcasWord::value(word);
        CXL_ASSERT(cur >= k, "remote-free counter underflow (double free?)");
        std::uint16_t ver = ts.next_version();
        log_->log(mem, OpRecord{.op = Op::FreeRemote,
                                .large_heap = large_,
                                .aux = static_cast<std::uint16_t>(k - 1),
                                .version = ver,
                                .index = slab});
        ctx.maybe_crash(crashpoint::kAfterRecord);
        auto r = dcas_->try_cas_word(mem, hwcc(slab), word, cur - k, ver);
        if (!r.success) {
            continue;
        }
        if (cur == k) {
            // Every block was remotely freed, and the pin with them: the
            // slab is disowned and written back, so stealing needs no
            // coordination with the previous owner (paper §3.2.1).
            ctx.maybe_crash(crashpoint::kMidSteal);
            acquire_to_unsized(ctx, slab);
            trim_unsized(ctx, ts);
        }
        return;
    }
}

void
SlabHeap::trim_unsized(pod::ThreadContext& ctx, ThreadState& ts)
{
    cxl::MemSession& mem = ctx.mem();
    while (mem.load<std::uint32_t>(unsized_count_off(mem.tid())) >
           unsized_limit_) {
        push_global_one(ctx, ts);
    }
}

void
SlabHeap::push_global_one(pod::ThreadContext& ctx, ThreadState& ts)
{
    cxl::MemSession& mem = ctx.mem();
    std::uint32_t raw = mem.load<std::uint32_t>(unsized_head_off(mem.tid()));
    CXL_ASSERT(raw != 0, "push from empty unsized list");
    std::uint32_t slab = raw - 1;
    // The record comes before the pop: from the pop on, the slab is on no
    // list of ours, and only this record tells recovery to finish the push
    // (whatever record the caller left, a drain round's included). Record
    // + descriptor coalesce into flush_desc's single flush + fence (the
    // record's flush_pending rides the same fence); on a CAS retry only
    // the re-dirtied kNext line and record row are written back again —
    // the owner-cached argument generalized.
    std::uint16_t ver = ts.next_version();
    log_->log_local(mem, OpRecord{.op = Op::PushGlobal,
                                  .large_heap = large_,
                                  .aux = 0,
                                  .version = ver,
                                  .index = slab});
    unlink_unsized_head(mem, slab);
    set_owner_word(mem, slab, OwnerWord{cxl::kNoThread, 0, SlabState::Global});
    // MADV_REMOVE analog (paper §3.3.1): heap extension is monotonic — the
    // mapping stays — but an empty slab's backing memory returns to the
    // device while it sits on the global free list.
    ctx.process().pod().device().note_decommitted(slab_data(slab),
                                                  slab_size_);
    while (true) {
        std::uint64_t word = dcas_->read_word(mem, free_word_);
        std::uint32_t headraw = DcasWord::value(word);
        set_next_raw(mem, slab, headraw);
        // Ownership transfers to whoever pops: flush + fence first.
        if (!cxlcommon::test_faults::skip_swcc_publish_flush) {
            flush_desc(mem, slab);
        } else {
            // Fault isolation: skip only the DESCRIPTOR flush. The record
            // still goes durable so the publish oracle — not the record
            // oracle — is what catches this variant.
            log_->flush_pending(mem);
            mem.fence();
        }
        ctx.maybe_crash(crashpoint::kMidPushGlobal);
        if (dcas_->try_cas_word(mem, free_word_, word, slab + 1, ver)
                .success) {
            return;
        }
        ver = ts.next_version();
        log_->log_local(mem, OpRecord{.op = Op::PushGlobal,
                                      .large_heap = large_,
                                      .aux = 0,
                                      .version = ver,
                                      .index = slab});
    }
}

bool
SlabHeap::resolve(cxl::MemSession& mem, cxl::HeapOffset offset,
                  pod::MappedRange* out)
{
    // Data region: backed iff the containing slab is below the heap length.
    if (contains(offset)) {
        auto slab = static_cast<std::uint32_t>((offset - data_base_) /
                                               slab_size_);
        if (slab >= length(mem)) {
            return false;
        }
        out->start = slab_data(slab);
        out->len = slab_size_;
        return true;
    }
    // SWcc descriptor region.
    cxl::HeapOffset desc_end =
        swcc_base_ + static_cast<cxl::HeapOffset>(num_slabs_) * desc_stride_;
    if (offset >= swcc_base_ && offset < desc_end) {
        auto slab = static_cast<std::uint32_t>((offset - swcc_base_) /
                                               desc_stride_);
        if (slab >= length(mem)) {
            return false;
        }
        *out = desc_mapping(slab);
        return true;
    }
    return false;
}

// ----------------------------------------------------------------- recovery

void
SlabHeap::recover(pod::ThreadContext& ctx, ThreadState& ts,
                  const OpRecord& record)
{
    cxl::MemSession& mem = ctx.mem();
    std::uint32_t slab = record.index;
    switch (record.op) {
      case Op::Alloc: {
        // The block may or may not have been handed out; the application
        // never saw the pointer, so completing the clear only costs one
        // block (recoverable by the application's own log, paper Table 1
        // "App" strategy).
        OwnerWord w = owner_word(mem, slab);
        CXL_ASSERT(w.biased != 0, "Alloc record against classless slab");
        CountWord count = count_word(mem, slab);
        bitset_flip(mem, slab, record.aux,
                    mem.load<std::uint64_t>(bitset_word_at(slab, record.aux)),
                    /*set=*/false, count);
        if (resync_count(mem, slab, w.biased - 1) == 0 &&
            w.state == SlabState::TlSized) {
            full_transition(ctx, ts, slab, w.biased - 1);
        }
        break;
      }
      case Op::Init: {
        std::uint32_t cls = record.aux;
        OwnerWord w = owner_word(mem, slab);
        if (w.state == SlabState::TlSized && w.biased == cls + 1) {
            resync_count(mem, slab, cls); // completed
            mem.flush(desc(slab) + DescField::kOwnerWord, 4);
            break;
        }
        // push_sized's owner-word store never happened, so the slab is
        // still TlUnsized and rebuild_lists kept it on the unsized list. No
        // block was handed out: drop the half-written class and leave it
        // there for the next refill.
        w.biased = 0;
        set_owner_word(mem, slab, w);
        break;
      }
      case Op::PopGlobal:
      case Op::Extend: {
        const bool pop = record.op == Op::PopGlobal;
        if (!dcas_->did_succeed(mem, pop ? free_word_ : len_word_,
                                record.version)) {
            break; // CAS never took effect; the allocation was abandoned
        }
        if (!pop) {
            install_slab_mappings(ctx, slab);
        }
        if (!on_unsized_list(mem, slab)) {
            acquire_to_unsized(ctx, slab);
        }
        break;
      }
      case Op::Detach: {
        OwnerWord w = owner_word(mem, slab);
        if (w.owner != mem.tid() || w.biased == 0) {
            break; // taken back since (reclaim logs no record)
        }
        if (record.aux == 0) {
            // A full slab's detach: unfinished only while still TlSized
            // (rebuild_lists relisted it). The pin kept it ours.
            if (w.state == SlabState::TlSized) {
                detach_tail(ctx, ts, slab, w);
            }
            break;
        }
        // A release step: its append is not done (the append's own record
        // would be the latest). Finish marking what it had not marked.
        release_tail(ctx, ts, slab, w.biased - 1u, record.aux,
                     resync_count(mem, slab, w.biased - 1u));
        break;
      }
      case Op::Disown: {
        // The pin is still held: a disown logs its unpin's record next. A
        // TlSized slab was relisted by rebuild_lists.
        OwnerWord w = owner_word(mem, slab);
        CXL_ASSERT(w.biased != 0, "Disown record against classless slab");
        if (w.state != SlabState::Disowned) {
            resync_count(mem, slab, w.biased - 1u);
        }
        disown_tail(ctx, ts, slab, w, record.aux);
        break;
      }
      case Op::FreeLocal: {
        OwnerWord w = owner_word(mem, slab);
        if (w.biased == 0) {
            // The free emptied the slab and recycled it (push_unsized's
            // owner-word store landed). A trim that went on to push it
            // global logs its own record first, but a host crash inside
            // that trim's flush_desc can leave its owner-word store durable
            // without the record (the descriptor is written back first):
            // finish on the unsized list.
            if (w.owner != mem.tid() || w.state != SlabState::TlUnsized) {
                acquire_to_unsized(ctx, slab);
            }
            trim_unsized(ctx, ts);
            break;
        }
        CountWord count = count_word(mem, slab);
        bitset_flip(mem, slab, record.aux,
                    mem.load<std::uint64_t>(bitset_word_at(slab, record.aux)),
                    /*set=*/true, count);
        free_local_tail(ctx, ts, slab, w,
                        resync_count(mem, slab, w.biased - 1u));
        break;
      }
      case Op::FreeRemote: {
        if (!dcas_->did_succeed(mem, hwcc(slab), record.version)) {
            // The decrement never landed; the block is still marked
            // allocated. Complete the free now.
            free_remote(ctx, ts, slab, record.aux + 1u);
            break;
        }
        std::uint64_t word = mem.atomic_load64(hwcc(slab));
        if (DcasWord::tid(word) == mem.tid() &&
            DcasWord::version(word) == record.version &&
            DcasWord::value(word) == 0) {
            // Our decrement was the last one: we are the stealer. Finish
            // the steal unless the slab is on our unsized list. The owner
            // field cannot tell: an interrupted acquire (or trim pop) may
            // already have made it ours while it sits on no list.
            if (!on_unsized_list(mem, slab)) {
                acquire_to_unsized(ctx, slab);
                trim_unsized(ctx, ts);
            }
        }
        break;
      }
      case Op::FreeRemoteBatch:
        // Before any redo, reconcile_ring put the round's non-landed
        // operands back into their pending line and finished the steals its
        // landed ones owed; the drain after recovery lands the rest.
        break;
      case Op::FreeDeferred: {
        const std::uint32_t i = record.aux >> 8;
        CXL_ASSERT(i < lines_, "FreeDeferred names no pending line");
        PendingList line = load_line(mem, mem.tid(), i);
        const std::uint32_t size = record.aux & 0xffu;
        if (line.size() < size) {
            // The append never happened: redo it.
            line.add(slab, size - line.size());
            store_line(mem, i, line);
        }
        break;
      }
      case Op::PushGlobal: {
        // A slab still on the rebuilt unsized list never left it (the pop
        // or its owner-word store never happened); a landed CAS finished
        // the push.
        if (on_unsized_list(mem, slab) ||
            dcas_->did_succeed(mem, free_word_, record.version)) {
            break;
        }
        // Popped but never published: take it back, as the PopGlobal and
        // Extend redos do, and the trim pushes it again under a record of
        // its own, whose version its CAS carries.
        acquire_to_unsized(ctx, slab);
        trim_unsized(ctx, ts);
        break;
      }
      default:
        CXL_PANIC("slab heap asked to recover a non-slab operation");
    }
}

void
SlabHeap::rebuild_lists(cxl::MemSession& mem)
{
    const cxl::ThreadId tid = mem.tid();
    // List c < num_classes_ is class c's sized list; list num_classes_ is
    // the unsized list. Raw (index + 1) heads and tails.
    std::vector<std::uint32_t> head(num_classes_ + 1);
    std::vector<std::uint32_t> tail(num_classes_ + 1);
    std::uint32_t unsized = 0;
    const std::uint32_t len = length(mem);
    for (std::uint32_t slab = 0; slab < len; slab++) {
        // Owner and state in one load: a stealer of a slab that was ours
        // writes the owner before the state, so it never reads as ours.
        OwnerWord w = owner_word(mem, slab);
        if ((w.state != SlabState::TlUnsized &&
             w.state != SlabState::TlSized) ||
            w.owner != tid) {
            continue;
        }
        std::uint32_t list;
        if (w.state == SlabState::TlUnsized) {
            list = num_classes_;
            unsized++;
        } else if (w.biased != 0 && w.biased <= num_classes_) {
            list = w.biased - 1u;
            set_prev_raw(mem, slab, tail[list]); // the head's is set below
        } else {
            continue; // classless TlSized: the FreeLocal redo finishes it
        }
        set_next_raw(mem, slab, 0);
        if (tail[list] == 0) {
            head[list] = slab + 1;
        } else {
            set_next_raw(mem, tail[list] - 1, slab + 1);
        }
        tail[list] = slab + 1;
    }
    mem.store<std::uint32_t>(unsized_head_off(tid), head[num_classes_]);
    mem.store<std::uint32_t>(unsized_count_off(tid), unsized);
    for (std::uint32_t cls = 0; cls < num_classes_; cls++) {
        mem.store<std::uint32_t>(sized_head_off(tid, cls), head[cls]);
        if (head[cls] != 0) {
            set_prev_raw(mem, head[cls] - 1, tail[cls]);
        }
    }
}

// --------------------------------------------------------------- invariants

void
SlabHeap::audit(cxl::MemSession& mem, cxl::DeviceId shard,
                AuditReport& report)
{
    AuditHeap heap = large_ ? AuditHeap::Large : AuditHeap::Small;
    auto violate = [&](std::uint32_t slab, AuditLaw law, const char* what,
                       std::uint64_t expected, std::uint64_t actual) {
        report.violations.push_back(
            {shard, heap, slab, law, what, expected, actual});
    };
    const std::uint32_t len = length(mem);
    // The lists holding each slab, and the last walk that reached it: a
    // walk that reaches a slab twice has looped, and counts it once.
    std::vector<std::uint32_t> homes(len);
    std::vector<std::uint32_t> walk_of(len);
    std::uint32_t walks = 0;
    // Walks the list from raw head @p head, whose slabs carry owner word
    // @p want; a sized list's slabs also hold a free block and name their
    // predecessor in prev (the head, the tail). Returns the list's length.
    auto walk = [&](std::uint32_t head, AuditLaw law, OwnerWord want) {
        const bool sized = want.state == SlabState::TlSized;
        std::uint32_t slabs = 0;
        std::uint32_t pred = 0;
        walks++;
        for (std::uint32_t raw = head; raw != 0; slabs++) {
            const std::uint32_t slab = raw - 1;
            if (slab >= len) {
                violate(slab, law, "listed slab < heap length", len, slab);
                break;
            }
            if (walk_of[slab] == walks) {
                violate(slab, law, "visits of a slab in one list", 1, 2);
                break;
            }
            walk_of[slab] = walks;
            homes[slab]++;
            mem.flush(desc(slab), desc_stride_);
            OwnerWord w = owner_word(mem, slab);
            if (w.owner != want.owner) {
                violate(slab, law, "listed slab owner", want.owner, w.owner);
            }
            if (w.state != want.state) {
                violate(slab, law, "listed slab state",
                        static_cast<std::uint64_t>(want.state),
                        static_cast<std::uint64_t>(w.state));
            }
            if (w.biased != want.biased) {
                violate(slab, law, "listed slab class + 1", want.biased,
                        w.biased);
            }
            if (sized && count_word(mem, slab).free == 0) {
                violate(slab, law, "free blocks of a sized slab > 0", 1, 0);
            }
            if (sized && raw != head && prev_raw(mem, slab) != pred) {
                violate(slab, law, "sized prev names its predecessor", pred,
                        prev_raw(mem, slab));
            }
            pred = raw;
            raw = next_raw(mem, slab);
        }
        if (sized && pred != 0 && prev_raw(mem, head - 1) != pred) {
            violate(head - 1, law, "sized head names its tail", pred,
                    prev_raw(mem, head - 1));
        }
        return slabs;
    };
    walk(DcasWord::value(mem.atomic_load64(free_word_)), AuditLaw::GlobalList,
         OwnerWord{cxl::kNoThread, 0, SlabState::Global});
    for (cxl::ThreadId tid = 0; tid <= cxl::kMaxThreads; tid++) {
        mem.flush(local_row(tid), Layout::kLocalStride);
        const auto head = mem.load<std::uint32_t>(unsized_head_off(tid));
        const auto count = mem.load<std::uint32_t>(unsized_count_off(tid));
        const std::uint32_t slabs = walk(
            head, AuditLaw::LocalList, OwnerWord{tid, 0, SlabState::TlUnsized});
        if (count != slabs) { // named after the head, ~0 when empty
            violate(head - 1, AuditLaw::LocalList, "unsized count", slabs,
                    count);
        }
        for (std::uint32_t cls = 0; cls < num_classes_; cls++) {
            walk(mem.load<std::uint32_t>(sized_head_off(tid, cls)),
                 AuditLaw::LocalList,
                 OwnerWord{tid, static_cast<std::uint8_t>(cls + 1),
                           SlabState::TlSized});
        }
    }
    // Every thread's pending frees, per slab: decrements accepted but not
    // yet landed on the counter. A slab has at most one entry in a
    // thread's row (row_of[slab]: the last row that held one).
    std::vector<std::uint32_t> pending(len);
    std::vector<std::uint32_t> row_of(len, ~std::uint32_t{0});
    for (cxl::ThreadId tid = 0; tid <= cxl::kMaxThreads; tid++) {
        mem.flush(pending_line(tid), lines_ * sizeof(PendingList));
        for (std::uint32_t line = 0; line < lines_; line++) {
            PendingList list = load_line(mem, tid, line);
            for (std::uint32_t i = 0; i < list.n && i < PendingList::kSlots;
                 i++) {
                std::uint32_t slab = list.slab(i);
                if (slab >= len) {
                    violate(slab, AuditLaw::RemoteBalance,
                            "pending slab < heap length", len, slab);
                    continue;
                }
                if (row_of[slab] == tid) {
                    violate(slab, AuditLaw::PendingEntry,
                            "pending entries of a slab in one thread's row",
                            1, 2);
                }
                row_of[slab] = tid;
                pending[slab] += list.count(i);
                report.pending_frees += list.count(i);
            }
            if ((list.stamp & PendingList::kStampOut) == 0) {
                continue;
            }
            // A round out of this line: the decrements its operands did
            // not land are still pending (its finish, or recovery, puts
            // them back). The thread's ring holds exactly that round.
            cxl::NmpSlotView views[cxl::kNmpRingSlots];
            std::uint32_t live =
                mem.nmp()->ring_snapshot(tid, views, cxl::kNmpRingSlots);
            for (std::uint32_t i = 0; i < live; i++) {
                const cxl::NmpSlotView& v = views[i];
                if (v.op.target < hwcc_base_ ||
                    (v.op.target - hwcc_base_) / 8 >= len ||
                    (v.state == cxl::NmpSlotState::Executed &&
                     v.result.success)) {
                    continue;
                }
                std::uint32_t k = DcasWord::value(v.op.expected) -
                                  DcasWord::value(v.op.swap);
                pending[(v.op.target - hwcc_base_) / 8] += k;
                report.pending_frees += k;
            }
        }
    }
    // Classless (unsized, global) slabs keep stale bitsets by design.
    for (std::uint32_t slab = 0; slab < len; slab++) {
        mem.flush(desc(slab), desc_stride_);
        OwnerWord w = owner_word(mem, slab);
        const std::uint32_t listed = w.state == SlabState::Global ||
                                     w.state == SlabState::TlUnsized ||
                                     w.state == SlabState::TlSized;
        if (homes[slab] != listed) {
            violate(slab, AuditLaw::SlabHome, "lists holding the slab",
                    listed, homes[slab]);
        }
        if (w.biased == 0) {
            if (pending[slab] != 0) {
                violate(slab, AuditLaw::RemoteBalance,
                        "pending frees of a classless slab", 0,
                        pending[slab]);
            }
            continue;
        }
        std::uint32_t free = count_word(mem, slab).free;
        std::uint32_t bits = bitset_count(mem, slab, w.biased - 1u);
        if (free != bits) {
            violate(slab, AuditLaw::FreeCounter,
                    "free counter == bitset popcount", bits, free);
        }
        // The counter holds the owner's pin until a disown frees it.
        std::uint32_t remote = dcas_->read(mem, hwcc(slab));
        std::uint32_t held = free + pending[slab] + pin_of(w);
        if (remote < held) {
            violate(slab, AuditLaw::RemoteBalance,
                    "remote-free counter - pin - pending >= free counter",
                    held, remote);
        } else {
            report.live_blocks += remote - held;
        }
    }
}

void
SlabHeap::set_metrics(obs::MetricsRegistry* registry)
{
    inst_ = Instruments{};
    inst_.registry = registry;
    if (registry == nullptr) {
        return;
    }
    inst_.fullcheck_fast = registry->counter("alloc.fullcheck_fast");
    inst_.scavenges = registry->counter("alloc.scavenges");
    inst_.drain_rounds = registry->counter("alloc.drain_rounds");
    inst_.drain_blocks = registry->counter("alloc.drain_blocks");
}

std::uint32_t
SlabHeap::debug_free_blocks(cxl::MemSession& mem, std::uint32_t slab)
{
    return count_word(mem, slab).free;
}

std::uint32_t
SlabHeap::debug_bitset_count(cxl::MemSession& mem, std::uint32_t slab)
{
    std::uint8_t biased = owner_word(mem, slab).biased;
    CXL_ASSERT(biased != 0, "bitset count of classless slab");
    return bitset_count(mem, slab, biased - 1);
}

std::uint8_t
SlabHeap::debug_class_biased(cxl::MemSession& mem, std::uint32_t slab)
{
    return owner_word(mem, slab).biased;
}

std::uint32_t
SlabHeap::debug_remote_free(cxl::MemSession& mem, std::uint32_t slab)
{
    std::uint32_t remote = dcas_->read(mem, hwcc(slab));
    return remote - std::min(remote, pin_of(owner_word(mem, slab)));
}

cxl::ThreadId
SlabHeap::debug_owner(cxl::MemSession& mem, std::uint32_t slab)
{
    return owner_word(mem, slab).owner;
}

SlabHeap::Stats
SlabHeap::stats(cxl::MemSession& mem)
{
    Stats s;
    s.length = length(mem);
    s.data_bytes = static_cast<std::uint64_t>(s.length) * slab_size_;
    std::uint32_t raw = DcasWord::value(mem.atomic_load64(free_word_));
    std::uint32_t steps = 0;
    while (raw != 0 && steps <= num_slabs_) {
        steps++;
        raw = next_raw(mem, raw - 1);
    }
    s.global_free = steps;
    return s;
}

} // namespace cxlalloc
