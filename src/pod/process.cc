#include "pod/process.h"

#include <algorithm>

#include "common/assert.h"
#include "pod/pod.h"

namespace pod {

namespace {

/// Re-entrancy latch: the resolver inspects heap metadata through sessions
/// whose guard is this process; faults taken while handling a fault must not
/// recurse (the real signal handler runs with the signal masked).
thread_local bool in_fault_handler = false;

} // namespace

Process::Process(Pod* pod, std::uint32_t pid, bool checked,
                 std::uint16_t host)
    : pod_(pod), pid_(pid), checked_(checked), host_(host)
{
    std::uint64_t pages = pod->device().size() / cxl::kPageSize;
    page_bitmap_ = std::vector<std::atomic<std::uint64_t>>((pages + 63) / 64);
    for (auto& word : page_bitmap_) {
        word.store(0, std::memory_order_relaxed);
    }
}

void
Process::reserve(std::string name, cxl::HeapOffset start, std::uint64_t len)
{
    std::lock_guard<std::mutex> lock(reservation_mu_);
    for (const auto& r : reservations_) {
        bool overlap = start < r.start + r.len && r.start < start + len;
        CXL_FATAL_IF(overlap,
                     "virtual address space reservation overlap (PC-S "
                     "violation)");
    }
    reservations_.push_back(Reservation{std::move(name), start, len});
}

void
Process::install_mapping(cxl::HeapOffset start, std::uint64_t len)
{
    CXL_ASSERT(start + len <= pod_->device().size(), "mapping past device");
    std::uint64_t first = start / cxl::kPageSize;
    std::uint64_t last = (start + len + cxl::kPageSize - 1) / cxl::kPageSize;
    for (std::uint64_t page = first; page < last; page++) {
        auto& word = page_bitmap_[page / 64];
        std::uint64_t bit = std::uint64_t{1} << (page % 64);
        std::uint64_t prev = word.fetch_or(bit, std::memory_order_acq_rel);
        if (!(prev & bit)) {
            mapped_pages_.fetch_add(1, std::memory_order_relaxed);
        }
    }
    // Backing pages are committed on the device the first time any process
    // maps them (the PSS-analog accounting).
    pod_->device().note_committed(start, len);
}

void
Process::remove_mapping(cxl::HeapOffset start, std::uint64_t len)
{
    std::uint64_t first = start / cxl::kPageSize;
    std::uint64_t last = (start + len + cxl::kPageSize - 1) / cxl::kPageSize;
    for (std::uint64_t page = first; page < last; page++) {
        auto& word = page_bitmap_[page / 64];
        std::uint64_t bit = std::uint64_t{1} << (page % 64);
        std::uint64_t prev = word.fetch_and(~bit, std::memory_order_acq_rel);
        if (prev & bit) {
            mapped_pages_.fetch_sub(1, std::memory_order_relaxed);
        }
    }
    // Shoot down session TLBs: any translation cached before this point
    // may cover the removed pages.
    mapping_epoch_.fetch_add(1, std::memory_order_release);
}

bool
Process::is_mapped(cxl::HeapOffset offset) const
{
    std::uint64_t page = offset / cxl::kPageSize;
    std::uint64_t bit = std::uint64_t{1} << (page % 64);
    return page_bitmap_[page / 64].load(std::memory_order_acquire) & bit;
}

bool
Process::on_access(cxl::MemSession& mem, cxl::HeapOffset offset,
                   std::uint64_t len)
{
    if (!checked_ || in_fault_handler) {
        // Unverified: the caller must not cache this range. The fault
        // handler in particular reads metadata that may itself be
        // unmapped; waving it into a TLB would defeat PC-T.
        return false;
    }
    std::uint64_t first = offset / cxl::kPageSize;
    std::uint64_t last = (offset + len - 1) / cxl::kPageSize;
    for (std::uint64_t page = first; page <= last; page++) {
        cxl::HeapOffset page_offset = page * cxl::kPageSize;
        if (is_mapped(page_offset)) {
            continue;
        }
        // SIGSEGV: ask the handler whether this is lazily-mappable heap
        // memory or a genuine bug.
        CXL_FATAL_IF(resolver_ == nullptr,
                     "segfault: unmapped access with no handler installed");
        // The resolver gets the first byte the access touches in this page,
        // as a SIGSEGV's si_addr: a page can straddle two heap regions
        // (the small and large descriptor arrays are not page aligned), and
        // only the faulting byte says which one it hit.
        in_fault_handler = true;
        MappedRange range;
        bool handled = resolver_->resolve_fault(
            *this, mem, std::max(offset, page_offset), &range);
        in_fault_handler = false;
        CXL_FATAL_IF(!handled,
                     "segfault: access outside any heap mapping");
        CXL_ASSERT(range.start <= page_offset &&
                       page_offset < range.start + range.len,
                   "fault handler returned a range not covering the fault");
        install_mapping(range.start, range.len);
        faults_resolved_.fetch_add(1, std::memory_order_relaxed);
    }
    return true;
}

std::uint64_t
Process::mapped_bytes() const
{
    return mapped_pages_.load(std::memory_order_relaxed) * cxl::kPageSize;
}

} // namespace pod
