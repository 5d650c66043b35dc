#include "sync/detectable_cas.h"

#include "common/assert.h"
#include "sched/hook.h"

namespace cxlsync {

DetectableCas::Result
DetectableCas::try_cas(cxl::MemSession& mem, cxl::HeapOffset word_offset,
                       std::uint32_t expected, std::uint32_t desired,
                       std::uint16_t version)
{
    sched::hook(sched::Op::DcasTry, word_offset, desired);
    std::uint64_t current = mem.atomic_load64(word_offset);
    if (DcasWord::value(current) != expected) {
        return Result{false, DcasWord::value(current)};
    }
    return cas_word(mem, word_offset, current, desired, version);
}

DetectableCas::Result
DetectableCas::try_cas_word(cxl::MemSession& mem,
                            cxl::HeapOffset word_offset,
                            std::uint64_t expected_word,
                            std::uint32_t desired, std::uint16_t version)
{
    sched::hook(sched::Op::DcasTry, word_offset, desired);
    return cas_word(mem, word_offset, expected_word, desired, version);
}

DetectableCas::Result
DetectableCas::cas_word(cxl::MemSession& mem, cxl::HeapOffset word_offset,
                        std::uint64_t expected_word, std::uint32_t desired,
                        std::uint16_t version)
{
    // Before displacing a tagged word, publish the displaced owner's success
    // so its recovery can detect it even after the word moves on.
    if (detectable_ && DcasWord::tid(expected_word) != cxl::kNoThread) {
        record_help(mem, DcasWord::tid(expected_word),
                    DcasWord::version(expected_word));
    }
    std::uint64_t desired_word =
        DcasWord::pack(desired, mem.tid(), version);
    std::uint64_t seen = expected_word;
    if (mem.cas64(word_offset, seen, desired_word)) {
        return Result{true, DcasWord::value(expected_word)};
    }
    return Result{false, DcasWord::value(seen)};
}

bool
DetectableCas::did_succeed(cxl::MemSession& mem,
                           cxl::HeapOffset word_offset, std::uint16_t version)
{
    CXL_ASSERT(detectable_, "recovery query on nonrecoverable DetectableCas");
    std::uint64_t current = mem.atomic_load64(word_offset);
    if (DcasWord::tid(current) == mem.tid() &&
        DcasWord::version(current) == version) {
        return true;
    }
    std::uint64_t help = mem.atomic_load64(help_entry(mem.tid()));
    // Help entries store (version + 1) so that a zero entry means "nothing
    // recorded" even for version 0.
    if (help == 0) {
        return false;
    }
    return version_geq(static_cast<std::uint16_t>(help - 1), version);
}

void
DetectableCas::record_help(cxl::MemSession& mem, cxl::ThreadId tid,
                           std::uint16_t version)
{
    sched::hook(sched::Op::DcasHelp, help_entry(tid), tid);
    cxl::HeapOffset entry = help_entry(tid);
    std::uint64_t biased = static_cast<std::uint64_t>(version) + 1;
    std::uint64_t current = mem.atomic_load64(entry);
    while (true) {
        if (current != 0 &&
            version_geq(static_cast<std::uint16_t>(current - 1), version)) {
            return; // already recorded (or newer)
        }
        if (mem.cas64(entry, current, biased)) {
            return;
        }
        // current reloaded by cas64 on failure; loop.
    }
}

} // namespace cxlsync
