/// @file
/// Detectable CAS (paper §3.4.2, after Attiya et al. [10]).
///
/// A recovering thread must be able to ask: "did the CAS I was executing
/// when I crashed take effect?" Plain CAS cannot answer this — the value
/// may have been overwritten since. Detectable CAS embeds a (thread id,
/// version) tag in each CAS target word and maintains a global help array:
/// before any thread displaces a tagged word, it records the displaced tag
/// in the help array. A CAS by thread t with version v therefore succeeded
/// iff the word still carries (t, v) or help[t] has advanced to >= v.
/// Words no recovery asks about may skip the help record (stage_word); a
/// thread whose tags nobody records keeps its own entry fresh with
/// record_landed().
///
/// Word format (64 bits, as in the paper — CAS targets are at most 32 bits,
/// widened to 8 B of HWcc memory per slab):
///     [ value:32 | tid:16 | version:16 ]
/// A zero word decodes as value 0 with no owner, so zero-filled memory is a
/// valid initial state.

#pragma once

#include <cstdint>

#include "cxl/mem_ops.h"
#include "cxl/types.h"

namespace cxlsync {

/// Packing helpers for detectable-CAS words.
struct DcasWord {
    static std::uint64_t
    pack(std::uint32_t value, cxl::ThreadId tid, std::uint16_t version)
    {
        return (static_cast<std::uint64_t>(value) << 32) |
               (static_cast<std::uint64_t>(tid) << 16) | version;
    }

    static std::uint32_t value(std::uint64_t word)
    {
        return static_cast<std::uint32_t>(word >> 32);
    }

    static cxl::ThreadId tid(std::uint64_t word)
    {
        return static_cast<cxl::ThreadId>((word >> 16) & 0xffff);
    }

    static std::uint16_t version(std::uint64_t word)
    {
        return static_cast<std::uint16_t>(word & 0xffff);
    }
};

/// Versions are 15-bit circular counters (the allocator's 8-byte recovery
/// record budgets 15 bits for the version field; see cxlalloc/recovery.h).
inline constexpr std::uint16_t kVersionBits = 15;
inline constexpr std::uint16_t kVersionMask = (1u << kVersionBits) - 1;

/// Wrap-aware version comparison over the 15-bit circular space; only the
/// in-flight window matters.
inline bool
version_geq(std::uint16_t a, std::uint16_t b)
{
    std::uint16_t diff = (a - b) & kVersionMask;
    return diff < (1u << (kVersionBits - 1));
}

/// Detectable CAS over words in the HWcc (or device-biased) region.
class DetectableCas {
  public:
    /// @param help_base  offset of the help array: (kMaxThreads + 1) 64-bit
    ///                   words in HWcc memory; entry t holds the highest
    ///                   version of thread t observed displaced.
    /// @param detectable when false (the cxlalloc-nonrecoverable ablation)
    ///                   help recording is skipped and recovery queries are
    ///                   unsupported.
    explicit DetectableCas(cxl::HeapOffset help_base, bool detectable = true)
        : help_base_(help_base), detectable_(detectable)
    {
    }

    struct Result {
        bool success;
        /// Value observed in the word (on failure, the fresh value).
        std::uint32_t observed;
    };

    /// One detectable CAS attempt of @p expected -> @p desired on the
    /// 32-bit value stored at @p word_offset, tagged with the caller's
    /// identity and @p version. Callers retry on failure.
    Result try_cas(cxl::MemSession& mem, cxl::HeapOffset word_offset,
                   std::uint32_t expected, std::uint32_t desired,
                   std::uint16_t version);

    /// try_cas against a whole tagged word from read_word(): fails when any
    /// CAS landed since that read, even one that restored the same value.
    /// Lock-free structures whose nodes are freed and reallocated use it to
    /// rule out ABA; a caller that already holds the word also saves
    /// try_cas's reload (one uncached read under NoHwcc).
    Result try_cas_word(cxl::MemSession& mem, cxl::HeapOffset word_offset,
                        std::uint64_t expected_word, std::uint32_t desired,
                        std::uint16_t version);

    /// The operand of a batched CAS: swaps @p expected_word (from
    /// read_word() or the caller's own prediction) for the caller's tagged
    /// @p desired, like try_cas_word, for MemSession::mcas_post. It records
    /// no help for the tag it displaces, so use it only on words no
    /// recovery asks did_succeed() about (the NoHwcc drain's slab
    /// counters, see SlabHeap::launch_round).
    cxl::McasOperand
    stage_word(const cxl::MemSession& mem, cxl::HeapOffset word_offset,
               std::uint64_t expected_word, std::uint32_t desired,
               std::uint16_t version) const
    {
        return cxl::McasOperand{
            .target = word_offset,
            .expected = expected_word,
            .swap = DcasWord::pack(desired, mem.tid(), version)};
    }

    /// Records that the calling thread's CAS tagged @p version landed. A
    /// thread whose CASes no displacer records (stage_word operands) calls
    /// it to keep its own help entry inside did_succeed()'s window: an
    /// entry 2^14 versions behind the thread reads as "landed" for its
    /// next failed CAS. A thread leaving its slot records its newest
    /// version, landed or not (no recovery asks about it again), for the
    /// slot's next occupant to resume past (recorded_version()). @p version
    /// must have landed unless the thread is leaving, and no CAS of the
    /// thread's may still be in flight (the help CAS needs an empty ring).
    void record_landed(cxl::MemSession& mem, std::uint16_t version)
    {
        if (detectable_) {
            record_help(mem, mem.tid(), version);
        }
    }

    /// The newest version in the calling thread's help entry, or 0 when it
    /// holds none. A fresh occupant of a thread slot starts its versions
    /// past it: a tag its predecessor left on a word then never matches
    /// one of the occupant's CASes, and did_succeed() never calls one of
    /// them landed for the predecessor's sake.
    std::uint16_t recorded_version(cxl::MemSession& mem)
    {
        if (!detectable_) {
            return 0;
        }
        std::uint64_t help = mem.atomic_load64(help_entry(mem.tid()));
        return help == 0 ? 0 : static_cast<std::uint16_t>(help - 1);
    }

    /// Reads the 32-bit value currently stored at @p word_offset.
    std::uint32_t
    read(cxl::MemSession& mem, cxl::HeapOffset word_offset)
    {
        return DcasWord::value(read_word(mem, word_offset));
    }

    /// Reads the whole tagged word (value plus the tag of the CAS that
    /// wrote it), for try_cas_word.
    std::uint64_t
    read_word(cxl::MemSession& mem, cxl::HeapOffset word_offset)
    {
        return mem.atomic_load64(word_offset);
    }

    /// Recovery query: did thread @p mem.tid()'s CAS tagged @p version on
    /// @p word_offset take effect?
    bool did_succeed(cxl::MemSession& mem, cxl::HeapOffset word_offset,
                     std::uint16_t version);

    bool detectable() const { return detectable_; }

  private:
    /// The CAS step shared by try_cas and try_cas_word: publishes the
    /// displaced owner's success, then swaps @p expected_word for the
    /// caller's tagged @p desired.
    Result cas_word(cxl::MemSession& mem, cxl::HeapOffset word_offset,
                    std::uint64_t expected_word, std::uint32_t desired,
                    std::uint16_t version);

    /// Records that @p tid's CAS tagged @p version is known to have
    /// succeeded (its tag was observed in a word).
    void record_help(cxl::MemSession& mem, cxl::ThreadId tid,
                     std::uint16_t version);

    cxl::HeapOffset help_entry(cxl::ThreadId tid) const
    {
        return help_base_ + static_cast<cxl::HeapOffset>(tid) * 8;
    }

    cxl::HeapOffset help_base_;
    bool detectable_;
};

} // namespace cxlsync
