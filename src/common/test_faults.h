/// @file
/// Test-only fault switches: deliberately-broken protocol variants.
///
/// Each flag disables exactly one step of a proven-necessary protocol
/// (e.g. the flush that orders a descriptor's payload before its
/// publication). They exist so the schedule explorer's oracles can be
/// shown to have teeth: tests/sched flips a flag, explores, and asserts
/// the oracle catches the violation within the CI budget. All flags
/// default to off and nothing outside tests may set them; they are plain
/// bools (not atomics) because explored schedules are fully serialized
/// and real-thread tests never touch them.

#pragma once

namespace cxlcommon::test_faults {

/// SlabHeap::push_global_one: skip the descriptor flush before the CAS
/// that publishes the slab onto the global free list (paper §3.2 case
/// "free slab publication"). Under a Host-severity crash the consumer can
/// then pop a descriptor whose payload never reached the device.
extern bool skip_swcc_publish_flush;

/// HazardOffsets::try_publish: skip the flush + fence after writing the
/// hazard slot. A reclaimer's scan can then miss the publication and
/// reclaim the block while the reader still dereferences it.
extern bool skip_hazard_publish_flush;

/// RecoveryLog::log: defer the record's flush + fence as if the op were a
/// local one (the deferred-record discipline applied where it is NOT
/// sound — before a detectable CAS). The RecordFlushOracle must catch the
/// dirty record row at the DcasTry hook.
extern bool skip_record_publish_flush;

/// MemSession::note_dirty: drop dirty-line bookkeeping, modeling an
/// undertracking bug — flush_dirty() then misses genuinely dirty lines
/// and the flush-before-publish oracle / litmus suite must catch the
/// stale publication.
extern bool skip_dirty_line_tracking;

/// SlabHeap::full_transition: a detach frees the owner's pin at once (as
/// one remote free of its own) while it still holds the descriptor's
/// lines dirty, so the slab's last remote free can steal it from under
/// its owner. The zero-counter oracle in tests/sched/test_sched_pin.cc
/// must catch it.
extern bool free_pin_at_detach;

/// Restores every flag to its default (off); tests call this from their
/// fixture teardown so a failing test cannot poison its neighbours.
void reset();

} // namespace cxlcommon::test_faults
