/// @file
/// Yield-point instrumentation for the deterministic schedule explorer.
///
/// Every shared-memory touchpoint in the simulator (MemSession loads,
/// stores, flushes, fences, CAS/mCAS phases, crash points, hazard and
/// detectable-CAS protocol steps) calls sched::hook() with an operation
/// kind and the affected device offset. When no explorer is active the
/// call costs a single predicted branch on a thread-local pointer, so
/// production paths and benchmarks are unaffected. When a sched::Explorer
/// is driving the calling thread, the hook becomes a cooperative yield
/// point: the scheduler may switch virtual threads, kill the caller
/// (throwing VthreadKilled), or feed the event to protocol oracles.
///
/// This header sits below src/cxl in the layer stack: it depends on
/// nothing, and src/cxl, src/sync, src/pod and src/cxlalloc all weave it
/// into their shared-memory operations.

#pragma once

#include <cstdint>

namespace sched {

/// Classification of an instrumented operation. Oracles key off these;
/// the scheduler treats every kind as a potential preemption point.
enum class Op : std::uint8_t {
    Load,         ///< word load (addr, len)
    Store,        ///< word store (addr, len)
    ReadBytes,    ///< bulk SWcc read (addr, len)
    WriteBytes,   ///< bulk SWcc write (addr, len)
    Flush,        ///< cacheline write-back + invalidate (addr, len)
    FlushDirty,   ///< dirty-only flush requested (addr, len): the Flush
                  ///< events that follow are the lines actually written
    Fence,        ///< store fence
    Cas,          ///< 64-bit CAS on the sync region (addr, desired word)
    AtomicLoad,   ///< coherent 64-bit load (addr)
    AtomicStore,  ///< coherent 64-bit store (addr, value)
    McasPost,     ///< operand staged into the NMP ring (target addr)
    McasDoorbell, ///< doorbell rung (aux = operands executed)
    McasPoll,     ///< completion harvested
    CrashPoint,   ///< ThreadContext::maybe_crash site (aux = point id)
    DcasTry,      ///< detectable-CAS attempt begins (addr, desired value)
    DcasHelp,     ///< displaced owner's success recorded (aux = tid)
    HazardPublish, ///< hazard offset published (aux = offset)
    HazardRemove,  ///< hazard offset cleared (aux = offset)
    HazardScan,    ///< one slot inspected during a reclamation scan (addr)
};

/// One instrumented event. `addr` is a device offset where meaningful;
/// `aux` carries a kind-specific payload (length, value, id — see Op).
struct Event {
    Op op;
    std::uint64_t addr;
    std::uint64_t aux;
};

/// Receiver installed by the explorer for threads it drives.
class Listener {
  public:
    virtual ~Listener() = default;
    virtual void on_event(const Event& event) = 0;
};

/// Active listener of the calling thread; null (the default everywhere)
/// means hooks are no-ops. constinit: a plain TLS access, no init wrapper.
extern constinit thread_local Listener* t_listener;

/// Instrumentation point. The listener is cleared around the dispatch so
/// that memory operations issued *by* the scheduler or an oracle (state
/// inspection, crash cleanup) never re-enter the scheduler; if on_event
/// throws (kill or abort), the listener stays cleared so the unwinding
/// code — destructors, crash handlers — runs straight through without
/// further yields.
inline void
hook(Op op, std::uint64_t addr = 0, std::uint64_t aux = 0)
{
    Listener* listener = t_listener;
    if (listener != nullptr) [[unlikely]] {
        t_listener = nullptr;
        listener->on_event(Event{op, addr, aux});
        t_listener = listener;
    }
}

} // namespace sched
