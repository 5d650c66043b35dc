/// @file
/// Deterministic schedule explorer (loom/shuttle-style model checking for
/// the simulator's concurrency protocols).
///
/// A test hands the Explorer a *schedule factory*: a callback that builds a
/// fresh world (pod + allocator + whatever), spawns N virtual threads, and
/// registers protocol oracles. The explorer runs the factory once per
/// schedule. Virtual threads execute on real std::threads but strictly one
/// at a time: every sched::hook() yield point woven through MemSession,
/// the cache model, the NMP engine, DetectableCas, HazardOffsets and the
/// crash points hands control to the scheduler, which picks the next
/// runnable thread under the configured strategy:
///
///  - Random: seeded uniform random walk over runnable threads;
///  - Pct: probabilistic concurrency testing — random thread priorities
///    with depth-1 random priority-change points, good at surfacing
///    ordering bugs that need a rare preemption;
///  - Dfs: bounded exhaustive depth-first enumeration of every
///    interleaving (small tests only);
///  - Replay: follow a recorded trace exactly.
///
/// Crash injection composes with exploration: with Options::crash set, the
/// explorer kills one killable virtual thread at a randomly chosen yield
/// point (any instrumented operation, not just named crash points) by
/// throwing VthreadKilled out of the hook. The test body catches it,
/// marks the pod slot crashed, and an at_end oracle recovers and checks.
///
/// Every schedule is deterministic given (seed, schedule index): on an
/// oracle violation the explorer reports the seed, the decision trace and
/// the kill point, and Explorer::replay() reproduces the identical
/// schedule and verdict bit for bit.

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sched/hook.h"

namespace sched {

/// Thrown out of a yield point to kill the calling virtual thread at an
/// arbitrary instrumented operation. Test bodies catch it to simulate the
/// thread's death (e.g. pod::Pod::mark_crashed); everything the dead
/// thread left behind — unflushed cache lines, staged operands, the open
/// recovery record — stays exactly as it was.
struct VthreadKilled {};

/// Thrown by protocol oracles (and test bodies) to fail the current
/// schedule. The explorer records the failure with its replay trace.
class OracleFailure : public std::runtime_error {
  public:
    using std::runtime_error::runtime_error;
};

/// End-oracle helper: fails the schedule with @p report's text unless it
/// is ok (a heap audit, cxlalloc::AuditReport, from a layer above this).
template <typename Report>
void
fail_unless_ok(const Report& report)
{
    if (!report.ok()) {
        throw OracleFailure(report.to_string());
    }
}

/// Internal: thrown through parked virtual threads to unwind them when a
/// schedule ends early (violation, kill cleanup, step bound). Test bodies
/// must not catch it (catch VthreadKilled / OracleFailure specifically).
struct RunAborted {};

enum class Strategy : std::uint8_t { Random, Pct, Dfs, Replay };

inline constexpr std::uint32_t kNoVthread = ~std::uint32_t{0};

struct Options {
    Strategy strategy = Strategy::Random;
    /// Master seed; every schedule derives its own stream from it.
    std::uint64_t seed = 1;
    /// Schedule budget (Random/Pct: exactly this many; Dfs: upper bound).
    std::uint32_t schedules = 256;
    /// Yield-point bound per schedule; exceeding it truncates the schedule
    /// (counted in Result::truncated, not a failure: a livelock guard).
    std::uint64_t max_steps = 200'000;
    /// PCT: number of priority-change points + 1 (the classic "depth d
    /// finds bugs needing d-1 preemptions" parameter).
    std::uint32_t pct_depth = 3;
    /// Dfs: decisions beyond this depth stop branching (run thread 0) so
    /// the search space stays bounded for loops of unknown length.
    std::uint32_t dfs_max_depth = 4'000;
    /// Kill one killable vthread at a random yield each schedule
    /// (Random/Pct only). The kill step is drawn from [1, horizon], where
    /// the horizon adapts to the longest observed thread, so a fraction of
    /// schedules naturally completes un-killed.
    bool crash = false;
    std::uint32_t crash_horizon = 64;
};

/// Everything needed to reproduce one schedule exactly.
struct Failure {
    std::string message;
    std::uint64_t schedule_index = 0;
    std::uint64_t seed = 0; ///< master seed of the run that found it
    /// Chosen vthread index at every scheduling decision.
    std::vector<std::uint32_t> trace;
    std::uint32_t kill_vthread = kNoVthread;
    std::uint64_t kill_yield = 0;
};

struct Result {
    bool ok = true;
    std::uint64_t schedules_run = 0;
    std::uint64_t total_steps = 0;
    /// Schedules cut short by max_steps (world left mid-op; end oracles
    /// skipped).
    std::uint64_t truncated = 0;
    /// Schedules in which a vthread was actually killed.
    std::uint64_t kills = 0;
    /// Dfs only: the whole bounded interleaving space was enumerated.
    bool exhausted = false;
    /// Order-sensitive hash of every decision trace + kill plan: two runs
    /// are bit-for-bit identical iff their fingerprints match.
    std::uint64_t fingerprint = 0;
    std::optional<Failure> failure;

    /// Human-readable verdict incl. seed/trace replay line on failure.
    std::string summary() const;
};

/// Outcome facts handed to at_end oracles.
struct RunEnd {
    std::uint32_t killed = kNoVthread; ///< vthread index, or kNoVthread
    std::uint64_t kill_yield = 0;
};

using EventOracle = std::function<void(std::uint32_t vthread, const Event&)>;
using EndOracle = std::function<void(const RunEnd&)>;

/// Per-schedule setup surface handed to the schedule factory. Keep the
/// world alive by capturing a shared_ptr to it in every closure; the
/// explorer drops the closures (and thus the world) after each schedule.
class Run {
  public:
    /// Registers a virtual thread. Bodies run to completion under the
    /// cooperative scheduler; only @p killable threads are eligible for
    /// crash injection.
    void
    spawn(std::string name, std::function<void()> body, bool killable = false)
    {
        spawns_.push_back(Spawn{std::move(name), std::move(body), killable});
    }

    /// Registers an oracle invoked at every yield point of every vthread
    /// (before the scheduling decision). Throw OracleFailure to fail the
    /// schedule; hooks are suppressed inside, so oracles may inspect
    /// shared memory freely.
    void
    on_event(EventOracle oracle)
    {
        event_oracles_.push_back(std::move(oracle));
    }

    /// Registers an oracle invoked after all vthreads finished (skipped
    /// for truncated or already-failed schedules).
    void
    at_end(EndOracle oracle)
    {
        end_oracles_.push_back(std::move(oracle));
    }

    struct Spawn {
        std::string name;
        std::function<void()> body;
        bool killable;
    };

    // Internal: read by the explorer's engine; tests use the methods above.
    std::vector<Spawn> spawns_;
    std::vector<EventOracle> event_oracles_;
    std::vector<EndOracle> end_oracles_;
};

class Explorer {
  public:
    explicit Explorer(const Options& options) : options_(options) {}

    /// Explores schedules of @p factory until the budget is spent, the
    /// space is exhausted (Dfs) or an oracle fails.
    Result run(const std::function<void(Run&)>& factory);

    /// Re-executes exactly one recorded schedule (trace + kill plan) and
    /// returns its verdict. Used to reproduce failures and to prove
    /// replay determinism.
    Result replay(const Failure& failure,
                  const std::function<void(Run&)>& factory);

  private:
    Options options_;
};

/// "3,1,2,2,…" — the trace format printed in Result::summary().
std::string format_trace(const std::vector<std::uint32_t>& trace);

} // namespace sched
