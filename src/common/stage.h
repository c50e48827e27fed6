#ifndef TENCENTREC_COMMON_STAGE_H_
#define TENCENTREC_COMMON_STAGE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include <sys/types.h>

namespace tencentrec {

/// Process-wide thread/stage registry — the attribution substrate for the
/// continuous profiling plane (DESIGN.md §13) and for external tools.
///
/// Every worker thread the system spawns (ParallelItemCf user/pair shards,
/// tstorm spouts and bolts — whose store bolts flush their combiners and
/// write-behind caches on their own threads — the monitor/watchdog/sampler/
/// admin threads) calls
/// RegisterStageThread("<stage>") as its first act. That one call:
///
///   1. interns the stage name and publishes it in a thread-local slot the
///      SIGPROF sampler reads async-signal-safely — CPU samples aggregate
///      per *stage*, not per anonymous tid;
///   2. records the thread in a fixed slot table so obs::Profiler can
///      create/destroy its per-thread CPU-time timer;
///   3. names the OS thread via pthread_setname_np (truncated to the
///      kernel's 15-char limit) so `top -H`, `perf` and TSan reports show
///      "cf-pair3", not a wall of "tencentrec".
///
/// Stage ids are small dense integers, never reused within a process, so
/// per-stage accounting can be a flat array indexed without hashing.
/// Stage 0 is reserved for "unregistered" — work on threads that never
/// registered (test mains, short-lived helpers) still lands somewhere
/// visible instead of vanishing.

/// Upper bound on distinct stage names; registration past it folds into
/// stage 0 ("unregistered") rather than failing.
inline constexpr uint16_t kMaxStages = 64;
/// Upper bound on concurrently registered threads (slots are reused after
/// a thread exits).
inline constexpr uint16_t kMaxStageThreads = 256;

/// Interns `name`, returning its stable stage id (0 if the table is full).
/// Idempotent per name; thread-safe.
uint16_t InternStage(std::string_view name);

/// The interned name for `stage_id` ("unregistered" for 0/out-of-range).
std::string_view StageName(uint16_t stage_id);

/// Registers the calling thread under `stage`: interns the name, claims a
/// thread slot, sets the OS thread name, and fires the lifecycle hook (the
/// profiler's cue to attach a CPU timer). Calling it again on the same
/// thread re-stages the thread (slot is updated in place, OS name is
/// rewritten). Returns the stage id.
uint16_t RegisterStageThread(std::string_view stage);

/// The calling thread's stage id (0 when never registered). Reads one
/// thread_local — async-signal-safe, callable from the SIGPROF handler.
uint16_t CurrentStage();

/// The calling thread's registry slot, -1 when not slotted. Same safety
/// contract as CurrentStage(); the profiler's handler uses it to find the
/// thread's sample ring without any lookup structure.
int CurrentStageSlot();

/// One live registered thread, as seen by VisitStageThreads.
struct StageThreadInfo {
  uint16_t slot = 0;      ///< index into the fixed slot table
  uint16_t stage = 0;     ///< interned stage id
  pid_t tid = 0;          ///< kernel thread id (gettid)
  pthread_t handle = 0;   ///< pthread handle, valid while registered
};

/// Visits every currently registered thread under the registry lock; the
/// visited thread cannot unregister (exit) mid-visit. Used by the profiler
/// to attach timers to threads registered before Start().
void VisitStageThreads(const std::function<void(const StageThreadInfo&)>& fn);

/// Lifecycle hook: `on_register` fires on the registering thread right
/// after its slot is published; `on_unregister` fires on the exiting thread
/// (thread_local destructor) right before the slot is released. Both run
/// under the registry lock, serialized against VisitStageThreads. One
/// consumer (the profiler); installing replaces the previous hooks.
void SetStageThreadHooks(std::function<void(const StageThreadInfo&)> on_register,
                         std::function<void(const StageThreadInfo&)> on_unregister);

/// All interned stage names, indexed by stage id (index 0 is
/// "unregistered"). Size is the number of interned stages so far.
std::vector<std::string> StageNames();

}  // namespace tencentrec

#endif  // TENCENTREC_COMMON_STAGE_H_
