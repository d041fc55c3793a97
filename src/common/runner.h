// The ordered parallel-runtime seam (DESIGN.md §12).
//
// Every hot message path is split into a *prologue* — pure computation over
// immutable inputs (payload decode, HMAC generation/verification, digest
// checks) — and an *epilogue* — everything that touches protocol state.
// A Runner executes prologues wherever it likes (inline, or fanned out to
// worker threads), but retires epilogues strictly in submission order, on
// the thread that submits and polls. That single invariant is what lets
// the deterministic simulator and the threaded runtime share one code path:
//
//   * InlineRunner runs prologue + epilogue synchronously inside
//     RunPrologue. Submission order == execution order == today's serial
//     behavior, bit for bit. The simulator and every ctest suite use it.
//   * ThreadPoolRunner fans prologues out to N workers over a bounded
//     queue (blocking the submitter when full — backpressure), then
//     retires the contiguous prefix of completed epilogues in submission
//     order whenever the submitting thread calls Poll(), Drain(), or
//     blocks on backpressure. Protocol state is therefore only ever
//     touched from one thread; workers see nothing but the immutable
//     inputs a prologue captured.
//
// Prologue discipline (enforced statically by bplint rule BP007): a
// prologue must not touch mutable statics, un-mutexed globals, or protocol
// state. It may return a null epilogue to drop the message (decode failure,
// bad signature) — the slot still retires, preserving order.
#ifndef BLOCKPLANE_COMMON_RUNNER_H_
#define BLOCKPLANE_COMMON_RUNNER_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/inline_fn.h"
#include "common/macros.h"

namespace blockplane::common {

class Runner {
 public:
  /// State-touching completion of one task; runs on the submitting thread,
  /// strictly in submission order. May be null (the prologue dropped the
  /// message). The inline budget holds `this`, a decoded PBFT pre-prepare
  /// or vote by value, and a trace id.
  using Epilogue = InlineFn<void, 160>;
  /// Pure computation over inputs captured at submission; may run on a
  /// worker thread. Returns the epilogue to retire for this slot. The
  /// inline budget holds `this` plus a net::Message.
  using Prologue = InlineFn<Epilogue, 64>;
  /// One fork-join batch task (see RunBatch); pure, may run on any thread,
  /// must only write outputs disjoint from every other task in its batch.
  using BatchTask = std::function<void()>;

  virtual ~Runner() = default;

  /// Submits one task. Blocks (running ready epilogues meanwhile) when the
  /// runner's queue is full. Reentrant: an epilogue may submit.
  virtual void RunPrologue(Prologue prologue) = 0;

  /// Fork-join escape hatch for the batch helpers (crypto SignBatch /
  /// VerifyBatch, wire codec batches): runs every task — on workers when
  /// the runner has them — and returns once all have finished. Batch tasks
  /// bypass the ordered window entirely: no epilogues run during the join,
  /// so RunBatch is safe inside an epilogue (where Drain() would deadlock
  /// on the in-flight retirement). Not reentrant from a batch task.
  virtual void RunBatch(std::vector<BatchTask> tasks) = 0;

  /// Retires every already-completed epilogue at the front of the
  /// submission order; never blocks. Returns the number retired.
  virtual size_t Poll() = 0;

  /// Retires every submitted task, blocking until all are done.
  virtual void Drain() = 0;

  /// Worker threads owned by this runner; 0 means fully serial.
  virtual int workers() const = 0;
  /// True when prologues run inline on the submitting thread. Serial-only
  /// fast paths (the verify-once caches) are safe in a prologue exactly
  /// when this holds.
  bool serial() const { return workers() == 0; }
};

/// Runs every task synchronously inside RunPrologue: current (seed)
/// behavior, deterministic, used by the simulator and all ctest suites.
class InlineRunner final : public Runner {
 public:
  InlineRunner() = default;
  BP_DISALLOW_COPY_AND_ASSIGN(InlineRunner);

  void RunPrologue(Prologue prologue) override;
  void RunBatch(std::vector<BatchTask> tasks) override;
  size_t Poll() override { return 0; }
  void Drain() override {}
  int workers() const override { return 0; }
};

/// The process-wide InlineRunner used wherever no runner is injected.
Runner* DefaultRunner();

/// N worker threads over a bounded submission ring with strictly ordered
/// epilogue retirement. Single-submitter: RunPrologue/Poll/Drain must all
/// be called from one thread (the protocol thread); that same thread is
/// the only one that ever runs epilogues.
class ThreadPoolRunner final : public Runner {
 public:
  struct Options {
    /// Worker threads (clamped to >= 1).
    int workers = 4;
    /// Maximum submitted-but-unretired tasks before RunPrologue blocks.
    size_t queue_capacity = 256;
    /// When true, idle workers busy-poll for tasks (yielding between
    /// probes) instead of sleeping on a condition variable — lower pickup
    /// latency at the cost of burning idle cycles (dsnet's SpinOrderedRunner
    /// vs its CTPL flavor).
    bool spin = false;
  };

  explicit ThreadPoolRunner(Options options);
  /// Drains outstanding work, then stops and joins the workers.
  ~ThreadPoolRunner() override;
  BP_DISALLOW_COPY_AND_ASSIGN(ThreadPoolRunner);

  void RunPrologue(Prologue prologue) override;
  void RunBatch(std::vector<BatchTask> tasks) override;
  size_t Poll() override;
  void Drain() override;
  int workers() const override { return options_.workers; }

 private:
  /// One submitted task. Lives in the window deque from submission until
  /// retirement; `done` flips when a worker has stored the epilogue.
  struct Slot {
    Prologue prologue;
    Epilogue epilogue;
    bool done = false;
  };

  void WorkerLoop();
  /// Pops the front slot if it is done and runs its epilogue with the lock
  /// released. Returns false when the front is missing or still running.
  bool RetireFront(std::unique_lock<std::mutex>& lock);

  const Options options_;

  std::mutex mu_;
  std::condition_variable task_ready_;  // workers wait here (condvar mode)
  std::condition_variable front_done_;  // submitter waits here
  std::condition_variable batch_done_;  // RunBatch caller waits here
  /// In-flight fork-join batch (RunBatch). `batch_next_` is the next
  /// unclaimed index, `batch_finished_` the number of completed tasks;
  /// the vector empties again once the caller's join completes.
  std::vector<BatchTask> batch_;
  size_t batch_next_ = 0;
  size_t batch_finished_ = 0;
  /// Submitted-but-unretired tasks in submission order. `base_ + i` is the
  /// submission sequence of window_[i]; `claim_next_` is the sequence of
  /// the next unclaimed prologue.
  std::deque<Slot> window_;
  uint64_t base_ = 0;
  uint64_t claim_next_ = 0;
  /// Depth of epilogues currently executing on the submit thread. Nonzero
  /// blocks further retirement (ordering) and backpressure (deadlock).
  int retiring_ = 0;
  bool stop_ = false;

  std::vector<std::thread> threads_;
};

}  // namespace blockplane::common

#endif  // BLOCKPLANE_COMMON_RUNNER_H_
