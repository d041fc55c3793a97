// Tests for the ordered parallel-runtime seam (DESIGN.md §12): the
// InlineRunner/ThreadPoolRunner contract (strictly ordered epilogue
// retirement, backpressure, reentrant submission), the batched
// crypto/codec offload built on top of it, and inline-vs-threaded
// equivalence of a full deployment scenario.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/runner.h"
#include "core/deployment.h"
#include "core/wire.h"
#include "crypto/signer.h"
#include "sim/simulator.h"

namespace blockplane {
namespace {

using common::InlineRunner;
using common::Runner;
using common::ThreadPoolRunner;

// ---------------------------------------------------------------------------
// InlineRunner
// ---------------------------------------------------------------------------

TEST(InlineRunnerTest, RunsPrologueAndEpilogueSynchronously) {
  InlineRunner runner;
  runner_stats().Reset();
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    runner.RunPrologue([&order, i]() -> Runner::Epilogue {
      order.push_back(i * 2);  // prologue
      return [&order, i] { order.push_back(i * 2 + 1); };  // epilogue
    });
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(runner_stats().prologues_submitted, 4);
  EXPECT_EQ(runner_stats().epilogues_retired, 4);
  EXPECT_EQ(runner.Poll(), 0u);
  runner.Drain();  // no-op
  EXPECT_TRUE(runner.serial());
}

TEST(InlineRunnerTest, NullEpilogueCountsAsDropped) {
  InlineRunner runner;
  runner_stats().Reset();
  runner.RunPrologue([]() -> Runner::Epilogue { return nullptr; });
  EXPECT_EQ(runner_stats().prologues_dropped, 1);
  EXPECT_EQ(runner_stats().epilogues_retired, 1);
}

/// A capture too large for any Runner closure's inline buffer that counts
/// its runs and destructions (moved-from husks do not count).
struct LargeCapture {
  LargeCapture(int* runs, int* destroyed) : runs_(runs), destroyed_(destroyed) {}
  LargeCapture(LargeCapture&& other) noexcept
      : pad_(other.pad_), runs_(other.runs_), destroyed_(other.destroyed_) {
    other.destroyed_ = nullptr;
  }
  LargeCapture(const LargeCapture&) = delete;
  ~LargeCapture() {
    if (destroyed_ != nullptr) ++*destroyed_;
  }
  void operator()() { ++*runs_; }

 private:
  std::array<char, 2 * Runner::Epilogue::kInlineSize> pad_{};
  int* runs_;
  int* destroyed_;
};
static_assert(!Runner::Epilogue::kFitsInline<LargeCapture>);

TEST(InlineFnTest, MoveOnlyCapturesRideBothRunners) {
  InlineRunner inline_runner;
  ThreadPoolRunner pool({/*workers=*/2, /*queue_capacity=*/8, false});
  for (Runner* runner : {static_cast<Runner*>(&inline_runner),
                         static_cast<Runner*>(&pool)}) {
    std::vector<int> seen;
    for (int i = 0; i < 16; ++i) {
      auto owned = std::make_unique<int>(i);
      runner->RunPrologue(
          [&seen, p = std::move(owned)]() mutable -> Runner::Epilogue {
            *p *= 10;  // prologue work on the captured value
            return [&seen, q = std::move(p)] { seen.push_back(*q); };
          });
    }
    runner->Drain();
    std::vector<int> expected;
    for (int i = 0; i < 16; ++i) expected.push_back(i * 10);
    EXPECT_EQ(seen, expected) << "workers " << runner->workers();
  }
}

TEST(InlineFnTest, HeapFallbackCaptureIsDestroyedExactlyOnce) {
  int runs = 0;
  int ran_destroyed = 0;
  int dropped_destroyed = 0;
  {
    Runner::Epilogue a = LargeCapture(&runs, &ran_destroyed);
    Runner::Epilogue b = std::move(a);  // relocates the heap pointer
    EXPECT_FALSE(a);
    ASSERT_TRUE(b);
    b();
    Runner::Epilogue c;
    c = std::move(b);
    c();
    Runner::Epilogue d = LargeCapture(&runs, &dropped_destroyed);
    d = std::move(c);  // destroys d's own capture, takes c's
    EXPECT_EQ(dropped_destroyed, 1);
    EXPECT_EQ(ran_destroyed, 0);
    d = nullptr;
    EXPECT_EQ(ran_destroyed, 1);
  }
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(ran_destroyed, 1);
  EXPECT_EQ(dropped_destroyed, 1);

  // Through a runner: the epilogue runs once and dies once.
  InlineRunner runner;
  int via_runner = 0;
  runner.RunPrologue([&runs, &via_runner]() -> Runner::Epilogue {
    return LargeCapture(&runs, &via_runner);
  });
  EXPECT_EQ(runs, 3);
  EXPECT_EQ(via_runner, 1);
}

TEST(ThreadPoolRunnerTest, NullEpilogueCountsAsDropped) {
  runner_stats().Reset();
  {
    ThreadPoolRunner pool({/*workers=*/2, /*queue_capacity=*/8, false});
    int retired = 0;
    for (int i = 0; i < 6; ++i) {
      pool.RunPrologue([&retired, i]() -> Runner::Epilogue {
        if (i % 2 == 0) return nullptr;
        return [&retired] { ++retired; };
      });
    }
    pool.Drain();
    EXPECT_EQ(retired, 3);
  }
  EXPECT_EQ(runner_stats().prologues_dropped, 3);
  EXPECT_EQ(runner_stats().epilogues_retired, 6);
}

TEST(InlineRunnerTest, DefaultRunnerIsSerial) {
  ASSERT_NE(common::DefaultRunner(), nullptr);
  EXPECT_TRUE(common::DefaultRunner()->serial());
}

// ---------------------------------------------------------------------------
// ThreadPoolRunner ordering
// ---------------------------------------------------------------------------

/// Retirement must follow submission order even when workers finish out of
/// order. Each prologue sleeps a pseudo-random amount (LCG-derived, so the
/// test is reproducible) to shuffle completion order aggressively.
TEST(ThreadPoolRunnerTest, OrderedRetirementUnderRandomizedLatency) {
  for (bool spin : {false, true}) {
    ThreadPoolRunner runner({/*workers=*/4, /*queue_capacity=*/64, spin});
    EXPECT_FALSE(runner.serial());
    constexpr int kTasks = 200;
    std::vector<int> retired;
    uint64_t lcg = 0x2545F4914F6CDD1Dull;
    for (int i = 0; i < kTasks; ++i) {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      int delay_us = static_cast<int>((lcg >> 33) % 50);
      runner.RunPrologue([&retired, i, delay_us]() -> Runner::Epilogue {
        std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
        return [&retired, i] { retired.push_back(i); };
      });
    }
    runner.Drain();
    ASSERT_EQ(retired.size(), static_cast<size_t>(kTasks))
        << "spin=" << spin;
    for (int i = 0; i < kTasks; ++i) {
      EXPECT_EQ(retired[i], i) << "out-of-order retirement, spin=" << spin;
    }
  }
}

TEST(ThreadPoolRunnerTest, PollRetiresOnlyCompletedPrefix) {
  ThreadPoolRunner runner({/*workers=*/2, /*queue_capacity=*/16, false});
  std::atomic<bool> release{false};
  std::vector<int> retired;
  // Task 0 blocks until released; tasks 1..3 finish immediately. Poll must
  // retire nothing while the front is in flight.
  runner.RunPrologue([&release]() -> Runner::Epilogue {
    while (!release.load()) std::this_thread::yield();
    return [] {};
  });
  for (int i = 1; i < 4; ++i) {
    runner.RunPrologue([&retired, i]() -> Runner::Epilogue {
      return [&retired, i] { retired.push_back(i); };
    });
  }
  EXPECT_EQ(runner.Poll(), 0u);
  EXPECT_TRUE(retired.empty());
  release.store(true);
  runner.Drain();
  EXPECT_EQ(retired, (std::vector<int>{1, 2, 3}));
}

/// A full queue must block the submitter (counting backpressure_waits)
/// and resolve by retiring the front — never by dropping or reordering.
TEST(ThreadPoolRunnerTest, BackpressureBlocksAndPreservesOrder) {
  runner_stats().Reset();
  std::vector<int> retired;
  {
    ThreadPoolRunner runner({/*workers=*/1, /*queue_capacity=*/2, false});
    constexpr int kTasks = 8;
    for (int i = 0; i < kTasks; ++i) {
      runner.RunPrologue([&retired, i]() -> Runner::Epilogue {
        // Slow worker + tiny queue: submissions outpace completions, so
        // later RunPrologue calls must hit the backpressure path.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        return [&retired, i] { retired.push_back(i); };
      });
    }
    runner.Drain();
  }
  ASSERT_EQ(retired.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(retired[i], i);
  EXPECT_GE(runner_stats().backpressure_waits, 1);
  EXPECT_EQ(runner_stats().prologues_submitted, 8);
  EXPECT_EQ(runner_stats().epilogues_retired, 8);
  EXPECT_LE(runner_stats().queue_depth_peak, 2 + 1);  // +1: reentrant slack
}

/// Epilogues may submit new work (the comm daemon's verify stage does).
/// The nested submission must neither deadlock on backpressure nor retire
/// ahead of its elders.
TEST(ThreadPoolRunnerTest, ReentrantSubmissionFromEpilogue) {
  ThreadPoolRunner runner({/*workers=*/2, /*queue_capacity=*/1, false});
  std::vector<std::string> retired;
  for (int i = 0; i < 3; ++i) {
    runner.RunPrologue([&runner, &retired, i]() -> Runner::Epilogue {
      return [&runner, &retired, i] {
        retired.push_back("outer" + std::to_string(i));
        runner.RunPrologue([&retired, i]() -> Runner::Epilogue {
          return [&retired, i] {
            retired.push_back("nested" + std::to_string(i));
          };
        });
      };
    });
  }
  runner.Drain();
  ASSERT_EQ(retired.size(), 6u);
  // Every outer epilogue precedes its own nested one, and outer order is
  // submission order.
  std::vector<std::string> outers;
  for (const auto& s : retired) {
    if (s.rfind("outer", 0) == 0) outers.push_back(s);
  }
  EXPECT_EQ(outers, (std::vector<std::string>{"outer0", "outer1", "outer2"}));
  for (int i = 0; i < 3; ++i) {
    auto outer = std::find(retired.begin(), retired.end(),
                           "outer" + std::to_string(i));
    auto nested = std::find(retired.begin(), retired.end(),
                            "nested" + std::to_string(i));
    EXPECT_LT(outer, nested);
  }
}

TEST(ThreadPoolRunnerTest, DrainIsReusable) {
  ThreadPoolRunner runner({/*workers=*/2, /*queue_capacity=*/8, false});
  int count = 0;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 5; ++i) {
      runner.RunPrologue([&count]() -> Runner::Epilogue {
        return [&count] { ++count; };
      });
    }
    runner.Drain();
    EXPECT_EQ(count, (round + 1) * 5);
  }
}

// ---------------------------------------------------------------------------
// Batched crypto/codec equivalence: threaded == inline, bit for bit
// ---------------------------------------------------------------------------

std::vector<Bytes> TestMessages(int n) {
  std::vector<Bytes> msgs;
  for (int i = 0; i < n; ++i) {
    msgs.push_back(Bytes(32 + (i % 64), static_cast<uint8_t>(i * 37 + 1)));
  }
  return msgs;
}

TEST(BatchCryptoTest, SignBatchMatchesSerialSigning) {
  crypto::KeyStore keys;
  auto signer = keys.RegisterNode({2, 1});
  std::vector<Bytes> msgs = TestMessages(41);

  std::vector<crypto::SignJob> inline_jobs;
  std::vector<crypto::SignJob> threaded_jobs;
  for (const Bytes& m : msgs) {
    inline_jobs.push_back({m});
    threaded_jobs.push_back({m});
  }
  InlineRunner inline_runner;
  signer->SignBatch(&inline_jobs, &inline_runner);
  ThreadPoolRunner pool({/*workers=*/4, /*queue_capacity=*/16, false});
  signer->SignBatch(&threaded_jobs, &pool);

  for (size_t i = 0; i < msgs.size(); ++i) {
    EXPECT_EQ(inline_jobs[i].sig.signer, threaded_jobs[i].sig.signer);
    EXPECT_EQ(inline_jobs[i].sig.mac, threaded_jobs[i].sig.mac);
    EXPECT_EQ(inline_jobs[i].sig.mac, signer->Sign(msgs[i]).mac);
  }
}

TEST(BatchCryptoTest, VerifyBatchMatchesSerialVerification) {
  crypto::KeyStore keys;
  auto signer = keys.RegisterNode({1, 0});
  std::vector<Bytes> msgs = TestMessages(37);

  std::vector<crypto::VerifyJob> inline_jobs;
  std::vector<crypto::VerifyJob> threaded_jobs;
  for (size_t i = 0; i < msgs.size(); ++i) {
    crypto::Signature sig = signer->Sign(msgs[i]);
    if (i % 5 == 0) sig.mac[0] ^= 0xFF;  // corrupt every 5th
    inline_jobs.push_back({msgs[i], sig});
    threaded_jobs.push_back({msgs[i], sig});
  }
  InlineRunner inline_runner;
  keys.VerifyBatch(&inline_jobs, &inline_runner);
  ThreadPoolRunner pool({/*workers=*/4, /*queue_capacity=*/16, false});
  keys.VerifyBatch(&threaded_jobs, &pool);

  for (size_t i = 0; i < msgs.size(); ++i) {
    EXPECT_EQ(inline_jobs[i].ok, i % 5 != 0) << i;
    EXPECT_EQ(inline_jobs[i].ok, threaded_jobs[i].ok) << i;
  }
}

TEST(BatchCodecTest, EncodeDecodeBatchRoundTripsThreaded) {
  std::vector<core::TransmissionRecord> records;
  for (int i = 0; i < 29; ++i) {
    core::TransmissionRecord tr;
    tr.src_site = 1;
    tr.dest_site = 2;
    tr.src_log_pos = static_cast<uint64_t>(i + 1);
    tr.prev_src_log_pos = static_cast<uint64_t>(i);
    tr.routine_id = 7;
    tr.payload = Bytes(100 + i, static_cast<uint8_t>(i));
    records.push_back(std::move(tr));
  }

  InlineRunner inline_runner;
  std::vector<Bytes> inline_encoded =
      core::EncodeTransmissionBatch(records, &inline_runner);
  ThreadPoolRunner pool({/*workers=*/4, /*queue_capacity=*/8, false});
  std::vector<Bytes> threaded_encoded =
      core::EncodeTransmissionBatch(records, &pool);
  ASSERT_EQ(inline_encoded.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(inline_encoded[i], threaded_encoded[i]) << i;
    EXPECT_EQ(inline_encoded[i], records[i].Encode()) << i;
  }

  std::vector<core::TransmissionDecodeJob> jobs(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    jobs[i].buf = threaded_encoded[i];
  }
  core::TransmissionDecodeJob garbage;
  garbage.buf = Bytes{0x01};  // truncated garbage: must fail cleanly
  jobs.push_back(std::move(garbage));
  core::DecodeTransmissionBatch(&jobs, &pool);
  for (size_t i = 0; i < records.size(); ++i) {
    ASSERT_TRUE(jobs[i].ok) << i;
    EXPECT_EQ(jobs[i].record.src_log_pos, records[i].src_log_pos);
    EXPECT_EQ(jobs[i].record.payload, records[i].payload);
  }
  EXPECT_FALSE(jobs.back().ok);
}

// ---------------------------------------------------------------------------
// Deployment equivalence: a threaded Runner must produce the same protocol
// outcome as the inline seam — same delivery, same log shapes, same source
// chain digest. The destination chain digest is deliberately NOT compared
// bit-for-bit: the received record embeds the f_i+1 transmission
// attestations, and WHICH correct peer attests first is a race (any
// f_i+1 valid signatures satisfy the threshold; the destination verifies
// that before committing), so attestor identity legitimately shifts when
// epilogue retirement moves to drain boundaries. The canonical dst
// summary below compares everything except signer identity.
// ---------------------------------------------------------------------------

struct ScenarioResult {
  uint64_t log_size_src = 0;
  uint64_t log_size_dst = 0;
  crypto::Digest chain_src{};
  /// One line per dst log entry: position, record type, source position,
  /// payload bytes, and the SIZE of the attestation proof.
  std::vector<std::string> dst_log;
  Bytes delivered;
};

/// Commits one value at the source site, sends one message cross-site, and
/// waits for delivery. With a threaded runner the simulator loop cannot
/// retire epilogues by itself, so the harness alternates event processing
/// with Drain() — the delivery ORDER is still the submission order.
ScenarioResult RunScenario(Runner* runner) {
  sim::Simulator simulator(99);
  core::BlockplaneOptions options;
  options.runner = runner;
  core::Deployment deployment(&simulator, net::Topology::Aws4(), options);

  bool committed = false;
  deployment.participant(net::kCalifornia)
      ->LogCommit(ToBytes("threaded-vs-inline"), 0,
                  [&](uint64_t) { committed = true; });
  deployment.participant(net::kCalifornia)
      ->Send(net::kOregon, ToBytes("cross-site payload"), 0, nullptr);

  ScenarioResult out;
  core::Participant* receiver = deployment.participant(net::kOregon);
  sim::SimTime deadline = sim::Seconds(120);
  while (simulator.Now() < deadline) {
    simulator.RunFor(sim::Milliseconds(1));
    if (runner != nullptr) runner->Drain();
    Bytes received;
    if (committed && receiver->TryReceive(net::kCalifornia, &received)) {
      out.delivered = std::move(received);
      break;
    }
  }
  if (runner != nullptr) runner->Drain();
  for (const auto& [pos, rec] : deployment.node(net::kOregon, 0)->log()) {
    char line[128];
    snprintf(line, sizeof(line), "pos=%llu type=%d srcpos=%llu pay=%zu nsig=%zu",
             static_cast<unsigned long long>(pos), static_cast<int>(rec.type),
             static_cast<unsigned long long>(rec.src_log_pos),
             rec.payload.size(), rec.proof.size());
    out.dst_log.emplace_back(line);
  }
  out.log_size_src = deployment.node(net::kCalifornia, 0)->log_size();
  out.log_size_dst = deployment.node(net::kOregon, 0)->log_size();
  out.chain_src = deployment.node(net::kCalifornia, 0)->chain_digest();
  return out;
}

TEST(RunnerDeploymentTest, ThreadedScenarioMatchesInline) {
  InlineRunner inline_runner;
  ScenarioResult inline_result = RunScenario(&inline_runner);
  ASSERT_EQ(inline_result.delivered, ToBytes("cross-site payload"));

  ThreadPoolRunner pool({/*workers=*/4, /*queue_capacity=*/64, false});
  ScenarioResult threaded = RunScenario(&pool);
  EXPECT_EQ(threaded.delivered, inline_result.delivered);
  EXPECT_EQ(threaded.log_size_src, inline_result.log_size_src);
  EXPECT_EQ(threaded.log_size_dst, inline_result.log_size_dst);
  EXPECT_EQ(threaded.chain_src, inline_result.chain_src);
  EXPECT_EQ(threaded.dst_log, inline_result.dst_log);
}

}  // namespace
}  // namespace blockplane
