#include "src/sim/parallel_executor.h"

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/symbols.h"

namespace hcm::sim {
namespace {

ParallelExecutorConfig Config(size_t threads,
                              Duration lookahead = Duration::Millis(20)) {
  ParallelExecutorConfig config;
  config.num_threads = threads;
  config.lookahead = lookahead;
  return config;
}

TEST(ParallelExecutorTest, RunsLaneEntriesInTimeOrder) {
  ParallelExecutor ex(Config(1));
  std::vector<int> order;
  ex.PostAt("A", TimePoint::FromMillis(30), [&] { order.push_back(3); });
  ex.PostAt("A", TimePoint::FromMillis(10), [&] { order.push_back(1); });
  ex.PostAt("A", TimePoint::FromMillis(20), [&] { order.push_back(2); });
  ex.RunUntil(TimePoint::FromMillis(100));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(ex.now(), TimePoint::FromMillis(100));
}

TEST(ParallelExecutorTest, SameTimeEntriesRunInScheduleOrder) {
  ParallelExecutor ex(Config(1));
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    ex.PostAt("A", TimePoint::FromMillis(10), [&order, i] {
      order.push_back(i);
    });
  }
  ex.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelExecutorTest, EndpointSuffixSharesTheBaseSiteLane) {
  ParallelExecutor ex(Config(1));
  std::vector<std::string> order;
  ex.PostAt("B#tr", TimePoint::FromMillis(5), [&] {
    order.push_back("translator");
  });
  ex.PostAt("B", TimePoint::FromMillis(5), [&] { order.push_back("shell"); });
  ex.RunUntilIdle();
  EXPECT_EQ(ex.num_lanes(), 1u);
  // Same lane, same time: schedule order decides.
  EXPECT_EQ(order, (std::vector<std::string>{"translator", "shell"}));
}

TEST(ParallelExecutorTest, LaneLocalClockInsideCallbacks) {
  ParallelExecutor ex(Config(1));
  TimePoint seen_a, seen_b;
  ex.PostAt("A", TimePoint::FromMillis(10), [&] { seen_a = ex.now(); });
  ex.PostAt("B", TimePoint::FromMillis(40), [&] { seen_b = ex.now(); });
  ex.RunUntil(TimePoint::FromMillis(50));
  EXPECT_EQ(seen_a, TimePoint::FromMillis(10));
  EXPECT_EQ(seen_b, TimePoint::FromMillis(40));
}

TEST(ParallelExecutorTest, UntaggedSchedulingInsideCallbackStaysOnLane) {
  ParallelExecutor ex(Config(1));
  bool ran = false;
  ex.PostAt("A", TimePoint::FromMillis(10), [&] {
    ex.PostAfter(Duration::Millis(5), [&] { ran = true; });
  });
  ex.RunUntilIdle();
  EXPECT_TRUE(ran);
  EXPECT_EQ(ex.num_lanes(), 1u);  // no control lane was created
}

TEST(ParallelExecutorTest, CancelledTimerDoesNotRun) {
  ParallelExecutor ex(Config(1));
  bool ran = false;
  Timer t = ex.ScheduleAt("A", TimePoint::FromMillis(10), [&] { ran = true; });
  t.Cancel();
  ex.RunUntilIdle();
  EXPECT_FALSE(ran);
  EXPECT_TRUE(t.cancelled());
}

TEST(ParallelExecutorTest, CrossLanePostWithinLookaheadIsClampedNotLost) {
  ParallelExecutor ex(Config(1, Duration::Millis(20)));
  TimePoint delivered;
  ex.PostAt("A", TimePoint::FromMillis(10), [&] {
    // Due 5ms later on another lane: inside the 20ms window — the engine
    // must clamp it to the window end rather than run it early or drop it.
    ex.PostAt("B", TimePoint::FromMillis(15), [&] { delivered = ex.now(); });
  });
  ex.RunUntil(TimePoint::FromMillis(100));
  EXPECT_EQ(ex.clamped_cross_posts(), 1u);
  EXPECT_EQ(delivered, TimePoint::FromMillis(30));  // window [10, 30)
}

TEST(ParallelExecutorTest, CrossLanePostBeyondLookaheadKeepsItsTime) {
  ParallelExecutor ex(Config(1, Duration::Millis(20)));
  TimePoint delivered;
  ex.PostAt("A", TimePoint::FromMillis(10), [&] {
    ex.PostAt("B", TimePoint::FromMillis(35), [&] { delivered = ex.now(); });
  });
  ex.RunUntil(TimePoint::FromMillis(100));
  EXPECT_EQ(ex.clamped_cross_posts(), 0u);
  EXPECT_EQ(delivered, TimePoint::FromMillis(35));
}

TEST(ParallelExecutorTest, RunUntilIncludesDeadlineInstant) {
  ParallelExecutor ex(Config(1));
  bool ran = false;
  ex.PostAt("A", TimePoint::FromMillis(100), [&] { ran = true; });
  ex.RunUntil(TimePoint::FromMillis(100));
  EXPECT_TRUE(ran);
}

TEST(ParallelExecutorTest, PendingCountSpansLanes) {
  ParallelExecutor ex(Config(1));
  ex.PostAt("A", TimePoint::FromMillis(10), [] {});
  ex.PostAt("B", TimePoint::FromMillis(10), [] {});
  ex.PostAt("C", TimePoint::FromMillis(10), [] {});
  EXPECT_EQ(ex.pending_count(), 3u);
  ex.RunUntilIdle();
  EXPECT_EQ(ex.pending_count(), 0u);
}

// The acid property at the executor level: a randomized multi-site workload
// where every site's callbacks ping other sites (at >= lookahead) must
// yield identical per-lane execution logs at any thread count.
struct LogEntry {
  std::string site;
  int64_t time_ms;
  int payload;

  bool operator==(const LogEntry& o) const {
    return site == o.site && time_ms == o.time_ms && payload == o.payload;
  }
};

std::vector<std::vector<LogEntry>> RunRandomWorkload(size_t threads,
                                                     uint64_t seed) {
  const std::vector<std::string> sites = {"A", "B", "C", "D", "E"};
  const Duration lookahead = Duration::Millis(20);
  ParallelExecutor ex(Config(threads, lookahead));
  // One log per site, appended only by that site's lane.
  auto logs = std::vector<std::vector<LogEntry>>(sites.size());

  // Each site runs a self-rescheduling pump that records a log entry and,
  // deterministically from the shared seed and its own counter, pings a
  // peer site with a cross-lane post at lookahead + jitter.
  struct Pump {
    ParallelExecutor* ex;
    const std::vector<std::string>* sites;
    std::vector<std::vector<LogEntry>>* logs;
    size_t self;
    Rng rng;
    int fired = 0;

    void Fire() {
      (*logs)[self].push_back(
          LogEntry{(*sites)[self], ex->now().millis(), fired});
      ++fired;
      if (fired >= 40) return;
      size_t peer = rng.Index(sites->size());
      int64_t extra = rng.UniformInt(0, 15);
      int tag = 1000 + fired;
      size_t target = peer;
      ex->PostAfter((*sites)[peer], Duration::Millis(20 + extra),
                    [this, target, tag] {
                      (*logs)[target].push_back(LogEntry{
                          (*sites)[target], ex->now().millis(), tag});
                    });
      ex->PostAfter((*sites)[self], Duration::Millis(7), [this] { Fire(); });
    }
  };

  std::vector<Pump> pumps;
  pumps.reserve(sites.size());
  for (size_t i = 0; i < sites.size(); ++i) {
    pumps.push_back(Pump{&ex, &sites, &logs, i, Rng(seed + i)});
  }
  for (size_t i = 0; i < sites.size(); ++i) {
    ex.PostAt(sites[i], TimePoint::FromMillis(1 + static_cast<int64_t>(i)),
              [&pumps, i] { pumps[i].Fire(); });
  }
  ex.RunUntil(TimePoint::FromMillis(2000));
  return logs;
}

TEST(ParallelExecutorEquivalence, RandomWorkloadIdenticalAcrossThreadCounts) {
  for (uint64_t seed : {11u, 42u, 303u}) {
    auto reference = RunRandomWorkload(1, seed);
    for (size_t threads : {2u, 4u, 8u}) {
      auto logs = RunRandomWorkload(threads, seed);
      ASSERT_EQ(logs.size(), reference.size());
      for (size_t i = 0; i < logs.size(); ++i) {
        EXPECT_EQ(logs[i], reference[i])
            << "lane " << i << " diverged at threads=" << threads
            << " seed=" << seed;
      }
    }
  }
}

// Components: two lane groups with no channel between them run as separate
// components until a first-contact post joins them, and a hub lane that
// starts later posts into both — plain, clamped (inside its own epoch) and
// elided. The per-lane orders and the clamp/elide counts must not depend
// on how the components were spread over workers.
struct ComponentRun {
  std::vector<std::vector<LogEntry>> logs;
  uint64_t cross = 0;
  uint64_t clamped = 0;
  uint64_t elided = 0;
  uint64_t supersteps = 0;
};

ComponentRun RunComponentWorkload(size_t threads) {
  const std::vector<std::string> sites = {"A1", "A2", "A3", "B1",
                                          "B2", "B3", "HUB"};
  const size_t kHub = 6;
  ParallelExecutor ex(Config(threads, Duration::Millis(20)));
  ComponentRun run;
  run.logs.resize(sites.size());
  auto log = [&](size_t lane, int payload) {
    run.logs[lane].push_back(LogEntry{sites[lane], ex.now().millis(), payload});
  };

  // Each group member pings the next member of its own group.
  std::function<void(size_t, int)> pump = [&](size_t self, int n) {
    log(self, n);
    if (n >= 30) return;
    size_t group = self / 3 * 3;
    size_t peer = group + (self - group + 1) % 3;
    ex.PostAfter(sites[peer], Duration::Millis(25 + 3 * (n % 4)),
                 [&, peer, n] { log(peer, 1000 + n); });
    // First contact across the groups: A2 reaches B2 once.
    if (self == 1 && n == 10) {
      ex.PostAfter(sites[4], Duration::Millis(40),
                   [&, n] { log(4, 2000 + n); });
    }
    ex.PostAfter(sites[self], Duration::Millis(11 + self),
                 [&pump, self, n] { pump(self, n + 1); });
  };
  // The hub alternates between the groups: a post within the lookahead
  // (clamped), one beyond it, and an elided one.
  std::function<void(int)> hub = [&](int n) {
    log(kHub, n);
    if (n >= 20) return;
    size_t a = static_cast<size_t>(n % 3);
    size_t b = 3 + static_cast<size_t>((n + 1) % 3);
    ex.PostAfter(sites[a], Duration::Millis(5),
                 [&, a, n] { log(a, 3000 + n); });
    ex.PostAfter(sites[b], Duration::Millis(30),
                 [&, b, n] { log(b, 4000 + n); });
    ex.PostElidableAt(Symbols().Intern(sites[n % 2 == 0 ? a : b]),
                      ex.now() + Duration::Millis(2),
                      [&, a, b, n] { log(n % 2 == 0 ? a : b, 5000 + n); });
    ex.PostAfter(sites[kHub], Duration::Millis(17), [&hub, n] { hub(n + 1); });
  };

  for (size_t i = 0; i < 6; ++i) {
    ex.PostAt(sites[i], TimePoint::FromMillis(1 + static_cast<int64_t>(i)),
              [&pump, i] { pump(i, 0); });
  }
  ex.PostAt(sites[kHub], TimePoint::FromMillis(200), [&hub] { hub(0); });
  ex.RunUntil(TimePoint::FromMillis(2000));
  run.cross = ex.cross_posts();
  run.clamped = ex.clamped_cross_posts();
  run.elided = ex.elided_cross_posts();
  run.supersteps = ex.supersteps();
  return run;
}

TEST(ParallelExecutorEquivalence, ComponentsRunIdenticallyAtAnyThreadCount) {
  ComponentRun reference = RunComponentWorkload(1);
  // The workload reaches every path it is meant to.
  EXPECT_GT(reference.clamped, 0u);
  EXPECT_GT(reference.elided, 0u);
  EXPECT_NE(std::find_if(reference.logs[4].begin(), reference.logs[4].end(),
                         [](const LogEntry& e) { return e.payload == 2010; }),
            reference.logs[4].end());
  // Repeated: a wrong component split shows only in some interleavings.
  for (size_t threads : {2u, 4u, 8u, 2u, 4u, 8u, 2u, 4u, 8u}) {
    ComponentRun run = RunComponentWorkload(threads);
    for (size_t i = 0; i < run.logs.size(); ++i) {
      EXPECT_EQ(run.logs[i], reference.logs[i])
          << "lane " << i << " diverged at threads=" << threads;
    }
    EXPECT_EQ(run.cross, reference.cross) << "threads=" << threads;
    EXPECT_EQ(run.clamped, reference.clamped) << "threads=" << threads;
    EXPECT_EQ(run.elided, reference.elided) << "threads=" << threads;
    EXPECT_EQ(run.supersteps, reference.supersteps) << "threads=" << threads;
  }
}

TEST(ParallelExecutorTest, ParallelismMetricReflectsIndependentLanes) {
  ParallelExecutor ex(Config(1));
  // Four lanes with identical per-window work: critical path is one lane's
  // steps, so parallelism approaches 4.
  for (const char* site : {"A", "B", "C", "D"}) {
    for (int i = 0; i < 10; ++i) {
      ex.PostAt(site, TimePoint::FromMillis(10 * (i + 1)), [] {});
    }
  }
  ex.RunUntilIdle();
  EXPECT_GT(ex.parallelism(), 3.0);
  EXPECT_LE(ex.parallelism(), 4.0);
}

}  // namespace
}  // namespace hcm::sim
