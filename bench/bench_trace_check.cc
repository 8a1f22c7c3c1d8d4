// Offline verification at scale — and its streaming counterpart. Timeline
// reconstruction, valid-execution checking (Appendix A.2) and guarantee
// checking over synthetic traces of 10k / 100k / 1M events, in the
// bench_util table idiom: every timed row quotes ns/event and events/s.
// The *_reference rows run the pre-index whole-trace-scan implementations
// (kept behind use_reference_impl for the equivalence suite) and are
// measured only at sizes where they finish in reasonable time; the speedup
// claimed in DESIGN.md §4b is indexed vs reference at the same size.
//
// The streaming rows feed the identical trace through
// trace::StreamingChecker event by event (valid-execution and guarantee
// checked in one pass) and report the live-state high-water mark next to
// the offline rows' fully-resident trace: the offline checkers hold every
// event plus full per-item timelines, the streaming checker holds one
// rule-δ horizon. The guarantee sweep checks real parallel payroll
// traces of growing length offline (--no-sim skips it). The live-checking
// overlap on a running deployment is measured end to end by hcm_e2e
// (`stanford-durable`'s trace.stream.live_overhead_ratio).
//
// Pass --json=FILE to dump the rows (refreshes BENCH_trace_check.json).

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <vector>

#include "bench/bench_util.h"

#include "src/common/rng.h"
#include "src/rule/parser.h"
#include "src/spec/guarantee.h"
#include "src/trace/guarantee_checker.h"
#include "src/trace/streaming_checker.h"
#include "src/trace/valid_execution.h"

namespace hcm::bench {
namespace {

using rule::Event;
using rule::EventKind;
using rule::ItemId;
using trace::Trace;
using trace::TraceRecorder;

constexpr int64_t kRuleDeltaMs = 5000;

struct BenchTrace {
  Trace trace;
  std::vector<rule::Rule> rules;
  spec::Guarantee guarantee;
};

struct PendingFire {
  int64_t fire_ms = 0;
  uint64_t seq = 0;
  size_t pair = 0;
  int64_t value = 0;
  int64_t trigger_id = 0;
  bool operator>(const PendingFire& o) const {
    return fire_ms != o.fire_ms ? fire_ms > o.fire_ms : seq > o.seq;
  }
};

// A clean (violation-free) trace shaped like real CM traffic: per-pair
// notify -> write-request propagation under `N(src<p>, b) -> 5s WR(dst<p>,
// b)` rules, spontaneous writes with consistent old values including
// same-instant write chains, and a small GX -> GY copy stream referenced by
// the guarantee. Pair count grows with size so big traces also mean more
// items and more installed rules.
BenchTrace GenerateTrace(size_t target_events) {
  BenchTrace out;
  Rng rng(20260807);
  TraceRecorder rec;
  const size_t pairs =
      std::max<size_t>(8, std::min<size_t>(512, target_events / 2000));

  for (size_t p = 0; p < pairs; ++p) {
    auto r = rule::ParseRule("N(src" + std::to_string(p) + ", b) -> 5s WR(dst" +
                             std::to_string(p) + ", b)");
    r->id = static_cast<int64_t>(p);
    out.rules.push_back(*r);
    rec.SetInitialValue(ItemId{"src" + std::to_string(p), {}}, Value::Int(0));
    rec.SetInitialValue(ItemId{"dst" + std::to_string(p), {}}, Value::Int(0));
  }
  rec.SetInitialValue(ItemId{"GX", {}}, Value::Int(0));
  rec.SetInitialValue(ItemId{"GY", {}}, Value::Int(0));
  out.guarantee =
      *spec::ParseGuarantee("(GY = y)@t1 => (GX = y)@t2 & t2 <= t1");

  std::vector<int64_t> current(pairs, 0);
  std::vector<int64_t> last_fire(pairs, 0);
  std::priority_queue<PendingFire, std::vector<PendingFire>,
                      std::greater<PendingFire>>
      pending;
  uint64_t seq = 0;
  int64_t now = 0;
  int64_t gx = 0;
  int copies_left = 60;  // guarantee-relevant writes stay bounded

  auto write_spont = [&rec](const ItemId& item, int64_t ms, int64_t old_v,
                            int64_t v) {
    Event e;
    e.time = TimePoint::FromMillis(ms);
    e.site = "A";
    e.kind = EventKind::kWriteSpont;
    e.item = item;
    e.values = {Value::Int(old_v), Value::Int(v)};
    rec.Record(e);
  };
  auto flush_pending = [&](int64_t up_to_ms) {
    while (!pending.empty() && pending.top().fire_ms <= up_to_ms) {
      PendingFire f = pending.top();
      pending.pop();
      Event e;
      e.time = TimePoint::FromMillis(f.fire_ms);
      e.site = "D" + std::to_string(f.pair);
      e.kind = EventKind::kWriteRequest;
      e.item = ItemId{"dst" + std::to_string(f.pair), {}};
      e.values = {Value::Int(f.value)};
      e.rule_id = static_cast<int64_t>(f.pair);
      e.trigger_event_id = f.trigger_id;
      e.rhs_step = 0;
      rec.Record(e);
    }
  };

  while (rec.num_events() < target_events) {
    now += rng.UniformInt(1, 10);
    flush_pending(now);
    double roll = rng.UniformDouble();
    if (roll < 0.25) {
      size_t p = rng.Index(pairs);
      int64_t v = rng.UniformInt(0, 999);
      Event e;
      e.time = TimePoint::FromMillis(now);
      e.site = "S" + std::to_string(p);
      e.kind = EventKind::kNotify;
      e.item = ItemId{"src" + std::to_string(p), {}};
      e.values = {Value::Int(v)};
      PendingFire f;
      f.fire_ms = std::max(last_fire[p] + 1, now + rng.UniformInt(50, 4000));
      last_fire[p] = f.fire_ms;
      f.seq = ++seq;
      f.pair = p;
      f.value = v;
      f.trigger_id = rec.Record(std::move(e));
      pending.push(f);
    } else if (roll < 0.27) {
      // Same-instant write chain (exercises the chain-resolution path).
      size_t p = rng.Index(pairs);
      ItemId item{"src" + std::to_string(p), {}};
      int64_t a = rng.UniformInt(0, 999);
      int64_t b = rng.UniformInt(0, 999);
      write_spont(item, now, current[p], a);
      write_spont(item, now, a, b);
      current[p] = b;
    } else if (roll < 0.29 && copies_left > 0) {
      --copies_left;
      int64_t v = rng.UniformInt(0, 999);
      write_spont(ItemId{"GX", {}}, now, gx, v);
      // GY trails GX; flush pending fires first so recording stays in
      // time order (property 1).
      int64_t gy_ms = now + rng.UniformInt(5, 40);
      flush_pending(gy_ms);
      write_spont(ItemId{"GY", {}}, gy_ms, gx, v);
      gx = v;
      now = gy_ms;
    } else {
      size_t p = rng.Index(pairs);
      int64_t v = rng.UniformInt(0, 999);
      write_spont(ItemId{"src" + std::to_string(p), {}}, now, current[p], v);
      current[p] = v;
    }
  }
  flush_pending(now + kRuleDeltaMs + 1);
  out.trace = rec.Finish(TimePoint::FromMillis(now + 2 * kRuleDeltaMs));
  return out;
}

const BenchTrace& TraceOfSize(size_t n) {
  static std::map<size_t, BenchTrace> cache;
  auto it = cache.find(n);
  if (it == cache.end()) it = cache.emplace(n, GenerateTrace(n)).first;
  return it->second;
}

double WallMs(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

// Min over `reps` runs — the bench_util harness convention for short
// single-process measurements.
double MinWallMs(int reps, const std::function<void()>& fn) {
  double best = 0;
  for (int i = 0; i < reps; ++i) {
    double ms = WallMs(fn);
    if (i == 0 || ms < best) best = ms;
  }
  return best;
}

size_t MaxRssKb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<size_t>(ru.ru_maxrss);
}

struct CheckRow {
  std::string name;
  size_t events = 0;
  double wall_ms = 0;
  // Live-state high-water mark: the streaming checker's peak count of
  // retained events + segments + obligations + pairs + fired entries +
  // guarantee segments. 0 for offline rows — they hold the entire trace
  // (`events` column) plus full per-item timelines for the whole run.
  size_t live_state_peak = 0;
  std::string note;
};

void StreamTraceThrough(const BenchTrace& b, trace::StreamingChecker* checker) {
  for (const auto& [item, value] : b.trace.initial_values) {
    checker->OnInitialValue(item, value);
  }
  TimePoint last = TimePoint::FromMillis(-1);
  for (const auto& e : b.trace.events) {
    if (last < e.time) {
      last = e.time;
      checker->OnWatermark(last);
    }
    checker->OnEvent(e);
  }
  checker->OnFinish(b.trace.horizon);
}

std::vector<CheckRow> RunSize(size_t n) {
  std::fprintf(stderr, "[bench] generating %zu-event trace...\n", n);
  const BenchTrace& b = TraceOfSize(n);
  std::fprintf(stderr, "[bench] checking %zu events...\n",
               b.trace.events.size());
  const size_t events = b.trace.events.size();
  const int reps = n >= 1000000 ? 1 : 3;
  std::vector<CheckRow> rows;

  rows.push_back({"timeline_build", events, MinWallMs(reps, [&] {
                    trace::StateTimeline tl = trace::StateTimeline::Build(b.trace);
                    if (tl.AllItems().empty()) std::abort();
                  }), 0, ""});

  trace::ValidExecutionOptions vopts;
  rows.push_back({"valid_indexed", events, MinWallMs(reps, [&] {
                    auto report =
                        trace::CheckValidExecution(b.trace, b.rules, vopts);
                    if (!report.valid) std::abort();
                  }), 0, ""});
  if (n <= 100000) {
    // The whole-trace-scan implementation is quadratic in events for the
    // same-instant chains and O(events x rules) for obligations; 1M would
    // take minutes.
    trace::ValidExecutionOptions ref = vopts;
    ref.use_reference_impl = true;
    rows.push_back({"valid_reference", events, MinWallMs(1, [&] {
                      auto report =
                          trace::CheckValidExecution(b.trace, b.rules, ref);
                      if (!report.valid) std::abort();
                    }), 0, ""});
  }

  trace::GuaranteeCheckOptions gopts;
  gopts.settle_margin = Duration::Millis(kRuleDeltaMs);
  rows.push_back({"guarantee_indexed", events, MinWallMs(reps, [&] {
                    auto r = trace::CheckGuarantee(b.trace, b.guarantee, gopts);
                    if (!r.ok() || !r->holds) std::abort();
                  }), 0, ""});
  if (n <= 100000) {
    trace::GuaranteeCheckOptions ref = gopts;
    ref.use_reference_impl = true;
    rows.push_back({"guarantee_reference", events, MinWallMs(1, [&] {
                      auto r =
                          trace::CheckGuarantee(b.trace, b.guarantee, ref);
                      if (!r.ok() || !r->holds) std::abort();
                    }), 0, ""});
  }

  // Streaming: valid-execution and guarantee in one bounded-memory pass
  // over the same event stream.
  size_t live_peak = 0;
  double stream_ms = MinWallMs(reps, [&] {
    trace::StreamingCheckOptions sopts;
    sopts.guarantee.settle_margin = Duration::Millis(kRuleDeltaMs);
    trace::StreamingChecker checker(b.rules, {b.guarantee}, sopts);
    StreamTraceThrough(b, &checker);
    if (!checker.execution_report().valid) std::abort();
    if (!checker.guarantee_results().begin()->second.holds) std::abort();
    live_peak = checker.stats().live_footprint_peak;
  });
  char note[96];
  std::snprintf(note, sizeof(note), "valid+guarantee, live peak %zu vs %zu resident",
                live_peak, events);
  rows.push_back({"streaming_check", events, stream_ms, live_peak, note});
  return rows;
}

constexpr int kSimEmployees = 32;
constexpr size_t kSimThreads = 4;

// Updates arrive in bursts of 20 with the sim run between bursts, the way
// a real ingest path batches them.
void DriveSimWorkload(toolkit::System& system, int updates) {
  Rng rng(11);
  std::vector<int> ids(kSimEmployees);
  for (int i = 0; i < kSimEmployees; ++i) ids[i] = i + 1;
  for (int u = 0; u < updates; ++u) {
    if (u % 200 == 0)
      std::fprintf(stderr, "[bench]   sim update %d/%d\n", u, updates);
    if (u % 20 == 0) {
      // Distinct employees within a burst: two same-instant writes to one
      // salary1(n) chain in the timeline, and the intermediate value the
      // rule still propagates to salary2 would (correctly) flag
      // y-follows-x — burst traffic to one row is a different workload.
      for (int i = kSimEmployees - 1; i > 0; --i) {
        std::swap(ids[i], ids[rng.Index(static_cast<size_t>(i) + 1)]);
      }
    }
    int n = ids[u % 20];
    system.WorkloadWrite(ItemId{"salary1", {Value::Int(n)}},
                         Value::Int(50000 + static_cast<int>(rng.UniformInt(0, 40000))));
    if (u % 20 == 19) system.RunFor(Duration::Millis(rng.UniformInt(40, 120)));
  }
  // Quiet tail: long enough for every 1s-delta fire to land before the
  // horizon (the guarantee's settle margin excludes the tail anchors).
  std::fprintf(stderr, "[bench]   sim quiet tail...\n");
  system.RunFor(Duration::Seconds(2));
}

PayrollDeployment MakeSimDeployment() {
  return PayrollDeployment::Create("interface notify salary1(n) 1s\n",
                                   kSimEmployees, sim::NetworkConfig{},
                                   kSimThreads);
}

// Installs the suggested copy strategy; appends its rules (ids assigned as
// the checkers expect) to `rules`.
void InstallSuggested(toolkit::System& system,
                      const spec::Constraint& constraint,
                      std::vector<rule::Rule>* rules) {
  auto suggestions = *system.Suggest(constraint);
  system.InstallStrategy("payroll", constraint, suggestions.at(0).strategy);
  int64_t next_id = 1;
  for (rule::Rule r : suggestions.at(0).strategy.rules) {
    if (r.forbids()) continue;
    r.id = next_id++;
    rules->push_back(std::move(r));
  }
}

// --- guarantee scaling: offline CheckGuarantee on payroll traces of
// growing length. Each LHS witness's existential search is bounded by the
// guarantee's time constraint, so the cost per witness stays flat as the
// trace grows ---

struct SweepRow {
  std::string guarantee;
  int updates = 0;
  size_t events = 0;
  double wall_ms = 0;
  size_t witnesses = 0;
  uint64_t atom_evals = 0;
};

std::vector<SweepRow> RunGuaranteeSweep(const std::vector<int>& updates) {
  std::vector<SweepRow> rows;
  trace::GuaranteeCheckOptions gopts;
  gopts.settle_margin = Duration::Seconds(2);
  for (int n : updates) {
    std::fprintf(stderr, "[bench] guarantee sweep, %d updates...\n", n);
    auto d = MakeSimDeployment();
    std::vector<rule::Rule> rules;
    InstallSuggested(*d.system, d.constraint, &rules);
    DriveSimWorkload(*d.system, n);
    Trace t = d.system->FinishTrace();
    for (const spec::Guarantee& g :
         {spec::YFollowsX("salary1(n)", "salary2(n)"),
          spec::XLeadsY("salary1(n)", "salary2(n)")}) {
      SweepRow row;
      row.guarantee = g.name;
      row.updates = n;
      row.events = t.events.size();
      bool holds = false;
      row.wall_ms = WallMs([&] {
        auto r = trace::CheckGuarantee(t, g, gopts);
        holds = r.ok() && r->holds;
        if (r.ok()) {
          row.witnesses = r->lhs_witnesses;
          row.atom_evals = r->stats.atom_evals;
        }
      });
      if (!holds) std::abort();
      rows.push_back(row);
    }
  }
  return rows;
}

void WriteJson(const std::string& path,
               const std::map<size_t, std::vector<CheckRow>>& by_size,
               const std::vector<SweepRow>& sweep) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"context\": {\n");
  std::fprintf(f, "    \"executable\": \"./build/bench/bench_trace_check\",\n");
  WriteProvenanceJson(f);
  std::fprintf(f, "    \"max_rss_kb\": %zu,\n", MaxRssKb());
  std::fprintf(f,
               "    \"note\": \"live_state_peak = streaming checker's peak "
               "retained events+segments+obligations+pairs+fired+guarantee "
               "segments; offline rows keep the whole trace (events column) "
               "resident; guarantee_sweep rows check %d-employee payroll "
               "traces from a %zu-thread deployment offline\"\n",
               kSimEmployees, kSimThreads);
  std::fprintf(f, "  },\n  \"benchmarks\": [\n");
  bool first = true;
  for (const auto& [n, rows] : by_size) {
    for (const auto& r : rows) {
      Throughput tp = ComputeThroughput(r.wall_ms, r.events);
      std::fprintf(f,
                   "%s    {\"name\": \"%s/%zu\", \"real_time_ms\": %.2f, "
                   "\"ns_per_event\": %.1f, \"events_per_s\": %.0f, "
                   "\"events\": %zu, \"live_state_peak\": %zu}",
                   first ? "" : ",\n", r.name.c_str(), n, r.wall_ms,
                   tp.ns_per_event, tp.events_per_s, r.events,
                   r.live_state_peak);
      first = false;
    }
  }
  for (const auto& r : sweep) {
    std::fprintf(f,
                 "%s    {\"name\": \"guarantee_sweep/%s/updates:%d\", "
                 "\"real_time_ms\": %.2f, \"events\": %zu, "
                 "\"lhs_witnesses\": %zu, \"atom_evals\": %llu, "
                 "\"us_per_witness\": %.2f}",
                 first ? "" : ",\n", r.guarantee.c_str(), r.updates,
                 r.wall_ms, r.events, r.witnesses,
                 static_cast<unsigned long long>(r.atom_evals),
                 r.witnesses > 0 ? r.wall_ms * 1e3 / r.witnesses : 0.0);
    first = false;
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace
}  // namespace hcm::bench

int main(int argc, char** argv) {
  using namespace hcm;
  using namespace hcm::bench;
  std::string json_path;
  std::vector<size_t> sizes = {10000, 100000, 1000000};
  bool run_sim = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--sizes=", 8) == 0) {
      // CI smoke: --sizes=10000 runs one size instead of the full ladder.
      sizes.clear();
      for (const char* p = argv[i] + 8; *p != '\0';) {
        char* end = nullptr;
        sizes.push_back(static_cast<size_t>(std::strtoull(p, &end, 10)));
        p = (end != nullptr && *end == ',') ? end + 1 : end;
        if (p == nullptr || sizes.back() == 0) {
          std::fprintf(stderr, "bad --sizes list\n");
          return 2;
        }
      }
    } else if (std::strcmp(argv[i], "--no-sim") == 0) {
      run_sim = false;
    }
  }

  Banner("trace checking: offline vs streaming (10k / 100k / 1M events)",
         "verification cost scales with the update stream; the streaming "
         "checker bounds memory to one rule-delta horizon");

  std::map<size_t, std::vector<CheckRow>> by_size;
  for (size_t n : sizes) {
    by_size[n] = RunSize(n);
    std::printf("\n%zu events:\n", n);
    std::printf("  %-22s %10s  %-28s %s\n", "check", "wall_ms", "throughput",
                "live state");
    for (const auto& r : by_size[n]) {
      std::printf("  %-22s %10.2f  %-28s %s\n", r.name.c_str(), r.wall_ms,
                  ThroughputStr(r.wall_ms, r.events).c_str(),
                  r.live_state_peak > 0
                      ? (std::string("peak ") + std::to_string(r.live_state_peak))
                            .c_str()
                      : "whole trace resident");
    }
  }

  std::vector<SweepRow> sweep;
  if (run_sim) {
    std::printf("\nguarantee scaling (payroll, %d employees, offline):\n",
                bench::kSimEmployees);
    std::printf("  %-12s %8s %8s %10s %10s %12s %14s\n", "guarantee",
                "updates", "events", "wall_ms", "witnesses", "atom_evals",
                "us/witness");
    sweep = RunGuaranteeSweep({200, 400, 800, 1600});
    for (const auto& r : sweep) {
      std::printf("  %-12s %8d %8zu %10.1f %10zu %12llu %14.2f\n",
                  r.guarantee.c_str(), r.updates, r.events, r.wall_ms,
                  r.witnesses, static_cast<unsigned long long>(r.atom_evals),
                  r.witnesses > 0 ? r.wall_ms * 1e3 / r.witnesses : 0.0);
    }
  }
  std::printf("\npeak RSS: %zu KB\n", MaxRssKb());

  if (!json_path.empty()) WriteJson(json_path, by_size, sweep);
  return 0;
}
