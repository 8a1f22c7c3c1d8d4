// hcm_e2e: one end-to-end benchmark through every layer of the toolkit.
//
//   hcm_e2e --workload=NAME --seed=N [--scale=full|smoke] [--seconds=S]
//           [--iterations=K] [--workdir=DIR] [--trace=FILE] [--json=FILE]
//   hcm_e2e --selftest
//
// Each iteration builds a fresh toolkit::System, drives the named workload
// (see workloads.cc) and verifies its output. Iteration 0 is a reference
// run — at one thread for the parallel workloads — excluded from timing;
// every later iteration must reproduce its trace hash bit for bit, and the
// hash must equal the checked-in golden for (workload, seed, scale).
// Iterations repeat until --seconds of measurement have passed (at least
// three) or exactly --iterations times.
//
// Untraced runs report the end-to-end metrics as medians over iterations.
// --trace=FILE makes a separate traced run that attributes the time to
// layers from outside the program: spans around every driver call into a
// layer (written to FILE as JSON lines), the layers' public counters, and
// replays of the run's own trace through the public rule, trace and ris
// APIs (labelled replay estimates). --json=FILE writes the metrics with
// units, sample counts and provenance. The exit code is 0 only when every
// call returned OK and every check passed.
//
// --selftest checks ComputeLags against bench_util.h's ComputeLag on random
// traces, then runs every workload at smoke scale for seeds 1 and 2 with
// verification and golden hashes on.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bench/e2e/e2e.h"
#include "src/common/rng.h"
#include "src/rule/rule_index.h"
#include "src/trace/sharded_recorder.h"

namespace hcm::e2e {

uint32_t Tracer::Open(const char* name) {
  uint32_t id = static_cast<uint32_t>(spans_.size()) + 1;
  spans_.push_back(Span{name, NowNs(), 0, id,
                        stack_.empty() ? 0u : stack_.back(), trace_id_});
  stack_.push_back(id);
  return id;
}

void Tracer::Close(uint32_t id) {
  spans_[id - 1].end_ns = NowNs();
  stack_.pop_back();
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

uint64_t TraceHash(const trace::Trace& t) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const rule::Event& e : t.events) {
    for (char c : e.ToString()) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
    h ^= '\n';
    h *= 0x100000001b3ull;
  }
  return h;
}

Lags ComputeLags(const trace::Trace& t, const std::string& src_base,
                 const std::string& dst_base) {
  Lags out;
  std::map<std::pair<std::vector<Value>, Value>, std::vector<TimePoint>>
      pending;
  int64_t sum = 0;
  for (const rule::Event& e : t.events) {
    if (e.kind == rule::EventKind::kWriteSpont && e.item.base == src_base) {
      ++out.total;
      pending[{e.item.args, e.written_value()}].push_back(e.time);
    } else if (e.kind == rule::EventKind::kWrite && e.item.base == dst_base) {
      auto it = pending.find({e.item.args, e.written_value()});
      if (it == pending.end()) continue;
      for (TimePoint from : it->second) {
        int64_t lag = (e.time - from).millis();
        out.lags_ms.push_back(lag);
        sum += lag;
        out.max_ms = std::max(out.max_ms, lag);
      }
      pending.erase(it);
    }
  }
  out.propagated = out.lags_ms.size();
  if (out.propagated > 0) {
    out.mean_ms = static_cast<double>(sum) / static_cast<double>(out.propagated);
  }
  return out;
}

namespace {

// ---------------------------------------------------------------------------
// Provenance and golden hashes.
// ---------------------------------------------------------------------------

size_t NumCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// High-water resident memory of this process so far. One process runs one
// workload, so at the end of the run it is the workload's peak.
double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// FNV trace hashes of the reference iteration, per (workload, seed, scale).
// A change that alters any event of these runs must update them on purpose.
struct Golden {
  const char* workload;
  uint64_t seed;
  const char* scale;
  uint64_t hash;
};
constexpr Golden kGoldens[] = {
    {"payroll-interactive", 1, "smoke", 0xa0c78fdb9d3d57fdull},
    {"payroll-interactive", 2, "smoke", 0x9e4653af39222428ull},
    {"stanford-wide", 1, "smoke", 0x09be82dcf537c546ull},
    {"stanford-wide", 2, "smoke", 0x15c3beaea479345bull},
    {"payroll-verify", 1, "smoke", 0xe84609e80dcb17f9ull},
    {"payroll-verify", 2, "smoke", 0x36f893dfa968a286ull},
    {"stanford-durable", 1, "smoke", 0x81e21b7d4143ced5ull},
    {"stanford-durable", 2, "smoke", 0xb7ba787bba22d45eull},
    {"payroll-interactive", 1, "full", 0xfb76a44df6aaaeaeull},
    {"payroll-interactive", 2, "full", 0xd16d6dcec960c31eull},
    {"stanford-wide", 1, "full", 0x585482073531fbecull},
    {"stanford-wide", 2, "full", 0x9c283b712b8d7398ull},
    {"payroll-verify", 1, "full", 0x92dfd1d623d4a743ull},
    {"payroll-verify", 2, "full", 0xc296f7eb1027d1feull},
    {"stanford-durable", 1, "full", 0x476a451b958985a4ull},
    {"stanford-durable", 2, "full", 0xe806da0117ed9627ull},
};

const Golden* FindGolden(const std::string& workload, uint64_t seed,
                         const std::string& scale) {
  for (const Golden& g : kGoldens) {
    if (workload == g.workload && seed == g.seed && scale == g.scale) {
      return &g;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Metric collection.
// ---------------------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
  size_t samples = 0;
  // Measured by replaying the run's trace through a layer's public API on
  // the side, not inside the run itself.
  bool replay_estimate = false;
};
using Metrics = std::map<std::string, Metric>;

std::vector<double> Collect(const std::vector<IterationResult>& its,
                            double (*f)(const IterationResult&)) {
  std::vector<double> v;
  for (const IterationResult& it : its) v.push_back(f(it));
  return v;
}

std::vector<double> Pool(const std::vector<IterationResult>& its,
                         std::vector<double> IterationResult::*field) {
  std::vector<double> v;
  for (const IterationResult& it : its) {
    v.insert(v.end(), (it.*field).begin(), (it.*field).end());
  }
  return v;
}

void PutMedian(Metrics* m, const std::string& name, const std::string& unit,
               const std::vector<double>& v) {
  (*m)[name] = Metric{Median(v), unit, v.size()};
}

void PutPercentile(Metrics* m, const std::string& name,
                   const std::string& unit, const std::vector<double>& v,
                   double q) {
  (*m)[name] = Metric{Percentile(v, q), unit, v.size()};
}

// Metrics every run reports: the end-to-end ones plus the workload-level
// latencies (pooled samples) and the propagation lag of the reference run.
void WorkloadMetrics(const std::vector<IterationResult>& its,
                     const IterationResult& reference, Metrics* m) {
  PutMedian(m, "setup_s", "s",
            Collect(its, [](const IterationResult& r) { return r.setup_s; }));
  PutMedian(m, "sim_events_per_s", "events/s",
            Collect(its, [](const IterationResult& r) {
              return r.sim_s() > 0 ? static_cast<double>(r.events) / r.sim_s()
                                   : 0.0;
            }));
  PutMedian(m, "verdict_s", "s",
            Collect(its, [](const IterationResult& r) { return r.verdict_s; }));

  std::vector<double> steps = Pool(its, &IterationResult::step_us);
  PutMedian(m, "step_p50_us", "us", steps);
  PutPercentile(m, "step_p99_us", "us", steps, 99);
  std::vector<double> ckpt = Pool(its, &IterationResult::checkpoint_ms);
  PutMedian(m, "checkpoint_p50_ms", "ms", ckpt);
  PutPercentile(m, "checkpoint_p95_ms", "ms", ckpt, 95);
  PutMedian(m, "recover_ms", "ms", Pool(its, &IterationResult::recover_ms));
  PutMedian(m, "stream_verdict_s", "s",
            Collect(its, [](const IterationResult& r) {
              return r.stream_verdict_s;
            }));
  std::vector<double> lags(reference.lags_ms.begin(), reference.lags_ms.end());
  PutMedian(m, "prop_lag_p50_ms", "virtual_ms", lags);
  PutPercentile(m, "prop_lag_p99_ms", "virtual_ms", lags, 99);
}

// Least-squares fit wall_us = fixed_us + per_event_us * events over every
// RunFor call. When all calls recorded the same event count the split is
// undetermined: fixed is reported as 0 and all time as per-event.
void FitRunFor(const std::vector<std::pair<double, double>>& pts,
               double* fixed_us, double* per_event_ns) {
  *fixed_us = 0;
  *per_event_ns = 0;
  if (pts.empty()) return;
  double n = static_cast<double>(pts.size()), sx = 0, sy = 0, sxx = 0,
         sxy = 0;
  for (const auto& [x, y] : pts) {
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  double den = n * sxx - sx * sx;
  if (std::fabs(den) < 1e-9 * std::max(1.0, n * sxx)) {
    *per_event_ns = sx > 0 ? sy / sx * 1e3 : 0;
    return;
  }
  double slope = (n * sxy - sx * sy) / den;
  *per_event_ns = slope * 1e3;
  *fixed_us = (sy - slope * sx) / n;
}

// Per span name, over the traced iterations: calls and self time.
struct LayerRow {
  double calls = 0;
  double self_ns = 0;
};

bool IsGroupingSpan(const char* name) {
  return std::strncmp(name, "phase.", 6) == 0 || std::strcmp(name, "step") == 0;
}

// Replays `t` into a fresh recorder of the kind the run used; ns per event.
double ReplayRecorderNs(const trace::Trace& t, bool sharded) {
  std::unique_ptr<trace::TraceRecorder> rec;
  if (sharded) {
    rec = std::make_unique<trace::ShardedTraceRecorder>();
  } else {
    rec = std::make_unique<trace::TraceRecorder>();
  }
  std::set<std::string> sites;
  for (const rule::Event& e : t.events) sites.insert(e.site);
  for (const std::string& s : sites) rec->DeclareSite(s);
  for (const auto& [item, value] : t.initial_values) {
    rec->SetInitialValue(item, value);
  }
  int64_t start = NowNs();
  for (rule::Event e : t.events) {
    e.id = -1;
    rec->Record(std::move(e));
  }
  trace::Trace out = rec->Finish(t.horizon);
  int64_t ns = NowNs() - start;
  return t.events.empty() ? 0 : static_cast<double>(ns) / t.events.size();
}

// Replays the trace's events through the installed LHS templates the way a
// shell dispatches: RuleIndex::Lookup, then MatchesCompiled per candidate.
double ReplayDispatchNs(const trace::Trace& t, std::vector<rule::Rule> rules) {
  rule::RuleIndex index;
  for (size_t i = 0; i < rules.size(); ++i) {
    rules[i].Compile();
    index.Add(rules[i].lhs, i);
  }
  std::vector<rule::BindingFrame> frames;
  for (const rule::Rule& r : rules) frames.emplace_back(r.slots.size());
  std::vector<size_t> candidates;
  size_t matches = 0;
  int64_t start = NowNs();
  for (const rule::Event& e : t.events) {
    index.Lookup(e, &candidates);
    for (size_t c : candidates) {
      matches += rules[c].lhs.MatchesCompiled(e, &frames[c]);
      frames[c].Clear();
    }
  }
  int64_t ns = NowNs() - start;
  if (matches == 0) return 0;
  return t.events.empty() ? 0 : static_cast<double>(ns) / t.events.size();
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans,
                int64_t origin_ns) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"start_ns\": %" PRId64
                 ", \"end_ns\": %" PRId64
                 ", \"span_id\": %u, \"parent_id\": %u, \"trace_id\": %u}\n",
                 s.name, s.start_ns - origin_ns, s.end_ns - origin_ns, s.id,
                 s.parent, s.trace_id);
  }
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// The benchmark run.
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  std::string scale = "full";
  double seconds = 10;
  size_t iterations = 0;  // 0 = time-bounded
  std::string workdir = ".";
  std::string trace_path;
  std::string json_path;
};

struct Outcome {
  Metrics metrics;
  size_t iterations = 0;
  size_t attempts = 0;
  std::vector<std::string> failures;
  uint64_t hash = 0;
  std::string golden = "none";
};

void Absorb(const IterationResult& r, Outcome* out) {
  out->attempts += r.attempts;
  out->failures.insert(out->failures.end(), r.failures.begin(),
                       r.failures.end());
}

class Bench {
 public:
  Bench(const Options& opts, Workload* w) : opts_(opts), w_(w) {
    threads_ = w->parallel() ? std::min<size_t>(4, NumCpus()) : 0;
  }

  Outcome Run() {
    Outcome out;
    Tracer off(false);
    RunConfig ref_cfg;
    ref_cfg.threads = w_->parallel() ? 1 : 0;
    reference_ = w_->Run(ref_cfg, &off);
    Absorb(reference_, &out);
    out.hash = reference_.trace_hash;
    if (const Golden* g = FindGolden(opts_.workload, opts_.seed, opts_.scale)) {
      ++out.attempts;
      out.golden = g->hash == reference_.trace_hash ? "match" : "MISMATCH";
      if (g->hash != reference_.trace_hash) {
        out.failures.push_back("trace hash differs from the golden hash");
      }
    }
    if (opts_.trace_path.empty()) {
      RunUntraced(&out);
    } else {
      RunTraced(&out);
    }
    out.metrics["failed_frac"] =
        Metric{static_cast<double>(out.failures.size()) /
                   static_cast<double>(std::max<size_t>(1, out.attempts)),
               "ratio", out.attempts};
    return out;
  }

 private:
  RunConfig Standard() const {
    RunConfig c;
    c.threads = threads_;
    return c;
  }

  bool MoreIterations(size_t done, int64_t start_ns) const {
    if (opts_.iterations > 0) return done < opts_.iterations;
    return done < 3 || (NowNs() - start_ns) / 1e9 < opts_.seconds;
  }

  // Runs one iteration and checks it reproduced the reference trace.
  IterationResult Iterate(const RunConfig& cfg, Tracer* tracer,
                          Outcome* out) {
    IterationResult r = w_->Run(cfg, tracer);
    std::printf("  iteration threads=%zu%s%s%s: setup %.6f s, run %.6f s "
                "(sim %.6f s), verdict %.6f s, %zu events\n",
                cfg.threads, tracer->enabled() ? " traced" : "",
                cfg.live_checker ? "" : " no-checker",
                cfg.storage ? "" : " no-storage", r.setup_s, r.run_s,
                r.sim_s(), r.verdict_s, r.events);
    Absorb(r, out);
    if (r.has_hash) {
      ++out->attempts;
      if (r.trace_hash != reference_.trace_hash) {
        out->failures.push_back("trace hash differs from the reference run");
      }
    }
    return r;
  }

  void RunUntraced(Outcome* out) {
    Tracer off(false);
    std::vector<IterationResult> its;
    int64_t start = NowNs();
    while (MoreIterations(its.size(), start)) {
      its.push_back(Iterate(Standard(), &off, out));
    }
    out->iterations = its.size();
    WorkloadMetrics(its, reference_, &out->metrics);
    out->metrics["peak_rss_mb"] = Metric{PeakRssMb(), "MB", 1};
  }

  // Untraced and traced iterations alternate (the difference is the
  // tracing overhead); then one iteration per engine, checker and storage
  // variant; then the replays over the last traced iteration's trace.
  void RunTraced(Outcome* out) {
    Tracer off(false);
    Tracer on(true);
    std::vector<IterationResult> untraced, traced;
    int64_t start = NowNs();
    // Spans of one interactive iteration fill ~5 MB; four pairs suffice.
    constexpr size_t kMaxTracedIterations = 4;
    while (MoreIterations(traced.size(), start) &&
           (opts_.iterations > 0 || traced.size() < kMaxTracedIterations)) {
      untraced.push_back(Iterate(Standard(), &off, out));
      RunConfig cfg = Standard();
      cfg.keep_trace = true;
      on.set_trace_id(static_cast<uint32_t>(traced.size()) + 1);
      traced.push_back(Iterate(cfg, &on, out));
    }
    out->iterations = untraced.size() + traced.size();
    Metrics& m = out->metrics;
    WorkloadMetrics(untraced, reference_, &m);
    for (const char* e2e : {"setup_s", "sim_events_per_s", "verdict_s"}) {
      m.erase(e2e);
    }
    const IterationResult& last = traced.back();
    const double n_it = static_cast<double>(traced.size());

    // Span aggregation: per name, and per iteration for the *_ms metrics.
    std::map<std::string, LayerRow> layers;
    std::map<std::pair<uint32_t, std::string>, double> per_it_ns;
    std::vector<double> child_ns(on.spans().size() + 1, 0);
    for (const Span& s : on.spans()) {
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
    double phase_ns = 0, attributed_ns = 0;
    for (const Span& s : on.spans()) {
      double dur = static_cast<double>(s.end_ns - s.start_ns);
      LayerRow& row = layers[s.name];
      row.calls += 1;
      row.self_ns += dur - child_ns[s.id];
      per_it_ns[{s.trace_id, s.name}] += dur;
      if (s.parent == 0) phase_ns += dur;
      if (!IsGroupingSpan(s.name)) attributed_ns += dur - child_ns[s.id];
    }
    auto span_ms = [&](const std::string& name) {
      std::vector<double> v;
      for (uint32_t id = 1; id <= traced.size(); ++id) {
        auto it = per_it_ns.find({id, name});
        v.push_back(it == per_it_ns.end() ? 0 : it->second / 1e6);
      }
      return Median(v);
    };
    auto counter = [&](const std::string& name) {
      auto it = last.counters.find(name);
      return it == last.counters.end() ? 0.0 : it->second;
    };
    auto put = [&](const std::string& name, double v, const char* unit) {
      m[name] = Metric{v, unit, traced.size()};
    };
    auto put_replay = [&](const std::string& name, double v, const char* unit) {
      m[name] = Metric{v, unit, traced.size(), /*replay_estimate=*/true};
    };
    auto ratio = [](double a, double b) { return b != 0 ? a / b : 0.0; };

    const std::pair<const char*, const char*> kSpanMetrics[] = {
        {"spec.suggest", "spec.suggest_ms"},
        {"toolkit.configure_translator", "toolkit.configure_translator_ms"},
        {"toolkit.install_strategy", "toolkit.install_strategy_ms"},
        {"ris.seed", "ris.seed_ms"},
        {"toolkit.declare_initial", "toolkit.declare_initial_ms"},
        {"trace.finish", "trace.finish_ms"},
        {"trace.valid", "trace.valid.ms"},
        {"trace.guarantee.y-follows-x", "trace.guarantee.y-follows-x.ms"},
        {"trace.guarantee.x-leads-y", "trace.guarantee.x-leads-y.ms"},
        {"trace.stream.finish", "trace.stream.finish_ms"},
    };
    for (const auto& [span, metric] : kSpanMetrics) {
      put(metric, span_ms(span), "ms");
    }

    const double events = static_cast<double>(last.events);
    const double updates = static_cast<double>(last.updates);
    std::vector<double> writes = last.write_ns;
    const double write_p50 = Median(writes);
    const double ris_p50 = w_->ReplaySourceWritesNs(last.trace);
    put("toolkit.workload_write.p50_ns", write_p50, "ns");
    put("toolkit.workload_write.calls", updates, "count");
    put_replay("ris.update.p50_ns", ris_p50, "ns");
    put_replay("toolkit.translator.write_overhead_ns", write_p50 - ris_p50,
               "ns");

    std::vector<std::pair<double, double>> run_for;
    std::vector<double> run_for_us;
    for (const IterationResult& r : traced) {
      run_for.insert(run_for.end(), r.run_for.begin(), r.run_for.end());
      for (const auto& p : r.run_for) run_for_us.push_back(p.second);
    }
    double fixed_us = 0, per_event_ns = 0;
    FitRunFor(run_for, &fixed_us, &per_event_ns);
    put("sim.run_for.calls", static_cast<double>(last.run_for.size()), "count");
    put("sim.run_for.p50_us", Median(run_for_us), "us");
    put("sim.run_for.fixed_us", fixed_us, "us");
    put("sim.run_for.per_event_ns", per_event_ns, "ns");
    for (const char* c : {"supersteps", "windows", "cross_posts", "clamped",
                          "elided"}) {
      put(std::string("sim.executor.") + c, counter(std::string("sim.executor.") + c),
          "count");
    }
    put("sim.executor.parallelism", counter("sim.executor.parallelism"),
        "ratio");

    // Engine variants: run-phase wall at 0 (single queue), 1 and N threads.
    auto sim_s_of = [&](RunConfig cfg) {
      cfg.verify = false;
      return Iterate(cfg, &off, out).sim_s();
    };
    std::map<size_t, double> wall_by_threads;
    wall_by_threads[threads_] = Median(Collect(
        untraced, [](const IterationResult& r) { return r.sim_s(); }));
    const size_t n_threads = std::min<size_t>(4, NumCpus());
    for (size_t t : {size_t{0}, size_t{1}, n_threads}) {
      if (wall_by_threads.count(t) == 0) {
        RunConfig cfg = Standard();
        cfg.threads = t;
        wall_by_threads[t] = sim_s_of(cfg);
      }
    }
    put("sim.executor.speedup_vs_1t",
        ratio(wall_by_threads[1], wall_by_threads[n_threads]), "ratio");
    put("sim.executor.par1_vs_seq",
        ratio(wall_by_threads[1], wall_by_threads[0]), "ratio");

    const double messages = counter("sim.network.messages");
    put("sim.network.messages", messages, "count");
    put("sim.network.messages_per_update", ratio(messages, updates), "ratio");
    const double matched = counter("toolkit.shell.events_matched");
    const double candidates = counter("toolkit.shell.candidates");
    put("toolkit.shell.events_matched", matched, "count");
    put("toolkit.shell.candidates_per_event", ratio(candidates, matched),
        "ratio");
    put("toolkit.shell.match_ratio",
        ratio(counter("toolkit.shell.lhs_matches"), candidates), "ratio");
    put("toolkit.shell.firings", counter("toolkit.shell.firings"), "count");
    put_replay("rule.dispatch.ns_per_event",
               ReplayDispatchNs(last.trace, last.rules), "ns");

    put("trace.events", events, "count");
    put("trace.events_per_update", ratio(events, updates), "ratio");
    put_replay("trace.recorder.ns_per_event",
               ReplayRecorderNs(last.trace, threads_ > 0), "ns");
    put("trace.valid.ns_per_event", ratio(m["trace.valid.ms"].value * 1e6, events),
        "ns");
    put("trace.valid.obligations", counter("trace.valid.obligations"), "count");
    put("trace.valid.chain_events_scanned",
        counter("trace.valid.chain_events_scanned"), "count");
    for (const char* g : {"y-follows-x", "x-leads-y"}) {
      const std::string p = std::string("trace.guarantee.") + g + ".";
      const double witnesses = counter(p + "lhs_witnesses");
      put(p + "lhs_witnesses", witnesses, "count");
      put(p + "atom_evals", counter(p + "atom_evals"), "count");
      put(p + "atom_evals_per_witness",
          ratio(counter(p + "atom_evals"), witnesses), "ratio");
      put(p + "sample_cache_hit_ratio", counter(p + "sample_cache_hit_ratio"),
          "ratio");
      put(p + "match_cache_hit_ratio", counter(p + "match_cache_hit_ratio"),
          "ratio");
    }

    // Streaming checker: replayed in payroll-verify's verdict, attached live
    // in stanford-durable (its cost is the run-wall difference without it).
    const double stream_ms = span_ms("trace.stream");
    double live_ratio = 0;
    double storage_ratio = 0;
    const double std_sim_s = wall_by_threads[threads_];
    if (counter("storage.journal.records") > 0) {
      RunConfig cfg = Standard();
      cfg.live_checker = false;
      live_ratio = ratio(std_sim_s, sim_s_of(cfg));
      // Storage's cost includes its checkpoints: whole run phases here.
      cfg = Standard();
      cfg.storage = false;
      cfg.verify = false;
      storage_ratio =
          ratio(Median(Collect(untraced,
                               [](const IterationResult& r) { return r.run_s; })),
                Iterate(cfg, &off, out).run_s);
    }
    put("trace.stream.ns_per_event",
        stream_ms > 0 ? stream_ms * 1e6 / events
        : live_ratio > 0
            ? (std_sim_s - std_sim_s / live_ratio) * 1e9 / events
            : 0,
        "ns");
    put("trace.stream.live_overhead_ratio", live_ratio, "ratio");
    put("trace.stream.live_footprint_peak",
        counter("trace.stream.live_footprint_peak"), "count");
    put("trace.stream.obligations_resolved",
        counter("trace.stream.obligations_resolved"), "count");
    put("trace.stream.guarantee_windows_evaluated",
        counter("trace.stream.guarantee_windows_evaluated"), "count");

    for (const char* c : {"journal.records", "journal.commits",
                          "snapshot.bases", "snapshot.deltas",
                          "snapshot.compactions", "snapshot.files_deleted",
                          "recover.replayed_records", "recover.chain_deltas"}) {
      put(std::string("storage.") + c, counter(std::string("storage.") + c),
          "count");
    }
    PutMedian(&m, "storage.checkpoint.p50_ms", "ms",
              Pool(traced, &IterationResult::checkpoint_ms));
    PutMedian(&m, "storage.recover.ms", "ms",
              Pool(traced, &IterationResult::recover_ms));
    put("storage.journal.bytes", counter("storage.journal.bytes"), "B");
    put("storage.journal.bytes_per_event",
        ratio(counter("storage.journal.bytes"), events), "B");
    put("storage.run_overhead_ratio", storage_ratio, "ratio");

    // Coverage: layer self time / phase wall. Overhead: traced vs untraced
    // iteration wall (setup + run + verdict).
    auto wall = [](const IterationResult& r) {
      return r.setup_s + r.run_s + r.verdict_s;
    };
    put("trace_run.coverage", ratio(attributed_ns, phase_ns), "ratio");
    put("trace_run.overhead",
        ratio(Median(Collect(traced, wall)), Median(Collect(untraced, wall))) -
            1,
        "ratio");

    PrintLayerTable(layers, phase_ns, n_it);
    int64_t origin = on.spans().empty() ? 0 : on.spans().front().start_ns;
    WriteSpans(opts_.trace_path, on.spans(), origin);
  }

  void PrintLayerTable(const std::map<std::string, LayerRow>& layers,
                       double phase_ns, double n_it) const {
    std::vector<std::pair<std::string, LayerRow>> rows(layers.begin(),
                                                       layers.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      return a.second.self_ns > b.second.self_ns;
    });
    std::printf("\nper-layer self time, traced iterations (%g):\n", n_it);
    std::printf("  %-32s %12s %14s %8s\n", "span", "calls/iter",
                "self ms/iter", "share");
    for (const auto& [name, row] : rows) {
      std::printf("  %-32s %12.0f %14.3f %7.1f%%\n", name.c_str(),
                  row.calls / n_it, row.self_ns / 1e6 / n_it,
                  phase_ns > 0 ? 100.0 * row.self_ns / phase_ns : 0.0);
    }
  }

  const Options& opts_;
  Workload* w_;
  size_t threads_ = 0;
  IterationResult reference_;
};

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

void Report(const Options& opts, const Outcome& out, FILE* f, bool json) {
  const size_t failed = out.failures.size();
  if (!json) {
    std::fprintf(f,
                 "\nhcm_e2e %s seed=%" PRIu64 " scale=%s %s\n"
                 "  build=%s compiler=%s nproc=%zu git=%s\n"
                 "  iterations=%zu attempts=%zu failed=%zu trace_hash=%016" PRIx64
                 " golden=%s\n",
                 opts.workload.c_str(), opts.seed, opts.scale.c_str(),
                 opts.trace_path.empty() ? "untraced" : "traced",
                 HCM_BUILD_TYPE, Compiler().c_str(), NumCpus(), HCM_GIT_SHA,
                 out.iterations, out.attempts, failed, out.hash,
                 out.golden.c_str());
    for (const auto& [name, metric] : out.metrics) {
      std::fprintf(f, "  %-48s %16.6g %-10s (n=%zu)%s\n", name.c_str(),
                   metric.value, metric.unit.c_str(), metric.samples,
                   metric.replay_estimate ? " replay estimate" : "");
    }
    for (size_t i = 0; i < failed && i < 10; ++i) {
      std::fprintf(f, "  FAILED: %s\n", out.failures[i].c_str());
    }
    return;
  }
  std::fprintf(f, "{\n  \"provenance\": {\"build_type\": \"%s\", "
                  "\"compiler\": \"%s\", \"num_cpus\": %zu, \"git_sha\": "
                  "\"%s\", \"seed\": %" PRIu64 "},\n",
               HCM_BUILD_TYPE, JsonEscape(Compiler()).c_str(), NumCpus(),
               HCM_GIT_SHA, opts.seed);
  std::fprintf(f,
               "  \"workload\": \"%s\", \"scale\": \"%s\", \"traced\": %s, "
               "\"iterations\": %zu,\n  \"attempted\": %zu, \"failed\": %zu, "
               "\"correct\": %s, \"trace_hash\": \"%016" PRIx64
               "\", \"golden\": \"%s\",\n  \"failures\": [",
               opts.workload.c_str(), opts.scale.c_str(),
               opts.trace_path.empty() ? "false" : "true", out.iterations,
               out.attempts, failed, failed == 0 ? "true" : "false", out.hash,
               out.golden.c_str());
  for (size_t i = 0; i < failed && i < 10; ++i) {
    std::fprintf(f, "%s\"%s\"", i ? ", " : "",
                 JsonEscape(out.failures[i]).c_str());
  }
  std::fprintf(f, "],\n  \"metrics\": {");
  bool first = true;
  for (const auto& [name, metric] : out.metrics) {
    std::fprintf(f, "%s\n    \"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                    "\"samples\": %zu%s}",
                 first ? "" : ",", name.c_str(), metric.value,
                 metric.unit.c_str(), metric.samples,
                 metric.replay_estimate ? ", \"replay_estimate\": true" : "");
    first = false;
  }
  std::fprintf(f, "\n  }\n}\n");
}

// ---------------------------------------------------------------------------
// Self-test.
// ---------------------------------------------------------------------------

// Random traces with colliding (args, value) pairs, including destination
// writes that precede their source and unmatched ones.
bool SelftestLags() {
  Rng rng(99);
  for (int round = 0; round < 50; ++round) {
    trace::Trace t;
    int64_t now = 0;
    for (int i = 0; i < 400; ++i) {
      now += rng.UniformInt(0, 3);
      rule::Event e;
      e.time = TimePoint::FromMillis(now);
      e.site = "S";
      bool src = rng.Bernoulli(0.5);
      e.kind = rng.Bernoulli(0.85)
                   ? (src ? rule::EventKind::kWriteSpont : rule::EventKind::kWrite)
                   : rule::EventKind::kNotify;
      e.item = rule::ItemId{src ? "x" : "y", {Value::Int(rng.UniformInt(1, 3))}};
      Value v = Value::Int(rng.UniformInt(1, 4));
      e.values = e.kind == rule::EventKind::kWriteSpont
                     ? std::vector<Value>{Value::Null(), v}
                     : std::vector<Value>{v};
      t.events.push_back(e);
    }
    bench::LagStats old = bench::ComputeLag(t, "x", "y");
    Lags now_lags = ComputeLags(t, "x", "y");
    if (old.total != now_lags.total || old.propagated != now_lags.propagated ||
        old.mean_ms != now_lags.mean_ms || old.max_ms != now_lags.max_ms) {
      std::fprintf(stderr,
                   "ComputeLags mismatch in round %d: old %zu/%zu/%g/%lld "
                   "new %zu/%zu/%g/%lld\n",
                   round, old.total, old.propagated, old.mean_ms,
                   static_cast<long long>(old.max_ms), now_lags.total,
                   now_lags.propagated, now_lags.mean_ms,
                   static_cast<long long>(now_lags.max_ms));
      return false;
    }
  }
  std::printf("selftest: ComputeLags matches ComputeLag on 50 random traces\n");
  return true;
}

int Selftest(const std::string& workdir) {
  bool ok = SelftestLags();
  for (const char* name : {"payroll-interactive", "stanford-wide",
                           "payroll-verify", "stanford-durable"}) {
    for (uint64_t seed : {1, 2}) {
      Options opts;
      opts.workload = name;
      opts.seed = seed;
      opts.scale = "smoke";
      opts.iterations = 1;
      opts.workdir = workdir;
      auto w = MakeWorkload(name, opts.scale, seed, workdir);
      Outcome out = Bench(opts, w.get()).Run();
      bool pass = out.failures.empty() &&
                  FindGolden(name, seed, opts.scale) != nullptr;
      std::printf("selftest: %-20s seed=%" PRIu64 " trace_hash=%016" PRIx64
                  " golden=%s checks=%zu failed=%zu %s\n",
                  name, seed, out.hash, out.golden.c_str(), out.attempts,
                  out.failures.size(), pass ? "ok" : "FAIL");
      for (size_t i = 0; i < out.failures.size() && i < 5; ++i) {
        std::printf("  FAILED: %s\n", out.failures[i].c_str());
      }
      ok = ok && pass;
    }
  }
  return ok ? 0 : 1;
}

bool StartsWith(const char* arg, const char* prefix, const char** value) {
  size_t n = std::strlen(prefix);
  if (std::strncmp(arg, prefix, n) != 0) return false;
  *value = arg + n;
  return true;
}

int Main(int argc, char** argv) {
  // Every iteration builds and tears down a whole System. Keep the freed
  // heap in the process instead of returning it to the kernel, so each
  // iteration runs on warm pages as a long-lived deployment would, and the
  // timings do not depend on how fast a virtual machine re-supplies memory
  // it took back (minor faults per run drop about 5x).
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  mallopt(M_MMAP_THRESHOLD, 32 << 20);

  Options opts;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (std::strcmp(argv[i], "--selftest") == 0) {
      selftest = true;
    } else if (StartsWith(argv[i], "--workload=", &v)) {
      opts.workload = v;
    } else if (StartsWith(argv[i], "--seed=", &v)) {
      opts.seed = std::strtoull(v, nullptr, 10);
    } else if (StartsWith(argv[i], "--scale=", &v)) {
      opts.scale = v;
    } else if (StartsWith(argv[i], "--seconds=", &v)) {
      opts.seconds = std::atof(v);
    } else if (StartsWith(argv[i], "--iterations=", &v)) {
      opts.iterations = std::strtoull(v, nullptr, 10);
    } else if (StartsWith(argv[i], "--workdir=", &v)) {
      opts.workdir = v;
    } else if (StartsWith(argv[i], "--trace=", &v)) {
      opts.trace_path = v;
    } else if (StartsWith(argv[i], "--json=", &v)) {
      opts.json_path = v;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  if (selftest) return Selftest(opts.workdir);
  if (opts.scale != "full" && opts.scale != "smoke") {
    std::fprintf(stderr, "--scale must be full or smoke\n");
    return 2;
  }
  if (opts.scale == "full" && std::strcmp(HCM_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "--scale=full needs a Release build (this is %s); configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 HCM_BUILD_TYPE);
    return 2;
  }
  std::unique_ptr<Workload> w =
      MakeWorkload(opts.workload, opts.scale, opts.seed, opts.workdir);
  if (w == nullptr) {
    std::fprintf(stderr,
                 "unknown --workload=%s (payroll-interactive, stanford-wide, "
                 "payroll-verify, stanford-durable)\n",
                 opts.workload.c_str());
    return 2;
  }
  Outcome out = Bench(opts, w.get()).Run();
  Report(opts, out, stdout, /*json=*/false);
  if (!opts.json_path.empty()) {
    FILE* f = std::fopen(opts.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", opts.json_path.c_str());
      return 2;
    }
    Report(opts, out, f, /*json=*/true);
    std::fclose(f);
  }
  return out.failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace hcm::e2e

int main(int argc, char** argv) { return hcm::e2e::Main(argc, argv); }
