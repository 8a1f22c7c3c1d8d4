// The four workloads of hcm_e2e, driven through the public toolkit::System
// API only. Two deployments from the paper, each run in two shapes:
//
//   payroll-interactive  E1 payroll, closed loop: thousands of short RunFor
//                        round trips; the checker does almost nothing.
//   payroll-verify       E1 payroll, small run; almost all time goes to the
//                        offline and streaming checkers.
//   stanford-wide        E9 Stanford, 128 lanes on the parallel engine, one
//                        RunFor over a pre-scheduled open-loop stream.
//   stanford-durable     E9 Stanford, 32 lanes with stores, checkpoints,
//                        crashes, a live streaming checker and recovery.
//
// Every driver call into a layer is wrapped in a Timed span; layer counters
// are read through public accessors after the run.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/e2e/e2e.h"
#include "src/common/rng.h"
#include "src/ris/relational/database.h"
#include "src/ris/whois/whois.h"
#include "src/rule/parser.h"
#include "src/sim/parallel_executor.h"
#include "src/spec/guarantee.h"
#include "src/storage/site_store.h"
#include "src/toolkit/system.h"
#include "src/trace/guarantee_checker.h"
#include "src/trace/streaming_checker.h"
#include "src/trace/valid_execution.h"

namespace hcm::e2e {
namespace {

using rule::ItemId;
using toolkit::System;

// κ of the suggested strategies' metric guarantee in both deployments:
// notify interface 1s + strategy δ 5s + write interface 2s + 1s margin
// (see spec::SuggestStrategies).
constexpr int64_t kKappaMs = 9000;

template <typename F>
auto TimedCall(Tracer* tracer, const char* name, int64_t* elapsed_ns, F&& f) {
  Timed t(tracer, name, elapsed_ns);
  return f();
}

// Suggests strategies for the copy x -> y, installs the first, and appends
// its rules with the ids the System assigns them: from 1 in install order
// across all strategies, prohibitions skipped.
std::vector<spec::Guarantee> InstallCopy(System& sys, const std::string& key,
                                         const std::string& x,
                                         const std::string& y, Tracer* tr,
                                         IterationResult* r,
                                         std::vector<rule::Rule>* rules) {
  auto constraint = spec::MakeCopyConstraint(x, y);
  r->CheckStatus(constraint.status(), "MakeCopyConstraint");
  auto suggestions = TimedCall(tr, "spec.suggest", nullptr,
                               [&] { return sys.Suggest(*constraint); });
  r->CheckStatus(suggestions.status(), "Suggest");
  if (!suggestions.ok() || suggestions->empty()) return {};
  const spec::StrategySpec& strategy = suggestions->front().strategy;
  r->CheckStatus(TimedCall(tr, "toolkit.install_strategy", nullptr,
                           [&] {
                             return sys.InstallStrategy(key, *constraint,
                                                        strategy);
                           }),
                 "InstallStrategy");
  for (rule::Rule rl : strategy.rules) {
    if (rl.forbids()) continue;
    rl.id = static_cast<int64_t>(rules->size()) + 1;
    rules->push_back(std::move(rl));
  }
  return strategy.guarantees;
}

// One RunFor, recorded with the events it produced (the recorder's count
// delta) for the traced run's fixed-cost / per-event fit.
void TimedRunFor(System& sys, Duration d, Tracer* tr, IterationResult* r) {
  size_t before = sys.recorder().num_events();
  int64_t ns = 0;
  {
    Timed t(tr, "sim.run_for", &ns);
    sys.RunFor(d);
  }
  r->run_for.emplace_back(
      static_cast<double>(sys.recorder().num_events() - before), ns / 1e3);
}

// Layer counters every workload reports, read after the run.
void ReadCounters(System& sys, const std::vector<std::string>& sites,
                  IterationResult* r) {
  auto& c = r->counters;
  if (auto* pex = dynamic_cast<sim::ParallelExecutor*>(&sys.executor())) {
    c["sim.executor.supersteps"] = static_cast<double>(pex->supersteps());
    c["sim.executor.windows"] = static_cast<double>(pex->windows_executed());
    c["sim.executor.cross_posts"] = static_cast<double>(pex->cross_posts());
    c["sim.executor.clamped"] =
        static_cast<double>(pex->clamped_cross_posts());
    c["sim.executor.elided"] = static_cast<double>(pex->elided_cross_posts());
    c["sim.executor.parallelism"] = pex->parallelism();
  }
  c["sim.network.messages"] =
      static_cast<double>(sys.network().total_messages_sent());
  toolkit::Shell::DispatchStats d = sys.AggregateDispatchStats();
  c["toolkit.shell.events_matched"] = static_cast<double>(d.events_matched);
  c["toolkit.shell.candidates"] = static_cast<double>(d.candidates_considered);
  c["toolkit.shell.lhs_matches"] = static_cast<double>(d.lhs_matches);
  c["toolkit.shell.firings"] = static_cast<double>(d.firings);
  for (const std::string& site : sites) {
    auto store = sys.StoreAt(site);
    if (!store.ok()) continue;
    storage::SiteStore* s = *store;
    c["storage.journal.records"] +=
        static_cast<double>(s->journal().records_committed());
    c["storage.journal.bytes"] +=
        static_cast<double>(s->journal().bytes_committed());
    c["storage.journal.commits"] += static_cast<double>(s->journal().commits());
    c["storage.snapshot.bases"] += static_cast<double>(s->snapshots_written());
    c["storage.snapshot.deltas"] += static_cast<double>(s->deltas_written());
    c["storage.snapshot.compactions"] += static_cast<double>(s->compactions());
    c["storage.snapshot.files_deleted"] +=
        static_cast<double>(s->snapshot_files_deleted());
  }
}

void ReadValidCounters(const trace::ExecutionReport& report,
                       IterationResult* r) {
  r->counters["trace.valid.obligations"] =
      static_cast<double>(report.obligations_checked);
  r->counters["trace.valid.chain_events_scanned"] =
      static_cast<double>(report.stats.chain_events_scanned);
}

void ReadGuaranteeCounters(const std::string& name,
                           const trace::GuaranteeCheckResult& g,
                           IterationResult* r) {
  const std::string p = "trace.guarantee." + name + ".";
  auto ratio = [](uint64_t hits, uint64_t misses) {
    return hits + misses == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(hits + misses);
  };
  r->counters[p + "lhs_witnesses"] = static_cast<double>(g.lhs_witnesses);
  r->counters[p + "atom_evals"] = static_cast<double>(g.stats.atom_evals);
  r->counters[p + "sample_cache_hit_ratio"] =
      ratio(g.stats.sample_cache_hits, g.stats.sample_cache_misses);
  r->counters[p + "match_cache_hit_ratio"] =
      ratio(g.stats.match_cache_hits, g.stats.match_cache_misses);
}

void ReadStreamCounters(const trace::StreamingChecker& checker,
                        IterationResult* r) {
  const trace::StreamingCheckStats& s = checker.stats();
  r->counters["trace.stream.live_footprint_peak"] =
      static_cast<double>(s.live_footprint_peak);
  r->counters["trace.stream.obligations_resolved"] =
      static_cast<double>(s.obligations_resolved);
  r->counters["trace.stream.guarantee_windows_evaluated"] =
      static_cast<double>(s.guarantee_windows_evaluated);
}

// Feeds a finished trace through a streaming checker the way a recorder
// would: initial values, then events with a watermark at every new instant.
// OnFinish is left to the caller so it can be timed on its own.
void FeedTrace(const trace::Trace& t, trace::StreamingChecker* checker) {
  for (const auto& [item, value] : t.initial_values) {
    checker->OnInitialValue(item, value);
  }
  bool first = true;
  TimePoint last;
  for (const rule::Event& e : t.events) {
    if (first || last < e.time) {
      first = false;
      last = e.time;
      checker->OnWatermark(last);
    }
    checker->OnEvent(e);
  }
}

void CheckLags(const trace::Trace& t, const std::string& src,
               const std::string& dst, IterationResult* r) {
  Lags lags = ComputeLags(t, src, dst);
  r->Check(lags.propagated > 0, "no " + src + " write reached " + dst);
  r->Check(lags.max_ms <= kKappaMs,
           src + " -> " + dst + " lag " + std::to_string(lags.max_ms) +
               " ms exceeds kappa");
  r->lags_ms.insert(r->lags_ms.end(), lags.lags_ms.begin(),
                    lags.lags_ms.end());
}

// ---------------------------------------------------------------------------
// E1 payroll: sites A and B hold employees(empid, name, salary); salary1(n)
// at A offers notify, salary2(n) at B offers write; the suggested
// update-propagation strategy copies salary1 to salary2.
// ---------------------------------------------------------------------------

constexpr const char* kPayrollRidA = R"(
ris relational
site A
param notify_delay 100ms
param read_delay 50ms
item salary1
  read   select salary from employees where empid = $1
  write  update employees set salary = $v where empid = $1
  list   select empid from employees
  notify trigger employees salary empid
interface notify salary1(n) 1s
)";

constexpr const char* kPayrollRidB = R"(
ris relational
site B
param write_delay 100ms
item salary2
  read   select salary from employees where empid = $1
  write  update employees set salary = $v where empid = $1
  list   select empid from employees
interface write salary2(n) 2s
)";

struct Write {
  ItemId item;
  Value value;
};

// A closed-loop driver step: the writes, then RunFor(gap).
struct Step {
  std::vector<Write> writes;
  int64_t gap_ms = 0;
};

void SeedEmployees(ris::relational::Database* db, int employees,
                   IterationResult* r) {
  r->Check(db->Execute("create table employees (empid int primary key, "
                       "name str, salary int)")
               .ok(),
           "create employees");
  for (int n = 1; n <= employees; ++n) {
    r->Check(db->Execute("insert into employees values (" + std::to_string(n) +
                         ", 'emp', 50000)")
                 .ok(),
             "insert employee");
  }
}

class PayrollWorkload : public Workload {
 public:
  PayrollWorkload(int employees, std::vector<Step> steps, Duration tail,
                  bool check_guarantees)
      : employees_(employees),
        steps_(std::move(steps)),
        tail_(tail),
        check_guarantees_(check_guarantees) {}

  bool parallel() const override { return false; }

  IterationResult Run(const RunConfig& config, Tracer* tr) override {
    IterationResult r;
    int64_t setup_ns = 0, run_ns = 0, verdict_ns = 0;
    toolkit::SystemOptions opts;
    opts.num_threads = config.threads;
    std::unique_ptr<System> sys;
    std::vector<rule::Rule> rules;

    {
      Timed phase(tr, "phase.setup", &setup_ns);
      {
        Timed t(tr, "toolkit.new_system");
        sys = std::make_unique<System>(opts);
      }
      for (const char* site : {"A", "B"}) {
        Timed t(tr, "ris.seed");
        auto db = sys->AddRelationalSite(site);
        r.CheckStatus(db.status(), "AddRelationalSite");
        if (db.ok()) SeedEmployees(*db, employees_, &r);
      }
      for (const char* rid : {kPayrollRidA, kPayrollRidB}) {
        Timed t(tr, "toolkit.configure_translator");
        r.CheckStatus(sys->ConfigureTranslator(rid), "ConfigureTranslator");
      }
      {
        Timed t(tr, "toolkit.declare_initial");
        for (int n = 1; n <= employees_; ++n) {
          for (const char* base : {"salary1", "salary2"}) {
            r.CheckStatus(sys->DeclareInitial(ItemId{base, {Value::Int(n)}}),
                          "DeclareInitial");
          }
        }
      }
      InstallCopy(*sys, "payroll", "salary1(n)", "salary2(n)", tr, &r, &rules);
    }

    {
      Timed phase(tr, "phase.run", &run_ns);
      for (const Step& s : steps_) {
        int64_t step_ns = 0;
        {
          Timed st(tr, "step", &step_ns);
          for (const Write& w : s.writes) {
            int64_t write_ns = 0;
            {
              Timed t(tr, "toolkit.workload_write",
                      tr->enabled() ? &write_ns : nullptr);
              r.CheckStatus(sys->WorkloadWrite(w.item, w.value),
                            "WorkloadWrite");
            }
            if (tr->enabled()) r.write_ns.push_back(static_cast<double>(write_ns));
          }
          TimedRunFor(*sys, Duration::Millis(s.gap_ms), tr, &r);
        }
        r.step_us.push_back(step_ns / 1e3);
        r.updates += s.writes.size();
      }
      TimedRunFor(*sys, tail_, tr, &r);
    }
    ReadCounters(*sys, {"A", "B"}, &r);

    trace::Trace t;
    const spec::Guarantee yfx = spec::YFollowsX("salary1(n)", "salary2(n)");
    const spec::Guarantee xly = spec::XLeadsY("salary1(n)", "salary2(n)");
    std::optional<trace::ExecutionReport> report;
    std::optional<Result<trace::GuaranteeCheckResult>> g_yfx, g_xly;
    std::unique_ptr<trace::StreamingChecker> checker;
    trace::GuaranteeCheckOptions gopts;
    // Covers the propagation delay (~0.3s) of writes near the horizon.
    gopts.settle_margin = Duration::Seconds(2);
    {
      Timed phase(tr, "phase.verdict", &verdict_ns);
      t = TimedCall(tr, "trace.finish", nullptr,
                    [&] { return sys->FinishTrace(); });
      if (config.verify) {
        report = TimedCall(tr, "trace.valid", nullptr, [&] {
          return trace::CheckValidExecution(t, rules);
        });
      }
      if (config.verify && check_guarantees_) {
        g_yfx = TimedCall(tr, "trace.guarantee.y-follows-x", nullptr,
                          [&] { return trace::CheckGuarantee(t, yfx, gopts); });
        g_xly = TimedCall(tr, "trace.guarantee.x-leads-y", nullptr,
                          [&] { return trace::CheckGuarantee(t, xly, gopts); });
        int64_t stream_ns = 0;
        {
          Timed st(tr, "trace.stream", &stream_ns);
          trace::StreamingCheckOptions sopts;
          sopts.guarantee = gopts;
          checker = std::make_unique<trace::StreamingChecker>(
              rules, std::vector<spec::Guarantee>{yfx, xly}, sopts);
          FeedTrace(t, checker.get());
          Timed fin(tr, "trace.stream.finish");
          checker->OnFinish(t.horizon);
        }
        r.stream_verdict_s = stream_ns / 1e9;
      }
    }
    r.setup_s = setup_ns / 1e9;
    r.run_s = run_ns / 1e9;
    r.verdict_s = verdict_ns / 1e9;
    r.events = t.events.size();

    if (report) {
      r.Check(report->valid, "valid execution: " + report->ToString());
      ReadValidCounters(*report, &r);
    }
    if (g_yfx && g_xly) {
      r.Check(g_yfx->ok() && (*g_yfx)->holds, "y-follows-x holds");
      r.Check(g_xly->ok() && (*g_xly)->holds, "x-leads-y holds");
      if (g_yfx->ok() && g_xly->ok()) {
        ReadGuaranteeCounters("y-follows-x", **g_yfx, &r);
        ReadGuaranteeCounters("x-leads-y", **g_xly, &r);
        const auto& streamed = checker->guarantee_results();
        r.Check(streamed.count(yfx.name) > 0 &&
                    streamed.at(yfx.name).ToString() == (*g_yfx)->ToString(),
                "streaming y-follows-x report matches offline");
        r.Check(streamed.count(xly.name) > 0 &&
                    streamed.at(xly.name).ToString() == (*g_xly)->ToString(),
                "streaming x-leads-y report matches offline");
      }
      r.Check(checker->execution_report().ToString() == report->ToString(),
              "streaming execution report matches offline");
      ReadStreamCounters(*checker, &r);
    }
    if (config.verify) {
      for (int n = 1; n <= employees_; ++n) {
        auto x = sys->WorkloadRead(ItemId{"salary1", {Value::Int(n)}});
        auto y = sys->WorkloadRead(ItemId{"salary2", {Value::Int(n)}});
        r.Check(x.ok() && y.ok() && *x == *y,
                "salary2(" + std::to_string(n) + ") converged");
      }
      CheckLags(t, "salary1", "salary2", &r);
      r.has_hash = true;
      r.trace_hash = TraceHash(t);
    }
    if (config.keep_trace) {
      r.trace = std::move(t);
      r.rules = std::move(rules);
    }
    return r;
  }

  double ReplaySourceWritesNs(const trace::Trace& t) override {
    IterationResult scratch;
    ris::relational::Database db("side");
    SeedEmployees(&db, employees_, &scratch);
    std::vector<double> ns;
    for (const rule::Event& e : t.events) {
      if (e.kind != rule::EventKind::kWriteSpont || e.item.base != "salary1") {
        continue;
      }
      std::string sql = "update employees set salary = " +
                        e.written_value().ToString() +
                        " where empid = " + e.item.args.at(0).ToString();
      int64_t start = NowNs();
      bool ok = db.Execute(sql).ok();
      ns.push_back(static_cast<double>(NowNs() - start));
      if (!ok) return 0;
    }
    return Median(ns);
  }

 private:
  int employees_;
  std::vector<Step> steps_;
  Duration tail_;
  bool check_guarantees_;
};

// Closed loop, one client: each step writes `writes_per_step` distinct
// employees, then runs U[40,120] ms of virtual time.
std::vector<Step> InteractiveSteps(Rng& rng, int employees, int steps,
                                   int writes_per_step) {
  std::vector<int> ids(static_cast<size_t>(employees));
  for (int i = 0; i < employees; ++i) ids[static_cast<size_t>(i)] = i + 1;
  std::vector<Step> out(static_cast<size_t>(steps));
  for (Step& s : out) {
    for (int k = 0; k < writes_per_step; ++k) {
      size_t j = static_cast<size_t>(k) +
                 rng.Index(static_cast<size_t>(employees - k));
      std::swap(ids[static_cast<size_t>(k)], ids[j]);
      s.writes.push_back(
          Write{ItemId{"salary1", {Value::Int(ids[static_cast<size_t>(k)])}},
                Value::Int(rng.UniformInt(50000, 90000))});
    }
    s.gap_ms = rng.UniformInt(40, 120);
  }
  return out;
}

// One write per step, exponential gaps (mean 37 ms of virtual time). Gaps
// are at least 1 ms: two same-instant writes to one item would chain in
// the timeline and the intermediate value would (correctly) fail
// y-follows-x, which is a different workload.
std::vector<Step> VerifySteps(Rng& rng, int employees, int updates) {
  std::vector<Step> out(static_cast<size_t>(updates));
  for (Step& s : out) {
    s.writes.push_back(
        Write{ItemId{"salary1", {Value::Int(rng.UniformInt(1, employees))}},
              Value::Int(rng.UniformInt(50000, 90000))});
    s.gap_ms = std::max<int64_t>(1, std::llround(rng.Exponential(37.0)));
  }
  return out;
}

// ---------------------------------------------------------------------------
// E9 Stanford, replicated per department d: WHOIS<d> (notify phone),
// LOOKUP<d> (filestore CsdPhone copy), GROUP<d> (relational GroupPhone
// copy), and MON<d>, a shell-only site whose relay rule is classified
// monotone, so its fires take the parallel engine's CALM-elided path.
// ---------------------------------------------------------------------------

// Expands '@' to the department number ('$1'/'$v' are RID placeholders).
std::string Dept(std::string text, const std::string& d) {
  for (size_t pos; (pos = text.find('@')) != std::string::npos;) {
    text.replace(pos, 1, d);
  }
  return text;
}

constexpr const char* kRidWhois = R"(
ris whois
site WHOIS@
param notify_delay 200ms
item phone@
  read   get $1 phone
  write  set $1 phone $v
  list   list
  notify attr phone
interface notify phone@(n) 1s
)";

constexpr const char* kRidLookup = R"(
ris filestore
site LOOKUP@
item CsdPhone@
  read  /staff/phone/$1
  write /staff/phone/$1
  list  /staff/phone/
interface write CsdPhone@(n) 2s
)";

constexpr const char* kRidGroup = R"(
ris relational
site GROUP@
item GroupPhone@
  read   select phone from members where login = $1
  write  update members set phone = $v where login = $1
  list   select login from members
interface write GroupPhone@(n) 2s
)";

std::string Login(int i) { return "user" + std::to_string(i); }

struct Update {
  int64_t at_ms = 0;
  int dept = 0;
  Write write;
};

class StanfordWorkload : public Workload {
 public:
  // `active_ms` of open-loop updates, then `tail_ms` of quiet; durable runs
  // step through both in kCheckpointMs slices with a checkpoint after each
  // and crash every GROUP<d> once for kOutageMs.
  StanfordWorkload(int departments, int staff, std::vector<Update> updates,
                   int64_t active_ms, int64_t tail_ms, bool durable,
                   std::vector<int64_t> crash_at_ms, const std::string& workdir)
      : departments_(departments),
        staff_(staff),
        updates_(std::move(updates)),
        active_ms_(active_ms),
        tail_ms_(tail_ms),
        durable_(durable),
        crash_at_ms_(std::move(crash_at_ms)),
        workdir_(workdir) {
    for (int d = 0; d < departments_; ++d) {
      std::string s = std::to_string(d);
      for (const char* prefix : {"GROUP", "LOOKUP", "MON", "WHOIS"}) {
        sites_.push_back(prefix + s);
      }
    }
    // A killed run may have left stores behind.
    if (durable_) RemoveStores();
  }

  bool parallel() const override { return true; }

  static constexpr int64_t kCheckpointMs = 10000;
  static constexpr int64_t kOutageMs = 1000;

  IterationResult Run(const RunConfig& config, Tracer* tr) override {
    IterationResult r;
    int64_t setup_ns = 0, run_ns = 0, verdict_ns = 0;
    const bool storage = durable_ && config.storage;
    toolkit::SystemOptions opts;
    opts.num_threads = config.threads;
    if (storage) {
      opts.storage.dir = StoreDir();
      // Short chains, so every iteration also compacts and garbage-collects.
      opts.storage.max_chain_length = 4;
    }
    // The checker must outlive the System's last RunFor/FinishTrace.
    std::unique_ptr<trace::StreamingChecker> checker;
    std::unique_ptr<System> sys;
    std::vector<rule::Rule> rules;
    std::vector<std::vector<spec::Guarantee>> group_guarantees;

    {
      Timed phase(tr, "phase.setup", &setup_ns);
      {
        Timed t(tr, "toolkit.new_system");
        sys = std::make_unique<System>(opts);
      }
      for (int d = 0; d < departments_; ++d) {
        group_guarantees.push_back(BuildDepartment(*sys, d, tr, &r, &rules));
      }
      if (durable_ && config.live_checker) {
        Timed t(tr, "trace.stream.attach");
        checker = std::make_unique<trace::StreamingChecker>(
            rules, std::vector<spec::Guarantee>{});
        r.CheckStatus(sys->AttachStreamingChecker(checker.get()),
                      "AttachStreamingChecker");
      }
      if (storage) {
        Timed t(tr, "toolkit.schedule_crash");
        for (int d = 0; d < departments_; ++d) {
          TimePoint at = TimePoint::FromMillis(crash_at_ms_[static_cast<size_t>(d)]);
          r.CheckStatus(sys->ScheduleCrash("GROUP" + std::to_string(d), at,
                                           at + Duration::Millis(kOutageMs)),
                        "ScheduleCrash");
        }
      }
    }

    // One slot per update, written only by the lane that runs it.
    std::vector<uint8_t> write_ok(updates_.size(), 0);
    std::vector<std::string> whois_sites;
    for (int d = 0; d < departments_; ++d) {
      whois_sites.push_back("WHOIS" + std::to_string(d));
    }
    std::vector<int64_t> write_ns(tr->enabled() ? updates_.size() : 0, 0);
    {
      Timed phase(tr, "phase.run", &run_ns);
      {
        Timed t(tr, "sim.post_at");
        for (size_t i = 0; i < updates_.size(); ++i) {
          const Update* u = &updates_[i];
          uint8_t* ok = &write_ok[i];
          int64_t* ns = write_ns.empty() ? nullptr : &write_ns[i];
          System* s = sys.get();
          sys->executor().PostAt(
              whois_sites[static_cast<size_t>(u->dept)],
              TimePoint::FromMillis(u->at_ms),
              [s, u, ok, ns] {
                int64_t start = ns != nullptr ? NowNs() : 0;
                *ok = s->WorkloadWrite(u->write.item, u->write.value).ok();
                if (ns != nullptr) *ns = NowNs() - start;
              });
        }
      }
      // Durable runs step through checkpoint periods; the wide run is one
      // step of one RunFor.
      const int64_t end_ms = active_ms_ + tail_ms_;
      const int64_t step_ms = durable_ ? kCheckpointMs : end_ms;
      for (int64_t at = 0; at < end_ms; at += step_ms) {
        int64_t step_ns = 0;
        {
          Timed st(tr, "step", &step_ns);
          TimedRunFor(*sys, Duration::Millis(step_ms), tr, &r);
          if (storage) {
            int64_t ckpt_ns = 0;
            r.CheckStatus(TimedCall(tr, "storage.checkpoint", &ckpt_ns,
                                    [&] { return sys->CheckpointStorage(); }),
                          "CheckpointStorage");
            r.checkpoint_ms.push_back(ckpt_ns / 1e6);
          }
        }
        r.step_us.push_back(step_ns / 1e3);
      }
    }
    for (size_t i = 0; i < updates_.size(); ++i) {
      r.Check(write_ok[i] != 0, "WorkloadWrite");
    }
    for (int64_t ns : write_ns) r.write_ns.push_back(static_cast<double>(ns));
    r.updates = updates_.size();
    ReadCounters(*sys, sites_, &r);

    trace::Trace t;
    std::optional<trace::ExecutionReport> report;
    {
      Timed phase(tr, "phase.verdict", &verdict_ns);
      t = TimedCall(tr, "trace.finish", nullptr,
                    [&] { return sys->FinishTrace(); });
      if (config.verify) {
        trace::ValidExecutionOptions vopts;
        for (const auto& w : sys->failures().DownWindows()) {
          vopts.outages.push_back(trace::SiteOutage{w.site, w.from, w.to});
        }
        report = TimedCall(tr, "trace.valid", nullptr, [&] {
          return trace::CheckValidExecution(t, rules, vopts);
        });
      }
    }
    r.setup_s = setup_ns / 1e9;
    r.run_s = run_ns / 1e9;
    r.events = t.events.size();

    if (report) {
      r.Check(report->valid, "valid execution: " + report->ToString());
      ReadValidCounters(*report, &r);
      if (checker != nullptr) {
        r.Check(checker->execution_report().ToString() == report->ToString(),
                "live streaming report matches offline");
        ReadStreamCounters(*checker, &r);
      }
    }
    std::map<std::pair<std::string, ItemId>, Value> live_private;
    if (config.verify) {
      VerifyCopies(*sys, t, &r);
      if (storage) {
        VerifyVoidWindows(*sys, group_guarantees, &r);
        live_private = LivePrivateData(*sys);
      }
      r.has_hash = true;
      r.trace_hash = TraceHash(t);
    }
    if (config.keep_trace) {
      r.trace = std::move(t);
      r.rules = std::move(rules);
    }

    // Every store is recovered once its System is gone, so nothing else
    // holds the files. Recovery is file I/O, timed on its own (recover_ms)
    // rather than as part of the verdict.
    sys.reset();
    r.verdict_s = verdict_ns / 1e9;
    if (storage && config.verify) {
      std::vector<Result<storage::RecoveredState>> recovered;
      {
        Timed phase(tr, "phase.recover");
        for (const std::string& site : sites_) {
          int64_t ns = 0;
          recovered.push_back(TimedCall(tr, "storage.recover", &ns, [&] {
            auto store = storage::SiteStore::Open(opts.storage, site);
            return store.ok() ? (*store)->Recover()
                              : Result<storage::RecoveredState>(store.status());
          }));
          r.recover_ms.push_back(ns / 1e6);
        }
      }
      VerifyRecovery(recovered, live_private, &r);
    }
    if (storage) RemoveStores();
    return r;
  }

  double ReplaySourceWritesNs(const trace::Trace& t) override {
    ris::whois::WhoisServer whois("side");
    for (int i = 0; i < staff_; ++i) {
      whois.Query("set " + Login(i) + " phone 000-0000");
    }
    std::vector<double> ns;
    for (const rule::Event& e : t.events) {
      if (e.kind != rule::EventKind::kWriteSpont) continue;
      std::string q = "set " + e.item.args.at(0).AsStr() + " phone " +
                      e.written_value().AsStr();
      int64_t start = NowNs();
      std::string reply = whois.Query(q);
      ns.push_back(static_cast<double>(NowNs() - start));
      if (reply != "OK") return 0;
    }
    return Median(ns);
  }

 private:
  std::string StoreDir() const { return workdir_ + "/stanford-store"; }

  // Deletes the stores, then commits the filesystem so the next iteration
  // starts with nothing pending: with ext4's ordered data mode, metadata
  // commits wait on pending data writeback (and on `discard` mounts, on
  // trimming freed blocks), and iterations that inherit it create files
  // several times slower.
  void RemoveStores() const {
    std::error_code ec;
    std::filesystem::remove_all(StoreDir(), ec);
    int fd = ::open(workdir_.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd >= 0) {
      ::syncfs(fd);
      ::close(fd);
    }
  }

  // Builds department d and installs its two copies and the monitor relay.
  // Returns the GroupPhone copy's guarantees (those the GROUP crash voids).
  std::vector<spec::Guarantee> BuildDepartment(System& sys, int dept,
                                               Tracer* tr, IterationResult* r,
                                               std::vector<rule::Rule>* rules) {
    const std::string d = std::to_string(dept);
    {
      Timed t(tr, "ris.seed");
      auto whois = sys.AddWhoisSite("WHOIS" + d);
      auto lookup = sys.AddFileSite("LOOKUP" + d);
      auto group = sys.AddRelationalSite("GROUP" + d);
      r->Check(whois.ok() && lookup.ok() && group.ok(), "add department sites");
      if (!whois.ok() || !lookup.ok() || !group.ok()) return {};
      r->Check((*group)
                   ->Execute("create table members (login str primary key, "
                             "phone str)")
                   .ok(),
               "create members");
      for (int i = 0; i < staff_; ++i) {
        const std::string login = Login(i);
        (*whois)->Query("set " + login + " phone 000-0000");
        (*lookup)->Write("/staff/phone/" + login, "\"000-0000\"");
        r->Check((*group)
                     ->Execute("insert into members values ('" + login +
                               "', '000-0000')")
                     .ok(),
                 "insert member");
      }
    }
    for (const char* rid : {kRidWhois, kRidLookup, kRidGroup}) {
      Timed t(tr, "toolkit.configure_translator");
      r->CheckStatus(sys.ConfigureTranslator(Dept(rid, d)),
                     "ConfigureTranslator");
    }
    {
      Timed t(tr, "toolkit.declare_initial");
      for (int i = 0; i < staff_; ++i) {
        Value login = Value::Str(Login(i));
        for (const char* base : {"phone", "CsdPhone", "GroupPhone"}) {
          r->CheckStatus(sys.DeclareInitial(ItemId{base + d, {login}}),
                         "DeclareInitial");
        }
      }
    }
    const std::string x = "phone" + d + "(n)";
    InstallCopy(sys, "c/CsdPhone" + d + "(n)", x, "CsdPhone" + d + "(n)", tr,
                r, rules);
    std::vector<spec::Guarantee> group = InstallCopy(
        sys, "c/GroupPhone" + d + "(n)", x, "GroupPhone" + d + "(n)", tr, r,
        rules);
    {
      Timed t(tr, "toolkit.install_strategy");
      r->CheckStatus(sys.RegisterPrivateItem("Relay" + d, "MON" + d),
                     "RegisterPrivateItem");
      spec::StrategySpec relay;
      relay.name = "relay" + d;
      auto parsed = rule::ParseRuleSet(
          Dept("relay@: N(phone@(n), b) -> 2s W(Relay@(n), b)", d));
      r->CheckStatus(parsed.status(), "ParseRuleSet");
      if (parsed.ok()) relay.rules = *parsed;
      auto constraint = spec::MakeCopyConstraint(x, "Relay" + d + "(n)");
      r->CheckStatus(constraint.status(), "MakeCopyConstraint");
      if (constraint.ok()) {
        r->CheckStatus(sys.InstallStrategy("relay/" + d, *constraint, relay),
                       "InstallStrategy");
      }
      for (rule::Rule rl : relay.rules) {
        rl.id = static_cast<int64_t>(rules->size()) + 1;
        rules->push_back(std::move(rl));
      }
    }
    return group;
  }

  // Every updated item converged on both copies and the monitor relay, and
  // each propagation landed within κ.
  void VerifyCopies(System& sys, const trace::Trace& t, IterationResult* r) {
    std::vector<std::vector<bool>> touched(
        static_cast<size_t>(departments_),
        std::vector<bool>(static_cast<size_t>(staff_), false));
    for (const Update& u : updates_) {
      int i = std::stoi(u.write.item.args[0].AsStr().substr(4));
      touched[static_cast<size_t>(u.dept)][static_cast<size_t>(i)] = true;
    }
    for (int dept = 0; dept < departments_; ++dept) {
      const std::string d = std::to_string(dept);
      for (int i = 0; i < staff_; ++i) {
        Value login = Value::Str(Login(i));
        auto x = sys.WorkloadRead(ItemId{"phone" + d, {login}});
        auto csd = sys.WorkloadRead(ItemId{"CsdPhone" + d, {login}});
        auto grp = sys.WorkloadRead(ItemId{"GroupPhone" + d, {login}});
        bool ok = x.ok() && csd.ok() && grp.ok() && *x == *csd && *x == *grp;
        if (ok && touched[static_cast<size_t>(dept)][static_cast<size_t>(i)]) {
          auto relay = sys.ReadAuxiliary("MON" + d, ItemId{"Relay" + d, {login}});
          ok = relay.ok() && *relay == *x;
        }
        r->Check(ok, "phone" + d + "(" + Login(i) + ") copies converged");
      }
      CheckLags(t, "phone" + d, "CsdPhone" + d, r);
      CheckLags(t, "phone" + d, "GroupPhone" + d, r);
    }
  }

  // A clean 1 s GROUP<d> crash inside δ is a metric failure: the GroupPhone
  // copy's metric guarantees are void exactly from the crash instant past
  // the restart, its other guarantees and every CsdPhone guarantee never.
  void VerifyVoidWindows(System& sys,
                         const std::vector<std::vector<spec::Guarantee>>& group,
                         IterationResult* r) {
    for (int dept = 0; dept < departments_; ++dept) {
      const std::string d = std::to_string(dept);
      TimePoint crash = TimePoint::FromMillis(crash_at_ms_[static_cast<size_t>(dept)]);
      for (const spec::Guarantee& g : group[static_cast<size_t>(dept)]) {
        for (const std::string copy : {"CsdPhone", "GroupPhone"}) {
          const std::string key = "c/" + copy + d + "(n)/" + g.name;
          auto detail = sys.guarantee_status().DetailOf(key);
          bool ok = detail.ok() &&
                    detail->validity == toolkit::GuaranteeValidity::kValid;
          if (ok && copy == "GroupPhone" && g.is_metric()) {
            ok = detail->void_windows.size() == 1 &&
                 detail->void_windows[0].first == crash &&
                 detail->void_windows[0].second >=
                     crash + Duration::Millis(kOutageMs);
          } else if (ok) {
            ok = detail->void_windows.empty();
          }
          r->Check(ok, key + " void windows");
        }
      }
    }
  }

  // What the monitor shells hold: every relayed item's private value.
  std::map<std::pair<std::string, ItemId>, Value> LivePrivateData(
      System& sys) const {
    std::map<std::pair<std::string, ItemId>, Value> out;
    for (int dept = 0; dept < departments_; ++dept) {
      const std::string d = std::to_string(dept);
      for (int i = 0; i < staff_; ++i) {
        ItemId item{"Relay" + d, {Value::Str(Login(i))}};
        auto v = sys.ReadAuxiliary("MON" + d, item);
        if (v.ok() && !v->is_null()) out[{"MON" + d, item}] = *v;
      }
    }
    return out;
  }

  // Each store recovers cleanly, and the monitor sites' recovered private
  // data equals what their live shells held.
  void VerifyRecovery(
      const std::vector<Result<storage::RecoveredState>>& recovered,
      const std::map<std::pair<std::string, ItemId>, Value>& live,
      IterationResult* r) {
    size_t matched = 0, recovered_private = 0;
    for (size_t s = 0; s < sites_.size(); ++s) {
      r->Check(recovered[s].ok(), sites_[s] + " recovers");
      if (!recovered[s].ok()) continue;
      const storage::RecoveredState& state = *recovered[s];
      r->Check(!state.lost_records(), sites_[s] + " store lost no records");
      r->counters["storage.recover.replayed_records"] +=
          static_cast<double>(state.replayed_records);
      r->counters["storage.recover.chain_deltas"] +=
          static_cast<double>(state.chain_deltas);
      for (const auto& [item, value] : state.state.private_data) {
        auto it = live.find({sites_[s], item});
        matched += it != live.end() && it->second == value;
        ++recovered_private;
      }
    }
    r->Check(matched == live.size() && recovered_private == live.size(),
             "recovered private data matches the live shells");
  }

  int departments_;
  int staff_;
  std::vector<Update> updates_;
  int64_t active_ms_;
  int64_t tail_ms_;
  bool durable_;
  std::vector<int64_t> crash_at_ms_;
  std::string workdir_;
  std::vector<std::string> sites_;
};

// Open loop in virtual time: one Poisson stream of `rate_per_dept` updates/s
// per department on average over [1 s, 1 s + active_ms), each update's
// department drawn Zipf(0.8) and its staff member uniformly.
std::vector<Update> OpenLoopUpdates(Rng& rng, int departments, int staff,
                                    double rate_per_dept, int64_t active_ms) {
  std::vector<double> cdf;
  double sum = 0;
  for (int k = 1; k <= departments; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k), 0.8);
    cdf.push_back(sum);
  }
  const double mean_gap_ms = 1000.0 / (rate_per_dept * departments);
  std::vector<Update> out;
  double at = 1000;
  while ((at += rng.Exponential(mean_gap_ms)) < 1000.0 + active_ms) {
    double roll = rng.UniformDouble() * sum;
    int dept = static_cast<int>(std::lower_bound(cdf.begin(), cdf.end(), roll) -
                                cdf.begin());
    dept = std::min(dept, departments - 1);
    int i = static_cast<int>(rng.Index(static_cast<size_t>(staff)));
    std::string number = std::to_string(rng.UniformInt(200, 999)) + "-" +
                         std::to_string(rng.UniformInt(1000, 9999));
    out.push_back(Update{
        static_cast<int64_t>(at), dept,
        Write{ItemId{"phone" + std::to_string(dept), {Value::Str(Login(i))}},
              Value::Str(number)}});
  }
  return out;
}

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const std::string& scale,
                                       uint64_t seed,
                                       const std::string& workdir) {
  const bool full = scale == "full";
  Rng rng(seed);
  if (name == "payroll-interactive") {
    const int employees = full ? 256 : 64;
    return std::make_unique<PayrollWorkload>(
        employees, InteractiveSteps(rng, employees, full ? 2000 : 100, 16),
        Duration::Seconds(5), /*check_guarantees=*/false);
  }
  if (name == "payroll-verify") {
    return std::make_unique<PayrollWorkload>(
        32, VerifySteps(rng, 32, full ? 48 : 24), Duration::Seconds(5),
        /*check_guarantees=*/true);
  }
  if (name == "stanford-wide") {
    const int departments = full ? 32 : 8;
    const int64_t active_ms = full ? 120000 : 20000;
    return std::make_unique<StanfordWorkload>(
        departments, 16, OpenLoopUpdates(rng, departments, 16, 4.0, active_ms),
        active_ms, /*tail_ms=*/120000, /*durable=*/false,
        std::vector<int64_t>{}, workdir);
  }
  if (name == "stanford-durable") {
    const int departments = full ? 8 : 4;
    const int64_t active_ms = full ? 60000 : 20000;
    std::vector<Update> updates =
        OpenLoopUpdates(rng, departments, 16, 16.0, active_ms);
    // Each GROUP<d> crashes once for 1 s, strictly between two checkpoints
    // of the active phase.
    std::vector<int64_t> crash_at;
    const int64_t slots = active_ms / StanfordWorkload::kCheckpointMs;
    for (int d = 0; d < departments; ++d) {
      crash_at.push_back(
          StanfordWorkload::kCheckpointMs * rng.UniformInt(1, slots - 1) +
          rng.UniformInt(500, 3500));
    }
    return std::make_unique<StanfordWorkload>(
        departments, 16, std::move(updates), active_ms, /*tail_ms=*/30000,
        /*durable=*/true, std::move(crash_at), workdir);
  }
  return nullptr;
}

}  // namespace hcm::e2e
