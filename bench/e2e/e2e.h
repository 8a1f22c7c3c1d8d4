#ifndef HCM_BENCH_E2E_E2E_H_
#define HCM_BENCH_E2E_E2E_H_

// Shared pieces of the end-to-end benchmark (hcm_e2e): spans recorded from
// outside the program around each driver call into a layer, the per-
// iteration result a workload hands back, and the small statistics the
// report needs. Everything here only calls the toolkit's public API.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/rule/rule.h"
#include "src/trace/trace.h"

namespace hcm::e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One timed call. `parent` is the enclosing span's id (0 at the root);
// `trace_id` names the iteration the span belongs to. Names are string
// literals: spans are recorded on the hot path of the traced run.
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  uint32_t id;
  uint32_t parent;
  uint32_t trace_id;
};

// Span recorder for the driver thread. Spans stay in memory and are written
// out when the run ends. Disabled tracers record nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_trace_id(uint32_t id) { trace_id_ = id; }
  const std::vector<Span>& spans() const { return spans_; }

  // Returns the new span's id, or 0 when disabled.
  uint32_t Open(const char* name);
  void Close(uint32_t id);

 private:
  bool enabled_;
  uint32_t trace_id_ = 0;
  std::vector<Span> spans_;
  std::vector<uint32_t> stack_;
};

// Scoped timer around one call into a layer: opens a span when tracing and,
// when `elapsed_ns` is given, stores the call's wall time there. With
// tracing off and no output it reads no clock.
class Timed {
 public:
  Timed(Tracer* tracer, const char* name, int64_t* elapsed_ns = nullptr)
      : tracer_(tracer), elapsed_ns_(elapsed_ns) {
    if (tracer_->enabled()) span_ = tracer_->Open(name);
    if (elapsed_ns_ != nullptr) start_ns_ = NowNs();
  }
  ~Timed() {
    if (elapsed_ns_ != nullptr) *elapsed_ns_ = NowNs() - start_ns_;
    if (span_ != 0) tracer_->Close(span_);
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Tracer* tracer_;
  int64_t* elapsed_ns_;
  uint32_t span_ = 0;
  int64_t start_ns_ = 0;
};

// How one iteration runs. The defaults are the workload's measured shape;
// the traced run flips one knob at a time to measure a layer's share.
struct RunConfig {
  size_t threads = 0;         // SystemOptions::num_threads
  bool verify = true;         // run the verdict phase
  bool live_checker = true;   // stanford-durable: StreamingChecker attached
  bool storage = true;        // stanford-durable: stores, crashes, checkpoints
  bool keep_trace = false;    // hand the finished trace back for replays
};

// Everything one iteration measured and checked.
struct IterationResult {
  double setup_s = 0;
  double run_s = 0;
  double verdict_s = 0;
  double stream_verdict_s = 0;
  size_t events = 0;   // trace events recorded
  size_t updates = 0;  // spontaneous workload writes
  std::vector<double> step_us;
  std::vector<double> checkpoint_ms;
  std::vector<double> recover_ms;
  std::vector<double> write_ns;  // WorkloadWrite wall time, traced runs
  // Per RunFor call: (events it recorded, wall µs).
  std::vector<std::pair<double, double>> run_for;
  std::vector<int64_t> lags_ms;
  bool has_hash = false;
  uint64_t trace_hash = 0;
  // Layer counters read through public accessors after the run.
  std::map<std::string, double> counters;
  // The run phase without its CheckpointStorage calls: the simulation's own
  // wall time. Checkpoint latency is file-creation latency, which on shared
  // virtual disks follows the host's recent deletes by factors of 5 or
  // more, so it is reported on its own (checkpoint_p50_ms).
  double sim_s() const {
    double ckpt_ms = 0;
    for (double ms : checkpoint_ms) ckpt_ms += ms;
    return run_s - ckpt_ms / 1e3;
  }

  // Kept when RunConfig::keep_trace: the finished trace and the rules as
  // installed, for the traced run's replays.
  trace::Trace trace;
  std::vector<rule::Rule> rules;

  size_t attempts = 0;
  std::vector<std::string> failures;

  // Counts one verification; a false `ok` is a failure.
  void Check(bool ok, const std::string& what) {
    ++attempts;
    if (!ok) failures.push_back(what);
  }
  void CheckStatus(const Status& s, const char* what) {
    ++attempts;
    if (!s.ok()) failures.push_back(std::string(what) + ": " + s.ToString());
  }
};

// A named deployment plus its driver. Inputs are generated from the seed at
// construction, so every iteration replays the same input schedule.
class Workload {
 public:
  virtual ~Workload() = default;
  // True when the workload runs on the parallel engine.
  virtual bool parallel() const = 0;
  // Builds a fresh System, drives it, verifies it.
  virtual IterationResult Run(const RunConfig& config, Tracer* tracer) = 0;
  // Replays the trace's spontaneous writes through the raw source's native
  // write on a side copy of the source; returns the median ns per write.
  virtual double ReplaySourceWritesNs(const trace::Trace& t) = 0;
};

// "payroll-interactive", "stanford-wide", "payroll-verify",
// "stanford-durable". `scale` is "full" or "smoke". `workdir` is where
// storage directories go. Returns null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const std::string& scale,
                                       uint64_t seed,
                                       const std::string& workdir);

// --- Statistics ---

double Median(std::vector<double> v);
// Nearest-rank percentile, q in [0, 100].
double Percentile(std::vector<double> v, double q);

// FNV-1a over every event's rendered form: a bit-for-bit fingerprint of a
// trace, compared across thread counts and against checked-in goldens.
uint64_t TraceHash(const trace::Trace& t);

// Propagation lag from each spontaneous write of `src_base` to the first
// later W on `dst_base` with the same arguments and value, in one pass:
// pending source writes are keyed by (args, value) and the first matching
// destination write resolves all of them.
struct Lags {
  size_t total = 0;       // spontaneous source writes
  size_t propagated = 0;  // that reached the destination
  double mean_ms = 0;
  int64_t max_ms = 0;
  std::vector<int64_t> lags_ms;  // one per propagated write
};
Lags ComputeLags(const trace::Trace& t, const std::string& src_base,
                 const std::string& dst_base);

}  // namespace hcm::e2e

#endif  // HCM_BENCH_E2E_E2E_H_
