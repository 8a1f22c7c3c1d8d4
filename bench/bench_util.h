#ifndef HCM_BENCH_BENCH_UTIL_H_
#define HCM_BENCH_BENCH_UTIL_H_

// Shared helpers for the experiment harnesses. Each bench_* binary
// regenerates one experiment from DESIGN.md's index (E1..E9), printing the
// table that substantiates the corresponding claim of the paper.

#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/toolkit/system.h"
#include "src/trace/guarantee_checker.h"

namespace hcm::bench {

// Prints an experiment banner.
inline void Banner(const char* experiment, const char* claim) {
  std::printf("==============================================================="
              "=================\n");
  std::printf("%s\n", experiment);
  std::printf("paper claim: %s\n", claim);
  std::printf("==============================================================="
              "=================\n");
}

// Build type and commit, passed in by bench/CMakeLists.txt.
#ifndef HCM_BUILD_TYPE
#define HCM_BUILD_TYPE "unknown"
#endif
#ifndef HCM_GIT_SHA
#define HCM_GIT_SHA "unknown"
#endif

inline const char* CompilerName() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

// Writes the provenance fields of a --json file's "context" object, each
// line ending in a comma: numbers from two files are comparable only when
// these agree (and build_type is Release).
inline void WriteProvenanceJson(FILE* f) {
  std::fprintf(f, "    \"build_type\": \"%s\",\n", HCM_BUILD_TYPE);
  std::fprintf(f, "    \"compiler\": \"%s\",\n", CompilerName());
  std::fprintf(f, "    \"num_cpus\": %ld,\n", sysconf(_SC_NPROCESSORS_ONLN));
  std::fprintf(f, "    \"git_sha\": \"%s\",\n", HCM_GIT_SHA);
}

// BENCHMARK_MAIN() for the google-benchmark binaries, recording the same
// provenance fields in the "context" of their --benchmark_format=json output
// (and in the console header); google-benchmark writes num_cpus itself.
// Needs <benchmark/benchmark.h>.
#define HCM_BENCHMARK_MAIN()                                              \
  int main(int argc, char** argv) {                                       \
    ::benchmark::AddCustomContext("build_type", HCM_BUILD_TYPE);          \
    ::benchmark::AddCustomContext("compiler",                             \
                                  ::hcm::bench::CompilerName());          \
    ::benchmark::AddCustomContext("git_sha", HCM_GIT_SHA);                \
    ::benchmark::Initialize(&argc, argv);                                 \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;   \
    ::benchmark::RunSpecifiedBenchmarks();                                \
    ::benchmark::Shutdown();                                              \
    return 0;                                                             \
  }                                                                       \
  int main(int, char**)

inline const char* HoldsStr(const trace::GuaranteeCheckResult& r) {
  return r.holds ? "HOLDS" : "VIOLATED";
}

// Uniform wall-clock cost reporting across the bench_* harnesses: every
// bench that times a run quotes the same two derived units — nanoseconds of
// host wall clock per recorded trace event, and trace events processed per
// wall-clock second.
struct Throughput {
  double ns_per_event = 0;
  double events_per_s = 0;
};

inline Throughput ComputeThroughput(double wall_ms, size_t events) {
  Throughput t;
  if (events > 0 && wall_ms > 0) {
    t.ns_per_event = wall_ms * 1e6 / static_cast<double>(events);
    t.events_per_s = static_cast<double>(events) / (wall_ms / 1e3);
  }
  return t;
}

// "123.4 ns/event, 8.1M events/s" — for appending to a bench table row.
inline std::string ThroughputStr(double wall_ms, size_t events) {
  Throughput t = ComputeThroughput(wall_ms, events);
  char buf[64];
  if (t.events_per_s >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.1f ns/event, %.1fM events/s",
                  t.ns_per_event, t.events_per_s / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f ns/event, %.1fk events/s",
                  t.ns_per_event, t.events_per_s / 1e3);
  }
  return std::string(buf);
}

// Standard two-relational-site payroll deployment used by E1/E2/E7.
// Returns the System fully configured with `num_employees` rows per side,
// initial salaries declared. Interface choice comes from the RID text.
struct PayrollDeployment {
  std::unique_ptr<toolkit::System> system;
  spec::Constraint constraint;

  static PayrollDeployment Create(const std::string& rid_a_interfaces,
                                  int num_employees,
                                  sim::NetworkConfig net = {},
                                  size_t num_threads = 0,
                                  bool use_reference_impl = false) {
    toolkit::SystemOptions opts;
    opts.network = net;
    opts.num_threads = num_threads;
    opts.use_reference_impl = use_reference_impl;
    return Create(rid_a_interfaces, num_employees, opts);
  }

  // Full-options variant (storage/durability knobs, etc.).
  static PayrollDeployment Create(const std::string& rid_a_interfaces,
                                  int num_employees,
                                  const toolkit::SystemOptions& opts) {
    PayrollDeployment d;
    d.system = std::make_unique<toolkit::System>(opts);
    auto* db_a = *d.system->AddRelationalSite("A");
    auto* db_b = *d.system->AddRelationalSite("B");
    for (auto* db : {db_a, db_b}) {
      db->Execute("create table employees (empid int primary key, name str, "
                  "salary int)");
      for (int n = 1; n <= num_employees; ++n) {
        db->Execute("insert into employees values (" + std::to_string(n) +
                    ", 'emp', 50000)");
      }
    }
    std::string rid_a = R"(
ris relational
site A
param notify_delay 100ms
param read_delay 50ms
item salary1
  read   select salary from employees where empid = $1
  write  update employees set salary = $v where empid = $1
  list   select empid from employees
  notify trigger employees salary empid
)" + rid_a_interfaces;
    const char* rid_b = R"(
ris relational
site B
param write_delay 100ms
item salary2
  read   select salary from employees where empid = $1
  write  update employees set salary = $v where empid = $1
  list   select empid from employees
interface write salary2(n) 2s
)";
    d.system->ConfigureTranslator(rid_a);
    d.system->ConfigureTranslator(rid_b);
    for (int n = 1; n <= num_employees; ++n) {
      d.system->DeclareInitial(
          rule::ItemId{"salary1", {Value::Int(n)}});
      d.system->DeclareInitial(
          rule::ItemId{"salary2", {Value::Int(n)}});
    }
    d.constraint = *spec::MakeCopyConstraint("salary1(n)", "salary2(n)");
    return d;
  }
};

// Propagation lag statistics computed from a trace: for every spontaneous
// write of `src_base`, the delay until a W event on `dst_base` with the
// same arguments and value (if any).
struct LagStats {
  size_t total = 0;       // spontaneous source writes
  size_t propagated = 0;  // that reached the destination
  double mean_ms = 0;
  int64_t max_ms = 0;
};

inline LagStats ComputeLag(const trace::Trace& t, const std::string& src_base,
                           const std::string& dst_base) {
  LagStats stats;
  double sum = 0;
  for (size_t i = 0; i < t.events.size(); ++i) {
    const rule::Event& e = t.events[i];
    if (e.kind != rule::EventKind::kWriteSpont || e.item.base != src_base) {
      continue;
    }
    ++stats.total;
    for (size_t j = i + 1; j < t.events.size(); ++j) {
      const rule::Event& w = t.events[j];
      if (w.kind == rule::EventKind::kWrite && w.item.base == dst_base &&
          w.item.args == e.item.args &&
          w.written_value() == e.written_value()) {
        ++stats.propagated;
        int64_t lag = (w.time - e.time).millis();
        sum += static_cast<double>(lag);
        if (lag > stats.max_ms) stats.max_ms = lag;
        break;
      }
    }
  }
  if (stats.propagated > 0) {
    stats.mean_ms = sum / static_cast<double>(stats.propagated);
  }
  return stats;
}

}  // namespace hcm::bench

#endif  // HCM_BENCH_BENCH_UTIL_H_
