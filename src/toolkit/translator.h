#ifndef HCM_TOOLKIT_TRANSLATOR_H_
#define HCM_TOOLKIT_TRANSLATOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/executor.h"
#include "src/sim/failure_injector.h"
#include "src/sim/network.h"
#include "src/toolkit/messages.h"
#include "src/toolkit/rid.h"
#include "src/trace/trace.h"

namespace hcm::toolkit {

// Base CM-Translator: presents the standard CM-Interface (CMI) to the
// CM-Shells and maps it onto one raw information source's native interface
// (the RISI), as configured by a CM-RID (Section 4.1).
//
// The base class owns the protocol work — request handling, timing,
// interface bookkeeping, notify fan-out, failure detection/classification —
// while each concrete subclass implements only the native operations
// against its kind of raw source. Porting to a new RIS type is exactly the
// paper's "less than a page" of subclass code.
class Translator {
 public:
  // A spontaneous data change observed in the raw source: item arguments,
  // old value (Null when the source cannot report it), new value.
  using ChangeHook = std::function<void(const std::vector<Value>& args,
                                        const Value& old_value,
                                        const Value& new_value)>;

  Translator(RidConfig config, sim::Executor* executor, sim::Network* network,
             trace::TraceRecorder* recorder,
             const sim::FailureInjector* failures);
  virtual ~Translator() = default;
  Translator(const Translator&) = delete;
  Translator& operator=(const Translator&) = delete;

  const std::string& site() const { return config_.site; }
  uint32_t site_sym() const { return site_sym_; }
  const RidConfig& rid() const { return config_; }

  // The native-write serialization point, captured into site snapshots so
  // a cold restart can tell how far the translator had serialized writes.
  TimePoint write_cursor() const { return last_write_at_; }

  // Registers the network endpoint and performs interface setup (declaring
  // triggers for notify interfaces, starting periodic-notify timers, ...).
  Status Initialize();

  // Initialization-time capability discovery: "the CM-Shells query the
  // CM-Translators about the local capabilities".
  const std::vector<spec::InterfaceSpec>& QueryInterfaces() const {
    return config_.interfaces;
  }

  // --- Native access for the workload harness (simulated applications
  // that operate on the database directly, unaware of the CM). These go
  // through the same RID mappings the CMI uses. They fire any installed
  // notify hooks but perform no CMI bookkeeping.
  Result<Value> ApplicationRead(const rule::ItemId& item);
  Status ApplicationWrite(const rule::ItemId& item, const Value& value);
  Status ApplicationInsert(const rule::ItemId& item);
  Status ApplicationDelete(const rule::ItemId& item);
  // Argument tuples of every instance of a parameterized item base.
  Result<std::vector<std::vector<Value>>> ApplicationList(
      const std::string& base);

  // When true, the next outage window at this site is treated as a
  // *logical* failure (interface statements void) rather than metric.
  void set_crash_is_logical(bool v) { crash_is_logical_ = v; }

 protected:
  // ---- The subclass surface: native operations on the raw source. ----
  virtual Result<Value> NativeRead(const RidItemMapping& mapping,
                                   const std::vector<Value>& args) = 0;
  virtual Status NativeWrite(const RidItemMapping& mapping,
                             const std::vector<Value>& args,
                             const Value& value) = 0;
  // Argument tuples of every instance of a parameterized item.
  virtual Result<std::vector<std::vector<Value>>> NativeList(
      const RidItemMapping& mapping) = 0;
  virtual Status NativeInsert(const RidItemMapping& mapping,
                              const std::vector<Value>& args);
  virtual Status NativeDelete(const RidItemMapping& mapping,
                              const std::vector<Value>& args);
  // Installs a spontaneous-change hook per the mapping's notify_hint.
  // Sources without change hooks return Unimplemented, in which case a
  // notify interface in the RID is a configuration error.
  virtual Status InstallChangeHook(const RidItemMapping& mapping,
                                   ChangeHook hook);

  sim::Executor* executor() { return executor_; }

 private:
  void OnMessage(const sim::Message& message);
  void HandleWriteRequest(rule::Event wr_event);
  void HandleReadRequest(rule::Event rr_event, bool whole_base);
  void HandleDeleteRequest(rule::Event del_event);

  // Health checks around a native operation. Returns the extra delay to
  // apply, or reschedules/aborts via the returned status:
  //  - kUnavailable: site down, metric mapping -> caller retries at time
  //    carried in retry_at; logical mapping -> drop with failure notice.
  Result<Duration> PreflightOp(TimePoint* retry_at);

  void SendFailure(FailureClass fc, const std::string& detail);
  void SendEventToShell(rule::Event event);

  // Wires the notify-flavored interfaces (trigger declaration, timers).
  Status SetupNotifyInterfaces();

  // Periodic-notify driver: reports current values every `period`.
  void SchedulePeriodicReport(const RidItemMapping& mapping, Duration period);

  const RidItemMapping* MappingOrNull(const std::string& base) const {
    return config_.FindItem(base);
  }

  RidConfig config_;
  // The translator's endpoint name and the interned ids of both ends of the
  // translator -> shell hop, built once in the constructor. The old code
  // concatenated TranslatorEndpoint(site) on every send.
  std::string endpoint_;
  uint32_t endpoint_sym_ = kNoSymbol;
  uint32_t site_sym_ = kNoSymbol;
  // Interned base site: the executor lane every timer of this translator
  // runs on.
  uint32_t lane_sym_ = kNoSymbol;
  sim::Executor* executor_;
  sim::Network* network_;
  trace::TraceRecorder* recorder_;
  const sim::FailureInjector* failures_;
  bool crash_is_logical_ = false;

  Duration read_delay_;
  Duration write_delay_;
  Duration notify_delay_;
  // Serialization point for native writes (see HandleWriteRequest).
  TimePoint last_write_at_;
};

}  // namespace hcm::toolkit

#endif  // HCM_TOOLKIT_TRANSLATOR_H_
