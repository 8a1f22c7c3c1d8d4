#include "src/toolkit/translator.h"

#include "src/common/logging.h"
#include "src/common/string_util.h"

namespace hcm::toolkit {

Translator::Translator(RidConfig config, sim::Executor* executor,
                       sim::Network* network, trace::TraceRecorder* recorder,
                       const sim::FailureInjector* failures)
    : config_(std::move(config)),
      endpoint_(TranslatorEndpoint(config_.site)),
      endpoint_sym_(Symbols().Intern(endpoint_)),
      site_sym_(Symbols().Intern(config_.site)),
      lane_sym_(Symbols().Intern(sim::BaseSiteOf(config_.site))),
      executor_(executor),
      network_(network),
      recorder_(recorder),
      failures_(failures) {
  read_delay_ = config_.ParamDuration("read_delay", Duration::Millis(50));
  write_delay_ = config_.ParamDuration("write_delay", Duration::Millis(100));
  notify_delay_ =
      config_.ParamDuration("notify_delay", Duration::Millis(100));
}

Status Translator::Initialize() {
  HCM_RETURN_IF_ERROR(network_->RegisterEndpoint(
      endpoint_, [this](const sim::Message& m) { OnMessage(m); }));
  return SetupNotifyInterfaces();
}

Status Translator::NativeInsert(const RidItemMapping& mapping,
                                const std::vector<Value>& args) {
  (void)mapping;
  (void)args;
  return Status::Unimplemented("insert not supported by this RIS type");
}

Status Translator::NativeDelete(const RidItemMapping& mapping,
                                const std::vector<Value>& args) {
  (void)mapping;
  (void)args;
  return Status::Unimplemented("delete not supported by this RIS type");
}

Status Translator::InstallChangeHook(const RidItemMapping& mapping,
                                     ChangeHook hook) {
  (void)mapping;
  (void)hook;
  return Status::Unimplemented("this RIS type has no change hooks");
}

Result<Value> Translator::ApplicationRead(const rule::ItemId& item) {
  const RidItemMapping* mapping = MappingOrNull(item.base);
  if (mapping == nullptr) {
    return Status::NotFound("no RID mapping for item " + item.base);
  }
  return NativeRead(*mapping, item.args);
}

Status Translator::ApplicationWrite(const rule::ItemId& item,
                                    const Value& value) {
  const RidItemMapping* mapping = MappingOrNull(item.base);
  if (mapping == nullptr) {
    return Status::NotFound("no RID mapping for item " + item.base);
  }
  return NativeWrite(*mapping, item.args, value);
}

Status Translator::ApplicationInsert(const rule::ItemId& item) {
  const RidItemMapping* mapping = MappingOrNull(item.base);
  if (mapping == nullptr) {
    return Status::NotFound("no RID mapping for item " + item.base);
  }
  return NativeInsert(*mapping, item.args);
}

Status Translator::ApplicationDelete(const rule::ItemId& item) {
  const RidItemMapping* mapping = MappingOrNull(item.base);
  if (mapping == nullptr) {
    return Status::NotFound("no RID mapping for item " + item.base);
  }
  return NativeDelete(*mapping, item.args);
}

Result<std::vector<std::vector<Value>>> Translator::ApplicationList(
    const std::string& base) {
  const RidItemMapping* mapping = MappingOrNull(base);
  if (mapping == nullptr) {
    return Status::NotFound("no RID mapping for item " + base);
  }
  return NativeList(*mapping);
}

void Translator::OnMessage(const sim::Message& message) {
  if (message.kind == "wr") {
    const auto& req = std::any_cast<const RequestMessage&>(message.payload);
    rule::Event wr = req.event;
    wr.time = executor_->now();
    wr.site = config_.site;
    wr.site_sym = site_sym_;
    recorder_->Record(wr);
    HandleWriteRequest(std::move(wr));
  } else if (message.kind == "rr") {
    const auto& req = std::any_cast<const RequestMessage&>(message.payload);
    rule::Event rr = req.event;
    rr.time = executor_->now();
    rr.site = config_.site;
    rr.site_sym = site_sym_;
    recorder_->Record(rr);
    HandleReadRequest(std::move(rr), req.whole_base);
  } else if (message.kind == "del") {
    const auto& req = std::any_cast<const RequestMessage&>(message.payload);
    rule::Event del = req.event;
    del.time = executor_->now();
    del.site = config_.site;
    del.site_sym = site_sym_;
    // DEL is recorded when the native delete actually happens.
    HandleDeleteRequest(std::move(del));
  } else {
    HCM_LOG(Warning) << "translator at " << config_.site
                     << " ignoring message kind " << message.kind;
  }
}

Result<Duration> Translator::PreflightOp(TimePoint* retry_at) {
  TimePoint now = executor_->now();
  if (failures_ == nullptr) return Duration::Zero();
  // The raw source's health is the worse of the whole site's health and
  // any "<site>#ris" windows (RIS-only failures, where the CM processes at
  // the site keep running — the situation of Section 5).
  const std::string ris_key = config_.site + "#ris";
  sim::SiteHealth health = failures_->HealthAt(config_.site, now);
  sim::SiteHealth ris_health = failures_->HealthAt(ris_key, now);
  if (ris_health > health) health = ris_health;
  if (health == sim::SiteHealth::kDown) {
    if (crash_is_logical_) {
      SendFailure(FailureClass::kLogical,
                  "raw source crashed with state loss");
      return Status::Unavailable("RIS down (logical)");
    }
    SendFailure(FailureClass::kMetric, "raw source down; operation delayed");
    TimePoint up_site = failures_->NextUpTime(config_.site, now);
    TimePoint up_ris = failures_->NextUpTime(ris_key, now);
    *retry_at = (up_site > up_ris ? up_site : up_ris) + Duration::Millis(10);
    return Status::Unavailable("RIS down (metric, will retry)");
  }
  Duration extra = failures_->ExtraDelayAt(config_.site, now);
  Duration ris_extra = failures_->ExtraDelayAt(ris_key, now);
  if (ris_extra > extra) extra = ris_extra;
  if (extra > Duration::Zero()) {
    SendFailure(FailureClass::kMetric,
                StrFormat("raw source overloaded (+%s)",
                          extra.ToString().c_str()));
  }
  return extra;
}

void Translator::SendFailure(FailureClass fc, const std::string& detail) {
  FailureMessage msg;
  msg.notice.site = config_.site;
  msg.notice.failure_class = fc;
  msg.notice.detected_at = executor_->now();
  msg.notice.detail = detail;
  Status s = network_->Send(
      {endpoint_, config_.site, "failure", msg, endpoint_sym_, site_sym_});
  if (!s.ok()) {
    HCM_LOG(Warning) << "failure notice undeliverable: " << s.ToString();
  }
}

void Translator::SendEventToShell(rule::Event event) {
  Status s = network_->Send({endpoint_, config_.site, "event",
                             EventMessage{std::move(event)}, endpoint_sym_,
                             site_sym_});
  if (!s.ok()) {
    HCM_LOG(Warning) << "event undeliverable to shell: " << s.ToString();
  }
}

void Translator::HandleWriteRequest(rule::Event wr_event) {
  TimePoint retry_at;
  auto extra = PreflightOp(&retry_at);
  if (!extra.ok()) {
    if (!crash_is_logical_) {
      executor_->ScheduleAt(lane_sym_, retry_at, [this, wr_event]() {
        HandleWriteRequest(wr_event);
      });
    }
    return;
  }
  // The raw source serializes writes: no two native writes share an
  // instant, so a burst of retried requests (e.g. after an outage) still
  // exposes every intermediate value — required for x-leads-y to survive
  // metric failures, per Section 5.
  TimePoint at = executor_->now() + write_delay_ + *extra;
  if (at <= last_write_at_) at = last_write_at_ + Duration::Millis(1);
  last_write_at_ = at;
  executor_->ScheduleAt(lane_sym_, at, [this, wr_event]() {
    const RidItemMapping* mapping = MappingOrNull(wr_event.item.base);
    if (mapping == nullptr || mapping->write_command.empty()) {
      SendFailure(FailureClass::kLogical,
                  "write request for unmapped item " + wr_event.item.base);
      return;
    }
    Status s = NativeWrite(*mapping, wr_event.item.args,
                           wr_event.written_value());
    if (!s.ok()) {
      SendFailure(s.code() == StatusCode::kUnavailable
                      ? FailureClass::kMetric
                      : FailureClass::kLogical,
                  "native write failed: " + s.ToString());
      return;
    }
    rule::Event w;
    w.time = executor_->now();
    w.site = config_.site;
    w.site_sym = site_sym_;
    w.kind = rule::EventKind::kWrite;
    w.item = wr_event.item;
    w.values = {wr_event.written_value()};
    recorder_->Record(w);
  });
}

void Translator::HandleReadRequest(rule::Event rr_event, bool whole_base) {
  TimePoint retry_at;
  auto extra = PreflightOp(&retry_at);
  if (!extra.ok()) {
    if (!crash_is_logical_) {
      executor_->ScheduleAt(lane_sym_, retry_at,
                            [this, rr_event, whole_base]() {
                              HandleReadRequest(rr_event, whole_base);
                            });
    }
    return;
  }
  Duration delay = read_delay_ + *extra;
  executor_->ScheduleAfter(lane_sym_, delay, [this, rr_event, whole_base]() {
    const RidItemMapping* mapping = MappingOrNull(rr_event.item.base);
    if (mapping == nullptr || mapping->read_command.empty()) {
      SendFailure(FailureClass::kLogical,
                  "read request for unmapped item " + rr_event.item.base);
      return;
    }
    std::vector<std::vector<Value>> arg_tuples;
    if (whole_base) {
      auto listed = NativeList(*mapping);
      if (!listed.ok()) {
        SendFailure(FailureClass::kMetric,
                    "native list failed: " + listed.status().ToString());
        return;
      }
      arg_tuples = std::move(*listed);
    } else {
      arg_tuples.push_back(rr_event.item.args);
    }
    for (const auto& args : arg_tuples) {
      auto value = NativeRead(*mapping, args);
      if (!value.ok()) {
        // A missing instance during a sweep is not a failure; skip it.
        if (value.status().code() == StatusCode::kNotFound && whole_base) {
          continue;
        }
        SendFailure(FailureClass::kMetric,
                    "native read failed: " + value.status().ToString());
        continue;
      }
      // The R event is produced by the database's *interface* statement
      // (RR & X=b -> R(X,b)), not by a strategy rule, so it carries no
      // strategy provenance — exactly like W events.
      rule::Event r;
      r.kind = rule::EventKind::kRead;
      r.item = rule::ItemId{rr_event.item.base, args};
      r.values = {*value};
      SendEventToShell(std::move(r));
    }
  });
}

void Translator::HandleDeleteRequest(rule::Event del_event) {
  TimePoint retry_at;
  auto extra = PreflightOp(&retry_at);
  if (!extra.ok()) {
    if (!crash_is_logical_) {
      executor_->ScheduleAt(lane_sym_, retry_at, [this, del_event]() {
        HandleDeleteRequest(del_event);
      });
    }
    return;
  }
  Duration delay = write_delay_ + *extra;
  executor_->ScheduleAfter(lane_sym_, delay, [this, del_event]() {
    const RidItemMapping* mapping = MappingOrNull(del_event.item.base);
    if (mapping == nullptr || mapping->delete_command.empty()) {
      SendFailure(FailureClass::kLogical,
                  "delete request for unmapped item " + del_event.item.base);
      return;
    }
    Status s = NativeDelete(*mapping, del_event.item.args);
    if (!s.ok()) {
      SendFailure(FailureClass::kMetric,
                  "native delete failed: " + s.ToString());
      return;
    }
    rule::Event del;
    del.time = executor_->now();
    del.site = config_.site;
    del.site_sym = site_sym_;
    del.kind = rule::EventKind::kDelete;
    del.item = del_event.item;
    del.rule_id = del_event.rule_id;
    del.trigger_event_id = del_event.trigger_event_id;
    del.rhs_step = del_event.rhs_step;
    recorder_->Record(del);
  });
}

Status Translator::SetupNotifyInterfaces() {
  for (const auto& iface : config_.interfaces) {
    switch (iface.kind) {
      case spec::InterfaceKind::kNotify:
      case spec::InterfaceKind::kConditionalNotify: {
        const RidItemMapping* mapping = MappingOrNull(iface.item.base);
        if (mapping == nullptr) {
          return Status::InvalidArgument(
              "notify interface for unmapped item " + iface.item.base);
        }
        // Capture the condition (if any) and the promised delay.
        rule::ExprPtr condition;
        Duration delay = notify_delay_;
        if (!iface.statements.empty()) {
          condition = iface.statements[0].lhs_condition;
          delay = iface.statements[0].delta;
        }
        std::string base = iface.item.base;
        HCM_RETURN_IF_ERROR(InstallChangeHook(
            *mapping,
            [this, base, condition, delay](const std::vector<Value>& args,
                                           const Value& old_value,
                                           const Value& new_value) {
              if (condition != nullptr) {
                rule::Binding b{{"a", old_value}, {"b", new_value}};
                auto pass = condition->EvalBool(b, rule::NullDataReader);
                if (!pass.ok() || !*pass) return;
              }
              executor_->ScheduleAfter(
                  lane_sym_, delay, [this, base, args, new_value]() {
                    rule::Event n;
                    n.kind = rule::EventKind::kNotify;
                    n.item = rule::ItemId{base, args};
                    n.values = {new_value};
                    SendEventToShell(std::move(n));
                  });
            }));
        break;
      }
      case spec::InterfaceKind::kPeriodicNotify: {
        const RidItemMapping* mapping = MappingOrNull(iface.item.base);
        if (mapping == nullptr) {
          return Status::InvalidArgument(
              "periodic-notify interface for unmapped item " +
              iface.item.base);
        }
        Duration period = Duration::Seconds(300);
        if (!iface.statements.empty() &&
            !iface.statements[0].lhs.values.empty() &&
            iface.statements[0].lhs.values[0].is_literal()) {
          period = Duration::Millis(
              iface.statements[0].lhs.values[0].literal().AsInt());
        }
        SchedulePeriodicReport(*mapping, period);
        break;
      }
      default:
        break;  // write/read/no-spontaneous-write need no setup
    }
  }
  return Status::OK();
}

void Translator::SchedulePeriodicReport(const RidItemMapping& mapping,
                                        Duration period) {
  executor_->ScheduleAfter(lane_sym_, period, [this, &mapping, period]() {
    auto tuples = NativeList(mapping);
    std::vector<std::vector<Value>> arg_tuples;
    if (tuples.ok()) {
      arg_tuples = std::move(*tuples);
    } else {
      arg_tuples.push_back({});  // non-parameterized item
    }
    for (const auto& args : arg_tuples) {
      auto value = NativeRead(mapping, args);
      if (!value.ok()) continue;
      rule::Event n;
      n.kind = rule::EventKind::kNotify;
      n.item = rule::ItemId{mapping.item_base, args};
      n.values = {*value};
      SendEventToShell(std::move(n));
    }
    SchedulePeriodicReport(mapping, period);
  });
}

}  // namespace hcm::toolkit
