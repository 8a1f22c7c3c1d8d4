#include "src/toolkit/shell.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/rule/parser.h"

namespace hcm::toolkit {

Shell::Shell(std::string site, sim::Executor* executor, sim::Network* network,
             trace::TraceRecorder* recorder, const ItemRegistry* registry,
             GuaranteeStatusRegistry* guarantees)
    : site_(std::move(site)),
      site_sym_(Symbols().Intern(site_)),
      lane_sym_(Symbols().Intern(sim::BaseSiteOf(site_))),
      tr_endpoint_(TranslatorEndpoint(site_)),
      tr_endpoint_sym_(Symbols().Intern(tr_endpoint_)),
      executor_(executor),
      network_(network),
      recorder_(recorder),
      registry_(registry),
      guarantees_(guarantees),
      private_reader_([this](const rule::ItemId& item) -> Result<Value> {
        return ReadPrivate(item);
      }) {}

Status Shell::Initialize() {
  return network_->RegisterEndpoint(
      site_, [this](const sim::Message& m) { OnMessage(m); });
}

Status Shell::AddLhsRule(const rule::Rule& r, const std::string& rhs_site) {
  if (r.id < 0) return Status::InvalidArgument("rule has no id assigned");
  if (r.forbids()) {
    return Status::InvalidArgument(
        "prohibition rules describe interfaces; they are not executable");
  }
  lhs_index_.Add(r.lhs, lhs_rules_.size());
  lhs_rules_.push_back(LhsEntry{r, rhs_site, Symbols().Intern(rhs_site)});
  lhs_rules_.back().rule.Compile();
  if (store_ != nullptr && !recovering_) {
    store_->LogLhsRule(r.id, rhs_site, lhs_rules_.back().rule.ToString(),
                       executor_->now());
  }
  return Status::OK();
}

Status Shell::AddRhsRule(const rule::Rule& r) {
  if (r.id < 0) return Status::InvalidArgument("rule has no id assigned");
  rule::Rule& stored = rhs_rules_[r.id];
  stored = r;
  stored.Compile();
  if (store_ != nullptr) {
    rhs_dirty_.insert(r.id);
    if (!recovering_) {
      store_->LogRhsRule(r.id, stored.ToString(), executor_->now());
    }
  }
  return Status::OK();
}

size_t Shell::SetRuleElidable(int64_t rule_id, bool elidable) {
  size_t updated = 0;
  for (LhsEntry& entry : lhs_rules_) {
    if (entry.rule.id == rule_id) {
      entry.elidable = elidable;
      ++updated;
    }
  }
  return updated;
}

Status Shell::StartPeriodicRule(const rule::Rule& r) {
  if (r.lhs.kind != rule::EventKind::kPeriodic) {
    return Status::InvalidArgument("not a periodic rule: " + r.ToString());
  }
  if (r.lhs.values.empty() || !r.lhs.values[0].is_literal() ||
      !r.lhs.values[0].literal().is_int()) {
    return Status::InvalidArgument("periodic rule needs a literal period: " +
                                   r.ToString());
  }
  Duration period = Duration::Millis(r.lhs.values[0].literal().AsInt());
  if (period <= Duration::Zero()) {
    return Status::InvalidArgument("periodic rule period must be positive");
  }
  TimePoint first_fire = executor_->now() + period;
  periodic_state_[r.id] =
      storage::PeriodicTimer{r.id, period.millis(), first_fire.millis()};
  if (store_ != nullptr) {
    periodic_dirty_.insert(r.id);
    if (!recovering_) {
      store_->LogPeriodicStart(r.id, period, first_fire, executor_->now());
    }
  }
  ArmPeriodicRule(r.id, period, first_fire);
  return Status::OK();
}

void Shell::ArmPeriodicRule(int64_t rule_id, Duration period,
                            TimePoint first_fire) {
  // Self-rescheduling timer: each firing arms the next with a fresh closure,
  // so no closure ever holds itself. P events are recorded then matched
  // normally. The epoch capture kills the chain when the shell crashes: the
  // recovered incarnation re-arms its own timers from the journal.
  uint64_t epoch = epoch_;
  executor_->ScheduleAt(lane_sym_, first_fire, [this, epoch, rule_id, period] {
    if (epoch != epoch_) return;
    rule::Event p;
    p.kind = rule::EventKind::kPeriodic;
    p.values = {Value::Int(period.millis())};
    RecordAndProcess(std::move(p));
    TimePoint next = executor_->now() + period;
    auto it = periodic_state_.find(rule_id);
    if (it != periodic_state_.end()) it->second.next_fire_ms = next.millis();
    if (store_ != nullptr) {
      periodic_dirty_.insert(rule_id);
      store_->LogPeriodicFire(rule_id, next, executor_->now());
    }
    ArmPeriodicRule(rule_id, period, next);
  });
}

void Shell::AddPeriodicTask(Duration period, std::function<void()> task) {
  ArmPeriodicTask(period,
                  std::make_shared<const std::function<void()>>(std::move(task)));
}

void Shell::ArmPeriodicTask(Duration period,
                            std::shared_ptr<const std::function<void()>> task) {
  // Same shape as ArmPeriodicRule: the next run is armed by a fresh closure
  // that shares only the task, never itself.
  uint64_t epoch = epoch_;
  executor_->ScheduleAfter(lane_sym_, period, [this, epoch, period, task] {
    if (epoch != epoch_) return;
    (*task)();
    ArmPeriodicTask(period, task);
  });
}

Value Shell::ReadPrivate(const rule::ItemId& item) const {
  auto it = private_data_.find(item);
  return it == private_data_.end() ? Value::Null() : it->second;
}

void Shell::WritePrivate(const rule::ItemId& item, Value value,
                         int64_t rule_id, int64_t trigger_event_id,
                         int rhs_step) {
  rule::Event w;
  w.time = executor_->now();
  w.site = site_;
  w.site_sym = site_sym_;
  w.kind = rule::EventKind::kWrite;
  w.item = item;
  w.values = {value};
  w.rule_id = rule_id;
  w.trigger_event_id = trigger_event_id;
  w.rhs_step = rhs_step;
  recorder_->Record(std::move(w));
  if (store_ != nullptr) {
    private_dirty_.insert(item);
    if (!recovering_) {
      store_->LogPrivateWrite(item, value, executor_->now());
    }
  }
  private_data_[item] = std::move(value);
}

Result<Value> Shell::ReadAuxiliary(const rule::ItemId& item) const {
  return ReadPrivate(item);
}

Shell::DispatchStats Shell::dispatch_stats() const {
  DispatchStats s;
  rule::RuleIndexStats idx = lhs_index_.stats();
  s.events_matched = events_matched_;
  s.candidates_considered = idx.candidates_returned;
  s.lhs_matches = lhs_matches_;
  s.firings = firings_;
  s.scans_avoided = idx.scans_avoided;
  s.installed_lhs_rules = lhs_rules_.size();
  s.index_buckets = idx.exact_buckets;
  return s;
}

void Shell::OnMessage(const sim::Message& message) {
  if (crashed_) {
    // Belt and braces: the network holds messages across registered
    // outages, but a crash scheduled without an injector window must not
    // leak work into the dead incarnation.
    HCM_LOG(Debug) << "shell at " << site_ << " is down; dropping "
                   << message.kind;
    return;
  }
  if (message.kind == "event") {
    const auto& em = std::any_cast<const EventMessage&>(message.payload);
    RecordAndProcess(em.event);
  } else if (message.kind == "fire") {
    const auto& fire = std::any_cast<const FireMessage&>(message.payload);
    ExecuteFire(fire);
  } else if (message.kind == "failure") {
    const auto& fm = std::any_cast<const FailureMessage&>(message.payload);
    ReportFailure(fm.notice);
  } else if (message.kind == "failure-relay") {
    // Peer shells learn of the failure; the (process-wide) guarantee status
    // registry was already updated by the reporting shell, so the relay is
    // informational here.
    const auto& fm = std::any_cast<const FailureMessage&>(message.payload);
    HCM_LOG(Info) << "shell at " << site_
                  << " learned of failure: " << fm.notice.ToString();
  } else {
    HCM_LOG(Warning) << "shell at " << site_ << " ignoring message kind "
                     << message.kind;
  }
}

void Shell::RecordAndProcess(rule::Event event) {
  event.time = executor_->now();
  event.site = site_;
  event.site_sym = site_sym_;
  if (event.base_sym == kNoSymbol && rule::EventKindHasItem(event.kind) &&
      !event.item.base.empty()) {
    // Events from wired senders (translator, rule execution) arrive
    // pre-stamped; this interns stragglers from workload generators.
    event.base_sym = Symbols().Intern(event.item.base);
  }
  event.id = recorder_->Record(event);
  MatchEvent(event);
}

void Shell::MatchEvent(const rule::Event& event) {
  ++events_matched_;
  // The index hands back only rules whose (kind, item base) can unify with
  // this event, in installation order — a full scan of lhs_rules_ would
  // visit a superset and reject the rest on the same checks.
  lhs_index_.Lookup(event, &candidate_scratch_);
  for (size_t pos : candidate_scratch_) {
    const LhsEntry& entry = lhs_rules_[pos];
    if (use_reference_impl_) {
      rule::Binding binding;
      if (!entry.rule.lhs.Matches(event, &binding)) continue;
      if (entry.rule.lhs_condition != nullptr) {
        auto pass = entry.rule.lhs_condition->EvalBool(binding,
                                                       PrivateReader());
        if (!pass.ok()) {
          HCM_LOG(Warning) << "LHS condition error for rule "
                           << entry.rule.ToString() << ": "
                           << pass.status().ToString();
          continue;
        }
        if (!*pass) continue;
      }
      ++lhs_matches_;
      FireMessage fire;
      fire.rule_id = entry.rule.id;
      fire.trigger_event_id = event.id;
      fire.trigger_time = event.time;
      fire.binding = std::move(binding);
      sim::Message msg{site_, entry.rhs_site, "fire", std::move(fire)};
      msg.elidable = entry.elidable;
      Status s = network_->Send(std::move(msg));
      if (!s.ok()) {
        HCM_LOG(Warning) << "fire message undeliverable: " << s.ToString();
      }
      continue;
    }
    // Compiled path: match into the reusable frame — no allocation per
    // candidate — and ship the frame itself on a hit.
    frame_scratch_.Resize(entry.rule.slots.size());
    if (!entry.rule.lhs.MatchesCompiled(event, &frame_scratch_)) continue;
    if (entry.rule.lhs_condition != nullptr) {
      auto pass = entry.rule.lhs_condition->EvalBoolFrame(
          frame_scratch_, entry.rule.slots, PrivateReader());
      if (!pass.ok()) {
        HCM_LOG(Warning) << "LHS condition error for rule "
                         << entry.rule.ToString() << ": "
                         << pass.status().ToString();
        continue;
      }
      if (!*pass) continue;
    }
    ++lhs_matches_;
    FireMessage fire;
    fire.rule_id = entry.rule.id;
    fire.trigger_event_id = event.id;
    fire.trigger_time = event.time;
    fire.frame = frame_scratch_;
    fire.compiled = true;
    sim::Message msg{site_, entry.rhs_site, "fire", std::move(fire),
                     site_sym_, entry.rhs_site_sym};
    msg.elidable = entry.elidable;
    Status s = network_->Send(std::move(msg));
    if (!s.ok()) {
      HCM_LOG(Warning) << "fire message undeliverable: " << s.ToString();
    }
  }
}

void Shell::ExecuteFire(const FireMessage& fire) {
  auto it = rhs_rules_.find(fire.rule_id);
  if (it == rhs_rules_.end()) {
    HCM_LOG(Warning) << "shell at " << site_ << " has no body for rule "
                     << fire.rule_id;
    return;
  }
  const rule::Rule& r = it->second;
  ++firings_;
  // Metric self-check: arriving after the rule's deadline means the CM (or
  // the network) broke the strategy's timing promise.
  if (fire.trigger_time + r.delta < executor_->now()) {
    FailureNotice notice;
    notice.site = site_;
    notice.failure_class = FailureClass::kMetric;
    notice.detected_at = executor_->now();
    notice.detail = StrFormat("rule %lld fired after its %s deadline",
                              static_cast<long long>(r.id),
                              r.delta.ToString().c_str());
    ReportFailure(notice);
  }
  if (r.rhs.empty()) return;
  if (fire.compiled && fire.frame.size() != r.slots.size()) {
    // Both shells compile identical rule content, so the slot layouts
    // agree by construction; a mismatch means the installation diverged.
    HCM_LOG(Warning) << "shell at " << site_ << " got a frame of "
                     << fire.frame.size() << " slots for rule " << r.id
                     << " which compiled to " << r.slots.size();
    return;
  }
  // Journal the firing before the chain starts: if the site dies mid-chain
  // recovery resumes at the last journaled step instead of dropping the
  // obligation.
  uint64_t fire_seq = 0;
  if (store_ != nullptr) {
    std::vector<std::pair<std::string, Value>> binding;
    if (fire.compiled) {
      for (uint16_t slot = 0; slot < r.slots.size(); ++slot) {
        if (static_cast<int>(slot) == r.now_slot) continue;
        if (fire.frame.IsBound(slot)) {
          binding.emplace_back(r.slots.name(slot), fire.frame.Get(slot));
        }
      }
    } else {
      for (const auto& [name, value] : fire.binding) {
        if (name != "now") binding.emplace_back(name, value);
      }
    }
    fire_seq = NoteFireBegin(r, fire.trigger_event_id, fire.trigger_time,
                             std::move(binding));
  }
  if (fire.compiled) {
    ExecuteStepCompiled(r.id, fire.trigger_event_id, 0, fire.frame, fire_seq);
    return;
  }
  ExecuteStep(r.id, fire.trigger_event_id, 0, fire.binding, fire_seq);
}

uint64_t Shell::NoteFireBegin(
    const rule::Rule& r, int64_t trigger_event_id, TimePoint trigger_time,
    std::vector<std::pair<std::string, Value>> binding) {
  uint64_t seq = store_->LogFireBegin(r.id, trigger_event_id, trigger_time,
                                      binding, executor_->now());
  storage::OutstandingFire f;
  f.seq = seq;
  f.rule_id = r.id;
  f.trigger_event_id = trigger_event_id;
  f.trigger_time_ms = trigger_time.millis();
  f.next_step = 0;
  f.binding = std::move(binding);
  outstanding_fires_.emplace(seq, std::move(f));
  fires_dirty_.insert(seq);
  return seq;
}

void Shell::NoteFireStep(uint64_t fire_seq, size_t step) {
  if (fire_seq == 0 || store_ == nullptr) return;
  store_->LogFireStep(fire_seq, static_cast<uint32_t>(step),
                      executor_->now());
  auto it = outstanding_fires_.find(fire_seq);
  if (it != outstanding_fires_.end()) {
    it->second.next_step = static_cast<uint32_t>(step) + 1;
    fires_dirty_.insert(fire_seq);
  }
}

void Shell::NoteFireEnd(uint64_t fire_seq) {
  if (fire_seq == 0 || store_ == nullptr) return;
  store_->LogFireEnd(fire_seq, executor_->now());
  outstanding_fires_.erase(fire_seq);
  // Always tombstone, even when the fire began after the last checkpoint:
  // the parent chain never saw it, so the delta's erase is an idempotent
  // no-op on recovery. A begun-and-ended fire thus never reaches the
  // delta's fires section at all.
  fires_dirty_.erase(fire_seq);
  fires_ended_.push_back(fire_seq);
}

void Shell::ExecuteStep(int64_t rule_id, int64_t trigger_event_id,
                        size_t step, rule::Binding binding,
                        uint64_t fire_seq) {
  uint64_t epoch = epoch_;
  executor_->PostAfter(
      lane_sym_, step_delay_,
      [this, epoch, rule_id, trigger_event_id, step, fire_seq,
       binding = std::move(binding)]() mutable {
        if (epoch != epoch_) return;  // scheduled before a crash
        auto it = rhs_rules_.find(rule_id);
        if (it == rhs_rules_.end()) {
          HCM_LOG(Warning) << "shell at " << site_ << " lost body for rule "
                           << rule_id << " before step " << step << " ran";
          NoteFireEnd(fire_seq);
          return;
        }
        const rule::Rule& r = it->second;
        if (step >= r.rhs.size()) {
          NoteFireEnd(fire_seq);
          return;
        }
        rule::Binding b = binding;
        b["now"] = Value::Int(executor_->now().millis());
        const rule::RhsStep& rhs = r.rhs[step];
        bool emit = true;
        if (rhs.condition != nullptr) {
          auto pass = rhs.condition->EvalBool(b, PrivateReader());
          if (!pass.ok()) {
            HCM_LOG(Warning) << "RHS condition error for rule "
                             << r.ToString() << ": "
                             << pass.status().ToString();
            emit = false;
          } else {
            emit = *pass;
          }
        }
        if (emit) {
          auto event = rhs.event.Instantiate(b);
          bool whole_base = false;
          if (!event.ok()) {
            // A read request over a parameterized item with unbound
            // arguments sweeps the whole base (e.g. P(60) ->
            // RR(salary1(n))).
            if (rhs.event.kind == rule::EventKind::kReadRequest) {
              rule::Event rr;
              rr.kind = rule::EventKind::kReadRequest;
              rr.item = rule::ItemId{rhs.event.item.base, {}};
              event = rr;
              whole_base = true;
            } else {
              HCM_LOG(Warning) << "cannot instantiate RHS of "
                               << r.ToString() << ": "
                               << event.status().ToString();
            }
          }
          if (event.ok()) {
            event->rule_id = r.id;
            event->trigger_event_id = trigger_event_id;
            event->rhs_step = static_cast<int>(step);
            RouteGeneratedEvent(std::move(*event), whole_base);
          }
        }
        if (step + 1 < r.rhs.size()) {
          NoteFireStep(fire_seq, step);
          ExecuteStep(rule_id, trigger_event_id, step + 1,
                      std::move(binding), fire_seq);
        } else {
          NoteFireEnd(fire_seq);
        }
      });
}

void Shell::ExecuteStepCompiled(int64_t rule_id, int64_t trigger_event_id,
                                size_t step, rule::BindingFrame frame,
                                uint64_t fire_seq) {
  uint64_t epoch = epoch_;
  executor_->PostAfter(
      lane_sym_, step_delay_,
      [this, epoch, rule_id, trigger_event_id, step, fire_seq,
       frame = std::move(frame)]() mutable {
        if (epoch != epoch_) return;  // scheduled before a crash
        auto it = rhs_rules_.find(rule_id);
        if (it == rhs_rules_.end()) {
          HCM_LOG(Warning) << "shell at " << site_ << " lost body for rule "
                           << rule_id << " before step " << step << " ran";
          NoteFireEnd(fire_seq);
          return;
        }
        const rule::Rule& r = it->second;
        if (step >= r.rhs.size()) {
          NoteFireEnd(fire_seq);
          return;
        }
        // Work on a copy with "now" bound; the chained next step gets the
        // original frame, exactly like the map path.
        rule::BindingFrame b = frame;
        b.Set(static_cast<uint16_t>(r.now_slot),
              Value::Int(executor_->now().millis()));
        const rule::RhsStep& rhs = r.rhs[step];
        bool emit = true;
        if (rhs.condition != nullptr) {
          auto pass = rhs.condition->EvalBoolFrame(b, r.slots,
                                                   PrivateReader());
          if (!pass.ok()) {
            HCM_LOG(Warning) << "RHS condition error for rule "
                             << r.ToString() << ": "
                             << pass.status().ToString();
            emit = false;
          } else {
            emit = *pass;
          }
        }
        if (emit) {
          auto event = rhs.event.InstantiateCompiled(b);
          bool whole_base = false;
          if (!event.ok()) {
            // A read request over a parameterized item with unbound
            // arguments sweeps the whole base (e.g. P(60) ->
            // RR(salary1(n))).
            if (rhs.event.kind == rule::EventKind::kReadRequest) {
              rule::Event rr;
              rr.kind = rule::EventKind::kReadRequest;
              rr.item = rule::ItemId{rhs.event.item.base, {}};
              rr.base_sym = rhs.event.item.base_sym;
              event = rr;
              whole_base = true;
            } else {
              HCM_LOG(Warning) << "cannot instantiate RHS of "
                               << r.ToString() << ": "
                               << event.status().ToString();
            }
          }
          if (event.ok()) {
            event->rule_id = r.id;
            event->trigger_event_id = trigger_event_id;
            event->rhs_step = static_cast<int>(step);
            RouteGeneratedEvent(std::move(*event), whole_base);
          }
        }
        if (step + 1 < r.rhs.size()) {
          NoteFireStep(fire_seq, step);
          ExecuteStepCompiled(rule_id, trigger_event_id, step + 1,
                              std::move(frame), fire_seq);
        } else {
          NoteFireEnd(fire_seq);
        }
      });
}

void Shell::RouteGeneratedEvent(rule::Event event, bool whole_base) {
  switch (event.kind) {
    case rule::EventKind::kWrite: {
      // Private-data writes execute in the shell itself; writes to
      // database items must be phrased as WR in the strategy.
      bool is_private =
          event.base_sym != kNoSymbol
              ? registry_ == nullptr || registry_->IsPrivate(event.base_sym)
              : registry_ == nullptr || registry_->IsPrivate(event.item.base);
      if (!is_private) {
        HCM_LOG(Warning)
            << "strategy W event on non-private item " << event.item.ToString()
            << " ignored (use WR for database items)";
        return;
      }
      WritePrivate(event.item, event.written_value(), event.rule_id,
                   event.trigger_event_id, event.rhs_step);
      return;
    }
    case rule::EventKind::kWriteRequest: {
      Status s = network_->Send({site_, tr_endpoint_, "wr",
                                 RequestMessage{std::move(event), false},
                                 site_sym_, tr_endpoint_sym_});
      if (!s.ok()) HCM_LOG(Warning) << "WR undeliverable: " << s.ToString();
      return;
    }
    case rule::EventKind::kReadRequest: {
      Status s = network_->Send({site_, tr_endpoint_, "rr",
                                 RequestMessage{std::move(event), whole_base},
                                 site_sym_, tr_endpoint_sym_});
      if (!s.ok()) HCM_LOG(Warning) << "RR undeliverable: " << s.ToString();
      return;
    }
    case rule::EventKind::kDelete: {
      Status s = network_->Send({site_, tr_endpoint_, "del",
                                 RequestMessage{std::move(event), false},
                                 site_sym_, tr_endpoint_sym_});
      if (!s.ok()) HCM_LOG(Warning) << "DEL undeliverable: " << s.ToString();
      return;
    }
    default:
      HCM_LOG(Warning) << "strategy produced unsupported event kind "
                       << rule::EventKindName(event.kind);
  }
}

void Shell::SetSnapshotTask(Duration period, std::function<void()> task) {
  snapshot_period_ = period;
  snapshot_task_ = std::move(task);
  if (snapshot_period_ > Duration::Zero() && snapshot_task_) {
    AddPeriodicTask(snapshot_period_, snapshot_task_);
  }
}

void Shell::Crash(bool clean) {
  if (crashed_) return;
  crashed_ = true;
  crashed_at_ = executor_->now();
  // Invalidate every scheduled continuation of this incarnation.
  ++epoch_;
  lost_buffered_ = 0;
  if (store_ != nullptr) {
    if (clean) {
      Status s = store_->journal().Flush();
      if (!s.ok()) {
        HCM_LOG(Error) << "journal flush on clean crash at " << site_
                       << " failed: " << s.ToString();
      }
    } else {
      lost_buffered_ = store_->journal().DropBuffered();
    }
  }
  lhs_rules_.clear();
  lhs_index_ = rule::RuleIndex();
  candidate_scratch_.clear();
  rhs_rules_.clear();
  private_data_.clear();
  periodic_state_.clear();
  outstanding_fires_.clear();
  lhs_clean_count_ = 0;
  rhs_dirty_.clear();
  periodic_dirty_.clear();
  private_dirty_.clear();
  fires_dirty_.clear();
  fires_ended_.clear();
  HCM_LOG(Info) << "shell at " << site_ << " crashed ("
                << (clean ? "clean" : "dirty") << ", " << lost_buffered_
                << " buffered records lost)";
}

Duration Shell::MaxRuleDelta() const {
  Duration max = Duration::Zero();
  for (const auto& [id, r] : rhs_rules_) {
    (void)id;
    if (r.delta > max) max = r.delta;
  }
  for (const auto& entry : lhs_rules_) {
    if (entry.rule.delta > max) max = entry.rule.delta;
  }
  return max;
}

std::string Shell::RecoverySummary::ToString() const {
  std::string out = StrFormat(
      "%s recovery: snapshot %s, %llu journal records replayed, "
      "%zu+%zu rules, %zu timers, %zu fires resumed, %zu private items, "
      "outage %s",
      FailureClassName(classification), snapshot_found ? "loaded" : "none",
      static_cast<unsigned long long>(replayed_records),
      lhs_rules_reinstalled, rhs_rules_reinstalled, timers_restarted,
      fires_resumed, private_items_restored, outage.ToString().c_str());
  if (torn_tail) {
    out += StrFormat(", torn tail (%llu bytes)",
                     static_cast<unsigned long long>(truncated_bytes));
  }
  if (lost_buffered > 0) {
    out += StrFormat(", %zu buffered records lost", lost_buffered);
  }
  return out;
}

Result<Shell::RecoverySummary> Shell::Recover() {
  if (store_ == nullptr) {
    return Status::FailedPrecondition("no storage attached at " + site_);
  }
  auto recovered = store_->Recover();
  if (!recovered.ok()) return recovered.status();
  const storage::RecoveredState& rec = *recovered;

  RecoverySummary sum;
  sum.snapshot_found = rec.snapshot_found;
  sum.replayed_records = rec.replayed_records;
  sum.torn_tail = rec.torn_tail;
  sum.truncated_bytes = rec.truncated_bytes;
  sum.lost_buffered = lost_buffered_;

  // Reinstall rules from their journaled text. Re-parsing + Compile gives
  // slot layouts identical to the pre-crash install (the compile walk is
  // deterministic over rule structure), so held fire messages carrying
  // frames from before the crash still line up.
  recovering_ = true;
  for (const auto& install : rec.state.lhs_rules) {
    auto parsed = rule::ParseRule(install.text);
    if (!parsed.ok()) {
      recovering_ = false;
      return Status::Corruption("journaled LHS rule unparseable: " +
                                parsed.status().message());
    }
    parsed->id = install.rule_id;
    Status s = AddLhsRule(*parsed, install.rhs_site);
    if (!s.ok()) {
      recovering_ = false;
      return s;
    }
    ++sum.lhs_rules_reinstalled;
  }
  for (const auto& install : rec.state.rhs_rules) {
    auto parsed = rule::ParseRule(install.text);
    if (!parsed.ok()) {
      recovering_ = false;
      return Status::Corruption("journaled RHS rule unparseable: " +
                                parsed.status().message());
    }
    parsed->id = install.rule_id;
    Status s = AddRhsRule(*parsed);
    if (!s.ok()) {
      recovering_ = false;
      return s;
    }
    ++sum.rhs_rules_reinstalled;
  }

  // Private data comes back by direct assignment: the W events that
  // produced these values are already in the trace, and replay must not
  // re-record them.
  for (const auto& [item, value] : rec.state.private_data) {
    private_data_[item] = value;
  }
  sum.private_items_restored = rec.state.private_data.size();

  crashed_ = false;
  TimePoint now = executor_->now();

  // Periodic timers resume phase-aligned: next fire is the first multiple
  // of the period after now, counted from the journaled schedule, so the
  // P-event cadence lines up with the pre-crash phase.
  for (const auto& p : rec.state.periodic) {
    if (p.period_ms <= 0) continue;
    Duration period = Duration::Millis(p.period_ms);
    TimePoint next = TimePoint::FromMillis(p.next_fire_ms);
    if (next <= now) {
      int64_t missed = (now.millis() - p.next_fire_ms) / p.period_ms + 1;
      next = next + period * missed;
      if (next <= now) next = next + period;
    }
    storage::PeriodicTimer timer = p;
    timer.next_fire_ms = next.millis();
    periodic_state_[p.rule_id] = timer;
    ArmPeriodicRule(p.rule_id, period, next);
    ++sum.timers_restarted;
  }

  // Resume half-done RHS chains at their journaled step, under the
  // original firing sequence so the eventual fire-end matches the
  // journaled fire-begin.
  for (const auto& f : rec.state.fires) {
    auto it = rhs_rules_.find(f.rule_id);
    if (it == rhs_rules_.end()) {
      HCM_LOG(Warning) << "outstanding fire " << f.seq << " at " << site_
                       << " references unknown rule " << f.rule_id;
      continue;
    }
    const rule::Rule& r = it->second;
    outstanding_fires_[f.seq] = f;
    if (use_reference_impl_) {
      rule::Binding binding;
      for (const auto& [name, value] : f.binding) binding[name] = value;
      ExecuteStep(f.rule_id, f.trigger_event_id, f.next_step,
                  std::move(binding), f.seq);
    } else {
      rule::BindingFrame frame(r.slots.size());
      for (const auto& [name, value] : f.binding) {
        int slot = r.slots.Find(name);
        if (slot >= 0) frame.Set(static_cast<uint16_t>(slot), value);
      }
      ExecuteStepCompiled(f.rule_id, f.trigger_event_id, f.next_step,
                          std::move(frame), f.seq);
    }
    ++sum.fires_resumed;
  }
  recovering_ = false;

  if (snapshot_period_ > Duration::Zero() && snapshot_task_) {
    AddPeriodicTask(snapshot_period_, snapshot_task_);
  }

  // Failure classification (Section 5): if the journal gave everything
  // back and the gap still fits inside the largest rule deadline, the
  // outage only delayed work — a metric failure. Lost records or a gap no
  // deadline can absorb break the interface statements — logical.
  sum.outage = now - crashed_at_;
  Duration max_delta = MaxRuleDelta();
  bool lost = rec.lost_records() || lost_buffered_ > 0;
  bool metric =
      !lost && max_delta > Duration::Zero() && sum.outage <= max_delta;
  sum.classification =
      metric ? FailureClass::kMetric : FailureClass::kLogical;

  FailureNotice notice;
  notice.site = site_;
  notice.failure_class = sum.classification;
  // Backdated: the guarantees were un-establishable from the moment the
  // site died, not from when recovery noticed.
  notice.detected_at = crashed_at_;
  notice.detail = StrFormat(
      "site down %s%s", sum.outage.ToString().c_str(),
      lost ? " with journal records lost" : "");
  ReportFailure(notice);

  if (metric) {
    // Re-establish metric guarantees once the replayed + held work has had
    // a full deadline to settle; late-fire notices raised at restart fold
    // into the still-open void window instead of opening a second one.
    uint64_t epoch = epoch_;
    executor_->ScheduleAfter(lane_sym_, max_delta, [this, epoch]() {
      if (epoch != epoch_) return;
      if (guarantees_ != nullptr) {
        guarantees_->ReestablishSite(site_, executor_->now());
      }
    });
  }
  lost_buffered_ = 0;
  HCM_LOG(Info) << "shell at " << site_ << ": " << sum.ToString();
  return sum;
}

storage::Snapshot Shell::BuildSnapshot(bool full) const {
  storage::Snapshot s;
  s.site = site_;
  s.taken_at_ms = executor_->now().millis();
  // A delta's parent is stamped by SiteStore::WriteSnapshot (the chain tip).
  if (!full) s.parent_records = 0;
  // LHS installs are append-only; everything past the watermark is new.
  for (size_t i = full ? 0 : lhs_clean_count_; i < lhs_rules_.size(); ++i) {
    const LhsEntry& entry = lhs_rules_[i];
    s.lhs_rules.push_back(storage::LhsRuleInstall{
        entry.rule.id, entry.rhs_site, entry.rule.ToString()});
  }
  if (full) {
    for (const auto& [id, r] : rhs_rules_) {
      s.rhs_rules.push_back(storage::RhsRuleInstall{id, r.ToString()});
    }
    for (const auto& [id, timer] : periodic_state_) s.periodic.push_back(timer);
    s.private_data.assign(private_data_.begin(), private_data_.end());
    for (const auto& [seq, f] : outstanding_fires_) s.fires.push_back(f);
    return s;
  }
  for (int64_t id : rhs_dirty_) {
    auto it = rhs_rules_.find(id);
    if (it != rhs_rules_.end()) {
      s.rhs_rules.push_back(storage::RhsRuleInstall{id, it->second.ToString()});
    }
  }
  for (int64_t id : periodic_dirty_) {
    auto it = periodic_state_.find(id);
    if (it != periodic_state_.end()) s.periodic.push_back(it->second);
  }
  for (const rule::ItemId& item : private_dirty_) {
    auto it = private_data_.find(item);
    if (it != private_data_.end()) {
      s.private_data.emplace_back(item, it->second);
    } else {
      // No deletion path exists today, but a dirty mark without a live
      // entry must still reach the chain as a removal, not vanish.
      s.private_tombstones.push_back(item);
    }
  }
  for (uint64_t seq : fires_dirty_) {
    auto it = outstanding_fires_.find(seq);
    if (it != outstanding_fires_.end()) s.fires.push_back(it->second);
  }
  s.ended_fires = fires_ended_;
  return s;
}

void Shell::NoteCheckpoint() {
  lhs_clean_count_ = lhs_rules_.size();
  rhs_dirty_.clear();
  periodic_dirty_.clear();
  private_dirty_.clear();
  fires_dirty_.clear();
  fires_ended_.clear();
}

void Shell::AddPeer(Shell* peer) {
  if (peer == this) return;
  auto it = std::lower_bound(
      peers_.begin(), peers_.end(), peer,
      [](const Shell* a, const Shell* b) { return a->site() < b->site(); });
  if (it == peers_.end() || *it != peer) peers_.insert(it, peer);
}

void Shell::ReportFailure(const FailureNotice& notice) {
  if (guarantees_ != nullptr) guarantees_->OnFailure(notice);
  for (Shell* peer : peers_) {
    FailureMessage msg{notice};
    Status s = network_->Send({site_, peer->site(), "failure-relay", msg});
    if (!s.ok()) {
      HCM_LOG(Warning) << "failure relay undeliverable: " << s.ToString();
    }
  }
}

}  // namespace hcm::toolkit
