#include "src/toolkit/system.h"

#include "src/common/logging.h"
#include "src/rule/monotone.h"
#include "src/sim/parallel_executor.h"
#include "src/trace/sharded_recorder.h"
#include "src/trace/streaming_checker.h"
#include "src/common/string_util.h"
#include "src/toolkit/translators/biblio_translator.h"
#include "src/toolkit/translators/filestore_translator.h"
#include "src/toolkit/translators/relational_translator.h"
#include "src/toolkit/translators/whois_translator.h"

namespace hcm::toolkit {

System::System(SystemOptions options) : options_(options) {
  sim::ParallelExecutorConfig config;
  config.num_threads = options_.num_threads;
  // Conservative lookahead: the network's minimum cross-site latency
  // (clamped to one tick so degenerate configs still make progress).
  config.lookahead = options_.network.base_latency > Duration::Millis(1)
                         ? options_.network.base_latency
                         : Duration::Millis(1);
  config.max_epochs_per_superstep =
      options_.max_epochs_per_superstep > 0 ? options_.max_epochs_per_superstep
                                            : 1;
  executor_ = std::make_unique<sim::Executor>(config);
  // One lane records in execution order, so the plain recorder serves it.
  if (options_.num_threads > 0) {
    recorder_ = std::make_unique<trace::ShardedTraceRecorder>();
  } else {
    recorder_ = std::make_unique<trace::TraceRecorder>();
  }
  network_ = std::make_unique<sim::Network>(executor_.get(), options_.network);
  network_->set_failure_injector(&failures_);
}

System::~System() = default;

Result<ris::relational::Database*> System::AddRelationalSite(
    const std::string& site) {
  if (dbs_.count(site) > 0) {
    return Status::AlreadyExists("relational site exists: " + site);
  }
  auto db = std::make_unique<ris::relational::Database>(site);
  auto* ptr = db.get();
  dbs_.emplace(site, std::move(db));
  return ptr;
}

Result<ris::filestore::FileStore*> System::AddFileSite(
    const std::string& site) {
  if (files_.count(site) > 0) {
    return Status::AlreadyExists("file site exists: " + site);
  }
  auto fs = std::make_unique<ris::filestore::FileStore>(site);
  auto* ptr = fs.get();
  files_.emplace(site, std::move(fs));
  return ptr;
}

Result<ris::whois::WhoisServer*> System::AddWhoisSite(
    const std::string& site) {
  if (whois_.count(site) > 0) {
    return Status::AlreadyExists("whois site exists: " + site);
  }
  auto server = std::make_unique<ris::whois::WhoisServer>(site);
  auto* ptr = server.get();
  whois_.emplace(site, std::move(server));
  return ptr;
}

Result<ris::biblio::BiblioStore*> System::AddBiblioSite(
    const std::string& site) {
  if (biblio_.count(site) > 0) {
    return Status::AlreadyExists("biblio site exists: " + site);
  }
  auto store = std::make_unique<ris::biblio::BiblioStore>(site);
  auto* ptr = store.get();
  biblio_.emplace(site, std::move(store));
  return ptr;
}

Status System::EnsureShell(const std::string& site) {
  if (shells_.count(site) > 0) return Status::OK();
  // Pre-declare the recording shard so parallel lanes never create one
  // concurrently mid-run.
  recorder_->DeclareSite(site);
  auto shell = std::make_unique<Shell>(site, executor_.get(), network_.get(),
                                       recorder_.get(), &registry_,
                                       &guarantee_status_);
  shell->set_use_reference_impl(options_.use_reference_impl);
  HCM_RETURN_IF_ERROR(shell->Initialize());
  if (options_.storage.enabled()) {
    HCM_ASSIGN_OR_RETURN(auto store,
                         storage::SiteStore::Open(options_.storage, site));
    shell->AttachStorage(store.get());
    if (options_.storage.snapshot_period > Duration::Zero()) {
      shell->SetSnapshotTask(options_.storage.snapshot_period, [this, site]() {
        Status s = CheckpointSite(site);
        if (!s.ok()) {
          HCM_LOG(Warning) << "periodic snapshot of " << site
                           << " failed: " << s.ToString();
        }
      });
    }
    stores_.emplace(site, std::move(store));
  }
  shells_.emplace(site, std::move(shell));
  return Status::OK();
}

Status System::AddShellOnlySite(const std::string& site) {
  return EnsureShell(site);
}

Status System::RegisterPrivateItem(const std::string& base,
                                   const std::string& site) {
  HCM_RETURN_IF_ERROR(EnsureShell(site));
  return registry_.RegisterPrivateItem(base, site);
}

Status System::ConfigureTranslator(const std::string& rid_text) {
  HCM_ASSIGN_OR_RETURN(RidConfig config, ParseRid(rid_text));
  const std::string site = config.site;
  if (translators_.count(site) > 0) {
    return Status::AlreadyExists("translator already configured for " + site);
  }
  std::unique_ptr<Translator> translator;
  if (config.ris_type == "relational") {
    auto it = dbs_.find(site);
    if (it == dbs_.end()) {
      return Status::NotFound("no relational source at site " + site);
    }
    translator = std::make_unique<RelationalTranslator>(
        std::move(config), it->second.get(), executor_.get(), network_.get(),
        recorder_.get(), &failures_);
  } else if (config.ris_type == "filestore") {
    auto it = files_.find(site);
    if (it == files_.end()) {
      return Status::NotFound("no file source at site " + site);
    }
    translator = std::make_unique<FilestoreTranslator>(
        std::move(config), it->second.get(), executor_.get(), network_.get(),
        recorder_.get(), &failures_);
  } else if (config.ris_type == "whois") {
    auto it = whois_.find(site);
    if (it == whois_.end()) {
      return Status::NotFound("no whois source at site " + site);
    }
    translator = std::make_unique<WhoisTranslator>(
        std::move(config), it->second.get(), executor_.get(), network_.get(),
        recorder_.get(), &failures_);
  } else if (config.ris_type == "biblio") {
    auto it = biblio_.find(site);
    if (it == biblio_.end()) {
      return Status::NotFound("no biblio source at site " + site);
    }
    translator = std::make_unique<BiblioTranslator>(
        std::move(config), it->second.get(), executor_.get(), network_.get(),
        recorder_.get(), &failures_);
  } else {
    return Status::InvalidArgument("unknown ris type: " + config.ris_type);
  }
  HCM_RETURN_IF_ERROR(EnsureShell(site));
  HCM_RETURN_IF_ERROR(translator->Initialize());
  for (const auto& item : translator->rid().items) {
    HCM_RETURN_IF_ERROR(registry_.RegisterDatabaseItem(item.item_base, site));
  }
  translators_.emplace(site, std::move(translator));
  return Status::OK();
}

Result<spec::SiteInterfaces> System::InterfacesForItem(
    const std::string& base) const {
  HCM_ASSIGN_OR_RETURN(ItemLocation loc, registry_.Locate(base));
  spec::SiteInterfaces out;
  out.site = loc.site;
  auto it = translators_.find(loc.site);
  if (it != translators_.end()) {
    for (const auto& spec : it->second->QueryInterfaces()) {
      if (spec.item.base == base) out.interfaces.push_back(spec);
    }
  }
  return out;
}

Result<std::vector<spec::Suggestion>> System::Suggest(
    const spec::Constraint& constraint,
    const spec::SuggestOptions& options) const {
  HCM_ASSIGN_OR_RETURN(spec::SiteInterfaces lhs,
                       InterfacesForItem(constraint.lhs.base));
  HCM_ASSIGN_OR_RETURN(spec::SiteInterfaces rhs,
                       InterfacesForItem(constraint.rhs.base));
  return SuggestStrategies(constraint, lhs, rhs, options);
}

Result<std::string> System::RhsSiteOfRule(const rule::Rule& r,
                                          bool lenient) const {
  std::string site;
  for (const auto& step : r.rhs) {
    std::string step_site;
    if (!step.event.site.empty()) {
      step_site = step.event.site;
    } else if (rule::EventKindHasItem(step.event.kind)) {
      auto loc = registry_.Locate(step.event.item.base);
      if (!loc.ok()) {
        // During the pre-pass, not-yet-registered private items are
        // expected; the site is determined by the resolvable steps.
        if (lenient) continue;
        return loc.status();
      }
      step_site = loc->site;
    } else {
      continue;
    }
    if (site.empty()) {
      site = step_site;
    } else if (site != step_site) {
      return Status::InvalidArgument(
          "all RHS events of a rule must share a site: " + r.ToString());
    }
  }
  if (site.empty()) {
    return Status::InvalidArgument("cannot locate RHS site of rule: " +
                                   r.ToString());
  }
  return site;
}

Status System::InstallStrategy(const std::string& key,
                               const spec::Constraint& constraint,
                               const spec::StrategySpec& strategy) {
  // Pre-pass: private items written by the strategy (W steps on items not
  // yet registered) live at the writing rule's RHS site. Register them
  // first so RhsSiteOfRule can resolve mixed rules. Two passes handle
  // rules whose site is determined by other steps.
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& r : strategy.rules) {
      if (r.forbids()) continue;
      auto rhs_site = RhsSiteOfRule(r, /*lenient=*/true);
      if (!rhs_site.ok()) continue;
      for (const auto& step : r.rhs) {
        if (step.event.kind == rule::EventKind::kWrite &&
            !registry_.Locate(step.event.item.base).ok()) {
          HCM_RETURN_IF_ERROR(registry_.RegisterPrivateItem(
              step.event.item.base, *rhs_site));
        }
      }
    }
  }
  // Distribution: each rule goes to the shell of its LHS event's site; the
  // body also goes to the RHS shell for condition evaluation and emission.
  std::vector<std::string> involved_sites;
  for (const auto& base_rule : strategy.rules) {
    if (base_rule.forbids()) continue;
    rule::Rule r = base_rule;
    r.id = next_rule_id_++;
    HCM_ASSIGN_OR_RETURN(std::string rhs_site, RhsSiteOfRule(r));
    std::string lhs_site;
    if (!r.lhs.site.empty()) {
      lhs_site = r.lhs.site;
    } else if (r.lhs.kind == rule::EventKind::kPeriodic) {
      lhs_site = rhs_site;  // the timer runs where the work happens
    } else if (rule::EventKindHasItem(r.lhs.kind)) {
      HCM_ASSIGN_OR_RETURN(ItemLocation loc,
                           registry_.Locate(r.lhs.item.base));
      lhs_site = loc.site;
    } else {
      return Status::InvalidArgument("cannot place rule: " + r.ToString());
    }
    HCM_RETURN_IF_ERROR(EnsureShell(lhs_site));
    HCM_RETURN_IF_ERROR(EnsureShell(rhs_site));
    HCM_RETURN_IF_ERROR(shells_.at(lhs_site)->AddLhsRule(r, rhs_site));
    HCM_RETURN_IF_ERROR(shells_.at(rhs_site)->AddRhsRule(r));
    if (r.lhs.kind == rule::EventKind::kPeriodic) {
      HCM_RETURN_IF_ERROR(shells_.at(lhs_site)->StartPeriodicRule(r));
    }
    if (options_.elide_monotone_rules) {
      // CALM pass: monotone rules' fires skip the parallel engine's window
      // clamp. Private items were registered in the pre-pass above, so the
      // predicate sees the strategy's own auxiliary items.
      rule::MonotonicityVerdict verdict = rule::ClassifyMonotone(
          r, [this](const std::string& base) {
            return registry_.IsPrivate(base);
          });
      if (verdict.monotone) {
        shells_.at(lhs_site)->SetRuleElidable(r.id);
      }
    }
    involved_sites.push_back(lhs_site);
    involved_sites.push_back(rhs_site);
  }
  // Constraint item sites count as involved even if no rule lands there.
  for (const auto& ref : {constraint.lhs, constraint.rhs}) {
    auto loc = registry_.Locate(ref.base);
    if (loc.ok()) involved_sites.push_back(loc->site);
  }
  std::sort(involved_sites.begin(), involved_sites.end());
  involved_sites.erase(
      std::unique(involved_sites.begin(), involved_sites.end()),
      involved_sites.end());
  for (const auto& g : strategy.guarantees) {
    HCM_RETURN_IF_ERROR(guarantee_status_.Register(key + "/" + g.name, g,
                                                   involved_sites));
  }
  // A failure at one of the strategy's sites is relayed to its other sites.
  for (const auto& site : involved_sites) {
    auto from = shells_.find(site);
    if (from == shells_.end()) continue;
    for (const auto& peer : involved_sites) {
      auto to = shells_.find(peer);
      if (to != shells_.end()) from->second->AddPeer(to->second.get());
    }
  }
  return Status::OK();
}

Status System::WorkloadWrite(const rule::ItemId& item, const Value& value) {
  HCM_ASSIGN_OR_RETURN(ItemLocation loc, registry_.Locate(item.base));
  HCM_ASSIGN_OR_RETURN(Translator * tr, TranslatorAt(loc.site));
  // Ground truth: the value before the write (Null when unreadable).
  Value old_value = Value::Null();
  auto before = tr->ApplicationRead(item);
  if (before.ok()) old_value = *before;
  HCM_RETURN_IF_ERROR(tr->ApplicationWrite(item, value));
  rule::Event ws;
  ws.time = executor_->now();
  ws.site = tr->site();
  ws.site_sym = tr->site_sym();
  ws.kind = rule::EventKind::kWriteSpont;
  ws.item = item;
  ws.values = {old_value, value};
  recorder_->Record(ws);
  return Status::OK();
}

Status System::WorkloadInsert(const rule::ItemId& item) {
  HCM_ASSIGN_OR_RETURN(ItemLocation loc, registry_.Locate(item.base));
  HCM_ASSIGN_OR_RETURN(Translator * tr, TranslatorAt(loc.site));
  HCM_RETURN_IF_ERROR(tr->ApplicationInsert(item));
  rule::Event ins;
  ins.time = executor_->now();
  ins.site = tr->site();
  ins.site_sym = tr->site_sym();
  ins.kind = rule::EventKind::kInsert;
  ins.item = item;
  recorder_->Record(ins);
  return Status::OK();
}

Status System::WorkloadDelete(const rule::ItemId& item) {
  HCM_ASSIGN_OR_RETURN(ItemLocation loc, registry_.Locate(item.base));
  HCM_ASSIGN_OR_RETURN(Translator * tr, TranslatorAt(loc.site));
  HCM_RETURN_IF_ERROR(tr->ApplicationDelete(item));
  rule::Event del;
  del.time = executor_->now();
  del.site = tr->site();
  del.site_sym = tr->site_sym();
  del.kind = rule::EventKind::kDelete;
  del.item = item;
  recorder_->Record(del);
  return Status::OK();
}

Result<Value> System::WorkloadRead(const rule::ItemId& item) {
  HCM_ASSIGN_OR_RETURN(ItemLocation loc, registry_.Locate(item.base));
  HCM_ASSIGN_OR_RETURN(Translator * tr, TranslatorAt(loc.site));
  return tr->ApplicationRead(item);
}

void System::NoteSpontaneousInsert(const rule::ItemId& item,
                                   const std::string& site) {
  rule::Event ins;
  ins.time = executor_->now();
  ins.site = site;
  ins.site_sym = Symbols().Intern(site);
  ins.kind = rule::EventKind::kInsert;
  ins.item = item;
  recorder_->Record(ins);
}

void System::NoteSpontaneousDelete(const rule::ItemId& item,
                                   const std::string& site) {
  rule::Event del;
  del.time = executor_->now();
  del.site = site;
  del.site_sym = Symbols().Intern(site);
  del.kind = rule::EventKind::kDelete;
  del.item = item;
  recorder_->Record(del);
}

Status System::DeclareInitial(const rule::ItemId& item) {
  HCM_ASSIGN_OR_RETURN(Value v, WorkloadRead(item));
  recorder_->SetInitialValue(item, std::move(v));
  return Status::OK();
}

Status System::DeclareInitialPrivate(const rule::ItemId& item, Value value) {
  HCM_ASSIGN_OR_RETURN(ItemLocation loc, registry_.Locate(item.base));
  HCM_ASSIGN_OR_RETURN(Shell * shell, ShellAt(loc.site));
  recorder_->SetInitialValue(item, value);
  shell->SeedPrivate(item, std::move(value));
  return Status::OK();
}

Result<Value> System::ReadAuxiliary(const std::string& site,
                                    const rule::ItemId& item) const {
  auto it = shells_.find(site);
  if (it == shells_.end()) return Status::NotFound("no shell at " + site);
  return it->second->ReadAuxiliary(item);
}

Result<GuaranteeValidity> System::GuaranteeStatus(
    const std::string& key) const {
  return guarantee_status_.StatusOf(key);
}

std::string System::DescribeDeployment() const {
  std::string out = "deployment:\n";
  for (const auto& [site, shell] : shells_) {
    (void)shell;
    out += "  site " + site;
    std::string kind = "(shell only)";
    if (dbs_.count(site) > 0) kind = "relational RIS";
    if (files_.count(site) > 0) kind = "filestore RIS";
    if (whois_.count(site) > 0) kind = "whois RIS";
    if (biblio_.count(site) > 0) kind = "biblio RIS";
    out += " — " + kind;
    auto tr = translators_.find(site);
    if (tr != translators_.end()) {
      out += ", CM-Translator (" + tr->second->rid().ris_type + ")";
    }
    out += "\n";
    for (const auto& base : registry_.ItemsAtSite(site)) {
      auto loc = registry_.Locate(base);
      out += "    item " + base;
      if (loc.ok() && loc->cm_private) {
        out += " [CM-private]";
      } else if (tr != translators_.end()) {
        std::vector<std::string> kinds;
        for (const auto& iface : tr->second->QueryInterfaces()) {
          if (iface.item.base == base) {
            kinds.push_back(spec::InterfaceKindName(iface.kind));
          }
        }
        if (!kinds.empty()) out += " {" + StrJoin(kinds, ", ") + "}";
      }
      out += "\n";
    }
  }
  return out;
}

Shell::DispatchStats System::AggregateDispatchStats() const {
  Shell::DispatchStats total;
  for (const auto& [site, shell] : shells_) {
    (void)site;
    Shell::DispatchStats s = shell->dispatch_stats();
    total.events_matched += s.events_matched;
    total.candidates_considered += s.candidates_considered;
    total.lhs_matches += s.lhs_matches;
    total.firings += s.firings;
    total.scans_avoided += s.scans_avoided;
    total.installed_lhs_rules += s.installed_lhs_rules;
    total.index_buckets += s.index_buckets;
  }
  return total;
}

std::string System::DescribeDispatchStats() const {
  std::string out = "dispatch:\n";
  auto line = [](const std::string& label, const Shell::DispatchStats& s) {
    double cand_per_event =
        s.events_matched == 0
            ? 0.0
            : static_cast<double>(s.candidates_considered) /
                  static_cast<double>(s.events_matched);
    return StrFormat(
        "  %-8s rules=%zu buckets=%zu events=%llu candidates/event=%.2f "
        "matches=%llu firings=%llu scans-avoided=%llu\n",
        label.c_str(), s.installed_lhs_rules, s.index_buckets,
        static_cast<unsigned long long>(s.events_matched), cand_per_event,
        static_cast<unsigned long long>(s.lhs_matches),
        static_cast<unsigned long long>(s.firings),
        static_cast<unsigned long long>(s.scans_avoided));
  };
  for (const auto& [site, shell] : shells_) {
    out += line(site, shell->dispatch_stats());
  }
  out += line("TOTAL", AggregateDispatchStats());
  // Bucket-occupancy histogram: per site, how the (kind, base)
  // discrimination spread the installed rules and how often events had to
  // consult a wildcard bucket.
  out += "index buckets:\n";
  for (const auto& [site, shell] : shells_) {
    rule::RuleIndexStats idx = shell->lhs_index().stats();
    out += StrFormat(
        "  %-8s buckets=%zu max-bucket=%zu mean-bucket=%.2f "
        "wildcard-rules=%zu wildcard-hit-rate=%.2f\n",
        site.c_str(), idx.exact_buckets, idx.max_bucket_size,
        idx.mean_bucket_size, idx.wildcard_rules, idx.WildcardHitRate());
  }
  return out;
}

std::string System::DescribeExecutorStats() const {
  return executor_->DescribeStats();
}

std::string System::DescribeStorageStats() const {
  if (stores_.empty()) return "";
  std::string out = "storage:\n";
  for (const auto& [site, store] : stores_) {
    out += StrFormat(
        "  %-8s bases=%llu deltas=%llu compactions=%llu files-gc'd=%llu "
        "chain=%zu\n",
        site.c_str(),
        static_cast<unsigned long long>(store->snapshots_written()),
        static_cast<unsigned long long>(store->deltas_written()),
        static_cast<unsigned long long>(store->compactions()),
        static_cast<unsigned long long>(store->snapshot_files_deleted()),
        store->chain_length());
  }
  return out;
}

Result<Shell*> System::ShellAt(const std::string& site) {
  auto it = shells_.find(site);
  if (it == shells_.end()) return Status::NotFound("no shell at " + site);
  return it->second.get();
}

Result<Translator*> System::TranslatorAt(const std::string& site) {
  auto it = translators_.find(site);
  if (it == translators_.end()) {
    return Status::NotFound("no translator at " + site);
  }
  return it->second.get();
}

Result<storage::SiteStore*> System::StoreAt(const std::string& site) {
  auto it = stores_.find(site);
  if (it == stores_.end()) return Status::NotFound("no store at " + site);
  return it->second.get();
}

Status System::CheckpointSite(const std::string& site) {
  HCM_ASSIGN_OR_RETURN(Shell * shell, ShellAt(site));
  HCM_ASSIGN_OR_RETURN(storage::SiteStore * store, StoreAt(site));
  // A full base is written when configured (delta_snapshots=false), when
  // the store has no chain yet, and on the first checkpoint after a
  // recovery (the dirty tracker cannot cover the replayed gap). Otherwise
  // the checkpoint is an O(changes) delta extending the chain.
  storage::Snapshot record = shell->BuildSnapshot(
      !options_.storage.delta_snapshots || store->needs_base());
  // The shell only knows its own state; the System layers on the pieces it
  // owns — registry statuses and the translator's write cursor.
  record.guarantees.emplace();
  for (const auto& [key, valid] : guarantee_status_.StatusSnapshot()) {
    record.guarantees->push_back(storage::GuaranteeStatus{key, valid});
  }
  auto tr = translators_.find(site);
  if (tr != translators_.end()) {
    record.translator_write_cursor_ms = tr->second->write_cursor().millis();
  }
  HCM_ASSIGN_OR_RETURN(bool written, store->WriteSnapshot(std::move(record)));
  // A skipped delta (quiet site) keeps its dirty state; the next period
  // folds it in.
  if (written) shell->NoteCheckpoint();
  return Status::OK();
}

Status System::CheckpointStorage() {
  for (const auto& [site, store] : stores_) {
    (void)store;
    HCM_RETURN_IF_ERROR(CheckpointSite(site));
  }
  return Status::OK();
}

Status System::AttachStreamingChecker(trace::StreamingChecker* checker,
                                      bool drain) {
  if (checker == nullptr) {
    return Status::InvalidArgument("streaming checker is null");
  }
  streaming_checker_ = checker;
  if (auto* sharded =
          dynamic_cast<trace::ShardedTraceRecorder*>(recorder_.get())) {
    // Trigger remaps must survive at least as long as the checker's own
    // lookback; pad by one flush stride worth of slack.
    sharded->SetRemapRetention(checker->retention() + Duration::Seconds(1));
  }
  recorder_->AttachSink(checker, drain);
  for (const auto& w : failures_.DownWindows()) {
    checker->NoteOutage(trace::SiteOutage{w.site, w.from, w.to});
  }
  // Detach at the barrier; merge, renumber and check while the lanes run
  // the next superstep. The plain recorder delivers inside Record, so its
  // detach only forwards the watermark.
  trace::TraceRecorder* recorder = recorder_.get();
  executor_->SetBarrierHook(
      [recorder](TimePoint safe) { recorder->DetachReady(safe); },
      [recorder] { recorder->DeliverDetached(); });
  return Status::OK();
}

Status System::ScheduleCrash(const std::string& site, TimePoint crash_at,
                             TimePoint restart_at, bool clean) {
  if (!options_.storage.enabled()) {
    return Status::FailedPrecondition(
        "crash injection needs SystemOptions::storage configured");
  }
  if (restart_at <= crash_at) {
    return Status::InvalidArgument("restart must come after the crash");
  }
  HCM_ASSIGN_OR_RETURN(Shell * shell, ShellAt(site));
  failures_.CrashSite(site, crash_at, clean);
  failures_.RestartSite(site, restart_at);
  executor_->ScheduleAt(site, crash_at,
                        [shell, clean]() { shell->Crash(clean); });
  executor_->ScheduleAt(site, restart_at, [shell]() {
    auto summary = shell->Recover();
    if (!summary.ok()) {
      HCM_LOG(Error) << "recovery of " << shell->site()
                     << " failed: " << summary.status().ToString();
    }
  });
  if (streaming_checker_ != nullptr) {
    streaming_checker_->NoteOutage(
        trace::SiteOutage{site, crash_at, restart_at});
  }
  return Status::OK();
}

}  // namespace hcm::toolkit
