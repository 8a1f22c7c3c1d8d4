#ifndef HCM_TOOLKIT_SHELL_H_
#define HCM_TOOLKIT_SHELL_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/rule/rule.h"
#include "src/rule/rule_index.h"
#include "src/sim/executor.h"
#include "src/sim/network.h"
#include "src/storage/site_store.h"
#include "src/toolkit/failure.h"
#include "src/toolkit/messages.h"
#include "src/toolkit/registry.h"
#include "src/trace/trace.h"

namespace hcm::toolkit {

// A per-site Constraint Manager Shell: "a general-purpose process that is
// configured by reading the Strategy Specification" (Section 4.1).
//
// The shell
//  - receives events from its local CM-Translator and from peer shells;
//  - matches them against the rules whose LHS events occur at this site,
//    consulting a (kind, item-base) discrimination index so dispatch cost
//    scales with the rules that can match, not with every installed rule;
//  - forwards each match (rule id + matching interpretation) to the shell
//    responsible for the rule's RHS site, which evaluates the step
//    conditions against ITS local data and emits the step events;
//  - owns the CM-private data at this site (caches, Flag/Tb auxiliary
//    items) and answers application reads of it;
//  - runs the timers behind P(p) periodic rules;
//  - relays failure notices from the translator to the guarantee status
//    registry and to its strategy peers (the shells that share an installed
//    strategy with it).
class Shell {
 public:
  // Event-dispatch efficiency counters (see System::DescribeDispatchStats).
  struct DispatchStats {
    uint64_t events_matched = 0;       // events run through MatchEvent
    uint64_t candidates_considered = 0;  // rules the index handed back
    uint64_t lhs_matches = 0;          // candidates that unified + passed C
    uint64_t firings = 0;              // rule bodies executed at this shell
    uint64_t scans_avoided = 0;        // rules skipped vs a linear scan
    size_t installed_lhs_rules = 0;
    size_t index_buckets = 0;
  };

  Shell(std::string site, sim::Executor* executor, sim::Network* network,
        trace::TraceRecorder* recorder, const ItemRegistry* registry,
        GuaranteeStatusRegistry* guarantees);
  Shell(const Shell&) = delete;
  Shell& operator=(const Shell&) = delete;

  const std::string& site() const { return site_; }

  // Registers the shell's network endpoint. Call once before running.
  Status Initialize();

  // Adds a shell this one relays failure notices to (one that shares an
  // installed strategy with it). Peers are kept in site-name order, once.
  void AddPeer(Shell* peer);

  // Routes matching and rule execution through the original string-keyed
  // Binding path instead of the compiled slot/symbol path. Semantically
  // identical (the interned-equivalence suite asserts byte-identical
  // traces); kept for equivalence testing and as executable documentation.
  void set_use_reference_impl(bool v) { use_reference_impl_ = v; }

  // --- Rule installation (performed by the System during initialization,
  // implementing the paper's rule-distribution step) ---

  // Installs a rule whose LHS events occur at this site; matches will be
  // forwarded to `rhs_site` for execution.
  Status AddLhsRule(const rule::Rule& r, const std::string& rhs_site);

  // Installs the rule body at the RHS-executing shell (may be the same
  // shell as the LHS).
  Status AddRhsRule(const rule::Rule& r);

  // Starts the timer for a P(p)-headed rule owned by this shell. The rule
  // must also be installed via AddLhsRule/AddRhsRule.
  Status StartPeriodicRule(const rule::Rule& r);

  // Marks an installed LHS rule's fire messages as elidable: the System
  // calls this for rules the monotonicity classifier approved (see
  // rule::ClassifyMonotone), and the parallel engine then delivers their
  // fires without the synchronization-window clamp. Returns the number of
  // LHS entries updated (0 when the rule is not installed here).
  size_t SetRuleElidable(int64_t rule_id, bool elidable = true);

  // Host-language strategies (Demarcation Protocol, referential sweeps)
  // register programmatic work; see src/protocols.
  void AddPeriodicTask(Duration period, std::function<void()> task);

  // --- CM-private data (auxiliary items, Section 7.1) ---

  // Reads private data; unwritten items read as Null.
  Value ReadPrivate(const rule::ItemId& item) const;

  // Writes private data, recording the W event. Used by rule execution and
  // by host-language strategies.
  void WritePrivate(const rule::ItemId& item, Value value,
                    int64_t rule_id = -1, int64_t trigger_event_id = -1,
                    int rhs_step = -1);

  // Seeds private data without recording an event (initial state).
  void SeedPrivate(const rule::ItemId& item, Value value) {
    private_data_[item] = std::move(value);
    if (store_ != nullptr) private_dirty_.insert(item);
  }

  // The application-facing read API ("a simple programmatic interface to
  // allow applications to read auxiliary CM data").
  Result<Value> ReadAuxiliary(const rule::ItemId& item) const;

  // --- Durability and crash recovery (DESIGN.md §4e) ---

  // Wires a durable store. The shell then journals every state mutation
  // (rule installs, timer arms/fires, private writes, RHS step progress)
  // through it. Non-owning; the System keeps the store alive.
  void AttachStorage(storage::SiteStore* store) { store_ = store; }
  storage::SiteStore* store() const { return store_; }

  // Registers the snapshot trigger (System::CheckpointSite bound to this
  // site) and arms it as a periodic task; Recover re-arms it.
  void SetSnapshotTask(Duration period, std::function<void()> task);

  // Simulated process death: all volatile CM state at this site is wiped
  // and every scheduled continuation (periodic timers, RHS step chains)
  // is invalidated via the epoch counter. With `clean` the journal's
  // group-commit buffer reaches disk first; a dirty crash drops it, losing
  // the records committed after the last group-commit boundary.
  void Crash(bool clean = true);
  bool crashed() const { return crashed_; }

  struct RecoverySummary {
    bool snapshot_found = false;
    uint64_t replayed_records = 0;
    bool torn_tail = false;
    uint64_t truncated_bytes = 0;
    size_t lost_buffered = 0;  // records dropped by a dirty crash
    FailureClass classification = FailureClass::kMetric;
    Duration outage = Duration::Zero();
    size_t lhs_rules_reinstalled = 0;
    size_t rhs_rules_reinstalled = 0;
    size_t timers_restarted = 0;
    size_t fires_resumed = 0;
    size_t private_items_restored = 0;

    std::string ToString() const;
  };

  // The recovery protocol: load the latest snapshot + journal tail from the
  // attached store, reinstall rules (re-parsed from text, so slot layouts
  // and symbol ids come out right under the fresh interner state), restore
  // private data without re-recording W events, re-arm periodic timers
  // phase-aligned past now, resume half-done RHS chains at their journaled
  // step, then classify the outage: metric if no records were lost and the
  // gap fits inside the largest installed rule deadline, logical otherwise.
  // The resulting FailureNotice is backdated to the crash instant so the
  // guarantee void window covers the whole outage.
  Result<RecoverySummary> Recover();

  // Captures this shell's recoverable state (rules, timers, private data,
  // outstanding fires): all of it as a base record when `full`, else only
  // the entries changed since the last NoteCheckpoint as a delta, fed by
  // the dirty tracking below (DESIGN.md §4h). The System layers on the
  // registry statuses and the translator cursor before handing the record
  // to SiteStore::WriteSnapshot.
  storage::Snapshot BuildSnapshot(bool full) const;

  // Marks the dirty-tracking epoch: called by the System after a
  // checkpoint (base or delta) durably covers the current state. Clears
  // every dirty set, so the next delta enumerates only changes from
  // this instant.
  void NoteCheckpoint();

  // Count of rule firings executed here (for benches).
  uint64_t firings() const { return firings_; }

  // Dispatch-efficiency snapshot for benches and deployment stats.
  DispatchStats dispatch_stats() const;

  // The LHS discrimination index (read-only; benches inspect bucketing).
  const rule::RuleIndex& lhs_index() const { return lhs_index_; }

 private:
  void OnMessage(const sim::Message& message);
  // Records the event (stamping time/site) and runs LHS matching.
  void RecordAndProcess(rule::Event event);
  // LHS matching for one event that occurred at this site.
  void MatchEvent(const rule::Event& event);
  // RHS execution of a fired rule.
  void ExecuteFire(const FireMessage& fire);
  // Schedules step `step` of rule `rule_id`. The rule is re-looked-up in
  // rhs_rules_ when the step actually runs, so installed rules may be
  // replaced between scheduling and firing without dangling references.
  // `fire_seq` is the journal firing sequence (0 = not journaled); step
  // progress and chain completion are logged under it.
  void ExecuteStep(int64_t rule_id, int64_t trigger_event_id, size_t step,
                   rule::Binding binding, uint64_t fire_seq = 0);
  // Slot-compiled twin of ExecuteStep, mirroring its semantics exactly.
  void ExecuteStepCompiled(int64_t rule_id, int64_t trigger_event_id,
                           size_t step, rule::BindingFrame frame,
                           uint64_t fire_seq = 0);
  void RouteGeneratedEvent(rule::Event event, bool whole_base);
  void ReportFailure(const FailureNotice& notice);

  // Self-rescheduling timer behind a P(p) rule, firing first at
  // `first_fire` and every `period` after; invalidated by epoch bumps.
  void ArmPeriodicRule(int64_t rule_id, Duration period, TimePoint first_fire);
  // Runs `task` every `period` from now on; invalidated by epoch bumps.
  void ArmPeriodicTask(Duration period,
                       std::shared_ptr<const std::function<void()>> task);
  // Journals a firing's begin record and registers it as outstanding.
  uint64_t NoteFireBegin(const rule::Rule& r, int64_t trigger_event_id,
                         TimePoint trigger_time,
                         std::vector<std::pair<std::string, Value>> binding);
  // Journals step completion / chain end and maintains outstanding_fires_.
  void NoteFireStep(uint64_t fire_seq, size_t step);
  void NoteFireEnd(uint64_t fire_seq);
  // Largest RHS deadline among installed rules (recovery classification).
  Duration MaxRuleDelta() const;

  // Cached reader over private_data_; built once, not per condition eval.
  const rule::DataReader& PrivateReader() const { return private_reader_; }

  std::string site_;
  uint32_t site_sym_ = kNoSymbol;
  // Interned base site: the executor lane every timer of this shell runs on.
  uint32_t lane_sym_ = kNoSymbol;
  // Cached translator endpoint (satellite of the symbol refactor: the old
  // code rebuilt "site#tr" on every WR/RR/DEL send).
  std::string tr_endpoint_;
  uint32_t tr_endpoint_sym_ = kNoSymbol;
  sim::Executor* executor_;
  sim::Network* network_;
  trace::TraceRecorder* recorder_;
  const ItemRegistry* registry_;
  GuaranteeStatusRegistry* guarantees_;
  std::vector<Shell*> peers_;
  bool use_reference_impl_ = false;

  struct LhsEntry {
    rule::Rule rule;
    std::string rhs_site;
    uint32_t rhs_site_sym = kNoSymbol;
    // Fires of this rule carry the CALM-elidable stamp (monotone rule).
    bool elidable = false;
  };
  std::vector<LhsEntry> lhs_rules_;
  // Buckets lhs_rules_ positions by (kind, item base); MatchEvent consults
  // only the buckets an event can hit.
  rule::RuleIndex lhs_index_;
  // Scratch candidate list reused across MatchEvent calls.
  mutable std::vector<size_t> candidate_scratch_;
  // Scratch frame reused across compiled match attempts: zero allocations
  // per candidate in steady state.
  rule::BindingFrame frame_scratch_;
  std::map<int64_t, rule::Rule> rhs_rules_;
  std::map<rule::ItemId, Value> private_data_;
  rule::DataReader private_reader_;

  // Per-step processing delay when executing a fired rule's RHS.
  Duration step_delay_ = Duration::Millis(5);
  uint64_t firings_ = 0;
  uint64_t events_matched_ = 0;
  uint64_t lhs_matches_ = 0;

  // --- Durability state ---
  storage::SiteStore* store_ = nullptr;
  // Bumped by Crash(); scheduled continuations capture the value at
  // creation and no-op when stale, so a dead incarnation's timers and step
  // chains cannot touch the recovered one.
  uint64_t epoch_ = 0;
  bool crashed_ = false;
  TimePoint crashed_at_;
  size_t lost_buffered_ = 0;
  // Suppresses journaling while Recover reinstalls replayed state (the
  // records are already in the journal).
  bool recovering_ = false;
  // Periodic timers by rule id (period + absolute next fire), mirrored to
  // the journal so recovery re-arms them phase-aligned.
  std::map<int64_t, storage::PeriodicTimer> periodic_state_;
  // Fires whose RHS chain is in flight, keyed by journal sequence.
  std::map<uint64_t, storage::OutstandingFire> outstanding_fires_;
  Duration snapshot_period_ = Duration::Zero();
  std::function<void()> snapshot_task_;

  // --- Dirty tracking for delta snapshots (DESIGN.md §4h) ---
  // Maintained only while a store is attached; cleared by NoteCheckpoint.
  // LHS rules are append-only, so a clean-prefix watermark suffices; the
  // keyed collections track changed ids/items in ordered sets (dedup +
  // deterministic delta section order); completed fires append tombstones.
  size_t lhs_clean_count_ = 0;
  std::set<int64_t> rhs_dirty_;
  std::set<int64_t> periodic_dirty_;
  std::set<rule::ItemId> private_dirty_;
  std::set<uint64_t> fires_dirty_;
  std::vector<uint64_t> fires_ended_;
};

}  // namespace hcm::toolkit

#endif  // HCM_TOOLKIT_SHELL_H_
