#include "src/trace/execution_rules.h"

#include <limits>
#include <string_view>

namespace hcm::trace::internal {

namespace {

// Older than any fire: a FiredIndex refill that keeps everything.
constexpr TimePoint kEveryFire =
    TimePoint::FromMillis(std::numeric_limits<int64_t>::min());

// The base site of an endpoint or event site: its prefix up to '#'
// ("B#tr" -> "B").
std::string_view BaseSiteOf(std::string_view site) {
  return site.substr(0, site.find('#'));
}

bool IsWriteShaped(rule::EventKind k) {
  return k == rule::EventKind::kWriteSpont || k == rule::EventKind::kWrite ||
         k == rule::EventKind::kWriteRequest ||
         k == rule::EventKind::kInsert || k == rule::EventKind::kDelete;
}

// First sighting wins.
void LearnFirst(std::vector<uint32_t>* sites, uint32_t base_sym,
                const rule::Event& e) {
  if (base_sym >= sites->size()) sites->resize(base_sym + 1, kNoSymbol);
  if ((*sites)[base_sym] == kNoSymbol) (*sites)[base_sym] = SiteSymOf(e);
}

// True when the outage could have delayed this obligation: it hit the site
// the trigger was recorded at, the site hosting the rule's LHS, or a site
// one of the RHS steps fires at. Step sites missing a "@site" pin fall back
// to where the trace placed the step's item base; a rule the trace cannot
// localize at all is conservatively treated as covered (extending a
// deadline only ever makes the checker more lenient, and a rule with no
// observable events has nothing to violate anyway).
bool OutageCoversRule(std::string_view down, uint32_t trigger_site,
                      const rule::Rule& r, const SiteOfBase& sites) {
  if (BaseSiteOf(Symbols().name(trigger_site)) == down) return true;
  if (!r.lhs.site.empty() && BaseSiteOf(r.lhs.site) == down) return true;
  bool unknown = false;
  for (const auto& step : r.rhs) {
    std::string_view site = step.event.site;
    if (site.empty()) {
      const std::string* placed = sites.Find(step.event.item.base_sym);
      if (placed == nullptr || BaseSiteOf(*placed).empty()) {
        unknown = true;
        continue;
      }
      site = *placed;
    }
    if (BaseSiteOf(site) == down) return true;
  }
  return unknown;
}

}  // namespace

std::optional<Value> OpenedValue(const rule::Event& e, const Segment* prev) {
  switch (e.kind) {
    case rule::EventKind::kWriteSpont:
    case rule::EventKind::kWrite:
      return e.written_value();
    case rule::EventKind::kInsert:
      if (prev != nullptr && prev->value.has_value()) return prev->value;
      return Value::Null();
    default:  // kDelete; callers filter with ChangesState
      return std::nullopt;
  }
}

bool TemplateMatchesIgnoringSite(const rule::EventTemplate& tpl,
                                 const rule::Event& event,
                                 rule::BindingFrame* frame) {
  if (tpl.kind == rule::EventKind::kReadRequest &&
      event.kind == rule::EventKind::kReadRequest &&
      event.item.args.empty() && tpl.item.base == event.item.base) {
    return true;
  }
  return tpl.MatchesCompiled(event, frame);
}

RuleTables::RuleTables(const std::vector<rule::Rule>& rules)
    : rules_(rules) {
  by_id_.reserve(rules_.size());
  steps_.reserve(rules_.size());
  std::vector<rule::ItemRef> refs;
  for (size_t pos = 0; pos < rules_.size(); ++pos) {
    rule::Rule& r = rules_[pos];
    r.Compile();
    by_id_[r.id] = &r;
    index_.Add(r.lhs, pos);
    max_slots_ = std::max(max_slots_, r.slots.size());
    max_delta_ = std::max(max_delta_, r.delta);
    std::vector<Step> steps(r.rhs.size());
    for (size_t i = 0; i < r.rhs.size(); ++i) {
      steps[i].cleared = r.rhs[i].event;
      steps[i].cleared.site.clear();
      if (r.rhs[i].condition == nullptr) continue;
      refs.clear();
      r.rhs[i].condition->Collect(&refs, nullptr);
      // Compile finds every condition variable already slotted.
      for (rule::ItemRef& ref : refs) ref.Compile(&r.slots);
      steps[i].condition_items = refs;
    }
    steps_.push_back(std::move(steps));
  }
}

void SiteOfBase::Learn(const rule::Event& e) {
  uint32_t base_sym = BaseSymOf(e);
  if (base_sym == kNoSymbol) return;
  if (IsWriteShaped(e.kind)) LearnFirst(&write_site_, base_sym, e);
  LearnFirst(&any_site_, base_sym, e);
}

const std::string* SiteOfBase::Find(uint32_t base_sym) const {
  for (const std::vector<uint32_t>* tier : {&write_site_, &any_site_}) {
    if (base_sym < tier->size() && (*tier)[base_sym] != kNoSymbol) {
      return &Symbols().name((*tier)[base_sym]);
    }
  }
  return nullptr;
}

TimePoint ObligationDeadline(const rule::Rule& r, uint32_t trigger_site,
                             TimePoint trigger_time,
                             const std::vector<SiteOutage>& outages,
                             const SiteOfBase& sites) {
  TimePoint deadline = trigger_time + r.delta;
  // Each pass strictly grows the deadline, and a window stops contributing
  // once the deadline passes `to + delta`, so the loop terminates.
  bool extended = !outages.empty();
  while (extended) {
    extended = false;
    for (const auto& w : outages) {
      if (!(w.from <= deadline && trigger_time < w.to)) continue;
      if (!OutageCoversRule(BaseSiteOf(w.site), trigger_site, r, sites)) {
        continue;
      }
      TimePoint candidate = w.to + r.delta;
      if (deadline < candidate) {
        deadline = candidate;
        extended = true;
      }
    }
  }
  return deadline;
}

bool GroundInto(const rule::ItemRef& ref, const rule::BindingFrame& frame,
                rule::ItemId* out) {
  out->base = ref.base;
  out->args.clear();
  for (const rule::Term& t : ref.args) {
    Result<Value> v = t.GroundCompiled(frame);
    if (!v.ok()) return false;
    out->args.push_back(std::move(*v));
  }
  return true;
}

size_t FiredIndex::Hash(int64_t trigger_id, int64_t rule_id, int step) {
  uint64_t h = static_cast<uint64_t>(trigger_id) * 0x9e3779b97f4a7c15ull;
  h ^= static_cast<uint64_t>(rule_id) + 0x632be59bd9b4e019ull + (h << 6) +
       (h >> 2);
  h ^= static_cast<uint64_t>(step) * 0xc2b2ae3d27d4eb4full;
  return static_cast<size_t>(h ^ (h >> 29));
}

void FiredIndex::Put(int64_t trigger_id, int64_t rule_id, int step,
                     FiredStep fired) {
  if ((size_ + 1) * 4 > slots_.size() * 3) {
    Refill(std::max<size_t>(64, slots_.size() * 2), kEveryFire);
  }
  size_t mask = slots_.size() - 1;
  for (size_t i = Hash(trigger_id, rule_id, step) & mask;; i = (i + 1) & mask) {
    Slot& s = slots_[i];
    if (!s.used) {
      s = Slot{trigger_id, rule_id, step, true, fired};
      ++size_;
      return;
    }
    if (s.trigger_id == trigger_id && s.rule_id == rule_id && s.step == step) {
      s.fired = fired;
      return;
    }
  }
}

const FiredStep* FiredIndex::Find(int64_t trigger_id, int64_t rule_id,
                                  int step) const {
  if (size_ == 0) return nullptr;
  size_t mask = slots_.size() - 1;
  for (size_t i = Hash(trigger_id, rule_id, step) & mask;; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (!s.used) return nullptr;
    if (s.trigger_id == trigger_id && s.rule_id == rule_id && s.step == step) {
      return &s.fired;
    }
  }
}

void FiredIndex::Reserve(size_t n) {
  size_t capacity = 64;
  while (capacity * 3 < n * 4) capacity *= 2;
  if (capacity > slots_.size()) Refill(capacity, kEveryFire);
}

void FiredIndex::EraseBefore(TimePoint cut) { Refill(slots_.size(), cut); }

void FiredIndex::Refill(size_t capacity, TimePoint keep_from) {
  std::vector<Slot> old(capacity);
  old.swap(slots_);
  size_ = 0;
  for (const Slot& s : old) {
    if (s.used && !(s.fired.time < keep_from)) {
      Put(s.trigger_id, s.rule_id, s.step, s.fired);
    }
  }
}

}  // namespace hcm::trace::internal
