#include "src/trace/execution_rules.h"

namespace hcm::trace::internal {

namespace {

// Base site of an endpoint / event site ("B#tr" -> "B").
std::string BaseSiteOf(const std::string& site) {
  auto pos = site.find('#');
  return pos == std::string::npos ? site : site.substr(0, pos);
}

bool IsWriteShaped(rule::EventKind k) {
  return k == rule::EventKind::kWriteSpont || k == rule::EventKind::kWrite ||
         k == rule::EventKind::kWriteRequest ||
         k == rule::EventKind::kInsert || k == rule::EventKind::kDelete;
}

// First sighting wins; the site string is built only for a new base.
void LearnFirst(std::unordered_map<std::string, std::string>* sites,
                const std::string& base, const std::string& site) {
  if (sites->find(base) == sites->end()) {
    sites->emplace(base, BaseSiteOf(site));
  }
}

// True when the outage could have delayed this obligation: it hit the site
// the trigger was recorded at, the site hosting the rule's LHS, or a site
// one of the RHS steps fires at. Step sites missing a "@site" pin fall back
// to where the trace placed the step's item base; a rule the trace cannot
// localize at all is conservatively treated as covered (extending a
// deadline only ever makes the checker more lenient, and a rule with no
// observable events has nothing to violate anyway).
bool OutageCoversRule(const std::string& outage_site,
                      const std::string& trigger_site, const rule::Rule& r,
                      const SiteOfBase& sites) {
  const std::string down = BaseSiteOf(outage_site);
  if (BaseSiteOf(trigger_site) == down) return true;
  if (!r.lhs.site.empty() && BaseSiteOf(r.lhs.site) == down) return true;
  bool unknown = false;
  for (const auto& step : r.rhs) {
    const std::string* site = &step.event.site;
    if (site->empty()) {
      site = sites.Find(step.event.item.base);
      if (site == nullptr || site->empty()) {
        unknown = true;
        continue;
      }
    }
    if (BaseSiteOf(*site) == down) return true;
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
                                 rule::Binding* binding) {
  if (tpl.kind == rule::EventKind::kReadRequest &&
      event.kind == rule::EventKind::kReadRequest &&
      tpl.item.base == event.item.base && event.item.args.empty()) {
    return true;
  }
  return tpl.Matches(event, binding);
}

RuleTables::RuleTables(const std::vector<rule::Rule>& rules)
    : rules_(&rules) {
  by_id_.reserve(rules.size());
  cleared_rhs_.reserve(rules.size());
  for (size_t pos = 0; pos < rules.size(); ++pos) {
    const rule::Rule& r = rules[pos];
    by_id_[r.id] = &r;
    index_.Add(r.lhs, pos);
    std::vector<rule::EventTemplate> cleared;
    cleared.reserve(r.rhs.size());
    for (const auto& s : r.rhs) {
      cleared.push_back(s.event);
      cleared.back().site.clear();
    }
    cleared_rhs_.push_back(std::move(cleared));
  }
}

void SiteOfBase::Learn(const rule::Event& e) {
  if (IsWriteShaped(e.kind)) LearnFirst(&write_site_, e.item.base, e.site);
  if (!e.item.base.empty()) LearnFirst(&any_site_, e.item.base, e.site);
}

const std::string* SiteOfBase::Find(const std::string& base) const {
  auto it = write_site_.find(base);
  if (it != write_site_.end()) return &it->second;
  it = any_site_.find(base);
  return it == any_site_.end() ? nullptr : &it->second;
}

TimePoint ObligationDeadline(const rule::Rule& r,
                             const std::string& trigger_site,
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
      if (!OutageCoversRule(w.site, trigger_site, r, sites)) continue;
      TimePoint candidate = w.to + r.delta;
      if (deadline < candidate) {
        deadline = candidate;
        extended = true;
      }
    }
  }
  return deadline;
}

}  // namespace hcm::trace::internal
