#include "src/rule/rule_index.h"

#include <algorithm>

#include "src/common/symbols.h"

namespace hcm::rule {

void RuleIndex::Add(const EventTemplate& tpl, size_t handle) {
  size_t kind_pos = static_cast<size_t>(tpl.kind);
  if (EventKindHasItem(tpl.kind) && !tpl.item.base.empty()) {
    // Intern at registration time (cold path); Lookup then works on ids.
    uint32_t base_sym = Symbols().Intern(tpl.item.base);
    exact_[BucketKey(tpl.kind, base_sym)].push_back(handle);
  } else {
    wildcard_[kind_pos].push_back(handle);
    ++wildcard_rules_;
  }
  ++total_rules_;
  ++kind_rules_[kind_pos];
}

const std::vector<size_t>* RuleIndex::ExactBucket(const Event& event) const {
  if (!EventKindHasItem(event.kind) || event.item.base.empty()) {
    return nullptr;
  }
  uint32_t base_sym = event.base_sym;
  if (base_sym == kNoSymbol) {
    // Unstamped event (hand-built or deserialized): probe the symbol
    // table. A never-interned base cannot appear in any exact bucket.
    base_sym = Symbols().Find(event.item.base);
    if (base_sym == kNoSymbol) return nullptr;
  }
  auto it = exact_.find(BucketKey(event.kind, base_sym));
  return it == exact_.end() ? nullptr : &it->second;
}

size_t RuleIndex::Lookup(const Event& event,
                         std::vector<size_t>* out) const {
  out->clear();
  const std::vector<size_t>* exact = ExactBucket(event);
  const std::vector<size_t>& wild =
      wildcard_[static_cast<size_t>(event.kind)];
  if (exact == nullptr) {
    out->insert(out->end(), wild.begin(), wild.end());
  } else if (wild.empty()) {
    out->insert(out->end(), exact->begin(), exact->end());
  } else {
    // Merge the two sorted handle runs so candidates come back in
    // insertion order, matching the old linear scan exactly.
    out->reserve(exact->size() + wild.size());
    std::merge(exact->begin(), exact->end(), wild.begin(), wild.end(),
               std::back_inserter(*out));
  }
  ++events_dispatched_;
  candidates_returned_ += out->size();
  scans_avoided_ += total_rules_ - out->size();
  if (!wild.empty()) ++wildcard_hits_;
  return out->size();
}

RuleIndexStats RuleIndex::stats() const {
  RuleIndexStats s;
  s.rules = total_rules_;
  s.exact_buckets = exact_.size();
  s.wildcard_rules = wildcard_rules_;
  s.events_dispatched = events_dispatched_;
  s.candidates_returned = candidates_returned_;
  s.scans_avoided = scans_avoided_;
  s.wildcard_hits = wildcard_hits_;
  size_t exact_rules = 0;
  for (const auto& [key, bucket] : exact_) {
    (void)key;
    s.max_bucket_size = std::max(s.max_bucket_size, bucket.size());
    exact_rules += bucket.size();
  }
  if (!exact_.empty()) {
    s.mean_bucket_size =
        static_cast<double>(exact_rules) / static_cast<double>(exact_.size());
  }
  return s;
}

void RuleIndex::ResetTrafficStats() {
  events_dispatched_ = 0;
  candidates_returned_ = 0;
  scans_avoided_ = 0;
  wildcard_hits_ = 0;
}

}  // namespace hcm::rule
