#include "src/trace/item_interner.h"

#include <algorithm>

namespace hcm::trace {

const std::vector<uint32_t> ItemInterner::kEmptyIds;

ItemInterner& ItemInterner::operator=(const ItemInterner& other) {
  if (this == &other) return *this;
  ids_ = other.ids_;
  items_.assign(other.items_.size(), nullptr);
  for (const auto& [item, id] : ids_) items_[id] = &item;
  by_base_.clear();
  sorted_ids_.clear();
  views_stale_ = !items_.empty();
  return *this;
}

uint32_t ItemInterner::Intern(const rule::ItemId& item) {
  // try_emplace copies the key only for a new item; emplace would build
  // (and free) a node on every hit.
  auto [it, inserted] =
      ids_.try_emplace(item, static_cast<uint32_t>(items_.size()));
  if (!inserted) return it->second;
  items_.push_back(&it->first);
  views_stale_ = true;
  return it->second;
}

uint32_t ItemInterner::Find(const rule::ItemId& item) const {
  auto it = ids_.find(item);
  return it == ids_.end() ? kNoId : it->second;
}

void ItemInterner::RebuildSortedViews() const {
  sorted_ids_.resize(items_.size());
  for (uint32_t id = 0; id < items_.size(); ++id) sorted_ids_[id] = id;
  std::sort(sorted_ids_.begin(), sorted_ids_.end(),
            [this](uint32_t lhs, uint32_t rhs) {
              return *items_[lhs] < *items_[rhs];
            });
  by_base_.clear();
  // Appending in sorted order keeps every per-base list in ItemId order.
  for (uint32_t id : sorted_ids_) {
    by_base_[items_[id]->base].push_back(id);
  }
  views_stale_ = false;
}

const std::vector<uint32_t>& ItemInterner::IdsWithBase(
    const std::string& base) const {
  if (views_stale_) RebuildSortedViews();
  auto it = by_base_.find(base);
  return it == by_base_.end() ? kEmptyIds : it->second;
}

const std::vector<uint32_t>& ItemInterner::SortedIds() const {
  if (views_stale_) RebuildSortedViews();
  return sorted_ids_;
}

}  // namespace hcm::trace
