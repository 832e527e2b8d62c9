#include "core/catalog.h"

#include <iterator>
#include <limits>

namespace mscm::core {

void GlobalCatalog::Register(const std::string& site, CostModel model) {
  const Key key{site, static_cast<int>(model.class_id())};
  models_.erase(key);
  models_.emplace(key, std::move(model));
}

size_t GlobalCatalog::Unregister(const std::string& site) {
  // Keys sort by site name first, so the site's models form one contiguous
  // range: erase from the first (site, *) key to the first key past it.
  const auto first =
      models_.lower_bound(Key{site, std::numeric_limits<int>::min()});
  auto last = first;
  while (last != models_.end() && last->first.first == site) ++last;
  const size_t removed = static_cast<size_t>(std::distance(first, last));
  models_.erase(first, last);
  return removed;
}

const CostModel* GlobalCatalog::Find(const std::string& site,
                                     QueryClassId class_id) const {
  const auto it = models_.find(Key{site, static_cast<int>(class_id)});
  return it == models_.end() ? nullptr : &it->second;
}

const CompiledEquations* GlobalCatalog::FindCompiled(
    const std::string& site, QueryClassId class_id) const {
  const CostModel* model = Find(site, class_id);
  return model == nullptr ? nullptr : &model->compiled();
}

std::vector<std::pair<std::string, QueryClassId>> GlobalCatalog::Entries()
    const {
  std::vector<std::pair<std::string, QueryClassId>> out;
  out.reserve(models_.size());
  for (const auto& [key, _] : models_) {
    out.emplace_back(key.first, static_cast<QueryClassId>(key.second));
  }
  return out;
}

}  // namespace mscm::core
