#include "kg/dictionary.h"

#include "util/logging.h"

namespace exea::kg {

uint32_t Dictionary::Intern(std::string_view name) {
  auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(names_.size());
  names_.emplace_back(name);
  index_.emplace(names_.back(), id);
  return id;
}

uint32_t Dictionary::Lookup(std::string_view name) const {
  auto it = index_.find(name);
  return it == index_.end() ? UINT32_MAX : it->second;
}

const std::string& Dictionary::Name(uint32_t id) const {
  EXEA_CHECK_LT(id, names_.size());
  return names_[id];
}

}  // namespace exea::kg
