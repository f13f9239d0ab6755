// Bidirectional string <-> dense-id interning for entity and relation
// names.

#ifndef EXEA_KG_DICTIONARY_H_
#define EXEA_KG_DICTIONARY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace exea::kg {

class Dictionary {
 public:
  Dictionary() = default;

  // Returns the id of `name`, interning it if new. Ids are dense and
  // assigned in insertion order.
  uint32_t Intern(std::string_view name);

  // Returns the id of `name` or UINT32_MAX if unknown.
  uint32_t Lookup(std::string_view name) const;

  // The name for `id`. `id` must be valid.
  const std::string& Name(uint32_t id) const;

  bool Contains(std::string_view name) const {
    return Lookup(name) != UINT32_MAX;
  }

  size_t size() const { return names_.size(); }

 private:
  // Transparent hash: with std::equal_to<> it lets index_ look up a
  // std::string_view without building a temporary std::string.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };

  std::vector<std::string> names_;
  std::unordered_map<std::string, uint32_t, NameHash, std::equal_to<>> index_;
};

}  // namespace exea::kg

#endif  // EXEA_KG_DICTIONARY_H_
