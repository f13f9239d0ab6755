#include "lint/registry.h"

#include <sstream>

namespace lint {

bool ExpandRules(const std::string& spec, std::set<std::string>* enabled,
                 std::string* unknown) {
  bool named_any = false;
  std::string token;
  std::istringstream parts(spec);
  while (std::getline(parts, token, ',')) {
    size_t b = token.find_first_not_of(" \t");
    if (b == std::string::npos) continue;
    size_t e = token.find_last_not_of(" \t");
    std::string name = token.substr(b, e - b + 1);
    bool matched = false;
    for (const RuleInfo& info : kRules) {
      if (name == info.name || name == info.family) {
        matched = true;
        enabled->insert(info.name);
      }
    }
    if (!matched) {
      *unknown = name;
      return false;
    }
    named_any = true;
  }
  return named_any;
}

}  // namespace lint
