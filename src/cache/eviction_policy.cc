#include "src/cache/eviction_policy.h"

#include "src/util/logging.h"

namespace fmoe {

bool ParseEvictionRule(const std::string& name, EvictionRule* rule) {
  if (name == "LRU") {
    *rule = EvictionRule::kLru;
  } else if (name == "LFU") {
    *rule = EvictionRule::kLfu;
  } else if (name == "fMoE-PriorityLFU") {
    *rule = EvictionRule::kPriorityLfu;
  } else {
    return false;
  }
  return true;
}

EvictionRule EvictionRuleNamed(const std::string& name) {
  EvictionRule rule = EvictionRule::kLru;
  FMOE_CHECK_MSG(ParseEvictionRule(name, &rule), "unknown eviction policy: " << name);
  return rule;
}

}  // namespace fmoe
