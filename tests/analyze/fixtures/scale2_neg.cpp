// SCALE-2 negative fixture: the nearest non-hazards. A literal message,
// arithmetic in the condition only, a literal `false` condition (the
// throw site itself builds its text only when it throws), a test-first
// require_lit, and a member function that happens to be called require.
#include <cstdint>
#include <string>

#include "util/require_lit.h"

struct Policy {
  void require(bool, const std::string&) {}
};

int read(const std::int64_t* words, std::size_t size, std::size_t i,
         const std::string& who, Policy& policy) {
  require(i + 1 <= size, "payload index out of range");
  if (words == nullptr) {
    require(false, "null words for " + who);
  }
  require_lit(size > 0, "empty payload");
  policy.require(size > 1, "short payload for " + who);
  return static_cast<int>(words[i]);
}
