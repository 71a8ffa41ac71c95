// SCALE-2 positive fixture: check messages assembled on every call —
// one concatenation, one std::to_string, one ensure. Scanned with
// check_first = true (as if it lived under src/sim/).
#include <cstdint>
#include <string>

#include "util/require.h"

int read(const std::int64_t* words, std::size_t size, std::size_t i,
         const std::string& who) {
  require(i < size, "payload index out of range for " + who);
  require(size > 0,
          "empty payload at index " + std::to_string(i));
  csca::ensure(words != nullptr, std::string("null words: ") + who);
  return static_cast<int>(words[i]);
}
