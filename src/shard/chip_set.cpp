#include "shard/chip_set.hpp"

#include <stdexcept>
#include <string>

namespace nora::shard {

ChipSet::ChipSet(int n_chips, int /*threads_per_chip*/) : n_chips_(n_chips) {
  if (n_chips < 1) {
    throw std::invalid_argument("ChipSet: n_chips must be >= 1, got " +
                                std::to_string(n_chips));
  }
}

}  // namespace nora::shard
