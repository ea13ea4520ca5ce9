// A set of N simulated analog "chips". Chips are a placement and
// sim-time concept: a cim::ShardPlan assigns each sharded layer's tiles
// to a contiguous chip range, and the timing co-simulator charges the
// inter-chip link for the data that would move between them. The host
// runs every analog layer on the global ThreadPool at the layer's
// TileConfig::n_threads, whatever its placement.
#pragma once

namespace nora::shard {

class ChipSet {
 public:
  /// n_chips >= 1 simulated chips. threads_per_chip is accepted for
  /// source compatibility and ignored: a chip spawns no threads. Throws
  /// std::invalid_argument when n_chips < 1.
  explicit ChipSet(int n_chips, int threads_per_chip = 1);

  int n_chips() const { return n_chips_; }

 private:
  int n_chips_ = 1;
};

}  // namespace nora::shard
