// KV-cached incremental decoding.
//
// Autoregressive generation re-uses the attention keys/values of past
// positions instead of re-running the whole prefix — the standard LLM
// serving optimization. TransformerLM::forward_serve is the one path
// that reads and extends a KvCache (batched over requests, or a single
// segment for plain incremental decoding). On the digital backend a
// single segment is checked against the full-context forward
// (tests/test_kv_cache.cpp); on analog tiles each generated token makes
// one pass through the tiles, with noise keyed per request and position.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/matrix.hpp"

namespace nora::nn {

/// Named growth-guard error: appending tokens would push a cache past
/// its own capacity or the model's max_seq. Thrown by the transformer
/// entry points *before* any layer state is touched, instead of letting
/// the attention rel_bias guard fire layers-deep into a half-updated
/// forward. Derives std::invalid_argument so existing callers that
/// catch the old guard keep working.
class KvCacheOverflow : public std::invalid_argument {
 public:
  KvCacheOverflow(std::int64_t length, std::int64_t append, std::int64_t limit,
                  const char* which)
      : std::invalid_argument("KvCacheOverflow: appending " +
                              std::to_string(append) + " token(s) at length " +
                              std::to_string(length) + " exceeds " + which +
                              " " + std::to_string(limit)) {}
};

struct KvCache {
  struct BlockCache {
    Matrix k;  // [t_past x d_model], concatenated per-head keys
    Matrix v;  // [t_past x d_model]
  };
  std::vector<BlockCache> blocks;
  std::int64_t length = 0;
  /// Hard token budget for this cache (0 = bounded only by the model's
  /// max_seq). Set by serve::KvCachePool to the slab size a request was
  /// admitted with; the transformer forward throws KvCacheOverflow
  /// rather than silently growing past it.
  std::int64_t capacity = 0;

  void clear() {
    blocks.clear();
    length = 0;
  }

  /// Drop every cached position >= new_length (no-op when already
  /// shorter). Used on request cancellation/retirement so a recycled
  /// slab starts empty, and usable for prefix-rollback decoding.
  void trim(std::int64_t new_length) {
    if (new_length < 0) {
      throw std::invalid_argument("KvCache::trim: negative length");
    }
    if (new_length >= length) return;
    // In place: the dropped rows' storage stays with the matrices, so a
    // recycled slab refills its previous high-water footprint without
    // allocating.
    for (BlockCache& b : blocks) {
      b.k.resize_rows(new_length);
      b.v.resize_rows(new_length);
    }
    length = new_length;
  }

  /// Bytes held by the cached keys/values (fp32).
  std::int64_t bytes() const {
    std::int64_t n = 0;
    for (const BlockCache& b : blocks) n += b.k.size() + b.v.size();
    return n * static_cast<std::int64_t>(sizeof(float));
  }
};

}  // namespace nora::nn
