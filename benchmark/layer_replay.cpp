// Layer replay: after a traced run, the workload's mean busy step is
// rebuilt from seeded inputs (decode rows over caches pre-filled to the
// mean context, prefill segments over leased prefixes) and every public
// entry point of the model is timed on it, from the whole
// TransformerLM::forward_serve down to each AnalogMatmul::forward.
// A layer's self time is its call minus its children's calls, each the
// median over repetitions.
#include <algorithm>
#include <functional>

#include "bench.hpp"
#include "timing/trace.hpp"

namespace nora::bench {

namespace {

/// A cache whose per-layer K/V hold `rows` random positions, with room to
/// append `extra` more without reallocating.
nn::KvCache filled_cache(std::int64_t layers, std::int64_t rows,
                         std::int64_t extra, std::int64_t d, util::Rng& rng) {
  nn::KvCache c;
  c.blocks.resize(static_cast<std::size_t>(layers));
  for (nn::KvCache::BlockCache& b : c.blocks) {
    b.k = Matrix(rows, d);
    b.v = Matrix(rows, d);
    b.k.fill_gaussian(rng, 1.0f);
    b.v.fill_gaussian(rng, 1.0f);
    b.k.reserve_rows(rows + extra);
    b.v.reserve_rows(rows + extra);
  }
  c.length = rows;
  return c;
}

struct Entry {
  std::string name;
  std::function<void()> call;
  std::function<void()> undo;  // restores caches; not timed
  std::vector<double> s;
  double med = 0.0;
};

}  // namespace

std::vector<Metric> replay_layers(nn::TransformerLM& model,
                                  const StepShape& shape, bool pipelined,
                                  double budget_s, Tracer& tracer,
                                  std::vector<Metric>& extra) {
  const nn::TransformerConfig& cfg = model.config();
  const std::int64_t d = cfg.d_model;
  const std::int64_t layers = cfg.n_layers;
  util::Rng rng(util::derive_seed(cfg.seed, "layer-replay"));

  // Segments: decode rows first, then prefill segments (scheduler order
  // does not matter to any layer's cost).
  const std::int64_t ctx = std::min(shape.decode_ctx, cfg.max_seq - 1);
  const std::int64_t base_rows =
      std::min(shape.prefill_base, cfg.max_seq - shape.prefill_rows);
  const std::int64_t n_seg = shape.decode_rows + shape.prefill_segs;
  std::vector<nn::KvCache> own(static_cast<std::size_t>(n_seg));
  std::vector<nn::KvCache> base(static_cast<std::size_t>(n_seg));
  std::vector<std::vector<int>> tokens(static_cast<std::size_t>(n_seg));
  std::vector<std::int64_t> own_len(static_cast<std::size_t>(n_seg));
  std::vector<nn::TransformerLM::ServeSegment> segs;
  std::vector<cim::StreamKey> keys;
  std::vector<std::vector<nn::AttnServeSeq>> seqs(
      static_cast<std::size_t>(layers));
  for (std::int64_t s = 0; s < n_seg; ++s) {
    const auto k = static_cast<std::size_t>(s);
    const bool decode = s < shape.decode_rows;
    const std::int64_t rows = decode ? 1 : shape.prefill_rows;
    const std::int64_t b = decode ? 0 : base_rows;
    own_len[k] = decode ? ctx : 0;
    own[k] = filled_cache(layers, own_len[k], rows, d, rng);
    if (b > 0) base[k] = filled_cache(layers, b, 0, d, rng);
    for (std::int64_t t = 0; t < rows; ++t) {
      tokens[k].push_back(static_cast<int>(rng.uniform_index(cfg.vocab_size)));
    }
    const std::uint64_t stream = rng.next_u64() | 1;
    const std::int64_t pos0 = b + own_len[k];
    for (std::int64_t t = 0; t < rows; ++t) {
      keys.push_back({stream, static_cast<std::uint64_t>(pos0 + t)});
    }
    segs.push_back({tokens[k], &own[k], stream, b > 0 ? &base[k] : nullptr, b});
    for (std::int64_t l = 0; l < layers; ++l) {
      const auto li = static_cast<std::size_t>(l);
      seqs[li].push_back({&own[k].blocks[li],
                          b > 0 ? &base[k].blocks[li] : nullptr, b, pos0,
                          rows});
    }
  }
  const auto rows = static_cast<std::int64_t>(keys.size());
  Matrix x_d(rows, d);
  x_d.fill_gaussian(rng, 1.0f);
  Matrix x_ff(rows, cfg.d_ff);
  x_ff.fill_gaussian(rng, 1.0f);

  const auto undo_all = [&] {
    for (std::size_t k = 0; k < own.size(); ++k) own[k].trim(own_len[k]);
  };
  const auto undo_layer = [&](std::size_t l) {
    return [&, l] {
      for (std::size_t k = 0; k < own.size(); ++k) {
        own[k].blocks[l].k.resize_rows(own_len[k]);
        own[k].blocks[l].v.resize_rows(own_len[k]);
      }
    };
  };
  const auto nothing = [] {};

  std::vector<Entry> entries;
  entries.push_back({"forward_serve", [&] { model.forward_serve(segs); },
                     undo_all, {}, 0.0});
  // Linears and their analog units, in the model's stable order.
  std::int64_t tiles_per_row = 0;
  const auto add_linear = [&](nn::Linear& lin, const Matrix& x) {
    entries.push_back({lin.name(), [&lin, &x, &keys] { lin.forward_keyed(x, keys); },
                       nothing, {}, 0.0});
    if (cim::AnalogMatmul* a = lin.analog()) {
      tiles_per_row += a->row_blocks() * a->col_blocks();
      entries.push_back({lin.name() + ".analog",
                         [a, &x, &keys] { a->forward(x, keys); }, nothing, {},
                         0.0});
    }
  };
  for (std::int64_t l = 0; l < layers; ++l) {
    const auto li = static_cast<std::size_t>(l);
    nn::TransformerBlock& blk = model.blocks()[li];
    const std::string p = "blk" + std::to_string(l);
    entries.push_back({p, [&, li] { blk.forward_serve(x_d, seqs[li], keys); },
                       undo_layer(li), {}, 0.0});
    entries.push_back({p + ".attn",
                       [&, li] { blk.attention().forward_serve(x_d, seqs[li], keys); },
                       undo_layer(li), {}, 0.0});
    entries.push_back({p + ".mlp", [&] { blk.mlp().forward_keyed(x_d, keys); },
                       nothing, {}, 0.0});
    add_linear(blk.attention().qkv(), x_d);
    add_linear(blk.attention().out_proj(), x_d);
    add_linear(blk.mlp().up(), x_d);
    if (nn::Linear* g = blk.mlp().gate()) add_linear(*g, x_d);
    add_linear(blk.mlp().down(), x_ff);
  }
  add_linear(model.lm_head(), x_d);

  tracer.set_active(true);
  const double start = now_s();
  for (int rep = 0; rep < 30; ++rep) {
    if (rep >= 3 && now_s() - start >= budget_s) break;
    for (Entry& e : entries) {
      // Every entry is timed on its second back-to-back call, so parent
      // and children run with the same (warm) caches: a parent timed cold
      // after another layer, minus children timed warm right after it,
      // would bill the cache misses to the parent's self time.
      e.call();
      e.undo();
      const double a = now_s();
      e.call();
      const double b = now_s();
      e.undo();
      e.s.push_back(b - a);
      tracer.add(e.name, "replay", 3, a, b);
    }
  }
  tracer.set_active(false);
  for (Entry& e : entries) e.med = median(e.s);
  const auto med = [&](const std::string& name) {
    for (const Entry& e : entries) {
      if (e.name == name) return e.med;
    }
    return 0.0;
  };

  // Self times per role. Gated MLPs fold the gate into "up".
  double qkv = 0, out = 0, up = 0, down = 0, attn_core = 0, norm_act = 0;
  double analog = 0;
  for (std::int64_t l = 0; l < layers; ++l) {
    nn::TransformerBlock& blk = model.blocks()[static_cast<std::size_t>(l)];
    const std::string p = "blk" + std::to_string(l);
    const double q = med(blk.attention().qkv().name());
    const double o = med(blk.attention().out_proj().name());
    double u = med(blk.mlp().up().name());
    if (nn::Linear* g = blk.mlp().gate()) u += med(g->name());
    const double dn = med(blk.mlp().down().name());
    qkv += q;
    out += o;
    up += u;
    down += dn;
    attn_core += med(p + ".attn") - q - o;
    // Block self (norms, residual adds) + MLP self (activation).
    norm_act += med(p) - med(p + ".attn") - med(p + ".mlp");
    norm_act += med(p + ".mlp") - u - dn;
  }
  for (nn::Linear* lin : model.linear_layers()) {
    analog += med(lin->name() + ".analog");
  }
  const double lm_head = med(model.lm_head().name());
  const double total = med("forward_serve");
  const double per_row = 1e9 / static_cast<double>(rows);

  // Simulated time of the same step: capture its op trace, then time the
  // replay the scheduler would run on it.
  timing::Trace trace;
  {
    timing::ScopedTrace scope(&trace);
    model.forward_serve(segs);
  }
  undo_all();
  timing::TimingConfig tc;
  tc.enabled = true;
  const timing::HwModel hw(tc);
  timing::StepTiming st;
  std::vector<double> replay_s;
  const double r0 = now_s();
  while (replay_s.size() < 5 ||
         (replay_s.size() < 200 && now_s() - r0 < 0.2)) {
    const double a = now_s();
    st = pipelined ? hw.replay_pipelined(trace) : hw.replay(trace);
    replay_s.push_back(now_s() - a);
  }

  // Exact for a given step shape, so it repeats run after run: reported
  // next to the host numbers, not gated.
  extra.push_back(
      {"timing.sim_step_us", "us", static_cast<double>(st.total_ps) * 1e-6});
  return {
      {"nn.forward_us", "us", 1e6 * total},
      {"nn.qkv_ns_per_row", "ns/row", qkv * per_row},
      {"nn.attn_core_ns_per_row", "ns/row", attn_core * per_row},
      {"nn.out_ns_per_row", "ns/row", out * per_row},
      {"nn.up_ns_per_row", "ns/row", up * per_row},
      {"nn.down_ns_per_row", "ns/row", down * per_row},
      {"nn.lm_head_ns_per_row", "ns/row", lm_head * per_row},
      {"nn.norm_act_ns_per_row", "ns/row", norm_act * per_row},
      {"nn.forward_coverage", "frac",
       (qkv + attn_core + out + up + down + lm_head + norm_act) / total},
      {"cim.ns_per_tile_mvm", "ns",
       tiles_per_row > 0 ? analog * per_row / static_cast<double>(tiles_per_row)
                         : 0.0},
      {"cim.tile_mvms_per_token", "count", static_cast<double>(tiles_per_row)},
      {"timing.replay_us_per_step", "us", 1e6 * median(replay_s)},
      {"timing.events_per_step", "count", static_cast<double>(st.events)},
  };
}

}  // namespace nora::bench
