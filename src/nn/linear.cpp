#include "nn/linear.hpp"

#include <cmath>
#include <stdexcept>

#include "quant/int8_linear.hpp"
#include "tensor/ops.hpp"
#include "timing/trace.hpp"
#include "util/thread_pool.hpp"

namespace nora::nn {

Linear::Linear(std::string name, std::int64_t in_dim, std::int64_t out_dim,
               util::Rng& rng, float init_std)
    : name_(std::move(name)) {
  Matrix w(in_dim, out_dim);
  w.fill_gaussian(rng, init_std);
  w_ = Param(name_ + ".w", std::move(w));
  b_ = Param(name_ + ".b", Matrix(1, out_dim));
  input_abs_max_.assign(static_cast<std::size_t>(in_dim), 0.0f);
}

void Linear::record_timing(std::int64_t rows) const {
  // Emitted from the thread driving the forward pass (never from pool
  // workers), so the trace order is a pure function of the workload.
  timing::Trace* trace = timing::active_trace();
  if (trace == nullptr) return;
  timing::TimingOp op;
  op.layer = name_;
  op.rows = rows;
  op.k = in_dim();
  op.n = out_dim();
  op.macs = rows * op.k * op.n;
  op.chip = timing_chip_;
  if (analog_ && !digital_bypass_) {
    op.kind = timing::OpKind::kAnalogMvm;
    op.row_blocks = analog_->row_blocks();
    op.col_blocks = analog_->col_blocks();
    // Multi-chip stamps mirror the EXECUTED shard plan, so the timing
    // co-sim models exactly the partitioning the bits ran under.
    if (const cim::ShardPlan* plan = analog_->shard_plan();
        plan != nullptr && plan->n_chips > 1) {
      op.tp_chips = plan->n_chips;
      op.tp_axis = plan->axis == cim::ShardAxis::kRowBlocks
                       ? timing::ShardAxis::kRowBlocks
                       : timing::ShardAxis::kColBlocks;
    }
  } else if (int8_ && !digital_bypass_) {
    op.kind = timing::OpKind::kInt8Gemm;
  } else {
    op.kind = timing::OpKind::kDigitalGemm;
  }
  trace->ops.push_back(std::move(op));
}

Matrix Linear::forward(const Matrix& x) {
  if (analog_ || int8_) {
    throw std::logic_error("Linear: cannot train through a quantized backend");
  }
  Matrix y = forward_keyed(x, {});
  x_cache_ = x;
  return y;
}

Matrix Linear::forward_keyed(const Matrix& x,
                             std::span<const cim::StreamKey> keys) {
  if (x.cols() != in_dim()) {
    throw std::invalid_argument("Linear: input dim mismatch (" + name_ + ")");
  }
  if (capture_input_) {
    // Per-column running abs-max. Columns are independent and max() is
    // order-insensitive, so the column fan-out is exact for any thread
    // count.
    const std::int64_t rows = x.rows();
    const std::int64_t cols = x.cols();
    const float* data = x.data();
    util::ThreadPool::global().parallel_for(
        cols,
        [&](std::int64_t c) {
          float m = input_abs_max_[static_cast<std::size_t>(c)];
          for (std::int64_t t = 0; t < rows; ++t) {
            m = std::max(m, std::fabs(data[t * cols + c]));
          }
          input_abs_max_[static_cast<std::size_t>(c)] = m;
        },
        /*grain=*/64);
  }
  if (capture_full_) {
    // Append in place; geometric growth keeps a long capture linear.
    const std::int64_t r0 = captured_inputs_.rows();
    if (r0 + x.rows() > captured_inputs_.row_capacity()) {
      captured_inputs_.reserve_rows(std::max(2 * r0, r0 + x.rows()));
    }
    captured_inputs_.resize_rows(r0 + x.rows());
    std::copy(x.data(), x.data() + x.size(),
              captured_inputs_.data() + r0 * x.cols());
  }
  record_timing(x.rows());
  Matrix y = analog_ && !digital_bypass_ ? analog_->forward(x, keys)
             : int8_ && !digital_bypass_
                 ? quant::int8_linear(x, w_.value, int8_s_, nullptr,
                                      int8_static_scale_)
                 : ops::matmul(x, w_.value);
  ops::add_row_vector(y, b_.value.row(0));
  return y;
}

Matrix Linear::backward(const Matrix& dy) {
  if (analog_ || int8_) {
    throw std::logic_error("Linear::backward: quantized backend");
  }
  if (x_cache_.rows() != dy.rows()) {
    throw std::logic_error("Linear::backward: no matching forward cache");
  }
  // dW += X^T dY ; db += column sums of dY ; dX = dY W^T.
  ops::matmul_acc(x_cache_.transposed(), dy, w_.grad);
  auto db = b_.grad.row(0);
  for (std::int64_t t = 0; t < dy.rows(); ++t) {
    const auto row = dy.row(t);
    for (std::int64_t c = 0; c < dy.cols(); ++c) db[c] += row[c];
  }
  return ops::matmul_bt(dy, w_.value);
}

void Linear::to_analog(const cim::TileConfig& cfg, std::vector<float> s,
                       std::uint64_t seed) {
  int8_ = false;
  analog_ = std::make_unique<cim::AnalogMatmul>(w_.value, std::move(s), cfg, seed);
  analog_->set_label(name_);
}

void Linear::to_int8(std::vector<float> s, float static_act_scale) {
  if (!s.empty() && static_cast<std::int64_t>(s.size()) != in_dim()) {
    throw std::invalid_argument("Linear::to_int8: s length mismatch");
  }
  analog_.reset();
  int8_ = true;
  int8_s_ = std::move(s);
  int8_static_scale_ = static_act_scale;
}

void Linear::to_digital() {
  analog_.reset();
  int8_ = false;
  int8_s_.clear();
  int8_static_scale_ = 0.0f;
}

void Linear::set_capture_input(bool on) {
  capture_input_ = on;
  if (on) input_abs_max_.assign(static_cast<std::size_t>(in_dim()), 0.0f);
}

void Linear::set_capture_full(bool on) {
  capture_full_ = on;
  if (on) captured_inputs_ = Matrix(0, in_dim());
}

std::vector<float> Linear::weight_row_abs_max() const {
  return ops::row_abs_max(w_.value);
}

void Linear::collect_params(ParamRefs& out) {
  out.push_back(&w_);
  out.push_back(&b_);
}

}  // namespace nora::nn
