#include "tensor/matrix.hpp"

#include <algorithm>
#include <stdexcept>

namespace nora {

Matrix::Matrix(std::int64_t rows, std::int64_t cols)
    : rows_(rows), cols_(cols), data_(static_cast<std::size_t>(rows * cols), 0.0f) {
  if (rows < 0 || cols < 0) throw std::invalid_argument("Matrix: negative shape");
}

Matrix::Matrix(std::int64_t rows, std::int64_t cols, std::vector<float> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  if (static_cast<std::int64_t>(data_.size()) != rows * cols) {
    throw std::invalid_argument("Matrix: data size does not match shape");
  }
}

void Matrix::fill(float v) { std::fill(data_.begin(), data_.end(), v); }

void Matrix::fill_gaussian(util::Rng& rng, float stddev) {
  rng.gaussian_fill(std::span<float>(data_), 0.0, stddev);
}

void Matrix::fill_uniform(util::Rng& rng, float lo, float hi) {
  for (auto& x : data_) x = static_cast<float>(rng.uniform(lo, hi));
}

Matrix Matrix::slice_rows(std::int64_t r0, std::int64_t r1) const {
  if (r0 < 0 || r1 < r0 || r1 > rows_) {
    throw std::out_of_range("Matrix::slice_rows: bad range");
  }
  Matrix out(r1 - r0, cols_);
  std::copy(data_.begin() + r0 * cols_, data_.begin() + r1 * cols_, out.data());
  return out;
}

void Matrix::resize_rows(std::int64_t new_rows) {
  if (new_rows < 0) {
    throw std::invalid_argument("Matrix::resize_rows: negative row count");
  }
  data_.resize(static_cast<std::size_t>(new_rows * cols_), 0.0f);
  rows_ = new_rows;
}

void Matrix::reserve_rows(std::int64_t rows) {
  if (rows > 0) data_.reserve(static_cast<std::size_t>(rows * cols_));
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::int64_t r = 0; r < rows_; ++r) {
    for (std::int64_t c = 0; c < cols_; ++c) out.at(c, r) = at(r, c);
  }
  return out;
}

}  // namespace nora
