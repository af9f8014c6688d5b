// Must-pass fixture for R9 on the DAG admission fast path: the shape of
// kept_profile_max, LongPathEvaluator::path_value and
// GraphAdmissionController::try_admit_interned — a 16-lane kernel over the
// interned shape's dense profile matrix with its accumulators in a local
// array of vector-extension pairs, member scratch grown with resize
// (reserved to capacity after warmup), and the sparse commit staged
// through preallocated push_back buffers. Zero findings expected.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

using LanePair = double __attribute__((vector_size(2 * sizeof(double))));

struct Shape {
  std::vector<double> matrix;  // touched x 16 lanes, column-major
  std::vector<std::uint32_t> touched;
};

// frap:contract(hotpath)
double kept_profile_max(const Shape& shape, std::span<const double> w) {
  constexpr std::size_t kLanes = 16;
  constexpr std::size_t kPairs = kLanes / 2;
  const double* matrix = shape.matrix.data();
  const LanePair zero = {};
  LanePair acc[kPairs] = {};
  for (const double wt : w) {
    const LanePair wv = {wt, wt};
#pragma GCC unroll 8
    for (std::size_t i = 0; i < kPairs; ++i) {
      LanePair m;
      std::memcpy(&m, matrix + 2 * i, sizeof m);
      acc[i] += m > zero ? m * wv : zero;
    }
    matrix += kLanes;
  }
  for (std::size_t half = kPairs / 2; half > 0; half /= 2) {
    for (std::size_t i = 0; i < half; ++i) {
      acc[i] = acc[i] > acc[i + half] ? acc[i] : acc[i + half];
    }
  }
  const double lo = acc[0][0];
  const double hi = acc[0][1];
  return std::max(lo, hi);
}

struct DagAdmitter {
  std::vector<double> w_scratch;
  std::vector<std::uint32_t> commit_stages;
  std::vector<double> commit_values;
  std::uint64_t admits = 0;

  // frap:contract(hotpath)
  double path_value(const Shape& shape, std::span<const double> w) {
    return kept_profile_max(shape, w);
  }

  // frap:contract(hotpath)
  bool try_admit_interned(const Shape& shape, const double* f_terms) {
    if (w_scratch.size() < shape.touched.size()) {
      w_scratch.resize(shape.touched.size());  // capacity growth, then reuse
    }
    commit_stages.clear();
    commit_values.clear();
    for (std::size_t t = 0; t < shape.touched.size(); ++t) {
      w_scratch[t] = f_terms[shape.touched[t]];
      commit_stages.push_back(shape.touched[t]);
      commit_values.push_back(w_scratch[t]);
    }
    const bool ok =
        path_value(shape, {w_scratch.data(), shape.touched.size()}) <= 1.0;
    if (ok) ++admits;
    return ok;
  }
};
