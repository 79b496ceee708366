// Kernel-layer probes (tensor), the host's peak rates, and run provenance.
//
// Every rate here is computed from tensor shapes: flops = 2*m*n*k for a
// GEMM, bytes = bytes read + bytes written for a copy. Nothing is read from
// hardware counters.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common.h"

namespace servebench {

/// The pct-th percentile wall time of one call of f, in µs, over repeated
/// calls lasting at least min_seconds (and at least 5 calls).
template <typename F>
double call_us(F&& f, double min_seconds, double pct = 50.0) {
  std::vector<double> t;
  const std::uint64_t t0 = now_ns();
  while (t.size() < 5 || seconds_since(t0) < min_seconds) {
    const std::uint64_t a = now_ns();
    f();
    t.push_back(static_cast<double>(now_ns() - a) * 1e-3);
  }
  return percentile(std::move(t), pct);
}


/// fp32 GEMM rate of core::backend().matmul_nt with A (m x k), B (n x k).
double fp32_gemm_gflops(std::size_t m, std::size_t n, std::size_t k, double min_seconds);

/// int8 GEMM rate of core::backend().qgemm_nt_s32, same shape convention.
double int8_gemm_gops(std::size_t m, std::size_t n, std::size_t k, double min_seconds);

/// µs of quantize_rows_s8 on an (m x k) matrix, at the kFastPct percentile.
double quantize_rows_us(std::size_t m, std::size_t k, double min_seconds);

/// The host's single-thread peaks: the best fp32 and int8 GEMM rate over a
/// large and two cache-resident shapes, and stream-copy bandwidth over a
/// buffer far larger than the caches.
struct Peaks {
  double fp32_gflops = 0.0;
  double int8_gops = 0.0;
  double stream_gbs = 0.0;
};
Peaks measure_peaks(double min_seconds_each);

/// Provenance lines for the run: host, ISA, kernel backend, build, commit,
/// thread settings, senders and seed.
std::vector<std::string> provenance(const Options& opts, std::size_t senders);

}  // namespace servebench
