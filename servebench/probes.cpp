#include "probes.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "core/backend.h"
#include "core/cpu_features.h"
#include "core/rng.h"
#include "tensor/matrix.h"
#include "tensor/qgemm.h"

namespace servebench {

namespace {

enw::Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  enw::Rng rng(seed);
  enw::Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows * cols; ++i) {
    m.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return m;
}

volatile float g_sink = 0.0f;

}  // namespace

double fp32_gemm_gflops(std::size_t m, std::size_t n, std::size_t k, double min_seconds) {
  const enw::Matrix a = random_matrix(m, k, 11);
  const enw::Matrix b = random_matrix(n, k, 12);
  const enw::core::KernelBackend& be = enw::core::backend();
  const double us = call_us(
      [&] {
        const enw::Matrix c = be.matmul_nt(a, b);
        g_sink = c.data()[0];
      },
      min_seconds, kFastPct);
  return 2.0 * m * n * k / (us * 1e3);
}

double int8_gemm_gops(std::size_t m, std::size_t n, std::size_t k, double min_seconds) {
  const enw::Int8RowMatrix a = enw::quantize_rows_s8(random_matrix(m, k, 13));
  const enw::Int8RowMatrix b = enw::quantize_rows_s8(random_matrix(n, k, 14));
  std::vector<std::int32_t> c(m * n);
  const enw::core::KernelBackend& be = enw::core::backend();
  const double us = call_us(
      [&] {
        be.qgemm_nt_s32(a.codes.data(), b.codes.data(), c.data(), m, n, k);
        g_sink = static_cast<float>(c[0]);
      },
      min_seconds, kFastPct);
  return 2.0 * m * n * k / (us * 1e3);
}

double quantize_rows_us(std::size_t m, std::size_t k, double min_seconds) {
  const enw::Matrix a = random_matrix(m, k, 15);
  return call_us(
      [&] {
        const enw::Int8RowMatrix q = enw::quantize_rows_s8(a);
        g_sink = q.scales[0];
      },
      min_seconds, kFastPct);
}

Peaks measure_peaks(double min_seconds_each) {
  // The best rate over one large and two cache-resident shapes: small GEMMs
  // whose operands stay in L1/L2 run faster than large ones on this kernel
  // layer, and a peak must bound every layer shape measured against it.
  const struct { std::size_t m, n, k; } shapes[] = {{512, 512, 1024}, {256, 256, 256}, {256, 32, 256}};
  Peaks p;
  for (const auto& s : shapes) {
    p.fp32_gflops = std::max(p.fp32_gflops, fp32_gemm_gflops(s.m, s.n, s.k, min_seconds_each));
    p.int8_gops = std::max(p.int8_gops, int8_gemm_gops(s.m, s.n, s.k, min_seconds_each));
  }
  // 64 MiB each way: far beyond any cache level of the hosts this runs on.
  const std::size_t bytes = std::size_t{64} << 20;
  std::vector<char> src(bytes, 1), dst(bytes, 0);
  const double us = call_us(
      [&] {
        std::memcpy(dst.data(), src.data(), bytes);
        g_sink = dst[bytes / 2];
      },
      min_seconds_each, kFastPct);
  p.stream_gbs = 2.0 * bytes / (us * 1e3);  // read + write
  return p;
}

std::vector<std::string> provenance(const Options& opts, std::size_t senders) {
  const enw::core::KernelBackend& be = enw::core::backend();
  const char* threads = std::getenv("ENW_THREADS");
  std::vector<std::string> lines;
  lines.push_back("provenance: nproc=" + std::to_string(std::thread::hardware_concurrency()) +
                  " cpu=\"" + enw::core::cpu_feature_summary() + "\" backend=" +
                  be.name() + " isa=" + be.isa());
  lines.push_back(std::string("provenance: build_type=") + SERVEBENCH_BUILD_TYPE +
                  " compiler=\"" + SERVEBENCH_COMPILER + "\" flags=\"" +
                  SERVEBENCH_CXX_FLAGS + "\"");
  lines.push_back("provenance: ENW_THREADS=" + std::string(threads ? threads : "(unset)") +
                  " senders=" + std::to_string(senders) + " workload=" + opts.workload +
                  " seed=" + std::to_string(opts.seed) +
                  " seconds=" + std::to_string(opts.seconds) +
                  " trace=" + (opts.trace ? "1" : "0"));
  return lines;
}

}  // namespace servebench
