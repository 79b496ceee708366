// Self-test of the correctness gate: a served phase over a small int8 MLP
// passes it, and the same phase fails it when the backend corrupts one
// reply bit, when the status ledger does not balance, or when the server's
// counters disagree with the clients'. Exit code 0 means every case held.
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "gate.h"
#include "loadgen.h"
#include "nn/quant.h"
#include "serve/backends.h"
#include "serve/server.h"

namespace {

using enw::Matrix;
using enw::Vector;
using servebench::Result;
namespace serve = enw::serve;
using ServerT = serve::Server<Vector, Vector>;

struct Fixture {
  Fixture() {
    enw::Rng rng(5);
    enw::nn::QatConfig qc;
    qc.dims = {16, 8, 4};
    qc.weight_bits = 8;
    qc.act_bits = 8;
    const enw::nn::QatMlp net(qc, rng);
    engine = std::make_unique<enw::nn::QatInt8Inference>(net);
    Matrix x(32, 16);
    for (std::size_t i = 0; i < x.rows() * x.cols(); ++i) {
      x.data()[i] = static_cast<float>(rng.uniform());
    }
    const Matrix y = engine->infer_batch(x);
    for (std::size_t r = 0; r < x.rows(); ++r) {
      pool.emplace_back(x.row(r).begin(), x.row(r).end());
      ref.emplace_back(y.row(r).begin(), y.row(r).end());
    }
  }
  std::unique_ptr<enw::nn::QatInt8Inference> engine;
  std::vector<Vector> pool, ref;
};

struct Client {
  ServerT& server;
  const Fixture& f;
  const Vector* make(std::uint64_t id) { return &f.pool[id % f.pool.size()]; }
  ServerT::Reply submit(const Vector* x, std::uint64_t) { return server.submit(*x); }
  bool check(std::uint64_t id, const ServerT::Reply& r) const {
    return servebench::same_bits(r.value, f.ref[id % f.pool.size()]);
  }
  servebench::BatchStamp stamp(std::uint64_t) const { return {}; }
};

/// Serves one short open-loop phase and applies the gate to it.
Result serve_phase(const Fixture& f, bool corrupt) {
  serve::ServeConfig cfg;
  cfg.max_batch = 8;
  cfg.max_wait_ns = 100'000;
  auto inner = serve::qat_int8_logits_backend(*f.engine);
  ServerT server(cfg, [inner, corrupt](std::span<const Vector> batch) {
    std::vector<Vector> out = inner(batch);
    if (corrupt && !out.empty()) {
      // Flip the lowest mantissa bit of one logit of the first request.
      float& v = out[0][0];
      std::uint32_t bits;
      std::memcpy(&bits, &v, sizeof bits);
      bits ^= 1u;
      std::memcpy(&v, &bits, sizeof bits);
    }
    return out;
  });
  Client client{server, f};
  const servebench::PhaseResult ph =
      servebench::run_phase(2000.0, 0.05, 9, 0, 2, client);
  const serve::ServerStats s = server.stats();
  Result out;
  servebench::gate_phase("test", ph.ledger, ph.compared, ph.mismatched,
                         {s.submitted, s.completed, s.rejected, s.shed, s.errors}, out);
  return out;
}

int failures = 0;

void expect(bool cond, const char* what) {
  std::printf("%s: %s\n", cond ? "ok  " : "FAIL", what);
  if (!cond) ++failures;
}

}  // namespace

int main() {
  const Fixture f;
  expect(serve_phase(f, false).correct, "clean replies pass the gate");
  expect(!serve_phase(f, true).correct, "a corrupted reply fails the gate");

  servebench::StatusLedger ledger;
  ledger.sent = 3;
  ledger.add(serve::Status::kOk);
  ledger.add(serve::Status::kOk);
  Result unbalanced;
  servebench::gate_phase("ledger", ledger, 2, 0, {2, 2, 0, 0, 0}, unbalanced);
  expect(!unbalanced.correct, "a request without a terminal status fails the gate");

  ledger.add(serve::Status::kRejected);
  Result disagree;
  servebench::gate_phase("counts", ledger, 2, 0, {3, 3, 0, 0, 0}, disagree);
  expect(!disagree.correct, "server counters that disagree with the clients fail the gate");

  Result balanced;
  servebench::gate_phase("counts", ledger, 2, 0, {3, 2, 1, 0, 0}, balanced);
  expect(balanced.correct, "a balanced ledger with agreeing counters passes");
  return failures == 0 ? 0 : 1;
}
