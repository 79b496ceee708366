#include "live.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>

#include "core/hash.h"
#include "data/click_log.h"
#include "gate.h"
#include "loadgen.h"
#include "nn/quant.h"
#include "obs/obs.h"
#include "probes.h"
#include "recsys/dlrm.h"
#include "serve/backends.h"
#include "serve/multi_shard.h"
#include "serve/server.h"

namespace servebench {

namespace {

using enw::Matrix;
using enw::Vector;
using enw::data::ClickSample;
namespace serve = enw::serve;

// Blocking submit caps in-flight requests at the sender count; three
// senders with ENW_THREADS=1 leave one core of a four-core host to the
// collators (see README.md).
constexpr std::size_t kSenders = 3;
constexpr std::size_t kPool = 16384;        // distinct request inputs
constexpr std::size_t kOfflineBatch = 256;  // offline_sps batch size
constexpr int kSetups = 3;                  // setup_s is their median
constexpr int kLadder = 6;                  // load points of the max_rps ladder
// A latency metric is this percentile, over the parts of its load point, of
// each part's latency percentile: with 7 parts, the second best. A part is
// measured in one state of the shared host; whole runs of slow states occur
// (p90 2-8x the usual in every part of some runs), and the lower quartile
// over parts tolerates up to five slow parts of seven.
constexpr double kPartPct = 25.0;

serve::ServeConfig live_serve_config() {
  serve::ServeConfig c;
  c.max_batch = 32;
  c.max_wait_ns = 100'000;
  c.queue_capacity = 256;
  c.admission = serve::AdmissionPolicy::kBlock;
  return c;
}

// Load points shared by both live workloads (their knees sit at the same
// sender cap, see README.md): a low and a high fixed rate, the geometric
// max_rps ladder, and the p90 latency limit max_rps is held to.
constexpr double kRateLow = 1000;    // req/s
constexpr double kRateHigh = 3000;   // req/s
constexpr double kLadderLo = 6000;   // req/s
constexpr double kLadderHi = 13000;  // req/s
constexpr double kLimitUs = 1000;

std::uint32_t float_key(float x) {
  std::uint32_t k;
  std::memcpy(&k, &x, sizeof k);
  return k;
}

/// Traced-run instrumentation. A pool input's first feature maps a batch
/// input back to its pool slot, and the slot to the one request that
/// currently uses it. The wrapped BatchFn stamps its entry and return for
/// every request it runs.
struct Tracer {
  explicit Tracer(const std::vector<float>& first_features)
      : owner(first_features.size()), stamps(first_features.size()) {
    constexpr std::uint32_t kAmbiguous = ~0u;
    for (std::size_t p = 0; p < first_features.size(); ++p) {
      const auto [it, fresh] =
          slot_of.emplace(float_key(first_features[p]), static_cast<std::uint32_t>(p));
      if (!fresh) it->second = kAmbiguous;
    }
    // A feature value shared by two slots cannot name one request; those
    // requests go unstamped and count as unattributed in the ledger.
    std::erase_if(slot_of, [](const auto& kv) { return kv.second == kAmbiguous; });
    for (auto& o : owner) o.store(~0ull, std::memory_order_relaxed);
  }

  template <typename In, typename Out, typename Key>
  std::function<std::vector<Out>(std::span<const In>)> wrap(
      std::function<std::vector<Out>(std::span<const In>)> inner, Key key) {
    return [this, inner = std::move(inner), key](std::span<const In> batch) {
      if (!on.load(std::memory_order_relaxed)) return inner(batch);
      ENW_SPAN("bench.batch");
      const std::uint64_t t0 = now_ns();
      std::vector<Out> out = inner(batch);
      const std::uint64_t t1 = now_ns();
      BatchStamp st{0, t0, t1, static_cast<std::uint32_t>(batch.size())};
      for (const In& x : batch) {
        const auto it = slot_of.find(float_key(key(x)));
        if (it == slot_of.end()) continue;
        st.id = owner[it->second].load(std::memory_order_acquire);
        stamps[it->second] = st;
      }
      std::lock_guard<std::mutex> lk(mu);
      batches.push_back(st);
      return out;
    };
  }

  void claim(std::uint64_t id) {
    if (on.load(std::memory_order_relaxed)) {
      owner[id % owner.size()].store(id, std::memory_order_release);
    }
  }
  BatchStamp stamp(std::uint64_t id) const {
    return on.load(std::memory_order_relaxed) ? stamps[id % stamps.size()] : BatchStamp{};
  }

  std::atomic<bool> on{false};
  std::vector<std::atomic<std::uint64_t>> owner;  // pool slot -> request id
  std::vector<BatchStamp> stamps;                 // pool slot -> its last batch
  std::unordered_map<std::uint32_t, std::uint32_t> slot_of;
  std::mutex mu;
  std::vector<BatchStamp> batches;  // guarded by mu
};

// ---------------------------------------------------------------------------
// The two live models. Each provides: client() for run_phase, counts() for
// the gate, offline(k) for offline_sps, and layer(out) for the traced run.

std::vector<Vector> split_rows(const Matrix& m) {
  std::vector<Vector> rows(m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r) rows[r].assign(m.row(r).begin(), m.row(r).end());
  return rows;
}

struct DlrmModel {
  using ServerT = serve::Server<ClickSample, float>;

  explicit DlrmModel(std::uint64_t seed) {
    enw::Rng rng(seed);
    const enw::recsys::DlrmConfig cfg = enw::recsys::DlrmConfig::memory_dominated();
    model = std::make_unique<enw::recsys::Dlrm>(cfg, rng);
    model->enable_embedding_cache(kHotRows, 8);
    enw::data::ClickLogConfig lc;
    lc.num_dense = cfg.num_dense;
    lc.num_tables = cfg.num_tables;
    lc.rows_per_table = cfg.rows_per_table;
    lc.seed = seed;
    const enw::data::ClickLogGenerator gen(lc);
    pool = gen.batch(kPool, rng);
    std::vector<float> first;
    for (const ClickSample& s : pool) first.push_back(s.dense.front());
    tracer = std::make_unique<Tracer>(first);
    for (std::size_t i = 0; i < kPool; i += kOfflineBatch) {
      const std::vector<float> r = model->predict_batch(
          std::span<const ClickSample>(pool).subspan(i, kOfflineBatch));
      ref.insert(ref.end(), r.begin(), r.end());
    }
    server = std::make_unique<ServerT>(
        live_serve_config(),
        tracer->wrap<ClickSample, float>(serve::cached_dlrm_backend(*model),
                                         [](const ClickSample& s) { return s.dense.front(); }));
  }

  struct Client {
    DlrmModel& m;
    const ClickSample* make(std::uint64_t id) {
      m.tracer->claim(id);
      return &m.pool[id % kPool];
    }
    ServerT::Reply submit(const ClickSample* x, std::uint64_t) { return m.server->submit(*x); }
    bool check(std::uint64_t id, const ServerT::Reply& r) const {
      return same_bits({&r.value, 1}, {&m.ref[id % kPool], 1});
    }
    BatchStamp stamp(std::uint64_t id) const { return m.tracer->stamp(id); }
  };
  Client client() { return Client{*this}; }

  ServerCounts counts() const {
    const serve::ServerStats s = server->stats();
    return {s.submitted, s.completed, s.rejected, s.shed, s.errors};
  }

  void offline(std::size_t k) {
    const std::size_t off = (k * kOfflineBatch) % kPool;
    const std::vector<float> r =
        model->predict_batch(std::span<const ClickSample>(pool).subspan(off, kOfflineBatch));
    sink = r[0];
  }

  struct CacheTotals {
    std::uint64_t hits = 0, misses = 0, fills = 0, cold_bytes = 0;
  };
  CacheTotals cache_totals() const {
    CacheTotals t;
    for (std::size_t i = 0; i < model->config().num_tables; ++i) {
      const auto& c = model->embedding_cache(i);
      t.hits += c.hot_hits();
      t.misses += c.hot_misses();
      t.fills += c.rows_filled();
      t.cold_bytes += c.bytes_from_cold();
    }
    return t;
  }

  void trace_begin() { cache_at_trace = cache_totals(); }
  void trace_end() {
    const CacheTotals now = cache_totals();
    cache_traced.hits += now.hits - cache_at_trace.hits;
    cache_traced.misses += now.misses - cache_at_trace.misses;
    cache_traced.fills += now.fills - cache_at_trace.fills;
    cache_traced.cold_bytes += now.cold_bytes - cache_at_trace.cold_bytes;
  }
  void layer(double min_s, Result& out);

  // Hot capacity per table; the pool's Zipf ids overflow it, so the cache
  // both hits and fills in steady state.
  static constexpr std::size_t kHotRows = 2048;
  // A second instance would double the ~0.9 GB footprint; set-up is timed
  // only at the start.
  static constexpr bool kSetupEachRound = false;
  std::unique_ptr<enw::recsys::Dlrm> model;
  std::vector<ClickSample> pool;
  std::vector<float> ref;
  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<ServerT> server;  // last: stopped before what it serves
  CacheTotals cache_at_trace, cache_traced;  // traced parts only
  float sink = 0.0f;
};

struct MlpModel {
  using ServerT = serve::MultiShardServer<Vector, Vector>;

  explicit MlpModel(std::uint64_t seed) {
    enw::Rng rng(seed);
    enw::nn::QatConfig qc;
    qc.dims = {784, 512, 256, 10};
    qc.weight_bits = 8;
    qc.act_bits = 8;
    const enw::nn::QatMlp net(qc, rng);
    engine = std::make_unique<enw::nn::QatInt8Inference>(net);
    Matrix x(kPool, 784);
    for (std::size_t i = 0; i < x.rows() * x.cols(); ++i) {
      x.data()[i] = static_cast<float>(rng.uniform());
    }
    pool = split_rows(x);
    std::vector<float> first;
    for (const Vector& v : pool) first.push_back(v.front());
    tracer = std::make_unique<Tracer>(first);
    ref = split_rows(engine->infer_batch(x));
    serve::MultiShardConfig mc;
    mc.shard = live_serve_config();
    mc.num_shards = 2;
    for (const char* name : {"a", "b"}) {
      serve::TenantPolicy t;
      t.name = name;
      t.admission = serve::AdmissionPolicy::kBlock;
      t.queue_share = 0.5;
      mc.tenants.push_back(t);
    }
    server = std::make_unique<ServerT>(mc, [this](std::size_t) {
      return tracer->wrap<Vector, Vector>(serve::qat_int8_logits_backend(*engine),
                                          [](const Vector& v) { return v.front(); });
    });
  }

  struct Client {
    MlpModel& m;
    const Vector* make(std::uint64_t id) {
      m.tracer->claim(id);
      return &m.pool[id % kPool];
    }
    ServerT::Reply submit(const Vector* x, std::uint64_t id) {
      return m.server->submit(*x, enw::core::mix64(id), id % 2);
    }
    bool check(std::uint64_t id, const ServerT::Reply& r) const {
      return same_bits(r.value, m.ref[id % kPool]);
    }
    BatchStamp stamp(std::uint64_t id) const { return m.tracer->stamp(id); }
  };
  Client client() { return Client{*this}; }

  ServerCounts counts() const {
    ServerCounts c;
    for (std::size_t t = 0; t < 2; ++t) {
      const auto r = server->tenant_report(t);
      c.submitted += r.submitted - r.shutdown;
      c.completed += r.completed;
      c.rejected += r.rejected;
      c.shed += r.shed;
      c.errors += r.errors;
    }
    return c;
  }

  void offline(std::size_t k) {
    Matrix x(kOfflineBatch, 784);
    for (std::size_t s = 0; s < kOfflineBatch; ++s) {
      const Vector& v = pool[(k * kOfflineBatch + s) % kPool];
      std::copy(v.begin(), v.end(), x.row(s).begin());
    }
    const Matrix y = engine->infer_batch(x);
    sink = y.data()[0];
  }

  void trace_begin() {}
  void trace_end() {}
  void layer(double min_s, Result& out);

  // Set-up (~0.8 s, mostly the offline reference) is short enough to swing
  // with the host's state; one more timed set-up per round spreads the
  // samples of setup_s over the run.
  static constexpr bool kSetupEachRound = true;
  std::unique_ptr<enw::nn::QatInt8Inference> engine;
  std::vector<Vector> pool;
  std::vector<Vector> ref;
  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<ServerT> server;  // last: stopped before what it serves
  float sink = 0.0f;
};

ServerCounts operator-(const ServerCounts& a, const ServerCounts& b) {
  return {a.submitted - b.submitted, a.completed - b.completed, a.rejected - b.rejected,
          a.shed - b.shed, a.errors - b.errors};
}

Matrix dense_batch(std::span<const ClickSample> batch) {
  Matrix x(batch.size(), batch.front().dense.size());
  for (std::size_t s = 0; s < batch.size(); ++s) {
    std::copy(batch[s].dense.begin(), batch[s].dense.end(), x.row(s).begin());
  }
  return x;
}

Matrix infer_layers(const std::vector<enw::nn::DenseLayer>& layers, Matrix x) {
  for (const auto& l : layers) x = l.infer_batch(x);
  return x;
}

const enw::obs::SpanNode* find_span(const std::vector<enw::obs::SpanNode>& nodes,
                                    const std::string& name) {
  for (const auto& n : nodes) {
    if (n.name == name) return &n;
    if (const auto* c = find_span(n.children, name)) return c;
  }
  return nullptr;
}

void cache_layers(const DlrmModel::CacheTotals& t, Result& out) {
  const double hits = t.hits, misses = t.misses;
  out.layer.push_back({"cache.hit_rate", hits + misses > 0 ? hits / (hits + misses) : 0.0, "fraction"});
  out.layer.push_back({"cache.fills", static_cast<double>(t.fills), "count"});
  out.layer.push_back({"cache.cold_mb", t.cold_bytes * 1e-6, "MB"});
}

// recsys + tensor layers of the RMC1 model, each timed around a public call:
// bottom()/top() DenseLayer::infer_batch, the cached lookup_sum_batch per
// table, and predict_batch; interaction is what predict_batch spends beyond
// the other three.
void DlrmModel::layer(double min_s, Result& out) {
  const auto& cfg = model->config();
  // Private cached tiers for the embedding probe, warmed to the served
  // caches' residency (lookup_sum_batch mutates, so it needs its own copy).
  std::vector<enw::recsys::CachedEmbeddingTable> probe;
  for (std::size_t t = 0; t < cfg.num_tables; ++t) {
    const auto& served = model->embedding_cache(t);
    probe.emplace_back(served.cold(), served.hot_rows());
    const std::vector<std::uint64_t> keys = served.meta().keys_by_recency();
    const std::vector<std::size_t> ids(keys.begin(), keys.end());
    probe.back().warm_rows(ids);
  }
  double emb_b256_us = 0.0, bytes_b256 = 0.0;
  for (const std::size_t b : {std::size_t{1}, kOfflineBatch}) {
    const std::string tag = b == 1 ? "b1" : "b256";
    // The probes walk the pool batch by batch, as offline() does, so the hot
    // tiers see the served access pattern. predict_batch and the embedding
    // probe get the same batches in the same order, so the private tiers
    // (warmed to the served residency) hit and miss exactly as the model's.
    const Matrix inter(b, model->interaction_dim(), 0.5f);
    const char* span = b == 1 ? "bench.dlrm.predict.b1" : "bench.dlrm.predict.b256";
    std::vector<double> t_pred, t_bottom, t_emb, t_top;
    const auto timed = [](std::vector<double>& into, auto&& f) {
      const std::uint64_t a = now_ns();
      f();
      into.push_back((now_ns() - a) * 1e-3);
    };
    const std::uint64_t t0 = now_ns();
    for (std::size_t k = 0; t_pred.size() < 5 || seconds_since(t0) < 4.0 * min_s; ++k) {
      const std::span<const ClickSample> batch =
          std::span<const ClickSample>(pool).subspan((k * b) % kPool, b);
      timed(t_pred, [&] {
        ENW_SPAN(span);
        sink = model->predict_batch(batch)[0];
      });
      const Matrix dense = dense_batch(batch);
      timed(t_bottom, [&] {
        ENW_SPAN("bench.dlrm.bottom");
        sink = infer_layers(model->bottom(), dense).data()[0];
      });
      timed(t_emb, [&] {
        ENW_SPAN("bench.dlrm.embedding");
        std::vector<std::span<const std::size_t>> lists(b);
        Matrix p(b, cfg.embed_dim);
        for (std::size_t t = 0; t < cfg.num_tables; ++t) {
          for (std::size_t s = 0; s < b; ++s) lists[s] = batch[s].sparse[t];
          probe[t].lookup_sum_batch(lists, p);
        }
        sink = p.data()[0];
      });
      timed(t_top, [&] {
        ENW_SPAN("bench.dlrm.top");
        sink = infer_layers(model->top(), inter).data()[0];
      });
    }
    const enw::obs::TraceReport rep = enw::obs::snapshot();
    const double pred = median(t_pred), bottom = median(t_bottom), emb = median(t_emb),
                 top = median(t_top);
    out.layer.push_back({"dlrm.predict_us." + tag, pred, "us"});
    out.layer.push_back({"dlrm.bottom_us." + tag, bottom, "us"});
    out.layer.push_back({"dlrm.embedding_us." + tag, emb, "us"});
    out.layer.push_back({"dlrm.top_us." + tag, top, "us"});
    out.layer.push_back({"dlrm.interaction_us." + tag, pred - bottom - emb - top, "us"});
    // Ledger: the library's own four spans inside predict_batch must
    // account for the predict_batch time measured around the call.
    const auto* root = find_span(rep.roots, span);
    double inside = 0.0;
    for (const char* n : {"dlrm.bottom_mlp", "dlrm.embedding", "dlrm.interaction", "dlrm.top_mlp"}) {
      if (const auto* s = root ? find_span(root->children, n) : nullptr) inside += s->total_ns;
    }
    const double share = root && root->total_ns ? inside / root->total_ns : 0.0;
    out.notes.push_back("ledger dlrm " + tag + ": four layer spans cover " +
                        std::to_string(100.0 * share) + "% of predict_batch (tolerance: >= 90%)");
    if (share < 0.90) out.fail("dlrm " + tag + " layer spans do not add up to predict_batch");
    if (b == kOfflineBatch) {
      emb_b256_us = emb;
      // Computed from shapes: per lookup one int8 row (dim bytes) plus its
      // fp32 scale, and one pooled fp32 row written per sample and table.
      double lookups = 0.0;
      for (const ClickSample& x : std::span<const ClickSample>(pool).first(b)) {
        for (const auto& l : x.sparse) lookups += static_cast<double>(l.size());
      }
      bytes_b256 = lookups * (cfg.embed_dim + 4.0) + b * cfg.num_tables * cfg.embed_dim * 4.0;
    }
  }
  cache_layers(cache_traced, out);
  const Peaks peaks = measure_peaks(min_s);
  const double emb_gbs = bytes_b256 / (emb_b256_us * 1e3);
  out.layer.push_back({"embedding.gbs", emb_gbs, "GB/s"});
  out.layer.push_back({"embedding.peak_frac", emb_gbs / peaks.stream_gbs, "fraction"});
  const std::size_t bot_in = cfg.num_dense, inter_dim = model->interaction_dim();
  const std::size_t h_b = cfg.bottom_hidden.front(), h_t = cfg.top_hidden.front();
  const struct { const char* name; std::size_t n, k; } shapes[] = {
      {"bottom0", h_b, bot_in}, {"bottom1", cfg.embed_dim, h_b},
      {"top0", h_t, inter_dim}, {"top1", 1, h_t}};
  for (const auto& s : shapes) {
    const double g = fp32_gemm_gflops(kOfflineBatch, s.n, s.k, min_s);
    out.layer.push_back({std::string("fp32gemm.gflops.") + s.name, g, "GFLOP/s"});
    out.layer.push_back({std::string("fp32gemm.peak_frac.") + s.name, g / peaks.fp32_gflops, "fraction"});
  }
  out.layer.push_back({"peak.fp32_gflops", peaks.fp32_gflops, "GFLOP/s"});
  out.layer.push_back({"peak.int8_gops", peaks.int8_gops, "GOP/s"});
  out.layer.push_back({"peak.stream_gbs", peaks.stream_gbs, "GB/s"});
}

// nn + tensor layers of the int8 MLP: QatInt8Inference::infer_batch, and
// the int8 GEMM of each layer shape plus the activation quantization.
void MlpModel::layer(double min_s, Result& out) {
  for (const std::size_t b : {std::size_t{1}, kOfflineBatch}) {
    std::vector<Matrix> xs;  // a few distinct batches, built outside the timing
    for (std::size_t i = 0; i < 8; ++i) {
      Matrix x(b, 784);
      for (std::size_t s = 0; s < b; ++s) {
        const Vector& v = pool[(i * b + s) % kPool];
        std::copy(v.begin(), v.end(), x.row(s).begin());
      }
      xs.push_back(std::move(x));
    }
    std::size_t k = 0;
    const double us = call_us(
        [&] {
          ENW_SPAN("bench.int8.infer");
          sink = engine->infer_batch(xs[k++ % xs.size()]).data()[0];
        },
        min_s);
    out.layer.push_back({std::string("int8.infer_us.") + (b == 1 ? "b1" : "b256"), us, "us"});
  }
  const Peaks peaks = measure_peaks(min_s);
  const struct { const char* name; std::size_t n, k; } shapes[] = {
      {"l0", 512, 784}, {"l1", 256, 512}, {"l2", 10, 256}};
  for (const auto& s : shapes) {
    ENW_SPAN("bench.qgemm");
    const double g = int8_gemm_gops(kOfflineBatch, s.n, s.k, min_s);
    out.layer.push_back({std::string("qgemm.gops.") + s.name, g, "GOP/s"});
    out.layer.push_back({std::string("qgemm.peak_frac.") + s.name, g / peaks.int8_gops, "fraction"});
  }
  out.layer.push_back({"quantize.us", quantize_rows_us(kOfflineBatch, 784, min_s), "us"});
  out.layer.push_back({"peak.fp32_gflops", peaks.fp32_gflops, "GFLOP/s"});
  out.layer.push_back({"peak.int8_gops", peaks.int8_gops, "GOP/s"});
  out.layer.push_back({"peak.stream_gbs", peaks.stream_gbs, "GB/s"});
}

// ---------------------------------------------------------------------------
// The run loop shared by both live workloads.

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f", v);
  return buf;
}

/// The max_rps score of one part: p90 from due time over every attempted
/// request (a failure misses the limit) or, if larger, the median lateness
/// over the part's last quarter, so a generator that keeps falling behind
/// fails either way.
double part_score_us(const PhaseResult& ph) {
  return std::max(ph.latency_all_us(90), percentile(ph.late_us(0.75, 1.0), 50));
}

/// One kind of phase (a load point) pooled over the rounds of a run.
struct Pooled {
  Pooled(std::string n, double r) : name(std::move(n)), rate(r) {}

  std::string name;
  double rate = 0.0;
  std::vector<PhaseResult> parts;
  ServerCounts server;  // sum of the server-side deltas around each part

  template <typename F>
  std::vector<double> collect(F&& per_part) const {
    std::vector<double> v;
    for (const PhaseResult& ph : parts) {
      const std::vector<double> x = per_part(ph);
      v.insert(v.end(), x.begin(), x.end());
    }
    return v;
  }
  std::vector<double> latency_us() const {
    return collect([](const PhaseResult& ph) { return ph.latency_us(); });
  }
  /// The kPartPct percentile over the parts of a per-part statistic.
  template <typename F>
  double over_parts(F&& per_part) const {
    std::vector<double> v;
    for (const PhaseResult& ph : parts) v.push_back(per_part(ph));
    return percentile(std::move(v), kPartPct);
  }
  double latency_pct_us(double p) const {
    return over_parts([p](const PhaseResult& ph) { return percentile(ph.latency_us(), p); });
  }
};

std::string part_p90s(const Pooled& p) {
  std::string s;
  for (const PhaseResult& ph : p.parts) {
    if (!s.empty()) s += ' ';
    s += fmt(percentile(ph.latency_us(), 90));
  }
  return s;
}

template <typename Model>
class LiveRun {
 public:
  LiveRun(const Options& opts, Model& m, Result& out) : opts_(opts), m_(m), out_(out) {}

  PhaseResult phase(double rate, double seconds) {
    auto client = m_.client();
    PhaseResult ph = run_phase(rate, seconds, opts_.seed * 1000003ull + phases_, next_id_,
                               kSenders, client);
    ++phases_;
    next_id_ += ph.recs.size();
    out_.attempted += ph.ledger.sent;
    out_.failed += ph.ledger.not_ok();
    return ph;
  }

  /// Runs one more part of a pooled load point.
  void run(Pooled& p, double seconds) {
    const ServerCounts before = m_.counts();
    p.parts.push_back(phase(p.rate, seconds));
    const ServerCounts d = m_.counts() - before;
    p.server = {p.server.submitted + d.submitted, p.server.completed + d.completed,
                p.server.rejected + d.rejected, p.server.shed + d.shed,
                p.server.errors + d.errors};
  }

  /// Gates a pooled load point and records its diagnostics line.
  void report(const Pooled& p) {
    StatusLedger ledger;
    std::uint64_t compared = 0, mismatched = 0, pauses = 0;
    double wall = 0.0, longest = 0.0;
    for (const PhaseResult& ph : p.parts) {
      ledger.sent += ph.ledger.sent;
      ledger.ok += ph.ledger.ok;
      ledger.rejected += ph.ledger.rejected;
      ledger.shed += ph.ledger.shed;
      ledger.error += ph.ledger.error;
      ledger.shutdown += ph.ledger.shutdown;
      compared += ph.compared;
      mismatched += ph.mismatched;
      pauses += ph.pauses;
      wall += ph.wall_s;
      longest = std::max(longest, ph.longest_pause_ms);
    }
    gate_phase(p.name, ledger, compared, mismatched, p.server, out_);
    const std::vector<double> lat = p.latency_us();
    const std::vector<double> late = p.collect([](const PhaseResult& ph) { return ph.late_us(); });
    out_.notes.push_back(
        "phase " + p.name + ": rate=" + fmt(p.rate) + " req/s parts=" +
        std::to_string(p.parts.size()) + " wall=" + fmt(wall * 1e3) + "ms p50=" +
        fmt(percentile(lat, 50)) + "us p90=" + fmt(percentile(lat, 90)) + "us p99=" +
        fmt(percentile(lat, 99)) + "us p99.9=" + fmt(percentile(lat, 99.9)) + "us (" +
        std::to_string(lat.size()) + " samples; p99 and p99.9 are diagnostics) part_p90=[" +
        part_p90s(p) + "]us late_p50=" +
        fmt(percentile(late, 50)) + "us late_p99=" +
        fmt(percentile(late, 99)) + "us pauses>2ms=" + std::to_string(pauses) +
        " longest=" + fmt(longest) + "ms");
  }

  /// Per-batch µs of the model's batch call at batch 256, appended to
  /// `into` for at least `seconds`.
  void offline(std::vector<double>& into, double seconds) {
    const std::uint64_t t0 = now_ns();
    do {
      const std::uint64_t a = now_ns();
      m_.offline(offline_k_++);
      into.push_back((now_ns() - a) * 1e-3);
    } while (seconds_since(t0) < seconds);
  }

  double ok_share() const {
    return out_.attempted == 0
               ? 0.0
               : static_cast<double>(out_.attempted - out_.failed) / out_.attempted;
  }

 private:
  const Options& opts_;
  Model& m_;
  Result& out_;
  std::uint64_t phases_ = 0;
  std::uint64_t next_id_ = 0;
  std::size_t offline_k_ = 0;
};

/// Where one ladder of (rate, score) points crosses the limit: interpolated
/// in log score between the last rate within the limit and the first beyond
/// it. Below the ladder the lowest rate is scaled by limit / score; above it
/// the answer is the top rate.
double crossing(const std::vector<double>& rates, const std::vector<double>& scores,
                double limit_us) {
  const double cap = 10.0 * limit_us;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const double s = std::min(scores[i], cap);
    if (s <= limit_us) continue;
    if (i == 0) return rates[0] * limit_us / s;
    const double s0 = std::max(scores[i - 1], 1.0);
    const double f = std::log(limit_us / s0) / std::log(s / s0);
    return rates[i - 1] + f * (rates[i] - rates[i - 1]);
  }
  return rates.back();
}

/// Highest offered rate meeting the limit. Each round runs the whole ladder
/// back to back, in one host state, and gives one crossing; max_rps is the
/// upper quartile of the per-round crossings (the host's good state, as for
/// the latencies: higher is better here). Returns the per-round values too.
double max_rps(const std::vector<Pooled>& ladder, double limit_us,
               std::vector<double>& per_round) {
  std::vector<double> rates;
  for (const Pooled& p : ladder) rates.push_back(p.rate);
  for (std::size_t r = 0; r < ladder.front().parts.size(); ++r) {
    std::vector<double> scores;
    for (const Pooled& p : ladder) scores.push_back(part_score_us(p.parts[r]));
    per_round.push_back(crossing(rates, scores, limit_us));
  }
  return percentile(per_round, 100.0 - kPartPct);
}

/// Per-request ledger of the traced phases: late + wait + exec + wake is
/// checked against the lateness plus the server's own Reply::latency_ns.
void serve_layers(const std::vector<const PhaseResult*>& phases, Tracer& tracer, Result& out) {
  std::vector<double> wait, wake, late, resid;
  std::uint64_t unattributed = 0, misordered = 0, traced = 0, within = 0;
  double paused_ms = 0.0, wall_s = 0.0;
  // Tolerance: 20 us, or 10% of the client latency when that is larger, so
  // that a run caught in a slow host state (every step 2-8x slower) is not
  // failed for it.
  constexpr double kTolUs = 20.0, kTolShare = 0.10;
  for (const PhaseResult* ph : phases) {
    paused_ms += ph->paused_ms;
    wall_s += ph->wall_s;
    for (std::size_t i = 0; i < ph->recs.size(); ++i) {
      const RequestRecord& r = ph->recs[i];
      late.push_back((r.start - r.due) * 1e-3);
      if (r.status != serve::Status::kOk) continue;
      if (r.batch.id != ph->first_id + i) {
        ++unattributed;
        continue;
      }
      if (r.batch.start < r.start || r.batch.end > r.end) {
        ++misordered;
        continue;
      }
      ++traced;
      const double w = (r.batch.start - r.start) * 1e-3;
      const double e = (r.batch.end - r.batch.start) * 1e-3;
      const double k = (r.end - r.batch.end) * 1e-3;
      wait.push_back(w);
      wake.push_back(k);
      const double sum = (r.start - r.due) * 1e-3 + w + e + k;
      const double client = (r.start - r.due) * 1e-3 + r.server_latency * 1e-3;
      resid.push_back(std::abs(sum - client));
      if (std::abs(sum - client) <= std::max(kTolUs, kTolShare * client)) ++within;
    }
  }
  std::vector<double> exec, size;
  {
    std::lock_guard<std::mutex> lk(tracer.mu);
    for (const BatchStamp& b : tracer.batches) {
      exec.push_back((b.end - b.start) * 1e-3);
      size.push_back(b.size);
    }
  }
  double mean_size = 0.0;
  for (double s : size) mean_size += s / size.size();
  out.layer.push_back({"serve.wait_us.p50", percentile(wait, 50), "us"});
  out.layer.push_back({"serve.wait_us.p90", percentile(wait, 90), "us"});
  out.layer.push_back({"serve.exec_us.p50", percentile(exec, 50), "us"});
  out.layer.push_back({"serve.batch_size.mean", mean_size, "count"});
  out.layer.push_back({"serve.wake_us.p50", percentile(wake, 50), "us"});
  out.layer.push_back({"serve.wake_us.p90", percentile(wake, 90), "us"});
  out.layer.push_back({"gen.late_us.p50", percentile(late, 50), "us"});
  out.layer.push_back({"gen.late_us.p99", percentile(late, 99), "us"});
  out.layer.push_back({"host.pause_ms_per_s", paused_ms / wall_s, "ms/s"});
  out.layer.push_back({"ledger.resid_us.p99", percentile(resid, 99), "us"});
  const double share = traced == 0 ? 0.0 : static_cast<double>(within) / traced;
  out.notes.push_back("ledger serve: " + std::to_string(traced) + " traced requests, " +
                      std::to_string(100.0 * share) +
                      "% with |late+wait+exec+wake - (late+server latency)| <= max(20us, 10%) "
                      "(tolerance: >= 99%); unattributed=" + std::to_string(unattributed) +
                      " misordered=" + std::to_string(misordered));
  if (traced == 0 || share < 0.99) out.fail("serve ledger does not add up to client latency");
  if (misordered != 0) out.fail("batch stamps fall outside their request's submit call");
  if (unattributed * 100 > traced) out.fail("more than 1% of traced requests lost their batch stamp");
}

template <typename Model>
Result run_live(const Options& opts) {
  Result out;
  std::vector<double> setups;
  std::unique_ptr<Model> m;
  for (int i = 0; i < kSetups; ++i) {
    m.reset();  // free the previous instance before building the next
    const std::uint64_t t0 = now_ns();
    m = std::make_unique<Model>(opts.seed);
    setups.push_back(seconds_since(t0));
  }
  LiveRun<Model> run(opts, *m, out);
  const double s = opts.seconds;
  Pooled warmup{"warmup", kRateLow};
  run.run(warmup, 0.04 * s);
  run.report(warmup);
  // Every load point and the offline call run in short parts spread over
  // kRounds rounds, so that slow drifts of the shared host (other tenants,
  // hyperthread siblings) weigh on all of them alike. Latencies are taken
  // over the parts at kPartPct.
  constexpr int kRounds = 7;
  if (!opts.trace) {
    Pooled low{"low", kRateLow}, high{"high", kRateHigh};
    std::vector<Pooled> ladder;
    for (int i = 0; i < kLadder; ++i) {
      const double r = kLadderLo * std::pow(kLadderHi / kLadderLo,
                                                 static_cast<double>(i) / (kLadder - 1));
      ladder.push_back({"ladder" + std::to_string(i), r});
    }
    std::vector<double> offline_us;
    for (int round = 0; round < kRounds; ++round) {
      run.run(low, 0.2 * s / kRounds);
      run.offline(offline_us, 0.1 * s / kRounds);
      run.run(high, 0.3 * s / kRounds);
      run.offline(offline_us, 0.1 * s / kRounds);
      for (Pooled& p : ladder) run.run(p, 0.25 * s / (kRounds * kLadder));
      if constexpr (Model::kSetupEachRound) {
        const std::uint64_t t0 = now_ns();
        const Model extra(opts.seed);
        setups.push_back(seconds_since(t0));
      }
    }
    run.report(low);
    run.report(high);
    for (const Pooled& p : ladder) run.report(p);
    out.e2e.push_back({"setup_s", median(setups), "s"});
    out.e2e.push_back({"p50_us.low", low.latency_pct_us(50), "us"});
    out.e2e.push_back({"p90_us.low", low.latency_pct_us(90), "us"});
    out.e2e.push_back({"p50_us.high", high.latency_pct_us(50), "us"});
    out.e2e.push_back({"p90_us.high", high.latency_pct_us(90), "us"});
    std::vector<double> per_round;
    const double rps = max_rps(ladder, kLimitUs, per_round);
    std::string rounds;
    for (const double r : per_round) rounds += (rounds.empty() ? "" : " ") + fmt(r);
    out.notes.push_back("max_rps per round: [" + rounds + "] req/s");
    out.e2e.push_back({"max_rps", rps, "req/s"});
    // From the kFastPct percentile of the per-batch times (see common.h);
    // the median is printed beside it.
    const double fast_us = percentile(offline_us, kFastPct);
    out.notes.push_back("offline batch-256 calls: p" + fmt(kFastPct) + "=" + fmt(fast_us) +
                        "us median=" + fmt(median(offline_us)) + "us n=" +
                        std::to_string(offline_us.size()));
    out.e2e.push_back({"offline_sps", kOfflineBatch / (fast_us * 1e-6), "samples/s"});
    out.e2e.push_back({"ok_share", run.ok_share(), "fraction"});
    out.e2e.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    return out;
  }
  // Traced run: the low load point and the offline call, untraced and
  // traced in alternation, give the tracing overhead; the traced parts give
  // the serve ledger.
  Pooled low_plain{"low", kRateLow}, low{"low.traced", kRateLow},
      high{"high.traced", kRateHigh};
  std::vector<double> off_plain, off_traced;
  const auto tracing = [&](bool on) {
    enw::obs::set_enabled(on);
    m->tracer->on.store(on);
  };
  enw::obs::reset();
  for (int round = 0; round < kRounds; ++round) {
    run.run(low_plain, 0.15 * s / kRounds);
    run.offline(off_plain, 0.04 * s / kRounds);
    tracing(true);
    m->trace_begin();
    run.run(low, 0.15 * s / kRounds);
    run.run(high, 0.15 * s / kRounds);
    m->trace_end();
    run.offline(off_traced, 0.04 * s / kRounds);
    tracing(false);
  }
  run.report(low_plain);
  run.report(low);
  run.report(high);
  std::vector<const PhaseResult*> traced;
  for (const Pooled* p : {&low, &high}) {
    for (const PhaseResult& ph : p->parts) traced.push_back(&ph);
  }
  serve_layers(traced, *m->tracer, out);
  out.layer.push_back({"trace.overhead_pct.p50_low",
                       100.0 * (low.latency_pct_us(50) / low_plain.latency_pct_us(50) - 1.0),
                       "%"});
  out.layer.push_back({"trace.overhead_pct.offline",
                       100.0 * (percentile(off_traced, kFastPct) /
                                percentile(off_plain, kFastPct) - 1.0),
                       "%"});
  enw::obs::set_enabled(true);
  m->layer(0.02 * s, out);
  out.notes.push_back(
      "kernel rates: flop and byte counts are computed from tensor shapes (2*m*n*k per "
      "GEMM; bytes read + written per gather or copy), not measured; *.peak_frac divides by "
      "this host's single-thread peak probes");
  if (!opts.spans_path.empty() && !enw::obs::write_json(enw::obs::snapshot(), opts.spans_path)) {
    out.fail("cannot write spans to " + opts.spans_path);
  }
  enw::obs::set_enabled(false);
  return out;
}

}  // namespace

Result run_dlrm_rmc1_int8(const Options& opts) { return run_live<DlrmModel>(opts); }

Result run_mlp_int8_2shard(const Options& opts) { return run_live<MlpModel>(opts); }

}  // namespace servebench
