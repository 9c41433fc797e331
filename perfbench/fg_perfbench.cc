// fg_perfbench — the measuring half of the end-to-end training benchmark.
//
// perfbench/run.py builds this binary and drives it; it runs the passes of
// one workload and writes their raw samples (per-epoch wall times, losses,
// logits CRCs, counter deltas, spans) to one JSON document. Statistics and
// output checks are computed by run.py from that document, so this file only
// measures.
//
//   fg_perfbench --workload gcn-reddit --seed 1 --seconds 12 --trace 0 --out raw.json
//
// --trace 0 runs the timed segments: closed loops of epochs (one process, one
// epoch in flight) at full threads, alternating with one-kernel-thread
// segments on the same inputs; every segment's first epoch is a set-up.
// --trace 1 runs an untraced fixed-epoch pass and two traced fixed-epoch
// passes that time every call into the library from here and read the
// library's own counters.
//
// The benchmark only calls user-facing entry points: Trainer::Fit,
// Engine::EnsureHdg/Forward, MaskedSoftmaxCrossEntropy, Variable::Backward,
// SgdOptimizer::Step, LabelPropagationPartition, RunAdbBalancing and
// DistributedRuntime::RunEpoch.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/trainer.h"
#include "src/data/datasets.h"
#include "src/dist/adb_driver.h"
#include "src/dist/runtime.h"
#include "src/exec/parallel.h"
#include "src/exec/simd.h"
#include "src/models/gcn.h"
#include "src/models/magnn.h"
#include "src/models/pinsage.h"
#include "src/obs/clock.h"
#include "src/obs/metrics.h"
#include "src/obs/prof.h"
#include "src/partition/partition.h"
#include "src/util/crc32.h"

namespace {

using namespace flexgraph;

struct WorkloadSpec {
  const char* name;
  const char* model;    // gcn | pinsage | magnn
  const char* dataset;  // reddit | imdb
  bool socket;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"gcn-reddit", "gcn", "reddit", false},
    {"pinsage-reddit", "pinsage", "reddit", false},
    {"magnn-imdb", "magnn", "imdb", false},
    {"pinsage-reddit-socket", "pinsage", "reddit", true},
};

// Dataset scale of every workload: |V| 32,768 for reddit-like, 14,000 for
// imdb-like.
constexpr double kScale = 4.0;
// Epochs of the fixed-length passes; the loss after them is the
// core.final_loss readout.
constexpr int kFixedEpochs = 8;

constexpr float kLearningRate = 0.1f;
// Epochs of the second traced pass, which only re-checks the count metrics.
constexpr int kRecheckEpochs = 3;
// The timed run alternates kRounds segments at full threads with kRounds
// one-thread segments, so a slow phase of the shared host lands in both
// samples instead of in one contiguous window. Every segment starts from
// scratch: its first epoch is a set-up.
constexpr int kRounds = 3;
// Minimum epochs per full-thread segment (warm-up included): 3 x 14 steady
// samples put the tail at p75 or above.
constexpr int kMinTimedEpochs = 15;
// Minimum epochs per one-thread segment (warm-up included).
constexpr int kMinSerialEpochs = 3;

// ---------------------------------------------------------------- helpers

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// splitmix64 over (seed, tag): every RNG of the run derives from --seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t tag) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (tag + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

struct Usage {
  int64_t minor_faults = 0;
  double sys_s = 0.0;
};

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.minor_faults = ru.ru_minflt;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) + 1e-6 * static_cast<double>(ru.ru_stime.tv_usec);
  return u;
}

double MaxRssMb(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

uint32_t FloatBits(float f) {
  uint32_t bits = 0;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits;
}

uint32_t LogitsCrc(const Tensor& t) { return Crc32(t.data(), t.ByteSize()); }

// Registry reads: counters and histogram sums, as deltas between snapshots.
int64_t CounterValue(const obs::MetricsSnapshot& s, const char* name) {
  auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

double HistogramSum(const obs::MetricsSnapshot& s, const char* name) {
  auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0.0 : it->second.sum;
}

obs::MetricsSnapshot Registry() { return obs::MetricRegistry::Get().Snapshot(); }

// ---------------------------------------------------------------- JSON out

// Append-only JSON writer; numbers keep every digit (%.17g).
class JsonWriter {
 public:
  JsonWriter& Open(const char* key, char bracket) {
    Key(key);
    out_ += bracket;
    first_.push_back(true);
    return *this;
  }
  JsonWriter& Close(char bracket) {
    out_ += bracket;
    first_.pop_back();
    return *this;
  }
  JsonWriter& Num(const char* key, double v) {
    Key(key);
    if (std::isfinite(v)) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out_ += buf;
    } else {
      out_ += "null";
    }
    return *this;
  }
  JsonWriter& Int(const char* key, int64_t v) {
    Key(key);
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& Str(const char* key, const std::string& v) {
    Key(key);
    out_ += '"';
    for (char c : v) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out_ += ' ';
      } else {
        out_ += c;
      }
    }
    out_ += '"';
    return *this;
  }
  // Splices an already rendered JSON value.
  JsonWriter& Raw(const char* key, const std::string& json) {
    Key(key);
    out_ += json;
    return *this;
  }
  JsonWriter& Bool(const char* key, bool v) {
    Key(key);
    out_ += v ? "true" : "false";
    return *this;
  }
  template <typename T>
  JsonWriter& NumArray(const char* key, const std::vector<T>& values) {
    Open(key, '[');
    for (const T& v : values) {
      Num(nullptr, static_cast<double>(v));
    }
    return Close(']');
  }
  const std::string& str() const { return out_; }

 private:
  // `key` is null inside arrays.
  void Key(const char* key) {
    if (!first_.empty()) {
      if (!first_.back()) {
        out_ += ',';
      }
      first_.back() = false;
    }
    if (key != nullptr) {
      out_ += '"';
      out_ += key;
      out_ += "\":";
    }
  }

  std::string out_;
  std::vector<bool> first_;
};

// ---------------------------------------------------------------- spans

// In-memory span log of the traced passes. A span's layer is its name up to
// the first '.'; spans of one epoch share the epoch id. Derived spans carry a
// duration the library measured itself (StageTimes, DistEpochStats) and are
// placed back to back from their parent's start: their lengths are measured,
// their positions inside the parent are not.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    int epoch = 0;
    bool derived = false;
  };

  int Begin(const std::string& name, int epoch) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, obs::MonotonicNowNs(), 0, stack_.empty() ? -1 : stack_.back(), epoch,
                      false});
    stack_.push_back(id);
    return id;
  }
  void End(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = obs::MonotonicNowNs();
    stack_.pop_back();
  }
  // Children of `parent` with library-measured durations, laid end to end.
  void AddDerived(int parent, const std::vector<std::pair<std::string, double>>& parts) {
    const Span& p = spans_[static_cast<std::size_t>(parent)];
    int64_t cursor = p.start_ns;
    const int epoch = p.epoch;
    for (const auto& [name, seconds] : parts) {
      if (seconds <= 0.0) {
        continue;
      }
      const int64_t end = cursor + static_cast<int64_t>(std::llround(seconds * 1e9));
      spans_.push_back({name, cursor, end, parent, epoch, true});
      cursor = end;
    }
  }
  void Write(JsonWriter& w, int64_t origin_ns) const {
    w.Open("spans", '[');
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      w.Open(nullptr, '{')
          .Int("id", static_cast<int64_t>(i))
          .Str("name", s.name)
          .Int("parent", s.parent)
          .Int("epoch", s.epoch)
          .Num("start_us", static_cast<double>(s.start_ns - origin_ns) * 1e-3)
          .Num("end_us", static_cast<double>(s.end_ns - origin_ns) * 1e-3)
          .Bool("derived", s.derived)
          .Close('}');
    }
    w.Close(']');
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, int epoch)
      : log_(log), id_(log != nullptr ? log->Begin(name, epoch) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

// ---------------------------------------------------------------- inputs

struct Inputs {
  const WorkloadSpec* spec = nullptr;
  Dataset ds;
  DataSplit split;
  uint64_t model_seed = 0;
  uint64_t walk_seed = 0;
  uint64_t partition_seed = 0;
  uint64_t adb_seed = 0;
};

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  Inputs in;
  in.spec = &spec;
  const uint64_t data_seed = DeriveSeed(seed, 1);
  in.ds = std::strcmp(spec.dataset, "imdb") == 0 ? MakeImdbLike(kScale, data_seed)
                                                 : MakeRedditLike(kScale, data_seed);
  Rng split_rng(DeriveSeed(seed, 2));
  in.split = RandomSplit(in.ds.graph.num_vertices(), 0.6, 0.2, split_rng);
  in.model_seed = DeriveSeed(seed, 3);
  in.walk_seed = DeriveSeed(seed, 4);
  in.partition_seed = DeriveSeed(seed, 5);
  in.adb_seed = DeriveSeed(seed, 6);
  return in;
}

// Fresh parameters from the same seed, so every pass starts identically.
GnnModel BuildModel(const Inputs& in) {
  Rng rng(in.model_seed);
  const int64_t dim = in.ds.feature_dim();
  const int64_t classes = in.ds.num_classes;
  if (std::strcmp(in.spec->model, "gcn") == 0) {
    GcnConfig c;
    c.in_dim = dim;
    c.num_classes = classes;
    return MakeGcnModel(c, rng);
  }
  if (std::strcmp(in.spec->model, "pinsage") == 0) {
    PinSageConfig c;
    c.in_dim = dim;
    c.num_classes = classes;
    return MakePinSageModel(c, rng);
  }
  MagnnConfig c;
  c.in_dim = dim;
  c.num_classes = classes;
  return MakeMagnnModel(c, rng);
}

// ---------------------------------------------------------------- passes

// What one pass measured. Epoch 0 is the warm-up; its wall time from engine
// (or runtime) construction is the pass's set-up time.
struct PassResult {
  std::string name;
  int threads = 0;
  const SpanLog* spans = nullptr;  // traced passes only
  double setup_s = 0.0;
  std::vector<double> epoch_s;  // wall time per epoch, epoch 0 excluded
  std::vector<double> loss;
  std::vector<uint32_t> crc;     // logits CRC per epoch (distributed passes)
  std::vector<int> recovered;    // epoch needed crash recovery or a transfer retry
  std::string error;             // what the failing epoch threw, if any
  // Traced and distributed passes: per-epoch records (a JSON array) and the
  // pass's end state (a JSON object).
  std::string layers;
  std::string end_state;
};

void WritePass(JsonWriter& w, const PassResult& p, int64_t origin_ns) {
  w.Open(nullptr, '{')
      .Str("name", p.name)
      .Int("threads", p.threads)
      .Num("setup_s", p.setup_s)
      .NumArray("epoch_s", p.epoch_s)
      .NumArray("loss", p.loss);
  w.Open("loss_bits", '[');
  for (float l : p.loss) {
    w.Int(nullptr, FloatBits(l));
  }
  w.Close(']');
  w.NumArray("crc", p.crc)
      .NumArray("recovered", p.recovered)
      .Str("error", p.error)
      .Raw("layers", p.layers.empty() ? "[]" : p.layers)
      .Raw("end_state", p.end_state.empty() ? "{}" : p.end_state);
  if (p.spans != nullptr) {
    p.spans->Write(w, origin_ns);
  }
  w.Close('}');
}

// Untraced Trainer::Fit. The loop is closed: it stops at the first epoch
// boundary where at least `min_epochs` ran and `seconds` of steady epochs
// elapsed (seconds <= 0 means exactly `min_epochs`).
PassResult RunFitPass(const Inputs& in, const std::string& name, int threads, int min_epochs,
                      double seconds) {
  PassResult r;
  r.name = name;
  r.threads = threads;
  exec::SetNumThreads(threads);
  GnnModel model = BuildModel(in);
  Rng rng(in.walk_seed);
  try {
    const int64_t t0 = obs::MonotonicNowNs();
    Engine engine(in.ds.graph, ExecStrategy::kHybrid);
    int64_t last = t0;
    int64_t steady_start = 0;
    TrainerOptions opts;
    opts.max_epochs = seconds > 0.0 ? 100000 : min_epochs;
    opts.learning_rate = kLearningRate;
    opts.on_epoch = [&](int epoch, float loss, float) {
      const int64_t now = obs::MonotonicNowNs();
      if (epoch == 0) {
        r.setup_s = Seconds(now - t0);
        steady_start = now;
      } else {
        r.epoch_s.push_back(Seconds(now - last));
      }
      last = now;
      r.loss.push_back(loss);
      return epoch + 1 < min_epochs || Seconds(now - steady_start) < seconds;
    };
    Trainer trainer(engine, opts);
    trainer.Fit(model, in.ds.features, in.ds.labels, in.split, rng);
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return r;
}

// Renders one kernel-profile epoch: {kernel: [calls, seconds, bytes, flops]}.
std::string KernelEpochJson() {
  const obs::ProfilerReport report = obs::KernelProfiler::Get().Aggregate();
  JsonWriter w;
  w.Open(nullptr, '{');
  for (const obs::KernelProfileRow& row : report.rows) {
    w.Open(row.name, '[')
        .Int(nullptr, row.calls)
        .Num(nullptr, row.wall_seconds)
        .Int(nullptr, row.total_bytes())
        .Int(nullptr, row.flops)
        .Close(']');
  }
  w.Close('}');
  return w.str();
}

struct TracedStep {
  StageTimes times;
  const Hdg* hdg = nullptr;
  int64_t ensure_hdg_cpu_ns = 0;
  int64_t backward_cpu_ns = 0;
  float loss = 0.0f;
};

// One epoch of Trainer::Fit, written out so each call into the library gets
// its own span under the epoch's root span. Consumes the RNG exactly as Fit
// does, so the loss trajectory must match an untraced pass bit for bit.
TracedStep TracedFitEpoch(const Inputs& in, const GnnModel& model, std::vector<Variable>& params,
                          const SgdOptimizer& opt, Rng& rng, std::unique_ptr<Engine>& engine,
                          SpanLog* spans, int epoch) {
  TracedStep step;
  ScopedSpan epoch_span(spans, "bench.epoch", epoch);
  if (engine == nullptr) {
    ScopedSpan s(spans, "core.engine_construct", epoch);
    engine = std::make_unique<Engine>(in.ds.graph, ExecStrategy::kHybrid);
  }
  {
    ScopedSpan s(spans, "exec.ensure_hdg", epoch);
    const int64_t cpu0 = obs::ProcessCpuNowNs();
    step.hdg = &engine->EnsureHdg(model, rng, &step.times);
    step.ensure_hdg_cpu_ns = obs::ProcessCpuNowNs() - cpu0;
    spans->AddDerived(s.id(), {{"core.neighbor_selection", step.times.neighbor_selection}});
  }
  {
    ScopedSpan s(spans, "tensor.workspace_reset", epoch);
    engine->workspace().Reset();
  }
  Variable logits;
  Variable loss;
  {
    WorkspaceScope ws_scope(&engine->workspace());
    {
      ScopedSpan s(spans, "core.forward", epoch);
      logits = engine->Forward(model, *step.hdg, in.ds.features, &step.times);
      spans->AddDerived(s.id(), {{"core.aggregation", step.times.aggregation},
                                 {"core.update", step.times.update}});
    }
    {
      ScopedSpan s(spans, "core.loss", epoch);
      loss = MaskedSoftmaxCrossEntropy(logits, in.split.train, in.ds.labels);
    }
    {
      ScopedSpan s(spans, "tensor.backward", epoch);
      const int64_t cpu0 = obs::ProcessCpuNowNs();
      loss.Backward();
      step.backward_cpu_ns = obs::ProcessCpuNowNs() - cpu0;
    }
    {
      ScopedSpan s(spans, "tensor.optimize", epoch);
      opt.Step(params);
      SgdOptimizer::ZeroGrad(params);
    }
  }
  {
    ScopedSpan s(spans, "core.accuracy", epoch);
    (void)MaskedAccuracy(logits.value(), in.split.val, in.ds.labels);
  }
  step.loss = loss.value().At(0, 0);
  return step;
}

// Fixed-epoch traced pass: spans from TracedFitEpoch, per-epoch counter
// deltas from the registry, kernel profiler and getrusage, and the arena and
// HDG sizes after each epoch.
PassResult RunTracedFitPass(const Inputs& in, const std::string& name, int threads, int epochs,
                            SpanLog* spans) {
  PassResult r;
  r.name = name;
  r.threads = threads;
  r.spans = spans;
  exec::SetNumThreads(threads);
  GnnModel model = BuildModel(in);
  Rng rng(in.walk_seed);
  std::vector<Variable> params = model.Parameters();
  SgdOptimizer opt(kLearningRate);
  obs::KernelProfiler::Get().Reset();
  simd::SetKernelProfiling(true);
  std::ostringstream layers;
  layers << '[';
  std::unique_ptr<Engine> engine;
  int64_t last = 0;
  try {
    for (int epoch = 0; epoch < epochs; ++epoch) {
      const obs::MetricsSnapshot before = Registry();
      const Usage usage_before = ReadUsage();
      const int64_t start = obs::MonotonicNowNs();
      const TracedStep step = TracedFitEpoch(in, model, params, opt, rng, engine, spans, epoch);
      const StageTimes& times = step.times;
      const Hdg* hdg = step.hdg;
      const int64_t end = obs::MonotonicNowNs();
      r.loss.push_back(step.loss);
      if (epoch == 0) {
        r.setup_s = Seconds(end - start);
      } else {
        r.epoch_s.push_back(Seconds(end - last));
      }
      last = end;

      const obs::MetricsSnapshot after = Registry();
      const Usage usage_after = ReadUsage();
      const ExecutionPlan* plan = engine->plan();
      double leaf_ref_ratio = 1.0;
      if (plan != nullptr && plan->fusion() != nullptr && plan->fusion()->leaf_refs_before > 0) {
        leaf_ref_ratio = static_cast<double>(plan->fusion()->leaf_refs_after) /
                         static_cast<double>(plan->fusion()->leaf_refs_before);
      }
      JsonWriter w;
      w.Open(nullptr, '{')
          .Int("epoch", epoch)
          .Num("neighbor_selection_s", times.neighbor_selection)
          .Num("ensure_hdg_cpu_s", Seconds(step.ensure_hdg_cpu_ns))
          .Num("aggregation_s", times.aggregation)
          .Num("aggregation_cpu_s", HistogramSum(after, "nau.aggregation_cpu_seconds") -
                                        HistogramSum(before, "nau.aggregation_cpu_seconds"))
          .Num("update_s", times.update)
          .Num("backward_cpu_s", Seconds(step.backward_cpu_ns))
          .Int("plan_compiles", CounterValue(after, "exec.plan_compiles") -
                                    CounterValue(before, "exec.plan_compiles"))
          .Int("heap_allocs", CounterValue(after, "exec.alloc_count") -
                                  CounterValue(before, "exec.alloc_count"))
          .Int("minor_faults", usage_after.minor_faults - usage_before.minor_faults)
          .Num("sys_s", usage_after.sys_s - usage_before.sys_s)
          .Int("hdg_roots", hdg->num_roots())
          .Int("hdg_instances", static_cast<int64_t>(hdg->num_instances()))
          .Int("hdg_leaf_refs", static_cast<int64_t>(hdg->num_leaf_refs()))
          .Num("leaf_ref_ratio", leaf_ref_ratio)
          .Int("arena_reserved_bytes", static_cast<int64_t>(engine->workspace().reserved_bytes()))
          .Int("arena_high_water_bytes",
               static_cast<int64_t>(engine->workspace().high_water_bytes()))
          .Int("arena_growths", static_cast<int64_t>(engine->workspace().growth_count()));
      std::string record = w.str();
      record += ",\"kernels\":" + KernelEpochJson() + "}";
      obs::KernelProfiler::Get().Reset();
      layers << (epoch == 0 ? "" : ",") << record;
    }
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  simd::SetKernelProfiling(false);
  layers << ']';
  r.layers = layers.str();
  return r;
}

// ------------------------------------------------------ distributed passes

struct PartitionResult {
  Partitioning parts;
  double balance_before = 0.0;
  double balance_after = 0.0;
  double fit_rms = 0.0;
};

// The paper's partitioning: a label-propagation (PuLP-style) start, then ADB.
PartitionResult PartitionInputs(const Inputs& in, const GnnModel& model, uint32_t workers,
                                SpanLog* spans, int epoch) {
  PartitionResult out;
  Partitioning initial;
  {
    ScopedSpan s(spans, "partition.label_propagation", epoch);
    LabelPropagationParams lp;
    lp.num_parts = workers;
    lp.seed = in.partition_seed;
    initial = LabelPropagationPartition(in.ds.graph, lp);
  }
  ScopedSpan s(spans, "partition.adb", epoch);
  Rng adb_rng(in.adb_seed);
  AdbDriverResult adb = RunAdbBalancing(in.ds.graph, model, initial, in.ds.feature_dim(),
                                        AdbDriverOptions{}, adb_rng);
  out.parts = std::move(adb.partitioning);
  out.balance_before = adb.adb.balance_before;
  out.balance_after = adb.adb.balance_after;
  out.fit_rms = adb.fit_rms;
  return out;
}

DistConfig MakeDistConfig(DistBackend backend) {
  DistConfig config;
  config.strategy = ExecStrategy::kHybrid;
  config.pipeline = true;
  config.backend = backend;
  return config;
}

// Training-split loss of forward-only logits: the distributed workload does
// not train, so its loss readout is that of its forward logits.
float ForwardLoss(const Inputs& in, const Tensor& logits) {
  Variable v = Variable::Leaf(logits);
  return MaskedSoftmaxCrossEntropy(v, in.split.train, in.ds.labels).value().At(0, 0);
}

// One RunEpoch under the epoch's root span. The first epoch also
// partitions the graph and constructs the runtime (which forks the workers on
// the socket backend), so it spans the whole set-up.
DistEpochStats DistEpoch(const Inputs& in, const GnnModel& model, DistBackend backend,
                         uint32_t workers, Rng& rng, std::unique_ptr<DistributedRuntime>& runtime,
                         PartitionResult* partition, Tensor* logits, SpanLog* spans, int epoch) {
  ScopedSpan epoch_span(spans, "bench.epoch", epoch);
  if (runtime == nullptr) {
    *partition = PartitionInputs(in, model, workers, spans, epoch);
    ScopedSpan s(spans, "dist.runtime_construct", epoch);
    runtime = std::make_unique<DistributedRuntime>(in.ds.graph, partition->parts,
                                                   MakeDistConfig(backend));
  }
  ScopedSpan s(spans, "dist.run_epoch", epoch);
  DistEpochStats stats = runtime->RunEpoch(model, in.ds.features, rng, logits);
  if (spans != nullptr) {
    spans->AddDerived(s.id(), {{"dist.neighbor_selection", stats.neighbor_selection_seconds},
                               {"dist.aggregation", stats.aggregation_seconds},
                               {"dist.update", stats.update_seconds}});
  }
  return stats;
}

// Forward epochs of DistributedRuntime::RunEpoch; set-up runs from the
// partitioner's start to the end of the first epoch, and a steady epoch is
// one RunEpoch call. Same stopping rule as RunFitPass. `forward_loss`
// collects every epoch's ForwardLoss when given.
PassResult RunDistPass(const Inputs& in, const std::string& name, DistBackend backend,
                       int threads, uint32_t workers, int min_epochs, double seconds,
                       SpanLog* spans, std::vector<double>* forward_loss) {
  PassResult r;
  r.name = name;
  r.threads = threads;
  r.spans = spans;
  exec::SetNumThreads(threads);
  GnnModel model = BuildModel(in);
  Rng rng(in.walk_seed);
  std::ostringstream layers;
  layers << '[';
  PartitionResult partition;
  try {
    const int64_t t0 = obs::MonotonicNowNs();
    std::unique_ptr<DistributedRuntime> runtime;
    int64_t steady_start = 0;
    for (int epoch = 0;; ++epoch) {
      const obs::MetricsSnapshot before = Registry();
      const Usage usage_before = ReadUsage();
      Tensor logits;
      const int64_t start = obs::MonotonicNowNs();
      const DistEpochStats stats =
          DistEpoch(in, model, backend, workers, rng, runtime, &partition, &logits, spans, epoch);
      const int64_t now = obs::MonotonicNowNs();
      if (epoch == 0) {
        r.setup_s = Seconds(now - t0);
        steady_start = now;
      } else {
        r.epoch_s.push_back(Seconds(now - start));
      }
      r.crc.push_back(LogitsCrc(logits));
      r.recovered.push_back(stats.crashes_recovered > 0 || stats.transfer_retries > 0 ? 1 : 0);
      if (forward_loss != nullptr) {
        forward_loss->push_back(ForwardLoss(in, logits));
      }

      const obs::MetricsSnapshot after = Registry();
      const Usage usage_after = ReadUsage();
      auto delta = [&](const char* counter) {
        return CounterValue(after, counter) - CounterValue(before, counter);
      };
      // In-process workers only (modeled backend); socket workers' HDGs and
      // arenas live in their own processes.
      int64_t roots = 0;
      int64_t instances = 0;
      int64_t leaf_refs = 0;
      int64_t arena_reserved = 0;
      int64_t arena_high_water = 0;
      int64_t arena_growths = 0;
      for (const WorkerState& worker : runtime->workers()) {
        roots += worker.hdg.num_roots();
        instances += static_cast<int64_t>(worker.hdg.num_instances());
        leaf_refs += static_cast<int64_t>(worker.hdg.num_leaf_refs());
        if (worker.workspace != nullptr) {
          arena_reserved += static_cast<int64_t>(worker.workspace->reserved_bytes());
          arena_high_water += static_cast<int64_t>(worker.workspace->high_water_bytes());
          arena_growths += static_cast<int64_t>(worker.workspace->growth_count());
        }
      }
      JsonWriter w;
      w.Open(nullptr, '{')
          .Int("epoch", epoch)
          .Num("neighbor_selection_s", stats.neighbor_selection_seconds)
          .Num("aggregation_s", stats.aggregation_seconds)
          .Num("update_s", stats.update_seconds)
          .Num("makespan_s", stats.makespan_seconds)
          .Num("comm_bytes", stats.comm_bytes_total)
          .Num("comm_s", stats.comm_seconds)
          .Num("merge_s", stats.merge_seconds)
          .Num("overlap_s", stats.pipeline_overlap_seconds)
          .NumArray("per_worker_aggregation_s", stats.per_worker_aggregation_seconds)
          .Int("transfer_retries", stats.transfer_retries)
          .Int("crashes_recovered", stats.crashes_recovered)
          .Int("frames_sent", delta("transport.frames_sent"))
          .Int("bytes_sent", delta("transport.bytes_sent"))
          .Int("channel_errors", delta("transport.channel_errors"))
          .Int("reconnects", delta("transport.reconnects"))
          .Int("worker_deaths", delta("dist.worker_deaths"))
          .Int("minor_faults", usage_after.minor_faults - usage_before.minor_faults)
          .Num("sys_s", usage_after.sys_s - usage_before.sys_s)
          .Int("hdg_roots", roots)
          .Int("hdg_instances", instances)
          .Int("hdg_leaf_refs", leaf_refs)
          .Int("arena_reserved_bytes", arena_reserved)
          .Int("arena_high_water_bytes", arena_high_water)
          .Int("arena_growths", arena_growths)
          .Close('}');
      layers << (epoch == 0 ? "" : ",") << w.str();
      if (epoch + 1 >= min_epochs && Seconds(now - steady_start) >= seconds) {
        break;
      }
    }
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  layers << ']';
  r.layers = layers.str();
  JsonWriter w;
  w.Open(nullptr, '{')
      .Num("balance_before", partition.balance_before)
      .Num("balance_after", partition.balance_after)
      .Num("fit_rms", partition.fit_rms)
      .Close('}');
  r.end_state = w.str();
  return r;
}

// ---------------------------------------------------------------- main

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 12.0;
  int trace = 0;
  std::string out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v);
    } else if (k == "--trace") {
      a->trace = std::atoi(v);
    } else if (k == "--out") {
      a->out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && !a->out.empty();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: fg_perfbench --workload W --seed N --seconds S --trace 0|1 "
                 "--out PATH\n");
    return 2;
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) {
      spec = &w;
    }
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  // No hardware-counter or roofline probes: they add start-up time and read
  // nothing the benchmark reports.
  setenv("FLEXGRAPH_PERF", "off", 1);
  setenv("FLEXGRAPH_ROOFLINE_PROBE", "off", 1);
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  // Kernel threads of the single-machine workloads, and socket worker
  // processes at one kernel thread each (one core is left to the supervisor).
  const int threads = std::min(nproc, 4);
  const auto workers = static_cast<uint32_t>(std::max(2, threads - 1));

  const int64_t gen0 = obs::MonotonicNowNs();
  const Inputs in = MakeInputs(*spec, args.seed);
  const double input_s = Seconds(obs::MonotonicNowNs() - gen0);

  std::vector<PassResult> passes;
  std::vector<SpanLog> span_logs;
  std::vector<double> forward_loss;  // distributed workload only
  // Peak resident memory of this process and of its largest worker process,
  // read after the first pass, before anything else ran in this process.
  double peak_rss_mb = 0.0;
  double worker_peak_rss_mb = 0.0;
  auto record_peaks = [&]() {
    if (passes.size() == 1) {
      peak_rss_mb = MaxRssMb(RUSAGE_SELF);
      worker_peak_rss_mb = MaxRssMb(RUSAGE_CHILDREN);
    }
  };
  const double segment_s = args.seconds / kRounds;
  const int fixed = kFixedEpochs;
  if (!spec->socket) {
    if (args.trace == 0) {
      for (int round = 0; round < kRounds; ++round) {
        passes.push_back(RunFitPass(in, "timed", threads, kMinTimedEpochs, segment_s));
        record_peaks();
        passes.push_back(RunFitPass(in, "serial", 1, kMinSerialEpochs, segment_s / 2));
      }
    } else {
      passes.push_back(RunFitPass(in, "untraced", threads, fixed, 0.0));
      record_peaks();
      span_logs.resize(2);
      passes.push_back(RunTracedFitPass(in, "traced", threads, fixed, &span_logs[0]));
      passes.push_back(RunTracedFitPass(in, "recheck", threads, kRecheckEpochs, &span_logs[1]));
    }
  } else {
    if (args.trace == 0) {
      // The one-thread segments run the same partitioned epochs in this
      // process on the modeled backend: the serial baseline and the logits
      // reference for the socket cluster.
      for (int round = 0; round < kRounds; ++round) {
        passes.push_back(RunDistPass(in, "timed", DistBackend::kSocket, 1, workers,
                                     kMinTimedEpochs, segment_s, nullptr, nullptr));
        record_peaks();
        passes.push_back(RunDistPass(in, "serial", DistBackend::kModeled, 1, workers,
                                     kMinSerialEpochs, segment_s / 2, nullptr, nullptr));
      }
    } else {
      span_logs.resize(2);
      passes.push_back(RunDistPass(in, "untraced", DistBackend::kSocket, 1, workers, fixed, 0.0,
                                   nullptr, nullptr));
      record_peaks();
      passes.push_back(RunDistPass(in, "traced", DistBackend::kSocket, 1, workers, fixed, 0.0,
                                   &span_logs[0], &forward_loss));
      passes.push_back(RunDistPass(in, "recheck", DistBackend::kSocket, 1, workers,
                                   kRecheckEpochs, 0.0, &span_logs[1], nullptr));
      // In-process modeled runs expose the workers' HDGs and arenas; two of
      // them re-check those counts.
      for (int i = 0; i < 2; ++i) {
        passes.push_back(RunDistPass(in, "reference", DistBackend::kModeled, threads, workers,
                                     kRecheckEpochs, 0.0, nullptr, nullptr));
      }
    }
  }

  JsonWriter w;
  w.Open(nullptr, '{')
      .Str("workload", spec->name)
      .Int("seed", static_cast<int64_t>(args.seed))
      .Int("trace", args.trace)
      .Num("seconds", args.seconds)
      .Int("threads", threads)
      .Int("workers", spec->socket ? workers : 1)
      .Int("fixed_epochs", fixed)
      .Int("nproc", nproc)
      .Str("isa", simd::IsaName(simd::ActiveIsa()))
      .Num("input_s", input_s)
      .Open("shape", '{')
      .Int("vertices", in.ds.graph.num_vertices())
      .Int("edges", static_cast<int64_t>(in.ds.graph.num_edges()))
      .Int("feature_dim", in.ds.feature_dim())
      .Int("classes", in.ds.num_classes)
      .Close('}')
      .Num("peak_rss_mb", peak_rss_mb)
      .Num("worker_peak_rss_mb", worker_peak_rss_mb)
      .NumArray("forward_loss", forward_loss);
  w.Open("passes", '[');
  for (const PassResult& p : passes) {
    WritePass(w, p, gen0);
  }
  w.Close(']').Close('}');
  std::ofstream out(args.out);
  out << w.str() << '\n';
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", args.out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
