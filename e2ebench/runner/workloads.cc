#include "runner/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>

#include "core/kernels/kernels.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "data/columnar.h"
#include "data/csv.h"
#include "runner/inputs.h"
#include "runner/measure.h"
#include "runner/open_loop.h"
#include "runner/trace.h"
#include "eval/suite.h"
#include "obs/metrics.h"
#include "serve/csv_stream.h"
#include "serve/engine.h"
#include "serve/registry.h"
#include "synth/synthesizer.h"

namespace e2ebench {

namespace {

namespace data = daisy::data;
namespace synth = daisy::synth;
namespace transform = daisy::transform;
using daisy::Rng;
using daisy::Status;
using Synth = synth::TableSynthesizer;

// Rows per generation chunk; also the serving engine's chunk size.
constexpr size_t kChunkRows = 512;
// Set-up repetitions; setup_s is their median.
constexpr size_t kSetupReps = 5;
// Base seed of model initialisation and training. It is part of the
// configuration, not of the inputs: --seed changes only the data and
// the request schedule, so the work a run does is the same for any seed.
constexpr uint64_t kModelSeed = 17;

// ---------------------------------------------------------------- points

struct Point {
  std::string name;
  synth::GanOptions gan;
  transform::TransformOptions topts;
};

// Design points of the paper's space (Figure 3). Networks keep the
// library defaults; only the iteration count is sized per workload.
Point MakePoint(const std::string& name, size_t iterations,
                uint64_t model_seed) {
  Point p;
  p.name = name;
  p.gan.iterations = iterations;
  p.gan.snapshots = 1;
  p.gan.seed = model_seed;
  if (name == "mlp_vtrain") {
    p.gan.algo = synth::TrainAlgo::kVTrain;
  } else if (name == "mlp_wtrain") {
    p.gan.algo = synth::TrainAlgo::kWTrain;
  } else if (name == "lstm_wtrain") {
    p.gan.generator = synth::GeneratorArch::kLstm;
    p.gan.algo = synth::TrainAlgo::kWTrain;
  } else if (name == "mlp_ctrain") {
    p.gan.algo = synth::TrainAlgo::kCTrain;
    p.gan.conditional = true;
    p.topts.exclude_label = true;
  } else if (name == "mlp_dptrain") {
    p.gan.algo = synth::TrainAlgo::kDPTrain;
    p.gan.dp_engine = synth::DpEngineKind::kVectorized;
  } else {
    std::fprintf(stderr, "e2ebench: unknown design point %s\n", name.c_str());
    std::abort();
  }
  return p;
}

const char* const kSweepPoints[] = {"mlp_vtrain", "lstm_wtrain", "mlp_ctrain",
                                    "mlp_dptrain"};

// Nominal training FLOPs of an MLP-G/MLP-D model: multiply-adds of the
// Linear layers only (shapes x batch x updates), forward = 2 FLOP per
// MAC, backward = 4. Computed from the configuration, not measured;
// activations, heads, BatchNorm and DP per-sample work are left out.
double MlpTrainFlops(const Synth& m) {
  const synth::GanOptions& o = m.options();
  if (o.generator != synth::GeneratorArch::kMlp ||
      o.discriminator != synth::DiscriminatorArch::kMlp)
    return 0.0;
  const size_t sample = m.transformer().sample_dim();
  const size_t cond = o.conditional ? m.schema().num_labels() : 0;
  auto macs = [](size_t in, const std::vector<size_t>& hidden, size_t out) {
    double s = 0.0;
    size_t prev = in;
    for (size_t h : hidden) {
      s += static_cast<double>(prev) * h;
      prev = h;
    }
    return s + static_cast<double>(prev) * out;
  };
  const double g = macs(o.noise_dim + cond, o.g_hidden, sample);
  const double d = macs(sample + cond, o.d_hidden, 1);
  const double b = static_cast<double>(o.batch_size);
  // D step: G forward (B), D forward + backward on real and fake (2B).
  const double d_step = b * (2 * g + 2 * 2 * d + 4 * 2 * d);
  // G step: G forward + backward, D forward + backward (B).
  const double g_step = b * (6 * g + 6 * d);
  const double per_iter =
      o.algo == synth::TrainAlgo::kCTrain
          ? m.schema().num_labels() * (d_step + g_step)
          : std::max<size_t>(1, o.d_steps) * d_step + g_step;
  return per_iter * static_cast<double>(o.iterations);
}

// Appends src's records to *dst (adopting src's schema when *dst is
// still empty).
void AppendRows(const data::Table& src, data::Table* dst) {
  if (dst->num_attributes() == 0) *dst = data::Table(src.schema());
  std::vector<double> row(src.num_attributes());
  for (size_t i = 0; i < src.num_records(); ++i) {
    for (size_t j = 0; j < row.size(); ++j) row[j] = src.value(i, j);
    dst->AppendRecord(row);
  }
}

// Digest of the exact reply a serving request for (m, rows, seed)
// must produce: header plus every generated row as CSV.
std::string SoloCsvDigest(const Synth& m, size_t rows, uint64_t seed) {
  Digest d;
  d.Update(daisy::serve::CsvHeader(m.schema()));
  Rng rng(seed);
  m.GenerateChunked(rows, kChunkRows, &rng, [&](const data::Table& chunk) {
    d.Update(daisy::serve::CsvRows(chunk));
  });
  return d.Hex();
}

// --------------------------------------------------------------- session

// Samples of one end-to-end metric. A sample is the total time of
// some timed steps, or `rows` rows over that total when rows > 0. The
// reported values are scaled to the reference host speed (StepTimer);
// the wall-clock values go to the metadata.
struct Samples {
  struct Sample {
    std::vector<StepTimer> steps;
    double rows = 0.0;
  };
  std::vector<Sample> samples;

  void AddTime(std::vector<StepTimer> steps) {
    for (StepTimer& t : steps) t.Stop();
    samples.push_back({std::move(steps), 0.0});
  }
  void AddRate(double rows, std::vector<StepTimer> steps) {
    for (StepTimer& t : steps) t.Stop();
    samples.push_back({std::move(steps), rows});
  }
  // Every sample's value, scaled or on the wall clock. Read at the end
  // of the run (see StepTimer::scaled_s).
  std::vector<double> Values(bool scaled) const {
    std::vector<double> out;
    for (const Sample& x : samples) {
      double secs = 0.0;
      for (const StepTimer& t : x.steps) secs += scaled ? t.scaled_s() : t.wall_s();
      out.push_back(x.rows > 0.0 ? x.rows / secs : secs);
    }
    return out;
  }
};

// What one run measured, checked and traced. The workloads call the
// library only through these methods, which time, span and check each
// call.
class Session {
 public:
  explicit Session(const RunConfig& cfg) : cfg_(cfg) {}

  const RunConfig& cfg() const { return cfg_; }
  Tracer& tracer() { return tracer_; }
  bool traced() const { return tracer_.enabled(); }
  std::string WorkPath(const std::string& name) const {
    return cfg_.work_dir + "/" + name;
  }

  // Counts one attempted operation; a false `ok` counts it as failed.
  bool Check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "e2ebench: FAILED %s\n", what.c_str());
    }
    return ok;
  }
  bool CheckStatus(const Status& st, const std::string& what) {
    return Check(st.ok(), what + (st.ok() ? "" : ": " + st.ToString()));
  }

  // Input to saved model, in memory. Returns the fitted model; *timer
  // receives the timed step.
  std::unique_ptr<Synth> Fit(const Point& p, const data::Table& train,
                             const std::string& model_path,
                             StepTimer* timer) {
    StepTimer t;
    auto m = FitAndSave(p, train, model_path);
    t.Stop();
    *timer = t;
    return m;
  }

  // Input CSV to saved model through the out-of-core path: convert to
  // .dcol, open it paged, fit from pages, save; *timer receives the
  // timed step. `real_head` receives the first `head_rows` input
  // records (the evaluation's real side).
  std::unique_ptr<Synth> FitPaged(const Point& p, const std::string& csv,
                                  const std::string& label,
                                  size_t page_rows,
                                  const std::string& model_path,
                                  size_t head_rows, data::Table* real_head,
                                  StepTimer* timer) {
    StepTimer t;
    const std::string dcol = WorkPath("input.dcol");
    {
      ScopedSpan span(&tracer_, "data.convert");
      CheckStatus(data::ConvertCsvToColumnar(csv, dcol, label, page_rows),
                  "convert");
    }
    data::PagedTable::Options popts;
    popts.page_budget = kPageBudget;
    std::unique_ptr<data::PagedTable> paged;
    {
      ScopedSpan span(&tracer_, "data.open");
      auto opened = data::PagedTable::Open(dcol, popts);
      if (!CheckStatus(opened.status(), "open paged input")) return nullptr;
      paged = opened.take();
    }
    auto m = FitAndSave(p, *paged, model_path);
    t.Stop();
    *timer = t;
    if (traced()) {
      const auto& st = paged->cache_stats();
      page_hits_ += st.hits;
      page_misses_ += st.misses;
      page_evictions_ += st.evictions;
    }
    std::vector<size_t> rows(std::min(head_rows, paged->num_records()));
    for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
    auto cells = paged->GatherRows(rows);
    if (CheckStatus(cells.status(), "gather input head")) {
      *real_head = data::Table(paged->schema());
      std::vector<double> row(paged->num_attributes());
      for (size_t i = 0; i < rows.size(); ++i) {
        for (size_t j = 0; j < row.size(); ++j) row[j] = cells.value()(i, j);
        real_head->AppendRecord(row);
      }
    }
    return m;
  }

  void Save(const Synth& m, const std::string& path) {
    ScopedSpan span(&tracer_, "synth.save");
    CheckStatus(m.Save(path), "save " + path);
  }

  // Loads the model saved at `path` and checks that it generates the
  // same bytes as `m` for a seeded row count.
  std::unique_ptr<Synth> LoadChecked(const Synth& m, const std::string& path,
                                     uint64_t seed) {
    std::unique_ptr<Synth> loaded;
    {
      ScopedSpan span(&tracer_, "synth.load");
      auto r = Synth::Load(path);
      if (!CheckStatus(r.status(), "load " + path)) return nullptr;
      loaded = r.take();
    }
    const size_t rows = 200 + seed % 400;
    const std::string a = SoloCsvDigest(m, rows, seed);
    const std::string b = SoloCsvDigest(*loaded, rows, seed);
    Check(a == b, "Load(Save(m)) generates the bytes of m: " + path);
    RecordDigest("load_save." + std::filesystem::path(path).stem().string() +
                     "." + std::to_string(m.options().seed),
                 a);
    return loaded;
  }

  // Generates `rows` rows as CSV bytes, checking that all `rows` were
  // delivered, and returns the stopped timer of the generation (which
  // starts after the CSV header). Untraced this is
  // one GenerateChunked call; traced it is the same work as its four
  // public steps, each in its own span, and the two must give the same
  // bytes (RecordDigest). The first `keep_rows` decoded rows are
  // appended to *keep.
  StepTimer GenerateCsv(const Synth& m, size_t rows, uint64_t seed,
                        const std::string& key, size_t keep_rows = 0,
                        data::Table* keep = nullptr) {
    Digest d;
    Rng rng(seed);
    size_t kept = 0, produced = 0;
    auto take = [&](const data::Table& chunk) {
      produced += chunk.num_records();
      if (keep == nullptr || kept >= keep_rows) return;
      const size_t n = std::min(chunk.num_records(), keep_rows - kept);
      AppendRows(n == chunk.num_records() ? chunk : chunk.Head(n), keep);
      kept += n;
    };
    d.Update(daisy::serve::CsvHeader(m.schema()));
    StepTimer timer;
    if (!traced()) {
      m.GenerateChunked(rows, kChunkRows, &rng, [&](const data::Table& c) {
        d.Update(daisy::serve::CsvRows(c));
        take(c);
      });
    } else {
      ScopedSpan all(&tracer_, "synth.generate_csv");
      for (size_t done = 0; done < rows;) {
        const size_t n = std::min(kChunkRows, rows - done);
        daisy::Matrix z, cond, samples;
        std::vector<size_t> labels;
        data::Table chunk;
        std::string csv;
        {
          ScopedSpan s(&tracer_, "synth.draw_latents");
          m.DrawLatents(n, &rng, &z, &cond, &labels);
        }
        {
          ScopedSpan s(&tracer_, "nn.infer");
          samples = m.InferenceSamples(z, cond);
        }
        {
          ScopedSpan s(&tracer_, "transform.decode");
          chunk = m.DecodeRows(samples, labels);
        }
        {
          ScopedSpan s(&tracer_, "data.csv_encode");
          csv = daisy::serve::CsvRows(chunk);
        }
        d.Update(csv);
        take(chunk);
        done += n;
      }
    }
    timer.Stop();
    Check(produced == rows, "generate " + key + ": " +
                                std::to_string(produced) + " of " +
                                std::to_string(rows) + " rows");
    RecordDigest("gen." + key, d.Hex());
    return timer;
  }

  // Runs the paper's evaluation suite; returns its stopped timer.
  StepTimer Evaluate(const data::Table& real, const data::Table& fake,
                     const std::string& what) {
    daisy::eval::EvaluationSuite suite;
    daisy::Result<daisy::eval::SuiteReport> report = Status::OK();
    StepTimer timer;
    {
      ScopedSpan span(&tracer_, "eval.suite");
      report = suite.Run(real, fake);
    }
    timer.Stop();
    if (!CheckStatus(report.status(), "eval " + what)) return timer;
    bool finite = !report.value().metrics.empty();
    for (const auto& m : report.value().metrics) {
      finite = finite && std::isfinite(m.value);
      if (!traced()) continue;
      const std::string section = m.name.substr(0, m.name.find('.'));
      eval_section_s_[section] += m.wall_ms / 1e3;
    }
    Check(finite, "every suite metric finite: " + what);
    return timer;
  }

  // Serves one phase of the open-loop schedule against `registry` and
  // records every request's timing and the phase's p50 and p99 latency.
  // A seeded sample of replies is compared with a solo generation of
  // the same (model, rows, seed).
  void Serve(const daisy::serve::ModelRegistry& registry,
             const std::vector<std::string>& names, uint64_t seed) {
    const std::vector<Arrival> arrivals = MakeArrivals(names.size(), seed);
    std::vector<double> due(arrivals.size());
    for (size_t i = 0; i < due.size(); ++i) due[i] = arrivals[i].due_s;
    std::vector<Digest> replies(arrivals.size());
    OpenLoop loop(due);
    daisy::serve::ServeEngine::Options eopts;
    eopts.chunk_rows = kChunkRows;
    daisy::serve::ServeEngine engine(&registry, eopts);
    engine.Start();
    std::vector<RequestTiming> timings = loop.Run([&](size_t i) {
      const Arrival& a = arrivals[i];
      ScopedSpan span(&tracer_, "serve.submit", static_cast<int64_t>(i));
      const Status st = engine.SubmitGen(
          names[a.model], a.rows, a.seed,
          [&replies, &loop, i](const std::string& bytes, bool done) {
            if (done) {
              loop.Done(i, true);
            } else {
              replies[i].Update(bytes);
              loop.Chunk(i);
            }
          });
      return CheckStatus(st, "submit request");
    });
    engine.Drain();
    Digest all;
    std::vector<double> latency;
    for (size_t i = 0; i < timings.size(); ++i) {
      Check(timings[i].ok, "request " + std::to_string(i));
      all.UpdateU64(replies[i].value());
      latency.push_back(timings[i].latency_ms());
      requests_.push_back(timings[i]);
      if (traced()) {
        traced_requests_.push_back(timings[i]);
        tracer_.Add("serve.queue_wait", timings[i].due_s, timings[i].first_s,
                    static_cast<int64_t>(i));
        tracer_.Add("serve.service", timings[i].first_s, timings[i].done_s,
                    static_cast<int64_t>(i));
      }
    }
    RecordDigest("serve." + std::to_string(seed), all.Hex());
    const std::optional<double> p99 = TailPercentile(latency, 0.99);
    if (Check(p99.has_value(), "at least 1000 requests in a serving phase")) {
      request_p50_ms.push_back(Median(latency));
      request_p99_ms.push_back(*p99);
    }
    Rng pick(seed ^ 0x5eedULL);
    for (int k = 0; k < 8 && !arrivals.empty(); ++k) {
      const size_t i = pick.UniformInt(arrivals.size());
      const Arrival& a = arrivals[i];
      const std::string want =
          SoloCsvDigest(*registry.Find(names[a.model]), a.rows, a.seed);
      Check(replies[i].Hex() == want,
            "served reply equals solo GenerateChunked: request " +
                std::to_string(i));
    }
  }

  // ---- samples of the end-to-end metrics
  Samples setup_s, fit_s, eval_s, gen_rows_per_s;
  // Wall-clock request latencies, one sample per serving phase.
  std::vector<double> request_p50_ms, request_p99_ms;
  const std::vector<RequestTiming>& requests() const { return requests_; }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::map<std::string, std::string>& digests() const {
    return digests_;
  }

  // Per-layer metrics of a traced run.
  void LayerMetrics(std::vector<Metric>* out) const;

 private:
  // Records an output digest under `key`. A key names one output (the
  // model, rows and seed behind it), so a key recorded twice — by the
  // untraced and traced passes of the tracing probe, or by repeated
  // set-ups — must carry the same bytes.
  void RecordDigest(const std::string& key, const std::string& hex) {
    auto [it, fresh] = digests_.emplace(key, hex);
    if (!fresh) Check(it->second == hex, "same output bytes: " + key);
  }

  // Fits `p` on `train` (a Table or a PagedTable) and saves the model.
  // Traced, a MemorySink collects the trainer's telemetry.
  template <typename Source>
  std::unique_ptr<Synth> FitAndSave(const Point& p, const Source& train,
                                    const std::string& model_path) {
    auto m = std::make_unique<Synth>(p.gan, p.topts);
    daisy::obs::MemorySink sink;
    double fit_s = 0.0;
    {
      ScopedSpan span(&tracer_, "synth.fit");
      const double t = NowS();
      CheckStatus(m->Fit(train, traced() ? &sink : nullptr),
                  "fit health " + p.name);
      fit_s = NowS() - t;
    }
    Save(*m, model_path);
    RecordTraining(p, *m, sink, fit_s);
    return m;
  }

  // Splits a traced Fit into training (the trainer's own wall clock,
  // from its last telemetry record) and the transformer fit around it.
  void RecordTraining(const Point& p, const Synth& m,
                      const daisy::obs::MemorySink& sink, double fit_s) {
    if (!traced() || sink.records().empty()) return;
    const double train_s = sink.records().back().wall_ms / 1e3;
    train_s_ += train_s;
    train_s_by_point_[p.name] += train_s;
    transform_fit_s_ += fit_s - train_s;
    for (const auto& r : sink.records()) iter_ms_.push_back(r.iter_ms);
    const double flops = MlpTrainFlops(m);
    if (flops > 0.0) {
      mlp_flops_ += flops;
      mlp_train_s_ += train_s;
    }
  }

  const RunConfig& cfg_;
  Tracer tracer_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, std::string> digests_;
  std::vector<RequestTiming> requests_;

  // Per-layer accumulators, filled only while tracing.
  double train_s_ = 0.0, transform_fit_s_ = 0.0;
  double mlp_flops_ = 0.0, mlp_train_s_ = 0.0;
  std::map<std::string, double> train_s_by_point_;
  std::vector<double> iter_ms_;
  uint64_t page_hits_ = 0, page_misses_ = 0, page_evictions_ = 0;
  std::map<std::string, double> eval_section_s_;
  std::vector<RequestTiming> traced_requests_;
};

void Session::LayerMetrics(std::vector<Metric>* out) const {
  const auto totals = tracer_.Totals();
  auto span_s = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_s;
  };
  auto add = [&](const std::string& name, double v, const char* unit) {
    out->push_back({name, v, unit});
  };
  const double lookups = static_cast<double>(page_hits_ + page_misses_);
  add("data.convert_s", span_s("data.convert"), "s");
  add("data.page_hits", static_cast<double>(page_hits_), "count");
  add("data.page_misses", static_cast<double>(page_misses_), "count");
  add("data.page_evictions", static_cast<double>(page_evictions_), "count");
  add("data.page_hit_ratio", lookups > 0 ? page_hits_ / lookups : 0.0,
      "ratio");
  add("data.csv_encode_s", span_s("data.csv_encode"), "s");
  add("transform.fit_s", transform_fit_s_, "s");
  add("transform.decode_s", span_s("transform.decode"), "s");
  add("synth.train_s", train_s_, "s");
  add("synth.iter_ms_p50", Median(iter_ms_), "ms");
  for (const char* p : kSweepPoints) {
    auto it = train_s_by_point_.find(p);
    add(std::string("synth.train_s.") + p,
        it == train_s_by_point_.end() ? 0.0 : it->second, "s");
  }
  add("synth.save_s", span_s("synth.save"), "s");
  add("synth.load_s", span_s("synth.load"), "s");
  add("synth.draw_latents_s", span_s("synth.draw_latents"), "s");
  add("nn.infer_s", span_s("nn.infer"), "s");
  add("nn.train_gflop_per_s",
      mlp_train_s_ > 0 ? mlp_flops_ / mlp_train_s_ / 1e9 : 0.0, "GFLOP/s");
  std::vector<double> wait, service, chunks, late;
  for (const RequestTiming& t : traced_requests_) {
    wait.push_back(t.queue_wait_ms());
    service.push_back(t.service_ms());
    chunks.push_back(static_cast<double>(t.chunks));
    late.push_back((t.sent_s - t.due_s) * 1e3);
  }
  // Open-loop latency, every request timed from its due time: the
  // median over serving phases of each phase's p50 and p99.
  add("request_p50_ms", Median(request_p50_ms), "ms");
  add("request_p99_ms", Median(request_p99_ms), "ms");
  add("serve.queue_wait_ms_p99", TailPercentile(wait, 0.99).value_or(0.0),
      "ms");
  add("serve.service_ms_p50", Median(service), "ms");
  double chunk_sum = 0.0;
  for (double c : chunks) chunk_sum += c;
  add("serve.chunks_per_request",
      chunks.empty() ? 0.0 : chunk_sum / chunks.size(), "count");
  add("serve.generator_late_ms_max",
      late.empty() ? 0.0 : *std::max_element(late.begin(), late.end()), "ms");
  for (const char* s : {"utility", "clustering", "fidelity", "privacy", "aqp"}) {
    auto it = eval_section_s_.find(s);
    add(std::string("eval.") + s + "_s",
        it == eval_section_s_.end() ? 0.0 : it->second, "s");
  }
}

// ------------------------------------------------------------- workloads

// Number of repetitions of a step estimated at `step_s` seconds that fit
// in `seconds` (at least one). The plan depends only on the requested
// run length, never on measured speed, so two commits do the same work.
size_t Reps(double seconds, double step_s) {
  return std::max<size_t>(
      1, static_cast<size_t>(std::max(0.0, seconds / step_s + 0.5)));
}

class Workload {
 public:
  explicit Workload(Session* s) : s_(s) {}
  virtual ~Workload() = default;
  // One set-up repetition; false when it failed.
  virtual bool Setup() = 0;
  // The timed work planned for `seconds`.
  virtual void Timed(double seconds) = 0;
  // An MLP model the timed region generated from; the tracing-overhead
  // probe generates from it too.
  virtual const Synth* ProbeModel() const = 0;
  // Set-up repetitions; setup_s is their median.
  virtual size_t SetupReps() const { return kSetupReps; }

 protected:
  uint64_t seed() const { return s_->cfg().seed; }
  Session* s_;
};

// ingest_paged: a seeded 50k-row Adult-like CSV, streamed to disk in
// set-up, then CSV -> .dcol -> PagedTable -> paged Fit (chunked
// sampler, few iterations) -> Save, and a release generated from the
// saved model. The streaming GMM fit of the transformer and the page
// cache do almost all of the work.
class IngestPaged : public Workload {
 public:
  static constexpr size_t kRows = 50000;
  static constexpr size_t kPageRows = 4096;
  static constexpr size_t kIterations = 10;
  // The release: kReleaseParts files of kPartRows rows, each timed and
  // its first kEvalRows rows evaluated against the input head.
  static constexpr size_t kReleaseParts = 4;
  static constexpr size_t kPartRows = 100000;
  static constexpr size_t kEvalRows = 4000;
  static constexpr double kRepS = 30.0;

  using Workload::Workload;

  bool Setup() override {
    csv_ = s_->WorkPath("input.csv");
    return s_->CheckStatus(WriteAdultCsv(csv_, kRows, seed(), &label_),
                           "write input csv");
  }

  void Timed(double seconds) override {
    const size_t reps = Reps(seconds, kRepS);
    const std::string model = s_->WorkPath("ingest.daisy");
    for (size_t r = 0; r < reps; ++r) {
      Point p = MakePoint("mlp_vtrain", kIterations, kModelSeed + r);
      p.gan.sampler = synth::SamplerKind::kChunkedShuffle;
      p.gan.shuffle_chunk_rows = kPageRows;
      data::Table real_head;
      StepTimer fit;
      auto m = s_->FitPaged(p, csv_, label_, kPageRows, model, kEvalRows,
                            &real_head, &fit);
      if (m == nullptr) return;
      s_->fit_s.AddTime({fit});
      loaded_ = s_->LoadChecked(*m, model, seed() + r);
      if (loaded_ == nullptr) return;
      for (size_t part = 0; part < kReleaseParts; ++part) {
        const uint64_t part_seed = seed() + r * kReleaseParts + part;
        data::Table fake;
        StepTimer gen =
            s_->GenerateCsv(*loaded_, kPartRows, part_seed,
                            "release." + std::to_string(part_seed), kEvalRows,
                            &fake);
        s_->gen_rows_per_s.AddRate(kPartRows, {gen});
        s_->eval_s.AddTime({s_->Evaluate(real_head, fake, "release")});
      }
    }
  }

  const Synth* ProbeModel() const override { return loaded_.get(); }

 private:
  std::string csv_, label_;
  std::unique_ptr<Synth> loaded_;
};

// design_sweep: a few-thousand-row in-memory table and four design
// points, each Fit -> Save -> Load -> Generate -> EvaluationSuite::Run.
// Training (synth/nn/kernels/dp_engine) and evaluation do almost all
// of the work; the data layer does nearly none.
class DesignSweep : public Workload {
 public:
  static constexpr size_t kRows = 3000;
  static constexpr size_t kGenRows = 10000;
  static constexpr double kPassS = 13.0;

  using Workload::Workload;

  static size_t Iterations(const std::string& point) {
    if (point == "lstm_wtrain") return 12;
    if (point == "mlp_ctrain") return 60;
    return 100;
  }

  // Set-up loads the input the way a sweep does: write the seeded
  // kRows-row table as CSV and read it back. It lasts tens of
  // milliseconds, so it is repeated more often than the other set-ups.
  bool Setup() override {
    const std::string csv = s_->WorkPath("sweep.csv");
    const data::Table made = MakeAdultTable(kRows, seed());
    if (!s_->CheckStatus(data::WriteCsv(made, csv), "write input csv"))
      return false;
    ScopedSpan span(&s_->tracer(), "data.read_csv");
    auto read = data::ReadCsv(csv, made.schema().label_attribute().name);
    if (!s_->CheckStatus(read.status(), "read input csv")) return false;
    table_ = read.take();
    return true;
  }
  size_t SetupReps() const override { return 20; }

  void Timed(double seconds) override {
    const size_t passes = Reps(seconds - 4.0, kPassS);
    for (size_t pass = 0; pass < passes; ++pass) {
      // One sample per pass: the sweep's totals.
      std::vector<StepTimer> fit, gen, eval;
      for (const char* name : kSweepPoints) {
        const Point p = MakePoint(name, Iterations(name), kModelSeed + pass);
        const std::string path = s_->WorkPath(std::string(name) + ".daisy");
        fit.emplace_back();
        auto m = s_->Fit(p, table_, path, &fit.back());
        auto loaded = s_->LoadChecked(*m, path, seed() + pass);
        if (loaded == nullptr) return;
        data::Table fake;
        gen.push_back(s_->GenerateCsv(
            *loaded, kGenRows, seed() + pass,
            std::string(name) + "." + std::to_string(pass), kRows, &fake));
        eval.push_back(s_->Evaluate(table_, fake, name));
        if (p.name == "mlp_vtrain") probe_ = std::move(loaded);
      }
      s_->fit_s.AddTime(fit);
      s_->eval_s.AddTime(eval);
      s_->gen_rows_per_s.AddRate(static_cast<double>(kGenRows * gen.size()),
                                 gen);
    }
  }

  const Synth* ProbeModel() const override { return probe_.get(); }

 private:
  data::Table table_;
  std::unique_ptr<Synth> probe_;
};

// serve_open: set-up trains and saves two small MLP models and loads
// them through ModelRegistry; nothing trains in the timed region. It
// runs bulk GenerateChunked to CSV (gen_rows_per_s), seeded open-loop
// arrivals into ServeEngine::SubmitGen at a fixed rate (the request
// latencies; see open_loop.h), and evaluations of generated rows.
// Inference, decode and CSV encoding do almost all of the work.
class ServeOpen : public Workload {
 public:
  static constexpr size_t kTrainRows = 3000;
  static constexpr size_t kIterations = 60;
  static constexpr size_t kBulkRows = 20000;
  static constexpr double kBulkS = 0.3;
  static constexpr size_t kEvalsPerModel = 2;

  using Workload::Workload;

  bool Setup() override {
    table_ = MakeAdultTable(kTrainRows, seed());
    registry_ = std::make_unique<daisy::serve::ModelRegistry>();
    std::vector<StepTimer> fit;
    models_.clear();
    for (const char* name : kModels) {
      const Point p = MakePoint(name, kIterations, kModelSeed);
      const std::string path = s_->WorkPath(std::string(name) + ".daisy");
      fit.emplace_back();
      auto m = s_->Fit(p, table_, path, &fit.back());
      if (s_->LoadChecked(*m, path, seed()) == nullptr) return false;
      ScopedSpan span(&s_->tracer(), "synth.load");
      if (!s_->CheckStatus(registry_->Load(name, path), "registry load"))
        return false;
      models_.push_back(registry_->Find(name));
    }
    s_->fit_s.AddTime(fit);
    return true;
  }

  void Timed(double seconds) override {
    // Bulk passes and evaluations run in rounds spread over the whole
    // timed region, with a serving phase between rounds, so the medians
    // cover the run rather than one stretch of the shared host's speed.
    const size_t bulk = Reps(seconds * 0.25, kBulkS);
    const size_t evals = kEvalsPerModel * models_.size();
    size_t b = 0;
    for (size_t e = 0; e < evals; ++e) {
      if (e > 0)
        s_->Serve(*registry_, {kModels[0], kModels[1]},
                  (seed() ^ 0x5e7ULL) + e);
      for (; b < bulk * (e + 1) / evals; ++b) {
        s_->gen_rows_per_s.AddRate(
            kBulkRows, {s_->GenerateCsv(*models_[b % models_.size()],
                                        kBulkRows, seed() + b,
                                        "bulk." + std::to_string(b))});
      }
      const size_t i = e % models_.size();
      data::Table fake;
      s_->GenerateCsv(*models_[i], kTrainRows, seed() + 100 + e,
                      "eval." + std::to_string(e), kTrainRows, &fake);
      s_->eval_s.AddTime({s_->Evaluate(table_, fake, kModels[i])});
    }
    s_->Check(!s_->request_p99_ms.empty(), "at least one serving phase");
  }

  const Synth* ProbeModel() const override {
    return models_.empty() ? nullptr : models_[0];
  }

 private:
  static constexpr const char* kModels[2] = {"mlp_vtrain", "mlp_wtrain"};
  data::Table table_;
  std::unique_ptr<daisy::serve::ModelRegistry> registry_;
  std::vector<const Synth*> models_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, Session* s) {
  if (name == "ingest_paged") return std::make_unique<IngestPaged>(s);
  if (name == "design_sweep") return std::make_unique<DesignSweep>(s);
  if (name == "serve_open") return std::make_unique<ServeOpen>(s);
  return nullptr;
}

// Cost of tracing, after the timed region: kProbePairs pairs of bulk
// passes of the same (model, rows, seed), one untraced and one traced,
// back to back so that both see the same host speed. Returns the
// traced median's excess over the untraced median in percent. Both
// passes must give the same bytes. The probe's spans are in the trace
// file (under "trace.probe") but not in the per-layer metrics.
double TraceOverheadPct(Session* s, const Synth& m) {
  constexpr size_t kProbePairs = 6;
  constexpr size_t kProbeRows = 20000;
  constexpr uint64_t kProbeSeed = 0x9b0beULL;
  std::vector<StepTimer> plain, traced;
  for (size_t k = 0; k < kProbePairs; ++k) {
    for (bool on : {false, true}) {
      s->tracer().set_enabled(on);
      ScopedSpan span(&s->tracer(), "trace.probe");
      (on ? traced : plain)
          .push_back(s->GenerateCsv(m, kProbeRows, kProbeSeed, "probe"));
    }
  }
  s->tracer().set_enabled(false);
  auto median_s = [](const std::vector<StepTimer>& steps) {
    std::vector<double> v;
    for (const StepTimer& t : steps) v.push_back(t.scaled_s());
    return Median(v);
  };
  return (median_s(traced) / median_s(plain) - 1.0) * 100.0;
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"ingest_paged", "design_sweep", "serve_open"};
}

RunResult RunWorkload(const RunConfig& cfg) {
  RunResult result;
  daisy::par::SetNumThreads(kThreads);
  Session s(cfg);
  std::unique_ptr<Workload> w = MakeWorkload(cfg.workload, &s);
  if (w == nullptr) return result;

  // Set-up, repeated; traced runs trace it too.
  s.tracer().set_enabled(cfg.trace);
  for (size_t k = 0; k < w->SetupReps(); ++k) {
    StepTimer t;
    if (!w->Setup()) return result;
    s.setup_s.AddTime({t});
  }

  // Timed region: the same plan, traced or not.
  const bool rss_reset = ResetPeakRss();
  const ProcSample p0 = ProcSample::Now();
  w->Timed(cfg.seconds);
  const ProcSample proc = ProcSample::Now() - p0;
  // The host probe's buffers are resident throughout and are not the
  // program's.
  const double peak_rss =
      PeakRssMb() - static_cast<double>(HostProbeBytes()) / (1 << 20);

  if (!cfg.trace) {
    result.metrics = {
        {"setup_s", Median(s.setup_s.Values(true)), "s"},
        {"fit_s", Median(s.fit_s.Values(true)), "s"},
        {"eval_s", Median(s.eval_s.Values(true)), "s"},
        {"gen_rows_per_s", Median(s.gen_rows_per_s.Values(true)), "rows/s"},
        {"peak_rss_mb", peak_rss, "MiB"},
    };
  } else {
    s.LayerMetrics(&result.metrics);
    result.metrics.push_back({"proc.cpu_s", proc.cpu_s, "s"});
    result.metrics.push_back(
        {"proc.invol_ctx_switches", proc.invol_ctx_switches, "count"});
    result.metrics.push_back({"host.steal_s", proc.steal_s, "s"});
    std::vector<double> probes;
    for (const ProbeRecord& p : HostProbeLog()) probes.push_back(p.ms);
    result.metrics.push_back({"host.probe_ms", Median(probes), "ms"});
    const Synth* probe = w->ProbeModel();
    result.metrics.push_back(
        {"trace.overhead_pct",
         s.Check(probe != nullptr, "model for the tracing probe")
             ? TraceOverheadPct(&s, *probe)
             : 0.0,
         "%"});
    if (!s.tracer().WriteJsonl(cfg.trace_path))
      std::fprintf(stderr, "e2ebench: cannot write %s\n",
                   cfg.trace_path.c_str());
  }
  result.attempted = s.attempted();
  result.failed = s.failed();
  result.correct = s.failed() == 0;

  // Metadata: enough to explain a run from its own output.
  const char* env_threads = std::getenv("DAISY_THREADS");
  const char* env_simd = std::getenv("DAISY_SIMD");
  auto& meta = result.meta;
  meta.emplace_back("workload", JsonString(cfg.workload));
  meta.emplace_back("seed", std::to_string(cfg.seed));
  meta.emplace_back("seconds", JsonNumber(cfg.seconds));
  meta.emplace_back("trace", cfg.trace ? "true" : "false");
  meta.emplace_back("commit", JsonString(GitHead(cfg.root)));
  meta.emplace_back("source_fnv", JsonString(SourceDigest(cfg.root)));
  meta.emplace_back("nproc", std::to_string(Nproc()));
  meta.emplace_back("daisy_threads", std::to_string(daisy::par::NumThreads()));
  meta.emplace_back("env_daisy_threads",
                    JsonString(env_threads ? env_threads : ""));
  meta.emplace_back("daisy_simd", JsonString(daisy::kern::IsaName(
                                      daisy::kern::ActiveIsa())));
  meta.emplace_back("env_daisy_simd", JsonString(env_simd ? env_simd : ""));
  meta.emplace_back("page_budget", std::to_string(kPageBudget));
  meta.emplace_back("work_dir_fs", JsonString(FilesystemName(cfg.work_dir)));
  meta.emplace_back("peak_rss_reset", rss_reset ? "true" : "false");
  meta.emplace_back("proc_cpu_s", JsonNumber(proc.cpu_s));
  meta.emplace_back("proc_invol_ctx_switches",
                    JsonNumber(proc.invol_ctx_switches));
  meta.emplace_back("host_steal_s", JsonNumber(proc.steal_s));
  // Per end-to-end metric: sample count and median of the wall-clock
  // values behind the reported (scaled) median.
  std::string wall = "{";
  for (const auto& [name, v] :
       {std::pair<const char*, const Samples*>{"setup_s", &s.setup_s},
        {"fit_s", &s.fit_s},
        {"eval_s", &s.eval_s},
        {"gen_rows_per_s", &s.gen_rows_per_s}}) {
    wall += std::string(wall.size() > 1 ? "," : "") + JsonString(name) +
            ":{\"n\":" + std::to_string(v->samples.size()) +
            ",\"wall\":" + JsonNumber(Median(v->Values(false))) + "}";
  }
  meta.emplace_back("reference_probe_ms", JsonNumber(kReferenceProbeMs));
  std::vector<double> probe_ms;
  for (const ProbeRecord& p : HostProbeLog()) probe_ms.push_back(p.ms);
  meta.emplace_back("host_probes", std::to_string(probe_ms.size()));
  meta.emplace_back("host_probe_ms", JsonNumber(Median(probe_ms)));
  meta.emplace_back("probe_s", JsonNumber(StepTimer::ProbeSeconds()));
  meta.emplace_back("end_to_end", wall + "}");
  meta.emplace_back("samples",
                    "{\"serve_phases\":" +
                        std::to_string(s.request_p99_ms.size()) +
                        ",\"requests\":" + std::to_string(s.requests().size()) +
                        "}");
  std::string digests = "{";
  for (const auto& [k, v] : s.digests())
    digests += (digests.size() > 1 ? "," : "") + JsonString(k) + ":" +
               JsonString(v);
  meta.emplace_back("digests", digests + "}");
  return result;
}

}  // namespace e2ebench
