// Command-line front end: synthesize a CSV table and evaluate a
// synthetic table against the original, without writing any C++.
//
//   daisy_cli synth --input real.csv --label income --output fake.csv
//              [--n 10000] [--method gan|vae|medgan] [--arch mlp|lstm|cnn]
//              [--algo vtrain|wtrain|ctrain|dptrain]
//              [--cat onehot|ordinal] [--num gmm|simple]
//              [--iterations 800] [--seed 17]
//              [--log-jsonl run.jsonl] [--log-every 10]
//
//   daisy_cli eval --real real.csv --synthetic fake.csv --label income
//              [--threads T] [--log-jsonl eval.jsonl] [--report out.md]
//
//   daisy_cli generate --model model.daisy --output fake.csv --n 10000
//
//   daisy_cli convert --input real.csv --output real.dcol
//              [--label income] [--page-rows 65536]
//
// `convert` rewrites a CSV into the paged columnar .dcol format
// (bounded memory: the CSV is streamed, never fully loaded) and
// verifies the result. `synth --data-format dcol` then trains out of
// core: pages fault through an LRU cache of --page-budget pages, so
// peak memory no longer scales with the table. The trained model is
// byte-identical to an in-memory run over the equivalent CSV (same
// seed/flags) at any page budget. The label column is baked in at
// convert time, so --label is rejected with dcol input; pass --no-mmap
// to serve page faults by pread (mmap charges the whole file against
// ulimit -v). --sampler chunked (either data format) visits the table
// in shuffled chunks of --chunk-rows records per epoch — the
// IO-friendly sampler for paged tables.
//
// `synth` accepts --save-model PATH to persist the trained model;
// `generate` reloads it and samples without retraining. `--log-jsonl`
// streams per-iteration training telemetry (losses, grad norms,
// wall-clock) as JSONL; `--log-every` thins it. With
// --checkpoint-every N and --checkpoint-dir DIR, training writes an
// atomic checkpoint every N iterations (keeping the newest
// --checkpoint-keep files); after a crash, rerunning the SAME command
// plus --resume continues from the newest valid checkpoint and
// produces bitwise-identical results to an uninterrupted run.
// --max-iters-per-run N pauses cleanly after N iterations in this
// process (for schedulers and tests). If the divergence
// sentinel stops training early, the CLI reports the failing iteration
// and generates from the last healthy snapshot.
//
// `synth` runs the three-phase pipeline of the paper (Figure 2);
// `eval` runs the deterministic evaluation suite — utility (F1 Diff
// per classifier), clustering, fidelity, privacy (hitting rate, DCR)
// and AQP — timing each metric; `--log-jsonl` streams one telemetry
// record per metric.
//
// The relational commands work on a multi-table database described by
// a JSON spec (see data/schema_json.h). `train-rel` fits one GAN per
// table in topological order — children conditioned on their parent's
// encoded attributes — plus a children-per-parent cardinality model
// per FK edge, and persists everything as one checksummed bundle.
// Table files ending in .dcol are trained out of core. `gen-rel`
// regenerates the whole database (parents first, FKs valid by
// construction) into per-table CSVs; `eval-rel` scores the synthetic
// database against the real one on FK validity, join-size KL and
// cross-table correlation preservation.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/medgan.h"
#include "baselines/vae.h"
#include "cli_flags.h"
#include "core/durable.h"
#include "core/parallel.h"
#include "data/columnar.h"
#include "data/csv.h"
#include "data/schema_json.h"
#include "eval/relational.h"
#include "eval/report.h"
#include "eval/suite.h"
#include "obs/run_logger.h"
#include "relational/relational_synthesizer.h"
#include "synth/synthesizer.h"

namespace {

using daisy::Rng;
using daisy::Status;
using Args = daisy::cli::FlagSet;

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  daisy_cli synth --input real.csv --output fake.csv\n"
               "            [--label COLUMN] [--n N]\n"
               "            [--method gan|vae|medgan] [--arch mlp|lstm|cnn]\n"
               "            [--algo vtrain|wtrain|ctrain|dptrain]\n"
               "            [--cat onehot|ordinal] [--num gmm|simple]\n"
               "            [--iterations N] [--seed S] [--threads T]\n"
               "            [--log-jsonl PATH] [--log-every N]\n"
               "            [--save-model PATH]\n"
               "            [--checkpoint-every N] [--checkpoint-dir DIR]\n"
               "            [--checkpoint-keep K] [--resume]\n"
               "            [--max-iters-per-run N]\n"
               "            [--data-format csv|dcol] [--page-budget N]\n"
               "            [--no-mmap] [--sampler uniform|chunked|tbs]\n"
               "            [--chunk-rows N] [--critic-reg C]\n"
               "  daisy_cli convert --input real.csv --output real.dcol\n"
               "            [--label COLUMN] [--page-rows N]\n"
               "  daisy_cli generate --model PATH --output fake.csv [--n N]\n"
               "            [--seed S]\n"
               "  daisy_cli eval --real real.csv --synthetic fake.csv\n"
               "            [--label COLUMN] [--threads T]\n"
               "            [--log-jsonl PATH] [--report out.md]\n"
               "  daisy_cli train-rel --schema spec.json --output db.daisyrel\n"
               "            [--data-dir DIR] [--iterations N] [--seed S]\n"
               "            [--threads T] [--page-budget N] [--no-mmap]\n"
               "            [--work-dir DIR]\n"
               "            [--log-jsonl PATH] [--log-every N]\n"
               "  daisy_cli gen-rel --bundle db.daisyrel --output-dir DIR\n"
               "            [--scale X] [--seed S] [--threads T]\n"
               "  daisy_cli eval-rel --schema spec.json --synth-dir DIR\n"
               "            [--data-dir DIR] [--threads T]\n"
               "            [--log-jsonl PATH]\n");
  return 2;
}

// The JSONL log is the run's record, so telemetry the logger could not
// write fails the command. Returns false, after saying why, when
// records were lost.
bool TelemetryFlushed(daisy::obs::RunLogger* logger) {
  if (logger == nullptr) return true;
  const Status st = logger->Flush();
  if (!st.ok())
    std::fprintf(stderr, "telemetry lost: %s\n", st.ToString().c_str());
  return st.ok();
}

// How `synth` goes on after Fit: a refused run (the model stays
// unfitted) or lost telemetry exits 1 before anything is written, a
// pause exits 0, and a divergence generates from the rolled-back state.
// Returns the exit code to stop with, or -1 to generate.
int ReportFit(const Status& health, bool fitted, bool paused,
              daisy::obs::RunLogger* logger) {
  if (!fitted) {
    std::fprintf(stderr, "cannot train: %s\n", health.ToString().c_str());
    return 1;
  }
  if (!TelemetryFlushed(logger)) return 1;
  if (!health.ok())
    std::fprintf(stderr,
                 "training stopped early: %s\n"
                 "generating from the last healthy snapshot\n",
                 health.ToString().c_str());
  if (paused) {
    std::printf("paused after --max-iters-per-run iterations; "
                "rerun with --resume to continue\n");
    return 0;
  }
  return -1;
}

int RunSynth(const Args& args) {
  const std::string input = args.Get("input");
  const std::string output = args.Get("output");
  if (input.empty() || output.empty()) return Usage();

  const std::string method = args.Get("method", "gan");
  if (method != "gan" && method != "vae" && method != "medgan")
    return Usage();

  const std::string data_format = args.Get("data-format", "csv");
  if (data_format != "csv" && data_format != "dcol") return Usage();
  const bool paged_input = data_format == "dcol";
  if (paged_input && method != "gan") {
    std::fprintf(stderr,
                 "--data-format dcol is only supported for --method gan\n");
    return 1;
  }
  if (paged_input && !args.Get("label").empty()) {
    std::fprintf(stderr,
                 "--label is baked into a .dcol at convert time; drop it "
                 "for --data-format dcol\n");
    return 1;
  }
  if ((args.Has("sampler") || args.Has("chunk-rows")) && method != "gan") {
    std::fprintf(stderr, "--sampler is only supported for --method gan\n");
    return 1;
  }

  daisy::data::Table table;
  std::unique_ptr<daisy::data::PagedTable> paged;
  if (paged_input) {
    daisy::data::PagedTable::Options popts;
    popts.page_budget = static_cast<size_t>(
        std::max(1L, args.GetInt("page-budget", 64)));
    popts.use_mmap = args.Get("no-mmap").empty();
    auto opened = daisy::data::PagedTable::Open(input, popts);
    if (!opened.ok()) {
      std::fprintf(stderr, "error opening %s: %s\n", input.c_str(),
                   opened.status().ToString().c_str());
      return 1;
    }
    paged = std::move(opened.value());
    std::printf(
        "opened %zu records x %zu attributes from %s "
        "(%zu-row pages, budget %zu)\n",
        paged->num_records(), paged->num_attributes(), input.c_str(),
        paged->page_rows(), popts.page_budget);
  } else {
    auto loaded = daisy::data::ReadCsv(input, args.Get("label"));
    if (!loaded.ok()) {
      std::fprintf(stderr, "error reading %s: %s\n", input.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    table = loaded.take();
    std::printf("read %zu records x %zu attributes from %s\n",
                table.num_records(), table.num_attributes(), input.c_str());
  }
  const size_t input_records =
      paged_input ? paged->num_records() : table.num_records();

  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 17));

  daisy::transform::TransformOptions topts;
  if (args.Get("cat", "onehot") == "ordinal")
    topts.categorical = daisy::transform::CategoricalEncoding::kOrdinal;
  if (args.Get("num", "gmm") == "simple")
    topts.numerical = daisy::transform::NumericalNormalization::kSimple;

  // Training-loop knobs, shared by every method. With --resume the
  // telemetry file is reopened in resume mode: the checkpointed record
  // cursor truncates any tail written by the crashed run, so the final
  // JSONL matches an uninterrupted run line for line.
  daisy::synth::LoopOptions loop;
  loop.log_every =
      static_cast<size_t>(std::max(1L, args.GetInt("log-every", 1)));
  loop.checkpoint_dir = args.Get("checkpoint-dir");
  loop.checkpoint_every =
      static_cast<size_t>(std::max(0L, args.GetInt("checkpoint-every", 0)));
  loop.checkpoint_keep =
      static_cast<size_t>(std::max(1L, args.GetInt("checkpoint-keep", 3)));
  loop.resume = !args.Get("resume").empty();
  loop.max_iters_per_run = static_cast<size_t>(
      std::max(0L, args.GetInt("max-iters-per-run", 0)));
  if ((loop.checkpoint_every > 0 || loop.resume) &&
      loop.checkpoint_dir.empty()) {
    std::fprintf(stderr,
                 "--checkpoint-every/--resume require --checkpoint-dir\n");
    return 1;
  }

  std::unique_ptr<daisy::obs::RunLogger> logger;
  const std::string log_path = args.Get("log-jsonl");
  if (!log_path.empty()) {
    auto opened = loop.resume
                      ? daisy::obs::RunLogger::OpenForResume(log_path)
                      : daisy::obs::RunLogger::Open(log_path);
    if (!opened.ok()) {
      std::fprintf(stderr, "error opening %s: %s\n", log_path.c_str(),
                   opened.status().ToString().c_str());
      return 1;
    }
    logger = std::move(opened.value());
  }

  const std::string model_path = args.Get("save-model");
  if (!model_path.empty() && method != "gan") {
    std::fprintf(stderr, "--save-model is only supported for --method gan\n");
    return 1;
  }

  Rng gen_rng(seed ^ 0xBEEF);
  const size_t n = static_cast<size_t>(
      args.GetInt("n", static_cast<long>(input_records)));
  daisy::data::Table fake;

  if (method == "gan") {
    daisy::synth::GanOptions opts;
    static_cast<daisy::synth::LoopOptions&>(opts) = loop;
    const std::string arch = args.Get("arch", "mlp");
    if (arch == "lstm") opts.generator = daisy::synth::GeneratorArch::kLstm;
    else if (arch == "cnn") opts.generator = daisy::synth::GeneratorArch::kCnn;
    else if (arch != "mlp") return Usage();

    const std::string algo = args.Get("algo", "vtrain");
    if (algo == "wtrain") opts.algo = daisy::synth::TrainAlgo::kWTrain;
    else if (algo == "ctrain") opts.algo = daisy::synth::TrainAlgo::kCTrain;
    else if (algo == "dptrain") opts.algo = daisy::synth::TrainAlgo::kDPTrain;
    else if (algo != "vtrain") return Usage();

    opts.iterations = static_cast<size_t>(args.GetInt("iterations", 800));
    opts.seed = seed;
    // 0 = keep the process default (DAISY_THREADS env, else hardware).
    opts.num_threads = static_cast<size_t>(args.GetInt("threads", 0));

    const std::string sampler = args.Get("sampler", "uniform");
    if (sampler == "chunked")
      opts.sampler = daisy::synth::SamplerKind::kChunkedShuffle;
    else if (sampler == "tbs")
      opts.sampler = daisy::synth::SamplerKind::kTrainingBySampling;
    else if (sampler != "uniform")
      return Usage();
    opts.shuffle_chunk_rows = static_cast<size_t>(
        std::max(1L, args.GetInt("chunk-rows", 4096)));
    if (auto kind = daisy::synth::ResolveConditionKind(opts, false);
        !kind.ok()) {
      std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
      return 1;
    }

    // RCC-GAN-style critic gradient clamp; 0 disables.
    opts.critic_reg = args.GetDouble("critic-reg", 0.0);
    if (opts.critic_reg < 0.0) {
      std::fprintf(stderr, "--critic-reg must be >= 0\n");
      return 1;
    }

    const daisy::data::Schema& schema =
        paged_input ? paged->schema() : table.schema();
    if (opts.algo == daisy::synth::TrainAlgo::kCTrain &&
        !schema.has_label()) {
      std::fprintf(stderr, "ctrain requires a labeled table (--label for "
                           "csv, --label at convert time for dcol)\n");
      return 1;
    }

    daisy::synth::TableSynthesizer synth(opts, topts);
    std::printf("training (gan, %s, %s, %zu iterations)...\n", arch.c_str(),
                algo.c_str(), opts.iterations);
    const Status health = paged_input ? synth.Fit(*paged, logger.get())
                                      : synth.Fit(table, logger.get());
    if (const int rc = ReportFit(health, synth.fitted(),
                                 synth.train_result().paused, logger.get());
        rc >= 0)
      return rc;
    fake = synth.Generate(n, &gen_rng);

    if (!model_path.empty()) {
      const Status save_st = synth.Save(model_path);
      if (!save_st.ok()) {
        std::fprintf(stderr, "error saving model: %s\n",
                     save_st.ToString().c_str());
        return 1;
      }
      std::printf("saved model to %s\n", model_path.c_str());
    }
  } else if (method == "vae") {
    daisy::baselines::VaeOptions opts;
    static_cast<daisy::synth::LoopOptions&>(opts) = loop;
    opts.epochs = static_cast<size_t>(args.GetInt("iterations", 30));
    opts.seed = seed;
    daisy::baselines::VaeSynthesizer synth(opts, topts);
    std::printf("training (vae, %zu epochs)...\n", opts.epochs);
    const Status health = synth.Fit(table, logger.get());
    if (const int rc =
            ReportFit(health, synth.fitted(), synth.paused(), logger.get());
        rc >= 0)
      return rc;
    fake = synth.Generate(n, &gen_rng);
  } else {  // medgan
    daisy::baselines::MedGanOptions opts;
    static_cast<daisy::synth::LoopOptions&>(opts) = loop;
    opts.gan_iterations = static_cast<size_t>(args.GetInt("iterations", 300));
    opts.seed = seed;
    daisy::baselines::MedGanSynthesizer synth(opts, topts);
    std::printf("training (medgan, %zu AE epochs + %zu GAN iterations)...\n",
                opts.ae_epochs, opts.gan_iterations);
    const Status health = synth.Fit(table, logger.get());
    if (const int rc =
            ReportFit(health, synth.fitted(), synth.paused(), logger.get());
        rc >= 0)
      return rc;
    fake = synth.Generate(n, &gen_rng);
  }

  const Status st = daisy::data::WriteCsv(fake, output);
  if (!st.ok()) {
    std::fprintf(stderr, "error writing %s: %s\n", output.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu synthetic records to %s\n", n, output.c_str());
  if (logger != nullptr)
    std::printf("wrote %zu telemetry records to %s\n",
                logger->lines_written(), logger->path().c_str());
  return 0;
}

int RunConvert(const Args& args) {
  const std::string input = args.Get("input");
  const std::string output = args.Get("output");
  if (input.empty() || output.empty()) return Usage();
  const size_t page_rows = static_cast<size_t>(
      std::max(1L, args.GetInt("page-rows", 65536)));

  const Status st = daisy::data::ConvertCsvToColumnar(
      input, output, args.Get("label"), page_rows);
  if (!st.ok()) {
    std::fprintf(stderr, "error converting %s: %s\n", input.c_str(),
                 st.ToString().c_str());
    return 1;
  }

  // Reopen with full verification: reports what landed on disk and
  // proves every page checksum reads back clean.
  daisy::data::PagedTable::Options popts;
  popts.page_budget = 1;
  auto opened = daisy::data::PagedTable::Open(output, popts);
  if (!opened.ok()) {
    std::fprintf(stderr, "converted file fails verification: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  const auto& t = *opened.value();
  std::printf("wrote %zu records x %zu attributes to %s "
              "(%zu-row pages, %zu page groups)\n",
              t.num_records(), t.num_attributes(), output.c_str(),
              t.page_rows(), t.num_groups());
  return 0;
}

int RunGenerate(const Args& args) {
  const std::string model_path = args.Get("model");
  const std::string output = args.Get("output");
  if (model_path.empty() || output.empty()) return Usage();
  auto loaded = daisy::synth::TableSynthesizer::Load(model_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error loading model: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  if (const Status st = loaded.value()->CheckStandalone(); !st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  Rng gen_rng(static_cast<uint64_t>(args.GetInt("seed", 17)) ^ 0xBEEF);
  const size_t n = static_cast<size_t>(args.GetInt("n", 1000));
  daisy::data::Table fake = loaded.value()->Generate(n, &gen_rng);
  const Status st = daisy::data::WriteCsv(fake, output);
  if (!st.ok()) {
    std::fprintf(stderr, "error writing %s: %s\n", output.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu synthetic records to %s\n", n, output.c_str());
  return 0;
}

int RunEval(const Args& args) {
  const std::string real_path = args.Get("real");
  const std::string synth_path = args.Get("synthetic");
  if (real_path.empty() || synth_path.empty()) return Usage();
  const std::string label = args.Get("label");

  auto real = daisy::data::ReadCsv(real_path, label);
  auto synthetic = daisy::data::ReadCsv(synth_path, label);
  if (!real.ok() || !synthetic.ok()) {
    std::fprintf(stderr, "error reading inputs\n");
    return 1;
  }
  if (real.value().num_attributes() !=
      synthetic.value().num_attributes()) {
    std::fprintf(stderr, "schema mismatch between tables\n");
    return 1;
  }

  // CSV schema inference assigns category indices in first-seen order,
  // so two independently read files generally disagree on the index of
  // any given category — and a synthetic file that dropped a rare label
  // infers a smaller domain outright. Align both tables on the union
  // schema before comparing.
  auto unified = daisy::data::UnionSchema(real.value().schema(),
                                          synthetic.value().schema());
  if (!unified.ok()) {
    std::fprintf(stderr, "schema mismatch between tables: %s\n",
                 unified.status().ToString().c_str());
    return 1;
  }
  auto real_aligned = daisy::data::RemapToSchema(real.value(),
                                                 unified.value());
  auto synth_aligned = daisy::data::RemapToSchema(synthetic.value(),
                                                  unified.value());
  if (!real_aligned.ok() || !synth_aligned.ok()) {
    std::fprintf(stderr, "error aligning tables on the union schema\n");
    return 1;
  }
  real = std::move(real_aligned);
  synthetic = std::move(synth_aligned);

  // 0 = keep the process default (DAISY_THREADS env, else hardware).
  const long threads = args.GetInt("threads", 0);
  if (threads > 0) daisy::par::SetNumThreads(static_cast<size_t>(threads));

  std::unique_ptr<daisy::obs::RunLogger> logger;
  const std::string log_path = args.Get("log-jsonl");
  if (!log_path.empty()) {
    auto opened = daisy::obs::RunLogger::Open(log_path);
    if (!opened.ok()) {
      std::fprintf(stderr, "error opening %s: %s\n", log_path.c_str(),
                   opened.status().ToString().c_str());
      return 1;
    }
    logger = std::move(opened.value());
  }

  daisy::eval::SuiteOptions sopts;
  sopts.privacy_samples = 500;
  daisy::eval::EvaluationSuite suite(sopts);
  auto result = suite.Run(real.value(), synthetic.value(), logger.get());
  if (!result.ok()) {
    std::fprintf(stderr, "evaluation failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  if (!TelemetryFlushed(logger.get())) return 1;
  std::printf("evaluation suite (lower is better except DCR):\n");
  for (const auto& m : result.value().metrics)
    std::printf("  %-28s %10.4f   (%.1f ms)\n", m.name.c_str(), m.value,
                m.wall_ms);
  std::printf("total: %.1f ms over %zu metrics\n", result.value().total_ms,
              result.value().metrics.size());
  if (logger != nullptr)
    std::printf("wrote %zu telemetry records to %s\n",
                logger->lines_written(), logger->path().c_str());

  const std::string report_path = args.Get("report");
  if (!report_path.empty()) {
    const Status st = daisy::WriteFileAtomic(
        report_path, daisy::eval::GenerateQualityReport(
                         result.value(), real.value(), synthetic.value()));
    if (!st.ok()) {
      std::fprintf(stderr, "cannot write report to %s: %s\n",
                   report_path.c_str(), st.ToString().c_str());
      return 1;
    }
    std::printf("wrote quality report to %s\n", report_path.c_str());
  }
  return 0;
}

/// Spec plus loaded training data, parallel to spec.tables. Exactly
/// one of tables[i] / paged[i] is populated per table (.dcol files
/// load paged, everything else through ReadCsv).
struct RelationalData {
  daisy::data::RelationalSpec spec;
  daisy::data::RelationalSchema schema;
  std::vector<daisy::data::Table> tables;
  std::vector<std::unique_ptr<daisy::data::PagedTable>> paged;
};

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Loads the JSON spec and every table file under `data_dir`. When
/// `materialize` is set, .dcol tables are read fully into memory (the
/// eval path needs random-access Tables).
int LoadRelationalData(const std::string& spec_path,
                       const std::string& data_dir, size_t page_budget,
                       bool use_mmap, bool materialize, RelationalData* out) {
  auto spec = daisy::data::LoadRelationalSpec(spec_path);
  if (!spec.ok()) {
    std::fprintf(stderr, "error reading %s: %s\n", spec_path.c_str(),
                 spec.status().ToString().c_str());
    return 1;
  }
  out->spec = spec.take();

  std::vector<daisy::data::RelationalTableDef> defs;
  out->tables.resize(out->spec.tables.size());
  out->paged.resize(out->spec.tables.size());
  for (size_t i = 0; i < out->spec.tables.size(); ++i) {
    const auto& t = out->spec.tables[i];
    const std::string path = data_dir.empty()
                                 ? t.file
                                 : data_dir + "/" + t.file;
    daisy::data::Schema schema;
    if (EndsWith(t.file, ".dcol")) {
      daisy::data::PagedTable::Options popts;
      popts.page_budget = page_budget;
      popts.use_mmap = use_mmap;
      auto opened = daisy::data::PagedTable::Open(path, popts);
      if (!opened.ok()) {
        std::fprintf(stderr, "error opening %s: %s\n", path.c_str(),
                     opened.status().ToString().c_str());
        return 1;
      }
      if (materialize) {
        auto table = opened.value()->ToTable();
        if (!table.ok()) {
          std::fprintf(stderr, "error reading %s: %s\n", path.c_str(),
                       table.status().ToString().c_str());
          return 1;
        }
        out->tables[i] = table.take();
        schema = out->tables[i].schema();
      } else {
        out->paged[i] = std::move(opened.value());
        schema = out->paged[i]->schema();
      }
    } else {
      auto loaded = daisy::data::ReadCsv(path, /*label=*/"");
      if (!loaded.ok()) {
        std::fprintf(stderr, "error reading %s: %s\n", path.c_str(),
                     loaded.status().ToString().c_str());
        return 1;
      }
      out->tables[i] = loaded.take();
      schema = out->tables[i].schema();
    }
    defs.push_back({t.name, schema, t.primary_key});
  }

  auto schema = daisy::data::RelationalSchema::Create(
      std::move(defs), out->spec.foreign_keys);
  if (!schema.ok()) {
    std::fprintf(stderr, "invalid relational schema: %s\n",
                 schema.status().ToString().c_str());
    return 1;
  }
  out->schema = schema.take();
  return 0;
}

int RunTrainRel(const Args& args) {
  const std::string spec_path = args.Get("schema");
  const std::string output = args.Get("output");
  if (spec_path.empty() || output.empty()) return Usage();
  const std::string data_dir = args.Get("data-dir");
  const size_t page_budget = static_cast<size_t>(
      std::max(1L, args.GetInt("page-budget", 64)));
  const bool use_mmap = args.Get("no-mmap").empty();

  RelationalData data;
  const int rc = LoadRelationalData(spec_path, data_dir, page_budget,
                                    use_mmap, /*materialize=*/false, &data);
  if (rc != 0) return rc;
  for (size_t i = 0; i < data.schema.num_tables(); ++i) {
    const size_t rows = data.paged[i] != nullptr
                            ? data.paged[i]->num_records()
                            : data.tables[i].num_records();
    std::printf("read %zu records x %zu attributes for table '%s'%s\n",
                rows, data.schema.table(i).schema.num_attributes(),
                data.schema.table(i).name.c_str(),
                data.paged[i] != nullptr ? " (paged)" : "");
  }

  daisy::rel::RelationalOptions opts;
  opts.gan.iterations = static_cast<size_t>(args.GetInt("iterations", 800));
  opts.gan.seed = static_cast<uint64_t>(args.GetInt("seed", 17));
  opts.gan.log_every =
      static_cast<size_t>(std::max(1L, args.GetInt("log-every", 1)));
  // 0 = keep the process default (DAISY_THREADS env, else hardware).
  opts.gan.num_threads = static_cast<size_t>(args.GetInt("threads", 0));
  opts.page_budget = page_budget;
  opts.use_mmap = use_mmap;
  opts.work_dir = args.Get("work-dir", "daisy_rel_work");

  std::unique_ptr<daisy::obs::RunLogger> logger;
  const std::string log_path = args.Get("log-jsonl");
  if (!log_path.empty()) {
    auto opened = daisy::obs::RunLogger::Open(log_path);
    if (!opened.ok()) {
      std::fprintf(stderr, "error opening %s: %s\n", log_path.c_str(),
                   opened.status().ToString().c_str());
      return 1;
    }
    logger = std::move(opened.value());
  }

  std::vector<daisy::rel::RelationalInput> inputs(data.schema.num_tables());
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (data.paged[i] != nullptr) inputs[i].paged = data.paged[i].get();
    else inputs[i].table = &data.tables[i];
  }

  daisy::rel::RelationalSynthesizer synth(opts);
  std::printf("training %zu table models (%zu iterations each)...\n",
              data.schema.num_tables(), opts.gan.iterations);
  const Status health = synth.Fit(data.schema, inputs, logger.get());
  if (!health.ok()) {
    std::fprintf(stderr, "relational training failed: %s\n",
                 health.ToString().c_str());
    return 1;
  }
  if (!TelemetryFlushed(logger.get())) return 1;
  const Status save_st = synth.Save(output);
  if (!save_st.ok()) {
    std::fprintf(stderr, "error saving bundle: %s\n",
                 save_st.ToString().c_str());
    return 1;
  }
  std::printf("saved relational bundle to %s\n", output.c_str());
  if (logger != nullptr)
    std::printf("wrote %zu telemetry records to %s\n",
                logger->lines_written(), logger->path().c_str());
  return 0;
}

int RunGenRel(const Args& args) {
  const std::string bundle = args.Get("bundle");
  const std::string output_dir = args.Get("output-dir");
  if (bundle.empty() || output_dir.empty()) return Usage();
  const double scale = args.GetDouble("scale", 1.0);
  if (scale <= 0.0) {
    std::fprintf(stderr, "--scale must be > 0\n");
    return 1;
  }

  auto loaded = daisy::rel::RelationalSynthesizer::Load(bundle);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error loading bundle: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  const long threads = args.GetInt("threads", 0);
  if (threads > 0) daisy::par::SetNumThreads(static_cast<size_t>(threads));

  Rng gen_rng(static_cast<uint64_t>(args.GetInt("seed", 17)) ^ 0xBEEF);
  auto generated = loaded.value()->Generate(scale, &gen_rng);
  if (!generated.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 generated.status().ToString().c_str());
    return 1;
  }

  std::error_code ec;
  std::filesystem::create_directories(output_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", output_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  const auto& schema = loaded.value()->schema();
  for (size_t i = 0; i < schema.num_tables(); ++i) {
    const std::string path =
        output_dir + "/" + schema.table(i).name + ".csv";
    const Status st = daisy::data::WriteCsv(generated.value()[i], path);
    if (!st.ok()) {
      std::fprintf(stderr, "error writing %s: %s\n", path.c_str(),
                   st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %zu synthetic records to %s\n",
                generated.value()[i].num_records(), path.c_str());
  }
  return 0;
}

int RunEvalRel(const Args& args) {
  const std::string spec_path = args.Get("schema");
  const std::string synth_dir = args.Get("synth-dir");
  if (spec_path.empty() || synth_dir.empty()) return Usage();
  const std::string data_dir = args.Get("data-dir");

  RelationalData data;
  const int rc = LoadRelationalData(spec_path, data_dir, /*page_budget=*/64,
                                    /*use_mmap=*/true, /*materialize=*/true,
                                    &data);
  if (rc != 0) return rc;

  // Read the synthetic side and align each table pair on the union
  // schema — two independently inferred CSV schemas generally disagree
  // on category indices (see RunEval).
  std::vector<daisy::data::Table> real(data.schema.num_tables());
  std::vector<daisy::data::Table> synth(data.schema.num_tables());
  std::vector<daisy::data::RelationalTableDef> defs;
  for (size_t i = 0; i < data.schema.num_tables(); ++i) {
    const std::string path =
        synth_dir + "/" + data.schema.table(i).name + ".csv";
    auto loaded = daisy::data::ReadCsv(path, /*label=*/"");
    if (!loaded.ok()) {
      std::fprintf(stderr, "error reading %s: %s\n", path.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    auto unified = daisy::data::UnionSchema(data.tables[i].schema(),
                                            loaded.value().schema());
    if (!unified.ok()) {
      std::fprintf(stderr, "schema mismatch for table '%s': %s\n",
                   data.schema.table(i).name.c_str(),
                   unified.status().ToString().c_str());
      return 1;
    }
    auto real_aligned =
        daisy::data::RemapToSchema(data.tables[i], unified.value());
    auto synth_aligned =
        daisy::data::RemapToSchema(loaded.value(), unified.value());
    if (!real_aligned.ok() || !synth_aligned.ok()) {
      std::fprintf(stderr,
                   "error aligning table '%s' on the union schema\n",
                   data.schema.table(i).name.c_str());
      return 1;
    }
    real[i] = real_aligned.take();
    synth[i] = synth_aligned.take();
    defs.push_back({data.schema.table(i).name, real[i].schema(),
                    data.schema.table(i).primary_key});
  }
  auto schema = daisy::data::RelationalSchema::Create(
      std::move(defs), data.spec.foreign_keys);
  if (!schema.ok()) {
    std::fprintf(stderr, "invalid relational schema after alignment: %s\n",
                 schema.status().ToString().c_str());
    return 1;
  }

  const long threads = args.GetInt("threads", 0);
  if (threads > 0) daisy::par::SetNumThreads(static_cast<size_t>(threads));

  std::unique_ptr<daisy::obs::RunLogger> logger;
  const std::string log_path = args.Get("log-jsonl");
  if (!log_path.empty()) {
    auto opened = daisy::obs::RunLogger::Open(log_path);
    if (!opened.ok()) {
      std::fprintf(stderr, "error opening %s: %s\n", log_path.c_str(),
                   opened.status().ToString().c_str());
      return 1;
    }
    logger = std::move(opened.value());
  }

  auto result = daisy::eval::RunRelationalSuite(schema.value(), real, synth,
                                                logger.get());
  if (!result.ok()) {
    std::fprintf(stderr, "evaluation failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  if (!TelemetryFlushed(logger.get())) return 1;
  std::printf("relational suite (fk_validity: higher is better; "
              "others: lower):\n");
  for (const auto& m : result.value().metrics)
    std::printf("  %-36s %10.4f   (%.1f ms)\n", m.name.c_str(), m.value,
                m.wall_ms);
  std::printf("total: %.1f ms over %zu metrics\n", result.value().total_ms,
              result.value().metrics.size());
  if (logger != nullptr)
    std::printf("wrote %zu telemetry records to %s\n",
                logger->lines_written(), logger->path().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  std::vector<daisy::cli::FlagSpec> specs;
  if (command == "synth") {
    specs = {{"input"},
             {"output"},
             {"label"},
             {"n", false, true},
             {"method"},
             {"arch"},
             {"algo"},
             {"cat"},
             {"num"},
             {"iterations", false, true},
             {"seed", false, true},
             {"threads", false, true},
             {"log-jsonl"},
             {"log-every", false, true},
             {"save-model"},
             {"checkpoint-every", false, true},
             {"checkpoint-dir"},
             {"checkpoint-keep", false, true},
             {"resume", true},
             {"max-iters-per-run", false, true},
             {"data-format"},
             {"page-budget", false, true},
             {"no-mmap", true},
             {"sampler"},
             {"chunk-rows", false, true},
             {.name = "critic-reg", .real = true}};
  } else if (command == "convert") {
    specs = {{"input"},
             {"output"},
             {"label"},
             {"page-rows", false, true}};
  } else if (command == "generate") {
    specs = {{"model"},
             {"output"},
             {"n", false, true},
             {"seed", false, true}};
  } else if (command == "eval") {
    specs = {{"real"},     {"synthetic"},
             {"label"},    {"threads", false, true},
             {"log-jsonl"}, {"report"}};
  } else if (command == "train-rel") {
    specs = {{"schema"},
             {"output"},
             {"data-dir"},
             {"iterations", false, true},
             {"seed", false, true},
             {"threads", false, true},
             {"page-budget", false, true},
             {"no-mmap", true},
             {"work-dir"},
             {"log-jsonl"},
             {"log-every", false, true}};
  } else if (command == "gen-rel") {
    specs = {{"bundle"},
             {"output-dir"},
             {.name = "scale", .real = true},
             {"seed", false, true},
             {"threads", false, true}};
  } else if (command == "eval-rel") {
    specs = {{"schema"},
             {"synth-dir"},
             {"data-dir"},
             {"threads", false, true},
             {"log-jsonl"}};
  } else {
    std::fprintf(stderr, "daisy_cli: unknown command: %s\n", command.c_str());
    return Usage();
  }

  Args args;
  std::string error;
  if (!args.Parse(argc, argv, 2, specs, &error)) {
    std::fprintf(stderr, "daisy_cli: %s\n", error.c_str());
    return Usage();
  }
  if (command == "synth") return RunSynth(args);
  if (command == "convert") return RunConvert(args);
  if (command == "generate") return RunGenerate(args);
  if (command == "train-rel") return RunTrainRel(args);
  if (command == "gen-rel") return RunGenRel(args);
  if (command == "eval-rel") return RunEvalRel(args);
  return RunEval(args);
}
