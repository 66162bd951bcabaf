#include "eval/suite.h"

#include <cmath>
#include <utility>

#include "core/parallel.h"
#include "core/rng.h"
#include "eval/classifier.h"
#include "eval/clustering_eval.h"
#include "eval/privacy.h"
#include "eval/utility.h"
#include "obs/timer.h"

namespace daisy::eval {

void MetricEmitter::Add(std::string name, double value, double wall_ms) {
  report_->metrics.push_back({name, value, wall_ms});
  if (sink_ == nullptr) return;
  obs::MetricRecord rec;
  rec.run = "eval." + name;
  rec.iter = report_->metrics.size();
  rec.value = value;
  rec.iter_ms = wall_ms;
  rec.wall_ms = timer_.ElapsedMs();
  rec.threads = par::NumThreads();
  rec.seed = seed_;
  sink_->Log(rec);
}

const SuiteMetric* SuiteReport::Find(const std::string& name) const {
  for (const auto& m : metrics)
    if (m.name == name) return &m;
  return nullptr;
}

Result<SuiteReport> EvaluationSuite::Run(const data::Table& real,
                                         const data::Table& synthetic,
                                         obs::MetricSink* sink) const {
  if (real.num_attributes() != synthetic.num_attributes())
    return Status::InvalidArgument(
        "evaluation suite: real and synthetic schema widths differ");
  if (real.num_records() < 2 || synthetic.num_records() < 2)
    return Status::InvalidArgument(
        "evaluation suite: both tables need at least two records");
  if (!(opts_.train_ratio > 0.0 && opts_.train_ratio < 1.0))
    return Status::InvalidArgument(
        "evaluation suite: train_ratio must be in (0, 1)");

  SuiteReport report;
  MetricEmitter emit(&report, sink, opts_.seed);
  const bool has_label = real.schema().has_label();

  // ---- Classification utility (Eq. 1) -----------------------------
  if (opts_.utility && has_label) {
    Rng split_rng(opts_.seed);
    const auto split =
        data::SplitTable(real, opts_.train_ratio, 0.0, &split_rng);
    const bool binary =
        opts_.utility_auc && real.schema().num_labels() == 2;
    const LabeledMatrix train(split.train), test(split.test),
        synth(synthetic);
    for (auto kind : AllClassifierKinds()) {
      // Both fits start from the same fresh seed, so the real and the
      // synthetic classifier see identical random draws; one fit per
      // table scores F1 and, when asked, AUC.
      obs::WallTimer t;
      Rng r1(opts_.seed + 1), r2(opts_.seed + 1);
      double auc_real = 0.0, auc_synth = 0.0;
      const double f1_real = TrainAndScoreF1(train, test, kind, &r1,
                                             binary ? &auc_real : nullptr);
      const double f1_synth = TrainAndScoreF1(synth, test, kind, &r2,
                                              binary ? &auc_synth : nullptr);
      const std::string clf = ClassifierKindName(kind);
      emit.Add("utility.f1_diff." + clf, std::fabs(f1_real - f1_synth),
               t.ElapsedMs());
      // The AUC shares the F1 fits, whose time is booked above.
      if (binary)
        emit.Add("utility.auc_diff." + clf, std::fabs(auc_real - auc_synth),
                 0.0);
    }
  }

  // ---- Clustering utility (DiffCST) -------------------------------
  if (opts_.clustering && has_label) {
    obs::WallTimer t;
    Rng rng(opts_.seed + 5);
    const double diff = ClusteringDiff(real, synthetic, &rng);
    emit.Add("clustering.nmi_diff", diff, t.ElapsedMs());
  }

  // ---- Statistical fidelity ---------------------------------------
  if (opts_.fidelity) {
    const auto fid = EvaluateFidelity(real, synthetic, opts_.fidelity_opts);
    emit.Add("fidelity.marginal_kl", fid.marginal_kl, fid.marginal_kl_ms);
    emit.Add("fidelity.numeric_corr_diff", fid.numeric_correlation_diff,
             fid.numeric_ms);
    emit.Add("fidelity.cat_assoc_diff", fid.categorical_association_diff,
             fid.categorical_ms);

    {
      // Heavy-tail diagnostics: rare-mode coverage and a smoothed
      // categorical KL that stays finite (and sensitive) when the
      // generator drops tail categories.
      obs::WallTimer t;
      const auto rare =
          RareModeRecall(real, synthetic, opts_.rare_mode_threshold);
      emit.Add("fidelity.rare_mode_recall", rare.recall, t.ElapsedMs());
    }
    {
      obs::WallTimer t;
      emit.Add("fidelity.per_category_kl", PerCategoryKl(real, synthetic),
               t.ElapsedMs());
    }

    obs::WallTimer t;
    const auto fds = DiscoverFds(real, opts_.fd_min_confidence);
    if (!fds.empty()) {
      emit.Add("fidelity.fd_violation_rate", FdViolationRate(synthetic, fds),
               t.ElapsedMs());
    }
  }

  // ---- Privacy risk -----------------------------------------------
  if (opts_.privacy) {
    {
      obs::WallTimer t;
      HittingRateOptions hopts;
      hopts.num_synthetic_samples = opts_.privacy_samples;
      Rng rng(opts_.seed + 2);
      auto hit = HittingRate(real, synthetic, hopts, &rng);
      if (!hit.ok()) return hit.status();
      emit.Add("privacy.hitting_rate", hit.value(), t.ElapsedMs());
    }
    {
      obs::WallTimer t;
      DcrOptions dopts;
      dopts.num_original_samples = opts_.privacy_samples;
      Rng rng(opts_.seed + 3);
      auto dcr = DistanceToClosestRecord(real, synthetic, dopts, &rng);
      if (!dcr.ok()) return dcr.status();
      emit.Add("privacy.dcr", dcr.value(), t.ElapsedMs());
    }
  }

  // ---- AQP utility (DiffAQP) --------------------------------------
  if (opts_.aqp) {
    obs::WallTimer t;
    Rng rng(opts_.seed + 4);
    auto workload = GenerateAqpWorkload(real, opts_.aqp_workload, &rng);
    if (!workload.ok()) return workload.status();
    auto diff =
        AqpDiff(real, synthetic, workload.value(), opts_.aqp_diff, &rng);
    if (!diff.ok()) return diff.status();
    emit.Add("aqp.diff", diff.value(), t.ElapsedMs());
  }

  report.total_ms = emit.ElapsedMs();
  if (sink != nullptr) DAISY_RETURN_IF_ERROR(sink->Flush());
  return report;
}

}  // namespace daisy::eval
