#include "eval/utility.h"

#include <cmath>

#include "eval/class_metrics.h"

namespace daisy::eval {

LabeledMatrix::LabeledMatrix(const data::Table& table)
    : x(table.FeatureMatrix()),
      y(table.Labels()),
      num_classes(table.schema().num_labels()) {}

double TrainAndScoreF1(const LabeledMatrix& train, const LabeledMatrix& test,
                       ClassifierKind kind, Rng* rng, double* auc) {
  DAISY_CHECK(train.x.rows() > 0 && test.x.rows() > 0);
  auto clf = MakeClassifier(kind);
  clf->Fit(train.x, train.y, train.num_classes, rng);
  if (auc != nullptr) {
    const size_t positive = EvaluationLabel(test.y, test.num_classes);
    std::vector<double> scores(test.x.rows());
    for (size_t i = 0; i < test.x.rows(); ++i)
      scores[i] = clf->PredictProba(test.x.row(i))[positive];
    *auc = AucBinary(scores, test.y, positive);
  }
  return PaperF1(clf->PredictAll(test.x), test.y, test.num_classes);
}

double F1Diff(const data::Table& real_train, const data::Table& synthetic,
              const data::Table& test, ClassifierKind kind, Rng* rng) {
  const LabeledMatrix scored(test);
  const double f1_real = TrainAndScoreF1(real_train, scored, kind, rng);
  const double f1_synth = TrainAndScoreF1(synthetic, scored, kind, rng);
  return std::fabs(f1_real - f1_synth);
}

std::vector<double> SnapshotF1Curve(synth::TableSynthesizer* synthesizer,
                                    const data::Table& valid,
                                    const SnapshotSelectionOptions& opts,
                                    Rng* rng) {
  DAISY_CHECK(synthesizer->num_snapshots() > 0);
  const size_t gen_size =
      opts.gen_size > 0 ? opts.gen_size : valid.num_records();
  std::vector<double> curve;
  curve.reserve(synthesizer->num_snapshots());
  for (size_t i = 0; i < synthesizer->num_snapshots(); ++i) {
    synthesizer->UseSnapshot(i);
    data::Table fake = synthesizer->Generate(gen_size, rng);
    // A snapshot may fail to emit some label entirely (mode collapse);
    // score it 0 rather than crashing the sweep.
    bool trainable = false;
    const auto counts = fake.LabelCounts();
    size_t nonzero = 0;
    for (size_t c : counts) nonzero += c > 0 ? 1 : 0;
    trainable = nonzero >= 2;
    curve.push_back(
        trainable ? TrainAndScoreF1(fake, valid, opts.kind, rng) : 0.0);
  }
  synthesizer->UseFinal();
  return curve;
}

size_t SelectBestSnapshot(synth::TableSynthesizer* synthesizer,
                          const data::Table& valid,
                          const SnapshotSelectionOptions& opts, Rng* rng) {
  const auto curve = SnapshotF1Curve(synthesizer, valid, opts, rng);
  size_t best = 0;
  for (size_t i = 1; i < curve.size(); ++i)
    if (curve[i] > curve[best]) best = i;
  synthesizer->UseSnapshot(best);
  return best;
}

}  // namespace daisy::eval
