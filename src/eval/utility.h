// The paper's end-to-end utility pipeline (§2.1, Eq. 1): train a
// classifier f on the real training table and f' on the synthetic
// table, evaluate both on the held-out test table, and report
// Diff = |Eval(f) - Eval(f')|. Also hosts validation-based snapshot
// selection (§6.2).
#ifndef DAISY_EVAL_UTILITY_H_
#define DAISY_EVAL_UTILITY_H_

#include <vector>

#include "core/matrix.h"
#include "data/table.h"
#include "eval/classifier.h"
#include "synth/synthesizer.h"

namespace daisy::eval {

/// A labeled table as the classifiers read it: the feature matrix, the
/// labels and the size of the label domain. Converts implicitly from a
/// Table, so a one-off fit passes the table; a caller that fits several
/// classifiers on one table builds this once and shares it.
struct LabeledMatrix {
  LabeledMatrix(const data::Table& table);  // NOLINT(runtime/explicit)
  Matrix x;
  std::vector<size_t> y;
  size_t num_classes;
};

/// Fits `kind` on `train` once and returns the paper-style F1 on `test`
/// (positive label for binary, rarest label for multi-class — the
/// evaluation label is always chosen from the *test* labels so real and
/// synthetic classifiers are scored identically). When `auc` is
/// non-null, the same fit's class probabilities for that label also
/// give the AUC (binary label problems; 0.5 on degenerate score
/// distributions).
double TrainAndScoreF1(const LabeledMatrix& train, const LabeledMatrix& test,
                       ClassifierKind kind, Rng* rng, double* auc = nullptr);

/// Diff(T, T') of Eq. 1 for one classifier kind.
double F1Diff(const data::Table& real_train, const data::Table& synthetic,
              const data::Table& test, ClassifierKind kind, Rng* rng);

struct SnapshotSelectionOptions {
  ClassifierKind kind = ClassifierKind::kDt10;
  /// Synthetic records generated per snapshot evaluation (0 = size of
  /// the validation table).
  size_t gen_size = 0;
};

/// Implements the paper's model selection: evaluates every training
/// snapshot on the validation set (F1 of a classifier trained on data
/// generated by that snapshot) and loads the best one into the
/// synthesizer. Returns the chosen snapshot index.
size_t SelectBestSnapshot(synth::TableSynthesizer* synthesizer,
                          const data::Table& valid,
                          const SnapshotSelectionOptions& opts, Rng* rng);

/// Convenience: per-snapshot validation F1 curve (Figure 4's series).
std::vector<double> SnapshotF1Curve(synth::TableSynthesizer* synthesizer,
                                    const data::Table& valid,
                                    const SnapshotSelectionOptions& opts,
                                    Rng* rng);

}  // namespace daisy::eval

#endif  // DAISY_EVAL_UTILITY_H_
