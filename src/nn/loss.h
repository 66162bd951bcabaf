// Loss functions. Each returns the scalar loss and writes dLoss/dInput
// for the caller to backpropagate.
#ifndef DAISY_NN_LOSS_H_
#define DAISY_NN_LOSS_H_

#include "core/matrix.h"

namespace daisy::nn {

/// Binary cross-entropy on probabilities in (0,1).
/// loss = -mean(t*log(p) + (1-t)*log(1-p)).
double BceLoss(const Matrix& probs, const Matrix& targets, Matrix* grad);

/// Numerically stable BCE on raw logits.
double BceWithLogitsLoss(const Matrix& logits, const Matrix& targets,
                         Matrix* grad);

/// The generator's non-saturating "log D" trick is computed inside the
/// trainers; these helpers cover the loss pieces shared across them.

}  // namespace daisy::nn

#endif  // DAISY_NN_LOSS_H_
