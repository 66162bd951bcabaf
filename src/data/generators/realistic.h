// Simulated stand-ins for the paper's eight real datasets (Table 2).
// The originals (UCI + a Microsoft production workload) are not
// redistributable here; each stand-in reproduces the characteristics
// the study varies — attribute counts and types, label cardinality and
// skew, and multi-modal numeric marginals. See DESIGN.md §2-3.
#ifndef DAISY_DATA_GENERATORS_REALISTIC_H_
#define DAISY_DATA_GENERATORS_REALISTIC_H_

#include <string>
#include <vector>

#include "core/rng.h"
#include "data/table.h"

namespace daisy::data {

/// HTRU2-sim: 8 numerical, binary skewed label (pulsar detection).
Table MakeHtru2Sim(size_t n, Rng* rng);

/// Digits-sim: 16 numerical, 10 balanced labels.
Table MakeDigitsSim(size_t n, Rng* rng);

/// Adult-sim: 6 numerical + 8 categorical, binary label with the
/// paper's 0.34 positive:negative ratio.
Table MakeAdultSim(size_t n, Rng* rng);

/// CovType-sim: 10 numerical + 2 categorical, 7 skewed labels
/// (46% / ... / 6% as reported in the paper's appendix).
Table MakeCovTypeSim(size_t n, Rng* rng);

/// SAT-sim: 36 numerical, 6 balanced labels.
Table MakeSatSim(size_t n, Rng* rng);

/// Anuran-sim: 22 numerical, 10 very skewed labels.
Table MakeAnuranSim(size_t n, Rng* rng);

/// Census-sim: 9 numerical + 30 categorical, binary 5%-positive label.
Table MakeCensusSim(size_t n, Rng* rng);

/// Bing-sim: 7 numerical + 23 categorical, unlabeled (AQP only).
Table MakeBingSim(size_t n, Rng* rng);

/// Lookup by name ("adult", "covtype", ...); aborts on unknown names.
Table MakeDatasetByName(const std::string& name, size_t n, Rng* rng);

}  // namespace daisy::data

#endif  // DAISY_DATA_GENERATORS_REALISTIC_H_
