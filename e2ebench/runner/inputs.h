// Seeded workload inputs. The program under test only ever sees what
// these functions produce; the same seed gives byte-identical inputs.
#ifndef E2EBENCH_RUNNER_INPUTS_H_
#define E2EBENCH_RUNNER_INPUTS_H_

#include <cstdint>
#include <string>

#include "core/status.h"
#include "data/table.h"

namespace e2ebench {

/// Adult-like table (6 numerical + 8 categorical attributes and a
/// binary label) of `rows` records drawn from `seed`.
daisy::data::Table MakeAdultTable(size_t rows, uint64_t seed);

/// Writes an Adult-like CSV of `rows` records drawn from `seed` by
/// streaming: records are generated and written in blocks, so memory
/// stays bounded by one block whatever `rows` is. `label_column`
/// receives the label attribute's name.
daisy::Status WriteAdultCsv(const std::string& path, size_t rows,
                            uint64_t seed, std::string* label_column);

}  // namespace e2ebench

#endif  // E2EBENCH_RUNNER_INPUTS_H_
