// The serving path's names for the one CSV encoder (data/csv.h). A
// response is CsvHeader once, then CsvRows chunk by chunk, so a
// 10M-row request never materializes more than one decoded chunk; the
// concatenated bytes are what data::WriteCsv writes for the whole
// table at once.
#ifndef DAISY_SERVE_CSV_STREAM_H_
#define DAISY_SERVE_CSV_STREAM_H_

#include "data/csv.h"

namespace daisy::serve {

using data::CsvHeader;
using data::CsvRows;

}  // namespace daisy::serve

#endif  // DAISY_SERVE_CSV_STREAM_H_
