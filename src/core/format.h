// The one number formatter: every double the program writes as text
// (CSV cells, model files and checkpoints, JSONL records, messages)
// goes through AppendG. It prints the bytes printf("%.<precision>g")
// prints in the "C" locale -- std::to_chars in general format with a
// precision is specified that way -- without stdio's format parsing
// and locale lookup, and with no temporary string per number.
#ifndef DAISY_CORE_FORMAT_H_
#define DAISY_CORE_FORMAT_H_

#include <charconv>
#include <string>
#include <system_error>

#include "core/status.h"

namespace daisy {

/// Significant digits of "%g": what CSV cells and messages print.
inline constexpr int kTextDigits = 6;
/// Significant digits that read back as the same double ("%.17g"):
/// model files, checkpoints and JSONL records.
inline constexpr int kRoundTripDigits = 17;

/// Appends `v` as printf("%.<precision>g", v) would print it: nan, inf
/// and zero keep their sign ("-nan", "-inf", "-0"). `precision` must be
/// in [1, kRoundTripDigits], so the text fits the 32-byte buffer.
inline void AppendG(double v, int precision, std::string* out) {
  DAISY_CHECK(precision >= 1 && precision <= kRoundTripDigits);
  char buf[32];
  const std::to_chars_result r = std::to_chars(
      buf, buf + sizeof(buf), v, std::chars_format::general, precision);
  DAISY_CHECK(r.ec == std::errc());
  out->append(buf, r.ptr);
}

}  // namespace daisy

#endif  // DAISY_CORE_FORMAT_H_
