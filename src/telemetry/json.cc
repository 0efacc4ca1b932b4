#include "telemetry/json.h"

namespace freeflow::telemetry {

void append_json_string(std::string& out, std::string_view s) {
  static constexpr char k_hex[] = "0123456789abcdef";
  out += '"';
  for (char c : s) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte < 0x20) {
      out += "\\u00";
      out += k_hex[byte >> 4];
      out += k_hex[byte & 0xF];
      continue;
    }
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

}  // namespace freeflow::telemetry
