// The one JSON string escaper behind both telemetry exporters (metric
// snapshots and Chrome traces).
#pragma once

#include <string>
#include <string_view>

namespace freeflow::telemetry {

/// Appends `s` to `out` as a quoted JSON string. `"` and `\` are
/// backslash-escaped and every byte below 0x20 becomes `\u00XX`: series
/// names carry container names ("gateway/<name>/..."), and a tab or newline
/// in one must not make the export unparseable.
void append_json_string(std::string& out, std::string_view s);

}  // namespace freeflow::telemetry
