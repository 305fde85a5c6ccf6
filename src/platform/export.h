#ifndef TVDP_PLATFORM_EXPORT_H_
#define TVDP_PLATFORM_EXPORT_H_

#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "platform/tvdp.h"

namespace tvdp::platform {

/// Dataset export in "predefined forms" (paper Sec. V, API #3: searched
/// data can be downloaded "in their raw form or only metadata in
/// predefined forms"). Non-technical participants (city departments,
/// non-profits) consume these directly in spreadsheets and GIS tools.

/// Exports the metadata rows of `image_ids` as RFC-4180 CSV with a header
/// line: id,uri,lat,lon,captured_at,uploaded_at,source. Records end with
/// CRLF per RFC 4180. Fields containing commas/quotes/newlines are quoted
/// and escaped, and fields that a spreadsheet would evaluate as a formula
/// (leading `=`, `+`, `-` or `@`) are neutralized — see CsvEscape. Fails
/// with NotFound if any id is missing. Reads one pinned MVCC snapshot, so
/// it is safe to call concurrently with ingest.
Result<std::string> ExportMetadataCsv(const Tvdp& tvdp,
                                      const std::vector<int64_t>& image_ids);

/// Exports the camera locations of `image_ids` as a GeoJSON
/// FeatureCollection of Point features, each carrying id/uri/captured_at
/// properties — ready for any web map. Fails with NotFound on missing ids.
/// Reads one pinned MVCC snapshot.
Result<Json> ExportGeoJson(const Tvdp& tvdp,
                           const std::vector<int64_t>& image_ids);

/// Escapes one CSV field per RFC 4180 (quotes the field when it contains
/// a comma, quote, CR or LF; doubles embedded quotes). Additionally
/// defuses CSV injection: a field starting with `=`, `+`, `-` or `@`
/// would be interpreted as a formula by common spreadsheet software when
/// the export is opened, so it is quoted and prefixed with a single quote
/// (the OWASP-recommended neutralization). Exported URIs and sources come
/// from untrusted crowdsourced uploads, so this is load-bearing.
std::string CsvEscape(const std::string& field);

}  // namespace tvdp::platform

#endif  // TVDP_PLATFORM_EXPORT_H_
