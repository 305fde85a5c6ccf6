#include "platform/export.h"

#include "common/strings.h"
#include "query/snapshot.h"

namespace tvdp::platform {
namespace {

struct ImageMeta {
  int64_t id;
  std::string uri;
  double lat;
  double lon;
  Timestamp captured_at;
  Timestamp uploaded_at;
  std::string source;
};

Result<ImageMeta> FetchMeta(const storage::Table* images, int64_t image_id) {
  if (!images) return Status::FailedPrecondition("images table missing");
  TVDP_ASSIGN_OR_RETURN(const storage::Row* found, images->Get(image_id));
  const storage::Row& row = *found;
  const storage::Schema& s = images->schema();
  auto col = [&](const char* name) {
    return static_cast<size_t>(s.ColumnIndex(name));
  };
  ImageMeta meta;
  meta.id = image_id;
  meta.uri = row[col("uri")].AsString();
  meta.lat = row[col("lat")].AsDouble();
  meta.lon = row[col("lon")].AsDouble();
  meta.captured_at = row[col("timestamp_capturing")].AsInt64();
  meta.uploaded_at = row[col("timestamp_uploading")].AsInt64();
  meta.source = row[col("source")].AsString();
  return meta;
}

}  // namespace

std::string CsvEscape(const std::string& field) {
  // A leading =, +, - or @ would be executed as a formula by spreadsheet
  // software opening the export; quote it and neutralize with a leading
  // single quote so the cell stays inert text.
  bool formula = !field.empty() && (field[0] == '=' || field[0] == '+' ||
                                    field[0] == '-' || field[0] == '@');
  bool needs_quoting =
      formula || field.find_first_of(",\"\r\n") != std::string::npos;
  if (!needs_quoting) return field;
  std::string out = "\"";
  if (formula) out += '\'';
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += "\"";
  return out;
}

Result<std::string> ExportMetadataCsv(const Tvdp& tvdp,
                                      const std::vector<int64_t>& image_ids) {
  // Lock-free: one pinned MVCC snapshot gives every row of the export the
  // same consistent version.
  query::SnapshotRef snap = tvdp.query().PinSnapshot();
  const storage::Table* images = snap->FindTable(storage::tables::kImages);
  // RFC 4180 terminates every record (header included) with CRLF.
  std::string out = "id,uri,lat,lon,captured_at,uploaded_at,source\r\n";
  for (int64_t id : image_ids) {
    TVDP_ASSIGN_OR_RETURN(ImageMeta meta, FetchMeta(images, id));
    out += StrFormat("%lld,%s,%.6f,%.6f,%s,%s,%s\r\n",
                     static_cast<long long>(meta.id),
                     CsvEscape(meta.uri).c_str(), meta.lat, meta.lon,
                     CsvEscape(FormatTimestamp(meta.captured_at)).c_str(),
                     CsvEscape(FormatTimestamp(meta.uploaded_at)).c_str(),
                     CsvEscape(meta.source).c_str());
  }
  return out;
}

Result<Json> ExportGeoJson(const Tvdp& tvdp,
                           const std::vector<int64_t>& image_ids) {
  query::SnapshotRef snap = tvdp.query().PinSnapshot();
  const storage::Table* images = snap->FindTable(storage::tables::kImages);
  Json features = Json::MakeArray();
  for (int64_t id : image_ids) {
    TVDP_ASSIGN_OR_RETURN(ImageMeta meta, FetchMeta(images, id));
    Json geometry = Json::MakeObject();
    geometry["type"] = "Point";
    Json coords = Json::MakeArray();
    coords.Append(meta.lon);  // GeoJSON is [lon, lat]
    coords.Append(meta.lat);
    geometry["coordinates"] = std::move(coords);

    Json properties = Json::MakeObject();
    properties["id"] = meta.id;
    properties["uri"] = meta.uri;
    properties["captured_at"] = FormatTimestamp(meta.captured_at);
    properties["source"] = meta.source;

    Json feature = Json::MakeObject();
    feature["type"] = "Feature";
    feature["geometry"] = std::move(geometry);
    feature["properties"] = std::move(properties);
    features.Append(std::move(feature));
  }
  Json collection = Json::MakeObject();
  collection["type"] = "FeatureCollection";
  collection["features"] = std::move(features);
  return collection;
}

}  // namespace tvdp::platform
