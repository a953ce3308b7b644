#include "metric/instance_io.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

#include "support/assert.hpp"

namespace gncg {

namespace {

/// Reads the next content line (skipping blanks and '#' comments), with
/// leading and trailing whitespace stripped -- a CRLF file's '\r' included.
bool next_line(std::istream& is, std::string& line) {
  while (std::getline(is, line)) {
    const auto start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos) continue;
    if (line[start] == '#') continue;
    line = line.substr(start, line.find_last_not_of(" \t\r") + 1 - start);
    return true;
  }
  return false;
}

/// The whitespace-separated fields of the record `line`.  Contract-fails
/// unless its first field is `tag` and it has exactly `count` fields, the
/// tag included, so a missing or trailing token never loads silently.
std::vector<std::string> record_fields(const std::string& line,
                                       const std::string& tag,
                                       std::size_t count) {
  std::vector<std::string> fields;
  std::istringstream tokens(line);
  for (std::string token; tokens >> token;) fields.push_back(std::move(token));
  GNCG_CHECK(!fields.empty() && fields.front() == tag,
             "expected a '" << tag << "' line, got: " << line);
  GNCG_CHECK(fields.size() == count, "'" << tag << "' line needs exactly "
                                         << count - 1 << " value(s): " << line);
  return fields;
}

/// Parses `token` whole as a number of type T (integers in `base`).  An
/// empty, malformed, partial ("3x") or out-of-range token contract-fails,
/// naming `line`, instead of escaping as a std:: exception or loading as a
/// prefix.
template <class T>
T parse_token(const std::string& token, const std::string& line,
              int base = 10) {
  T value{};
  const char* const first = token.data();
  const char* const last = first + token.size();
  std::from_chars_result result{};
  if constexpr (std::is_floating_point_v<T>)
    result = std::from_chars(first, last, value);
  else
    result = std::from_chars(first, last, value, base);
  GNCG_CHECK(result.ec == std::errc() && result.ptr == last,
             "malformed number '" << token << "' in: " << line);
  return value;
}

/// A weight, coordinate or norm token: a number or "inf".
double parse_weight(const std::string& token, const std::string& line) {
  if (token == "inf") return kInf;
  return parse_token<double>(token, line);
}

std::string format_weight(double w) {
  if (!(w < kInf)) return "inf";
  std::ostringstream os;
  os.precision(17);
  os << w;
  return os.str();
}

/// The value of the "<key> <value>" record read into `line`; `have_line`
/// says whether there was a line at all.
std::string key_value(const std::string& line, bool have_line,
                      const std::string& key) {
  GNCG_CHECK(have_line, "missing '" << key << "' line");
  return record_fields(line, key, 2)[1];
}

/// Parses "n <count>" from an already-read content line.
int parse_node_count(const std::string& line, bool have_line) {
  const int n = parse_token<int>(key_value(line, have_line, "n"), line);
  GNCG_CHECK(n >= 1, "invalid node count " << n);
  return n;
}

/// Reads "n <count>" from the next content line.
int read_node_count(std::istream& is, std::string& line) {
  return parse_node_count(line, next_line(is, line));
}

/// Consumes the optional `x-<key> <value>` extension block.  Known keys fill
/// `provenance` (when non-null); unknown x- keys are skipped for forward
/// compatibility.  On return `line` holds the first non-extension line and
/// the result says whether one exists.
bool read_extension_block(std::istream& is, std::string& line,
                          HostProvenance* provenance) {
  bool have_line = next_line(is, line);
  while (have_line && line.rfind("x-", 0) == 0) {
    std::istringstream tokens(line);
    std::string key, value;
    tokens >> key >> value;
    GNCG_CHECK(!value.empty(), "extension line misses its value: " << line);
    if (key == "x-scenario" || key == "x-point" || key == "x-stream") {
      value = record_fields(line, key, 2)[1];
      if (provenance != nullptr) {
        if (key == "x-scenario") provenance->scenario = value;
        else if (key == "x-point")
          provenance->point_index = parse_token<std::uint64_t>(value, line);
        else
          provenance->stream = parse_token<std::uint64_t>(value, line, 16);
      }
    }
    // other x- keys: written by a newer tool, intentionally ignored
    have_line = next_line(is, line);
  }
  return have_line;
}

/// Shared "w" pair-list parser (v1 body and the v2 dense/lazy payload).
DistanceMatrix read_weight_lines(std::istream& is, std::string& line, int n) {
  DistanceMatrix weights(n, kInf);
  std::vector<char> seen(
      static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 0);
  while (next_line(is, line)) {
    const auto fields = record_fields(line, "w", 4);
    const int u = parse_token<int>(fields[1], line);
    const int v = parse_token<int>(fields[2], line);
    GNCG_CHECK(u >= 0 && u < n && v >= 0 && v < n && u != v,
               "weight line out of range: " << line);
    const auto index =
        static_cast<std::size_t>(std::min(u, v)) * static_cast<std::size_t>(n) +
        static_cast<std::size_t>(std::max(u, v));
    GNCG_CHECK(!seen[index], "duplicate pair in host file: " << line);
    seen[index] = 1;
    weights.set_symmetric(u, v, parse_weight(fields[3], line));
  }
  for (int u = 0; u < n; ++u)
    for (int v = u + 1; v < n; ++v) {
      const auto index = static_cast<std::size_t>(u) * static_cast<std::size_t>(n) +
                         static_cast<std::size_t>(v);
      GNCG_CHECK(seen[index],
                 "host file misses pair (" << u << "," << v << ")");
    }
  return weights;
}

HostGraph load_host_v2(std::istream& is, std::string& line,
                       HostProvenance* provenance) {
  const std::string backend =
      key_value(line, next_line(is, line), "backend");
  const auto model =
      model_from_name(key_value(line, next_line(is, line), "model"));
  GNCG_CHECK(model.has_value(), "unknown model name in host file: " << line);
  const bool have_payload = read_extension_block(is, line, provenance);

  if (backend == "euclidean") {
    // from_points always declares Rd-GNCG; a file claiming otherwise is
    // inconsistent, not silently rewritable.
    GNCG_CHECK(*model == ModelClass::kEuclidean,
               "euclidean backend requires model "
                   << model_name(ModelClass::kEuclidean) << ", file says "
                   << model_name(*model));
    const double p = parse_weight(key_value(line, have_payload, "p"), line);
    const int dim =
        parse_token<int>(key_value(line, next_line(is, line), "dim"), line);
    GNCG_CHECK(dim >= 1, "invalid point dimension " << dim);
    const int n = read_node_count(is, line);
    PointSet points(n, dim);
    std::vector<char> seen(static_cast<std::size_t>(n), 0);
    while (next_line(is, line)) {
      const auto fields =
          record_fields(line, "point", 2 + static_cast<std::size_t>(dim));
      const int i = parse_token<int>(fields[1], line);
      GNCG_CHECK(i >= 0 && i < n, "point index out of range: " << line);
      GNCG_CHECK(!seen[static_cast<std::size_t>(i)],
                 "duplicate point in host file: " << line);
      seen[static_cast<std::size_t>(i)] = 1;
      for (int k = 0; k < dim; ++k) {
        const double value =
            parse_weight(fields[2 + static_cast<std::size_t>(k)], line);
        // Coordinates may be negative but must be finite: a NaN/inf here
        // would silently poison every weight, unlike the dense path where
        // HostGraph::validated rejects such entries.
        GNCG_CHECK(std::isfinite(value),
                   "non-finite point coordinate: " << line);
        points.set_coord(i, k, value);
      }
    }
    for (int i = 0; i < n; ++i)
      GNCG_CHECK(seen[static_cast<std::size_t>(i)],
                 "host file misses point " << i);
    return HostGraph::from_points(points, p);
  }

  if (backend == "tree") {
    GNCG_CHECK(*model == ModelClass::kTree,
               "tree backend requires model "
                   << model_name(ModelClass::kTree) << ", file says "
                   << model_name(*model));
    const int n = parse_node_count(line, have_payload);
    std::vector<Edge> edges;
    while (next_line(is, line)) {
      const auto fields = record_fields(line, "tedge", 4);
      const int u = parse_token<int>(fields[1], line);
      const int v = parse_token<int>(fields[2], line);
      GNCG_CHECK(u >= 0 && u < n && v >= 0 && v < n && u != v,
                 "tree edge out of range: " << line);
      edges.push_back({u, v, parse_weight(fields[3], line)});
    }
    return HostGraph::from_tree(WeightedTree(n, std::move(edges)));
  }

  GNCG_CHECK(backend == "dense" || backend == "lazy",
             "unknown backend in host file: " << backend);
  const int n = parse_node_count(line, have_payload);
  DistanceMatrix weights = read_weight_lines(is, line, n);
  return backend == "lazy"
             ? HostGraph::from_weights_lazy(std::move(weights), *model)
             : HostGraph::from_weights(std::move(weights), *model);
}

}  // namespace

void save_host(std::ostream& os, const HostGraph& host,
               const HostProvenance* provenance) {
  const int n = host.node_count();
  os << "gncg-host 2\n";
  os << "# complete weighted host graph, " << model_name(host.declared_model())
     << "\n";
  os << "backend " << backend_name(host.backend_kind()) << "\n";
  os << "model " << model_name(host.declared_model()) << "\n";
  if (provenance != nullptr) {
    GNCG_CHECK(!provenance->scenario.empty() &&
                   provenance->scenario.find_first_of(" \t\r\n") ==
                       std::string::npos,
               "provenance scenario must be a non-empty token");
    char stream_hex[20];
    std::snprintf(stream_hex, sizeof(stream_hex), "%016llx",
                  static_cast<unsigned long long>(provenance->stream));
    os << "x-scenario " << provenance->scenario << "\n";
    os << "x-point " << provenance->point_index << "\n";
    os << "x-stream " << stream_hex << "\n";
  }

  if (host.backend_kind() == HostBackendKind::kEuclidean) {
    const PointSet* points = host.points();
    GNCG_CHECK(points != nullptr && host.norm_p().has_value(),
               "euclidean host lost its point provenance");
    os << "p " << format_weight(*host.norm_p()) << "\n";
    os << "dim " << points->dim() << "\n";
    os << "n " << n << "\n";
    std::ostringstream coords;
    coords.precision(17);
    for (int i = 0; i < n; ++i) {
      coords.str("");
      coords << "point " << i;
      for (int k = 0; k < points->dim(); ++k)
        coords << ' ' << points->coord(i, k);
      os << coords.str() << "\n";
    }
    return;
  }

  if (host.backend_kind() == HostBackendKind::kTree) {
    const auto& edges = host.tree_edges();
    GNCG_CHECK(edges.has_value(), "tree host lost its tree provenance");
    os << "n " << n << "\n";
    for (const auto& e : *edges)
      os << "tedge " << e.u << ' ' << e.v << ' ' << format_weight(e.weight)
         << "\n";
    return;
  }

  os << "n " << n << "\n";
  for (int u = 0; u < n; ++u)
    for (int v = u + 1; v < n; ++v)
      os << "w " << u << ' ' << v << ' ' << format_weight(host.weight(u, v))
         << "\n";
}

HostGraph load_host(std::istream& is, HostProvenance* provenance) {
  std::string line;
  const int version = parse_token<int>(
      key_value(line, next_line(is, line), "gncg-host"), line);
  GNCG_CHECK(version == 1 || version == 2,
             "unsupported gncg-host version: " << line);
  if (version == 2) return load_host_v2(is, line, provenance);

  const int n = read_node_count(is, line);
  return HostGraph::from_weights(read_weight_lines(is, line, n));
}

void save_profile(std::ostream& os, const StrategyProfile& profile) {
  os << "gncg-profile 1\n";
  os << "n " << profile.node_count() << "\n";
  for (int u = 0; u < profile.node_count(); ++u)
    profile.strategy(u).for_each(
        [&](int v) { os << "buy " << u << ' ' << v << "\n"; });
}

StrategyProfile load_profile(std::istream& is) {
  std::string line;
  const int version = parse_token<int>(
      key_value(line, next_line(is, line), "gncg-profile"), line);
  GNCG_CHECK(version == 1, "unsupported gncg-profile version: " << line);
  const int n = read_node_count(is, line);
  StrategyProfile profile(n);
  while (next_line(is, line)) {
    const auto fields = record_fields(line, "buy", 3);
    const int owner = parse_token<int>(fields[1], line);
    const int target = parse_token<int>(fields[2], line);
    GNCG_CHECK(owner >= 0 && owner < n && target >= 0 && target < n &&
                   owner != target,
               "buy line out of range: " << line);
    profile.add_buy(owner, target);
  }
  return profile;
}

}  // namespace gncg
