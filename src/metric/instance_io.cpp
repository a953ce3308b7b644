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

/// Reads the next content line (skipping blanks and '#' comments).
bool next_line(std::istream& is, std::string& line) {
  while (std::getline(is, line)) {
    const auto start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos) continue;
    if (line[start] == '#') continue;
    line = line.substr(start);
    return true;
  }
  return false;
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

/// The value token of a "<key> <value>" line.
std::string value_token(const std::string& line) {
  std::istringstream tokens(line);
  std::string key, value;
  tokens >> key >> value;
  return value;
}

/// Parses "n <count>" from an already-read content line.
int parse_node_count(const std::string& line, bool have_line) {
  GNCG_CHECK(have_line && line.rfind("n ", 0) == 0, "missing node count");
  const int n = parse_token<int>(value_token(line), line);
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
    if (provenance != nullptr) {
      if (key == "x-scenario") provenance->scenario = value;
      else if (key == "x-point")
        provenance->point_index = parse_token<std::uint64_t>(value, line);
      else if (key == "x-stream")
        provenance->stream = parse_token<std::uint64_t>(value, line, 16);
      // other x- keys: written by a newer tool, intentionally ignored
    }
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
    std::istringstream tokens(line);
    std::string tag, u_token, v_token, weight_token;
    tokens >> tag >> u_token >> v_token >> weight_token;
    GNCG_CHECK(tag == "w" && tokens, "malformed weight line: " << line);
    const int u = parse_token<int>(u_token, line);
    const int v = parse_token<int>(v_token, line);
    GNCG_CHECK(u >= 0 && u < n && v >= 0 && v < n && u != v,
               "weight line out of range: " << line);
    const auto index =
        static_cast<std::size_t>(std::min(u, v)) * static_cast<std::size_t>(n) +
        static_cast<std::size_t>(std::max(u, v));
    GNCG_CHECK(!seen[index], "duplicate pair in host file: " << line);
    seen[index] = 1;
    weights.set_symmetric(u, v, parse_weight(weight_token, line));
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
  GNCG_CHECK(next_line(is, line) && line.rfind("backend ", 0) == 0,
             "missing backend line");
  const std::string backend = line.substr(8);
  GNCG_CHECK(next_line(is, line) && line.rfind("model ", 0) == 0,
             "missing model line");
  const auto model = model_from_name(line.substr(6));
  GNCG_CHECK(model.has_value(), "unknown model name in host file: " << line);
  const bool have_payload = read_extension_block(is, line, provenance);

  if (backend == "euclidean") {
    // from_points always declares Rd-GNCG; a file claiming otherwise is
    // inconsistent, not silently rewritable.
    GNCG_CHECK(*model == ModelClass::kEuclidean,
               "euclidean backend requires model "
                   << model_name(ModelClass::kEuclidean) << ", file says "
                   << model_name(*model));
    GNCG_CHECK(have_payload && line.rfind("p ", 0) == 0,
               "missing norm line");
    const double p = parse_weight(value_token(line), line);
    GNCG_CHECK(next_line(is, line) && line.rfind("dim ", 0) == 0,
               "missing dim line");
    const int dim = parse_token<int>(value_token(line), line);
    GNCG_CHECK(dim >= 1, "invalid point dimension " << dim);
    const int n = read_node_count(is, line);
    PointSet points(n, dim);
    std::vector<char> seen(static_cast<std::size_t>(n), 0);
    while (next_line(is, line)) {
      std::istringstream tokens(line);
      std::string tag, index_token;
      tokens >> tag >> index_token;
      GNCG_CHECK(tag == "point" && tokens, "malformed point line: " << line);
      const int i = parse_token<int>(index_token, line);
      GNCG_CHECK(i >= 0 && i < n, "point index out of range: " << line);
      GNCG_CHECK(!seen[static_cast<std::size_t>(i)],
                 "duplicate point in host file: " << line);
      seen[static_cast<std::size_t>(i)] = 1;
      for (int k = 0; k < dim; ++k) {
        std::string coord;
        tokens >> coord;
        GNCG_CHECK(tokens, "point line has too few coordinates: " << line);
        const double value = parse_weight(coord, line);
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
      std::istringstream tokens(line);
      std::string tag, u_token, v_token, weight_token;
      tokens >> tag >> u_token >> v_token >> weight_token;
      GNCG_CHECK(tag == "tedge" && tokens, "malformed tree line: " << line);
      const int u = parse_token<int>(u_token, line);
      const int v = parse_token<int>(v_token, line);
      GNCG_CHECK(u >= 0 && u < n && v >= 0 && v < n && u != v,
                 "tree edge out of range: " << line);
      edges.push_back({u, v, parse_weight(weight_token, line)});
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
  GNCG_CHECK(next_line(is, line) && line.rfind("gncg-host", 0) == 0,
             "missing gncg-host header");
  std::istringstream header(line);
  std::string tag, version_token;
  header >> tag >> version_token;
  const int version = parse_token<int>(version_token, line);
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
  GNCG_CHECK(next_line(is, line) && line.rfind("gncg-profile", 0) == 0,
             "missing gncg-profile header");
  const int n = read_node_count(is, line);
  StrategyProfile profile(n);
  while (next_line(is, line)) {
    std::istringstream tokens(line);
    std::string tag, owner_token, target_token;
    tokens >> tag >> owner_token >> target_token;
    GNCG_CHECK(tag == "buy" && tokens, "malformed buy line: " << line);
    const int owner = parse_token<int>(owner_token, line);
    const int target = parse_token<int>(target_token, line);
    GNCG_CHECK(owner >= 0 && owner < n && target >= 0 && target < n &&
                   owner != target,
               "buy line out of range: " << line);
    profile.add_buy(owner, target);
  }
  return profile;
}

}  // namespace gncg
