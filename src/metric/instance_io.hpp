// Plain-text serialization of game instances and strategy profiles.
//
// Hosts (version 2; version 1 files still load):
//   gncg-host 2            # header + version
//   backend <dense|lazy|euclidean|tree>
//   model <model-name>     # declared model (model_name token, e.g. T-GNCG)
//   x-scenario <name>      # optional provenance: sweep scenario,
//   x-point <index>        #   position in the expanded sweep plan,
//   x-stream <hex64>       #   derived RNG stream (support/rng stream_seed)
//   n <count>
// `x-` lines are an extension block: zero or more may follow `model`, and
// readers skip unknown `x-` keys, so provenance-stamped files stay loadable
// by older tools and vice versa.  The sweep pipeline stamps these so a
// dumped instance names the exact job that produced it.
// The header is followed by a backend-specific payload:
//   * dense / lazy:  one "w <u> <v> <weight>" line per unordered pair
//                    ("inf" allowed);
//   * euclidean:     "p <norm|inf>", "dim <d>", then one
//                    "point <i> <x0> ... <x_{d-1}>" line per point;
//   * tree:          one "tedge <u> <v> <weight>" line per tree edge.
// Geometric hosts round-trip their *provenance* (point set / tree), not the
// expanded O(n^2) matrix: a loaded euclidean or tree host reconstructs the
// same implicit backend, bit-identical weights included (coordinates and
// weights are printed with round-trip precision).
//
// Profiles:
//   gncg-profile 1
//   n <count>
//   buy <owner> <target>
// Deterministic round-trips make experiment configurations shareable and
// let the CLI tools consume externally generated instances.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/game.hpp"
#include "metric/host_graph.hpp"

namespace gncg {

/// Where a host instance came from: the sweep job identity.  `stream` is
/// the job's derived RNG seed (stream_seed), so the instance can be rebuilt
/// or the job re-run from the file alone.
struct HostProvenance {
  std::string scenario;
  std::uint64_t point_index = 0;
  std::uint64_t stream = 0;
};

/// Writes the host in the version-2 format above: generating payload for
/// geometric backends, the complete weight matrix otherwise.  A non-null
/// `provenance` is recorded as the x- extension block.
void save_host(std::ostream& os, const HostGraph& host,
               const HostProvenance* provenance = nullptr);

/// Parses a host written by save_host (version 1 or 2), reconstructing the
/// recorded backend kind.  Contract-fails on malformed input (bad header,
/// missing pairs, asymmetric duplicates, unknown backend, a record with a
/// missing or extra field, a number token that is malformed, partial or out
/// of range).  CRLF line ends load like LF.  When `provenance` is
/// non-null and the file carries an x- block, it is filled in (left
/// untouched otherwise).
HostGraph load_host(std::istream& is, HostProvenance* provenance = nullptr);

/// Writes a strategy profile (ownership list).
void save_profile(std::ostream& os, const StrategyProfile& profile);

/// Parses a profile written by save_profile; contract-fails on malformed
/// input like load_host.
StrategyProfile load_profile(std::istream& is);

}  // namespace gncg
