// Tests for the serialization features: DOT export and the plain-text
// instance/profile round trip.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>

#include "metric/instance_io.hpp"
#include "metric/points.hpp"
#include "metric/tree.hpp"
#include "support/dot.hpp"
#include "support/rng.hpp"

namespace gncg {
namespace {

TEST(Dot, UndirectedGraphContainsEdgesAndWeights) {
  WeightedGraph g(3);
  g.add_edge(0, 1, 1.5);
  g.add_edge(1, 2, 2.0);
  std::ostringstream os;
  write_dot(os, g);
  const std::string out = os.str();
  EXPECT_NE(out.find("graph gncg {"), std::string::npos);
  EXPECT_NE(out.find("0 -- 1"), std::string::npos);
  EXPECT_NE(out.find("1.5"), std::string::npos);
  EXPECT_NE(out.find("1 -- 2"), std::string::npos);
}

TEST(Dot, ProfileArrowsPointFromOwner) {
  Rng rng(1);
  const Game game(random_metric_host(3, rng), 1.0);
  StrategyProfile profile(3);
  profile.add_buy(2, 0);
  std::ostringstream os;
  write_dot(os, game, profile);
  const std::string out = os.str();
  EXPECT_NE(out.find("digraph"), std::string::npos);
  EXPECT_NE(out.find("2 -> 0"), std::string::npos);
  EXPECT_EQ(out.find("0 -> 2"), std::string::npos);
}

TEST(Dot, LabelsAndLayoutAreEmitted) {
  WeightedGraph g(2);
  g.add_edge(0, 1, 1.0);
  const PointSet layout({{0.0, 0.0}, {3.0, 4.0}});
  DotOptions options;
  options.labels = {"Hamburg", "Berlin"};
  options.layout = &layout;
  options.edge_weights = false;
  std::ostringstream os;
  write_dot(os, g, options);
  const std::string out = os.str();
  EXPECT_NE(out.find("Hamburg"), std::string::npos);
  EXPECT_NE(out.find("pos=\"3.0,4.0!\""), std::string::npos);
  EXPECT_EQ(out.find("label=\"1.0\""), std::string::npos);
}

TEST(InstanceIo, HostRoundTripPreservesWeights) {
  Rng rng(2);
  const auto host = random_metric_host(6, rng);
  std::stringstream buffer;
  save_host(buffer, host);
  const auto loaded = load_host(buffer);
  ASSERT_EQ(loaded.node_count(), host.node_count());
  for (int u = 0; u < 6; ++u)
    for (int v = 0; v < 6; ++v)
      EXPECT_DOUBLE_EQ(loaded.weight(u, v), host.weight(u, v));
}

TEST(InstanceIo, HostRoundTripPreservesInfiniteWeights) {
  Rng rng(3);
  const auto host = random_one_inf_host(5, 0.5, rng);
  std::stringstream buffer;
  save_host(buffer, host);
  const auto loaded = load_host(buffer);
  for (int u = 0; u < 5; ++u)
    for (int v = u + 1; v < 5; ++v)
      EXPECT_EQ(loaded.weight(u, v), host.weight(u, v));
}

TEST(InstanceIo, ProfileRoundTripPreservesOwnership) {
  StrategyProfile profile(4);
  profile.add_buy(0, 3);
  profile.add_buy(2, 1);
  profile.add_buy(3, 0);  // double ownership survives the trip
  std::stringstream buffer;
  save_profile(buffer, profile);
  const auto loaded = load_profile(buffer);
  EXPECT_EQ(loaded, profile);
}

TEST(InstanceIo, CommentsAndBlankLinesAreSkipped) {
  std::stringstream buffer;
  buffer << "# a comment\n\ngncg-host 1\n  # another\nn 2\nw 0 1 2.5\n";
  const auto host = load_host(buffer);
  EXPECT_EQ(host.node_count(), 2);
  EXPECT_DOUBLE_EQ(host.weight(0, 1), 2.5);
}

TEST(InstanceIo, LegacyVersionOneLoadsAsDense) {
  std::stringstream buffer;
  buffer << "gncg-host 1\nn 3\nw 0 1 1\nw 0 2 2\nw 1 2 2\n";
  const auto host = load_host(buffer);
  EXPECT_EQ(host.backend_kind(), HostBackendKind::kDense);
  EXPECT_EQ(host.declared_model(), ModelClass::kGeneral);
}

TEST(InstanceIo, LiteralVersionTwoEuclideanText) {
  std::stringstream buffer;
  buffer << "gncg-host 2\nbackend euclidean\nmodel Rd-GNCG\n"
         << "p 2\ndim 2\nn 2\npoint 0 0 0\npoint 1 3 4\n";
  const auto host = load_host(buffer);
  EXPECT_EQ(host.backend_kind(), HostBackendKind::kEuclidean);
  EXPECT_EQ(host.node_count(), 2);
  EXPECT_DOUBLE_EQ(host.weight(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(host.host_distance(0, 1), 5.0);
}

TEST(InstanceIo, CrlfFilesLoadLikeLf) {
  // Every record passes through one line reader, so a CRLF copy of each
  // version-2 payload kind loads exactly like its LF original.
  Rng rng(5);
  for (const HostGraph& host :
       {random_metric_host(4, rng),
        HostGraph::from_points(uniform_points(4, 2, 10.0, rng), 2.0),
        HostGraph::from_tree(random_tree(4, rng))}) {
    std::ostringstream lf;
    save_host(lf, host);
    std::string crlf;
    for (const char c : lf.str()) crlf += c == '\n' ? std::string("\r\n")
                                                    : std::string(1, c);
    SCOPED_TRACE(crlf);
    std::istringstream lf_in(lf.str()), crlf_in(crlf);
    const auto expected = load_host(lf_in);
    std::optional<HostGraph> loaded;
    EXPECT_NO_THROW(loaded.emplace(load_host(crlf_in)));
    if (!loaded.has_value()) continue;
    EXPECT_EQ(loaded->backend_kind(), expected.backend_kind());
    EXPECT_EQ(loaded->declared_model(), expected.declared_model());
    ASSERT_EQ(loaded->node_count(), expected.node_count());
    for (int u = 0; u < 4; ++u)
      for (int v = 0; v < 4; ++v)
        EXPECT_EQ(loaded->weight(u, v), expected.weight(u, v));
  }
}

TEST(InstanceIo, RejectsUnknownBackendAndModel) {
  {
    std::stringstream buffer("gncg-host 2\nbackend warp\nmodel GNCG\nn 1\n");
    EXPECT_THROW(load_host(buffer), ContractViolation);
  }
  {
    std::stringstream buffer("gncg-host 2\nbackend dense\nmodel X\nn 1\n");
    EXPECT_THROW(load_host(buffer), ContractViolation);
  }
  {
    std::stringstream buffer("gncg-host 3\nn 1\n");
    EXPECT_THROW(load_host(buffer), ContractViolation);
  }
  {
    // Geometric backends pin their model class; a contradicting file is
    // rejected instead of silently rewritten.
    std::stringstream buffer(
        "gncg-host 2\nbackend euclidean\nmodel M-GNCG\n"
        "p 2\ndim 1\nn 1\npoint 0 0\n");
    EXPECT_THROW(load_host(buffer), ContractViolation);
  }
  {
    // Non-finite coordinates would silently poison every weight (the dense
    // path rejects NaN entries via from_weights validation).
    std::stringstream buffer(
        "gncg-host 2\nbackend euclidean\nmodel Rd-GNCG\n"
        "p 2\ndim 1\nn 2\npoint 0 0\npoint 1 nan\n");
    EXPECT_THROW(load_host(buffer), ContractViolation);
  }
}

TEST(InstanceIo, RejectsMalformedInput) {
  {
    std::stringstream buffer("not-a-host\n");
    EXPECT_THROW(load_host(buffer), ContractViolation);
  }
  {
    std::stringstream buffer("gncg-host 1\nn 3\nw 0 1 1\n");  // missing pairs
    EXPECT_THROW(load_host(buffer), ContractViolation);
  }
  {
    std::stringstream buffer("gncg-host 1\nn 2\nw 0 1 1\nw 1 0 2\n");  // dup
    EXPECT_THROW(load_host(buffer), ContractViolation);
  }
  {
    std::stringstream buffer("gncg-profile 1\nn 2\nbuy 0 0\n");  // self loop
    EXPECT_THROW(load_profile(buffer), ContractViolation);
  }
  // Number tokens parse whole: a malformed, partial or out-of-range token
  // is a contract failure, never a std:: exception or a silently loaded
  // prefix.
  for (const char* host : {
           "gncg-host 1\nn 99999999999\n",              // out-of-range count
           "gncg-host 1\nn 2\nw 0 1 abc\n",             // malformed weight
           "gncg-host 1\nn 2\nw 0 1 2.5junk\n",         // partial weight
           "gncg-host 1\nn 2x\nw 0 1 1\n",              // partial count
           "gncg-host 1\nn 2\nw 0 1x 2\n",              // partial index
           "gncg-host 1x\nn 2\nw 0 1 2\n",              // partial version
           "gncg-host 2\nbackend euclidean\nmodel Rd-GNCG\np 2\n"
           "dim 1d\nn 2\npoint 0 0\npoint 1 1\n",       // partial dim
           "gncg-host 2\nbackend euclidean\nmodel Rd-GNCG\np 2\n"
           "dim 1\nn 2\npoint 0 0\npoint 1 1e999\n",    // out-of-range coord
           "gncg-host 2\nbackend tree\nmodel T-GNCG\n"
           "n 2\ntedge 0 1 1..5\n",                     // malformed tree weight
           "gncg-host 2\nbackend dense\nmodel GNCG\n"
           "x-point 12q\nn 2\nw 0 1 1\n",               // partial provenance
           // A record carries exactly its fields: a trailing token is
           // rejected, never dropped.
           "gncg-host 1 junk\nn 2\nw 0 1 1\n",          // header
           "gncg-host 1\nn 2 junk\nw 0 1 1\n",          // node count
           "gncg-host 1\nn 2\nw 0 1 1 junk\n",          // weight line
           "gncg-host 2\nbackend tree\nmodel T-GNCG\n"
           "n 2\ntedge 0 1 1 junk\n",                    // tree edge
           "gncg-host 2\nbackend euclidean\nmodel Rd-GNCG\np 2 junk\n"
           "dim 1\nn 2\npoint 0 0\npoint 1 1\n",       // norm
           "gncg-host 2\nbackend euclidean\nmodel Rd-GNCG\np 2\n"
           "dim 1 junk\nn 2\npoint 0 0\npoint 1 1\n",  // dimension
           "gncg-host 2\nbackend euclidean\nmodel Rd-GNCG\np 2\n"
           "dim 1\nn 2\npoint 0 0\npoint 1 1 junk\n",  // point
           "gncg-host 2\nbackend dense\nmodel GNCG\n"
           "x-point 12 junk\nn 2\nw 0 1 1\n",           // provenance
       }) {
    SCOPED_TRACE(host);
    std::stringstream buffer(host);
    HostProvenance provenance;
    EXPECT_THROW(load_host(buffer, &provenance), ContractViolation);
  }
  for (const char* profile : {
           "gncg-profile 1\nn abc\n",                   // malformed count
           "gncg-profile 1\nn 2\nbuy 0 1x\n",           // partial target
           "gncg-profile 1 junk\nn 2\nbuy 0 1\n",       // header token
           "gncg-profile 1\nn 2\nbuy 0 1 junk\n",       // buy token
       }) {
    SCOPED_TRACE(profile);
    std::stringstream buffer(profile);
    EXPECT_THROW(load_profile(buffer), ContractViolation);
  }
}

}  // namespace
}  // namespace gncg
